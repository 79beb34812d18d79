#include <algorithm>

#include "lsm/db_impl.h"
#include "lsm/file_names.h"
#include "lsm/log_reader.h"
#include "lsm/sst_builder.h"
#include "util/clock.h"
#include "util/trace.h"

namespace shield {

namespace {

// Manifest reads one catch-up makes before it reports TryAgain, when
// each read names a file the writer has deleted since.
constexpr int kMaxReplicaViewAttempts = 8;

}  // namespace

// Replays one WAL into memtable(s), flushing overflow to level-0 SSTs.
// A replica keeps every record in replica_mem.
Status DBImpl::RecoverLogFile(uint64_t log_number, MemTable* replica_mem,
                              SequenceNumber* max_sequence,
                              VersionEdit* edit) {
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t /*bytes*/, const Status& s) override {
      // Recovery tolerates a torn tail: record the first error but
      // keep consuming (the reader resynchronizes).
      if (status != nullptr && status->ok()) {
        *status = s;
      }
    }
  };

  const std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<SequentialFile> file;
  Status status = files_->NewSequentialFile(fname, &file);
  if (!status.ok()) {
    return status;
  }

  LogReporter reporter;
  Status replay_corruption;
  reporter.status = &replay_corruption;
  log::Reader reader(file.get(), &reporter, /*checksum=*/true);

  Slice record;
  std::string scratch;
  MemTable* mem = replica_mem;
  while (reader.ReadRecord(&record, &scratch) && status.ok()) {
    if (record.size() < 12) {
      continue;  // malformed fragment already reported
    }
    WriteBatch batch;
    batch.SetContents(record);
    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_, options_.memtable_shards);
      mem->Ref();
    }
    status = batch.InsertInto(mem);
    if (!status.ok()) {
      break;
    }
    const SequenceNumber last_seq =
        batch.Sequence() + batch.Count() - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (replica_mem == nullptr &&
        mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      uint64_t pending_output = 0;
      status = WriteLevel0Table(mem, edit, &pending_output);
      // Single-threaded recovery: no concurrent GC, safe to unpin now.
      pending_outputs_.erase(pending_output);
      mem->Unref();
      mem = nullptr;
      if (!status.ok()) {
        break;
      }
    }
  }

  if (replica_mem != nullptr) {
    // The writer may be mid-append, so a damaged tail is expected. A
    // read error is not: the rest of the log was never seen.
    if (status.ok() && !replay_corruption.ok() &&
        !replay_corruption.IsCorruption()) {
      return replay_corruption;
    }
    return status;
  }
  if (status.ok() && mem != nullptr && mem->NumEntries() > 0) {
    uint64_t pending_output = 0;
    status = WriteLevel0Table(mem, edit, &pending_output);
    pending_outputs_.erase(pending_output);
  }
  if (mem != nullptr) {
    mem->Unref();
  }
  if (status.ok() && options_.paranoid_checks && !replay_corruption.ok()) {
    // Default recovery treats in-log damage as a torn tail: the reader
    // already salvaged every record it could resynchronize to. Paranoid
    // mode surfaces the first error instead.
    return replay_corruption;
  }
  return status;
}

// Builds a level-0 SST from the contents of `mem` and records it in
// *edit. Under SHIELD the new file gets a fresh DEK automatically via
// the file factory. Called with mutex_ held (or during single-threaded
// recovery); the mutex is released for the duration of the build so
// foreground writes keep flowing — `mem` is immutable and referenced
// by the caller.
Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                                uint64_t* pending_output) {
  *pending_output = 0;
  const uint64_t start_micros = NowMicros();
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  pending_outputs_.insert(meta.number);

  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan flush_span(SpanType::kFlushJob);
  flush_span.SetArgs(meta.number, mem->NumEntries());
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("flush_begin");
    w.Add("file_number", meta.number);
    w.Add("mem_entries", static_cast<uint64_t>(mem->NumEntries()));
    w.Add("mem_bytes",
          static_cast<uint64_t>(mem->ApproximateMemoryUsage()));
    event_logger_->Emit(&w);
  }

  mutex_.unlock();

  std::unique_ptr<Iterator> iter(mem->NewIterator());

  const std::string fname = TableFileName(dbname_, meta.number);
  std::unique_ptr<WritableFile> file;
  Status s = files_->NewWritableFile(fname, FileKind::kSst, &file);
  if (!s.ok()) {
    mutex_.lock();
    pending_outputs_.erase(meta.number);
    return s;
  }

  {
    TableBuilder builder(options_, &internal_comparator_, file.get());
    iter->SeekToFirst();
    if (iter->Valid()) {
      meta.smallest.DecodeFrom(iter->key());
      Slice key;
      for (; iter->Valid(); iter->Next()) {
        key = iter->key();
        meta.largest_seq = std::max(meta.largest_seq, ExtractSequence(key));
        builder.Add(key, iter->value());
      }
      meta.largest.DecodeFrom(key);
      s = builder.Finish();
      meta.file_size = builder.FileSize();
    } else {
      builder.Abandon();
    }
  }
  if (s.ok()) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  file.reset();

  mutex_.lock();
  if (s.ok() && meta.file_size > 0) {
    // Keep meta.number in pending_outputs_ until the caller has
    // installed the edit (see header comment).
    *pending_output = meta.number;
    edit->AddFile(0, meta.number, meta.file_size, meta.smallest,
                  meta.largest, meta.largest_seq);
  } else {
    pending_outputs_.erase(meta.number);
    files_->DeleteFile(fname);
  }

  CompactionStats stats;
  stats.micros = static_cast<int64_t>(NowMicros() - start_micros);
  stats.bytes_written = static_cast<int64_t>(meta.file_size);
  stats.count = 1;
  stats_[0].Add(stats);
  flush_span.MarkStatus(s);
  if (event_logger_ != nullptr) {
    JsonWriter w = event_logger_->NewEvent("flush_end");
    w.Add("file_number", meta.number);
    w.Add("file_size", meta.file_size);
    w.Add("micros", static_cast<uint64_t>(stats.micros));
    w.Add("ok", s.ok());
    if (!s.ok()) {
      w.Add("error", s.ToString());
    }
    event_logger_->Emit(&w);
  }
  if (s.ok() && meta.file_size > 0) {
    RecordTick(options_.statistics.get(), Tickers::kLsmFlushBytesWritten,
               meta.file_size);
    MeasureTime(options_.statistics.get(), Histograms::kFlushMicros,
                static_cast<uint64_t>(stats.micros));
    FlushJobInfo info;
    info.file_number = meta.number;
    info.file_size = meta.file_size;
    info.micros = static_cast<uint64_t>(stats.micros);
    for (const auto& listener : options_.listeners) {
      listener->OnFlushCompleted(info);
    }
  }
  return s;
}

Status DBImpl::TryBuildReplicaView(ReplicaView* view, bool* stale) {
  *stale = false;
  view->versions = std::make_unique<VersionSet>(
      dbname_, options_, &internal_comparator_, table_cache_.get(),
      files_.get());
  Status s = view->versions->Recover();
  if (!s.ok()) {
    return s;
  }
  const uint64_t min_log = view->versions->LogNumber();

  // Open every table now: an open reader keeps its file readable after
  // the writer's compactions delete it.
  std::vector<Version::LiveFileInfo> files;
  view->versions->current()->GetAllFiles(&files);
  for (const Version::LiveFileInfo& f : files) {
    Cache::Handle* handle = nullptr;
    s = table_cache_->FindTable(f.number, f.file_size, &handle);
    if (!s.ok()) {
      *stale = s.IsNotFound();
      return s;
    }
    view->pins.push_back(handle);
  }

  std::vector<std::string> filenames;
  s = options_.env->GetChildren(dbname_, &filenames);
  if (!s.ok()) {
    return s;
  }
  std::vector<uint64_t> logs;
  uint64_t number;
  DbFileType type;
  for (const std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type) &&
        type == DbFileType::kLogFile && number >= min_log) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());
  if (logs.empty() || logs.front() != min_log) {
    // The WAL the manifest names is gone. If the writer flushed it and
    // published a newer manifest, replaying the rest would expose later
    // writes without earlier ones. Otherwise the directory never held
    // it (a restored backup may carry no WAL) and the view is whole.
    VersionSet latest(dbname_, options_, &internal_comparator_,
                      table_cache_.get(), files_.get());
    s = latest.Recover();
    if (!s.ok()) {
      return s;
    }
    if (latest.LogNumber() != min_log) {
      *stale = true;
      return Status::TryAgain("WAL flushed during catch-up",
                              LogFileName(dbname_, min_log));
    }
  }

  view->mem = new MemTable(internal_comparator_, options_.memtable_shards);
  view->mem->Ref();
  SequenceNumber max_sequence = 0;
  for (uint64_t log_number : logs) {
    VersionEdit unused_edit;
    s = RecoverLogFile(log_number, view->mem, &max_sequence, &unused_edit);
    if (s.IsCorruption() && !options_.paranoid_checks) {
      continue;  // torn below its header, as Recover salvages it
    }
    if (!s.ok()) {
      // A listed WAL that vanished was flushed into a newer manifest.
      *stale = s.IsNotFound();
      return s;
    }
  }
  if (view->versions->LastSequence() < max_sequence) {
    view->versions->SetLastSequence(max_sequence);
  }
  return Status::OK();
}

Status DBImpl::BuildReplicaView(ReplicaView* view) {
  Status s;
  for (int attempt = 0; attempt < kMaxReplicaViewAttempts; attempt++) {
    bool stale = false;
    s = TryBuildReplicaView(view, &stale);
    if (s.ok()) {
      return s;
    }
    ReleaseReplicaView(view);
    if (!stale) {
      return s;
    }
  }
  return Status::TryAgain("manifest kept moving during catch-up",
                          s.ToString());
}

void DBImpl::InstallReplicaView(ReplicaView* view) {
  std::swap(versions_, view->versions);
  std::swap(mem_, view->mem);
  std::swap(view_pins_, view->pins);
  // Readers hold their own references on the old memtable, but only on
  // a version of the old set: keep the set (and its pins) until the
  // last of them finishes.
  if (view->mem != nullptr) {
    view->mem->Unref();
    view->mem = nullptr;
  }
  if (view->versions != nullptr) {
    retired_views_.push_back(std::move(*view));
  }
  *view = ReplicaView();
  auto idle = std::partition(
      retired_views_.begin(), retired_views_.end(),
      [](const ReplicaView& v) { return v.versions->HasReaders(); });
  for (auto it = idle; it != retired_views_.end(); ++it) {
    ReleaseReplicaView(&*it);
  }
  retired_views_.erase(idle, retired_views_.end());
}

void DBImpl::ReleaseReplicaView(ReplicaView* view) {
  for (Cache::Handle* handle : view->pins) {
    table_cache_->Release(handle);
  }
  view->pins.clear();
  if (view->mem != nullptr) {
    view->mem->Unref();
    view->mem = nullptr;
  }
  view->versions.reset();
}

Status DBImpl::TryCatchUp() {
  if (!read_only_) {
    return Status::OK();
  }

  // Catch-up work records into this replica's tracer (per-node trace
  // files in the simulated cluster); the manifest/WAL reads it issues
  // nest under this span.
  ScopedTracerBinding trace_binding(&tracer_);
  TraceSpan span(SpanType::kRecovery, Slice("catchup"));

  // The new view is built aside, without mutex_: readers keep serving
  // the current view, which stays whole if the build fails.
  std::lock_guard<std::mutex> catchup_lock(catchup_mutex_);
  ReplicaView view;
  Status s = BuildReplicaView(&view);
  if (!s.ok()) {
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    InstallReplicaView(&view);
  }
  // This replica now reflects the primary's published state: reset
  // the catch-up lag baseline the health plane measures against.
  RecordCatchupApplied();
  return s;
}

}  // namespace shield
