#include "wrappers.h"

#include "spans.h"

namespace perfbench {

using shield::Slice;
using shield::Status;

namespace {

bool IsTable(const std::string& fname) {
  return fname.size() >= 4 && fname.compare(fname.size() - 4, 4, ".sst") == 0;
}

class TimedSequentialFile final : public shield::SequentialFile {
 public:
  explicit TimedSequentialFile(std::unique_ptr<shield::SequentialFile> base)
      : base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Span span(SpanKind::kEnvRead);
    Status s = base_->Read(n, result, scratch);
    span.AddBytes(result->size());
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }
  const shield::crypto::BlockAuthenticator* block_authenticator()
      const override {
    return base_->block_authenticator();
  }

 private:
  std::unique_ptr<shield::SequentialFile> base_;
};

class TimedRandomAccessFile final : public shield::RandomAccessFile {
 public:
  explicit TimedRandomAccessFile(
      std::unique_ptr<shield::RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Span span(SpanKind::kEnvRead);
    Status s = base_->Read(offset, n, result, scratch);
    span.AddBytes(result->size());
    return s;
  }
  Status Size(uint64_t* size) const override { return base_->Size(size); }
  const shield::crypto::BlockAuthenticator* block_authenticator()
      const override {
    return base_->block_authenticator();
  }

 private:
  std::unique_ptr<shield::RandomAccessFile> base_;
};

class TimedWritableFile final : public shield::WritableFile {
 public:
  explicit TimedWritableFile(std::unique_ptr<shield::WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    Span span(SpanKind::kEnvAppend);
    span.AddBytes(data.size());
    return base_->Append(data);
  }
  Status Flush() override {
    Span span(SpanKind::kEnvMeta);
    return base_->Flush();
  }
  Status Sync() override {
    Span span(SpanKind::kEnvSync);
    return base_->Sync();
  }
  Status Close() override {
    Span span(SpanKind::kEnvMeta);
    return base_->Close();
  }
  uint64_t GetFileSize() const override { return base_->GetFileSize(); }
  const shield::crypto::BlockAuthenticator* block_authenticator()
      const override {
    return base_->block_authenticator();
  }

 private:
  std::unique_ptr<shield::WritableFile> base_;
};

}  // namespace

Status TimedEnv::NewSequentialFile(
    const std::string& f, std::unique_ptr<shield::SequentialFile>* r) {
  Span span(SpanKind::kEnvOpenOther);
  std::unique_ptr<shield::SequentialFile> base;
  Status s = target()->NewSequentialFile(f, &base);
  if (s.ok()) *r = std::make_unique<TimedSequentialFile>(std::move(base));
  return s;
}

Status TimedEnv::NewRandomAccessFile(
    const std::string& f, std::unique_ptr<shield::RandomAccessFile>* r) {
  Span span(IsTable(f) ? SpanKind::kEnvOpenTable : SpanKind::kEnvOpenOther);
  std::unique_ptr<shield::RandomAccessFile> base;
  Status s = target()->NewRandomAccessFile(f, &base);
  if (s.ok()) *r = std::make_unique<TimedRandomAccessFile>(std::move(base));
  return s;
}

Status TimedEnv::NewWritableFile(const std::string& f,
                                 std::unique_ptr<shield::WritableFile>* r) {
  Span span(SpanKind::kEnvOpenOther);
  std::unique_ptr<shield::WritableFile> base;
  Status s = target()->NewWritableFile(f, &base);
  if (s.ok()) *r = std::make_unique<TimedWritableFile>(std::move(base));
  return s;
}

bool TimedEnv::FileExists(const std::string& f) {
  Span span(SpanKind::kEnvMeta);
  return target()->FileExists(f);
}

Status TimedEnv::GetChildren(const std::string& dir,
                             std::vector<std::string>* r) {
  Span span(SpanKind::kEnvMeta);
  return target()->GetChildren(dir, r);
}

Status TimedEnv::RemoveFile(const std::string& f) {
  Span span(SpanKind::kEnvMeta);
  return target()->RemoveFile(f);
}

Status TimedEnv::CreateDirIfMissing(const std::string& d) {
  Span span(SpanKind::kEnvMeta);
  return target()->CreateDirIfMissing(d);
}

Status TimedEnv::RemoveDir(const std::string& d) {
  Span span(SpanKind::kEnvMeta);
  return target()->RemoveDir(d);
}

Status TimedEnv::GetFileSize(const std::string& f, uint64_t* size) {
  Span span(SpanKind::kEnvMeta);
  return target()->GetFileSize(f, size);
}

Status TimedEnv::RenameFile(const std::string& s, const std::string& t) {
  Span span(SpanKind::kEnvMeta);
  return target()->RenameFile(s, t);
}

Status TimedKds::CreateDek(const std::string& server_id,
                           shield::crypto::CipherKind kind,
                           shield::Dek* out) {
  Span span(SpanKind::kKdsCreate);
  return target_->CreateDek(server_id, kind, out);
}

Status TimedKds::GetDek(const std::string& server_id,
                        const shield::DekId& id, shield::Dek* out) {
  Span span(SpanKind::kKdsGet);
  return target_->GetDek(server_id, id, out);
}

Status TimedKds::DeleteDek(const std::string& server_id,
                           const shield::DekId& id) {
  Span span(SpanKind::kKdsOther);
  return target_->DeleteDek(server_id, id);
}

Status TimedKds::RewrapDek(const std::string& server_id,
                           const shield::DekId& id,
                           const std::string& target_server_id,
                           shield::Dek* out) {
  Span span(SpanKind::kKdsOther);
  return target_->RewrapDek(server_id, id, target_server_id, out);
}

Status TimedCompactionService::RunCompaction(
    const shield::CompactionJobSpec& job,
    shield::CompactionJobResult* result) {
  Span span(SpanKind::kOffload);
  return target_->RunCompaction(job, result);
}

}  // namespace perfbench
