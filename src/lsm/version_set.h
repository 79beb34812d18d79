#ifndef SHIELD_LSM_VERSION_SET_H_
#define SHIELD_LSM_VERSION_SET_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "lsm/log_writer.h"
#include "lsm/options.h"
#include "lsm/table_cache.h"
#include "lsm/version_edit.h"

namespace shield {

class Compaction;
class VersionSet;

/// Hard upper bound on options.num_levels.
constexpr int kMaxNumLevels = 8;

/// One key of a batched lookup against a Version (DB::MultiGet).
/// `key` and `value` are borrowed; `status`/`done` carry the outcome:
/// done=false after the call means no level contained the user key
/// (i.e. NotFound). Requests passed to Version::MultiGet must be
/// sorted by internal key.
struct VersionGetRequest {
  const LookupKey* key = nullptr;
  std::string* value = nullptr;
  Status status;
  bool done = false;
};

/// An immutable snapshot of the LSM shape: the set of SST files at each
/// level. Reference counted; readers pin the version they started on.
class Version {
 public:
  /// Lookup user_key (keyed by `key`'s sequence). Fills *value.
  Status Get(const ReadOptions& options, const LookupKey& key,
             std::string* value);

  /// Batched Get over sorted requests. Probes the same files in the
  /// same order as per-key Get would (L0 newest-to-oldest, then each
  /// deeper level), but offers every still-unresolved key to a file
  /// in one Table::MultiGet batch so block fetches coalesce. Results
  /// are identical to calling Get per key.
  void MultiGet(const ReadOptions& options,
                const std::vector<VersionGetRequest*>& requests);

  /// Appends iterators that together yield the version's full contents.
  void AddIterators(const ReadOptions& options,
                    std::vector<Iterator*>* iters);

  void Ref();
  void Unref();

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }

  /// A live SST reference, as reported by GetAllFiles.
  struct LiveFileInfo {
    int level;
    uint64_t number;
    uint64_t file_size;  // logical bytes
  };

  /// Appends every SST referenced by this version (all levels, L0
  /// newest-last order preserved). Used by the integrity scrubber to
  /// snapshot the file set while holding a reference on the version.
  void GetAllFiles(std::vector<LiveFileInfo>* files) const;

  /// True when this version references `number` at `level`.
  bool ContainsFile(int level, uint64_t number) const;

  /// Fills *inputs with all files in `level` overlapping
  /// [begin, end] (nullptr means unbounded).
  void GetOverlappingInputs(int level, const InternalKey* begin,
                            const InternalKey* end,
                            std::vector<FileMetaData*>* inputs);

  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  std::string DebugString() const;

 private:
  friend class VersionSet;
  friend class Compaction;

  explicit Version(VersionSet* vset)
      : vset_(vset), next_(this), prev_(this) {}
  ~Version();

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  Iterator* NewConcatenatingIterator(const ReadOptions& options,
                                     int level) const;

  VersionSet* vset_;
  Version* next_;
  Version* prev_;
  int refs_ = 0;

  // Files per level, sorted by smallest key for levels > 0; level 0 is
  // sorted by file number (newest last).
  std::vector<FileMetaData*> files_[kMaxNumLevels];

  // Level that should be compacted next and its score (>= 1 means
  // compaction needed). Computed by VersionSet::Finalize.
  double compaction_score_ = -1;
  int compaction_level_ = -1;
};

/// The mutable state: current version, file numbering, sequence
/// numbers, and the manifest log. All mutations happen under the DB
/// mutex.
class VersionSet {
 public:
  VersionSet(std::string dbname, const Options& options,
             const InternalKeyComparator* icmp, TableCache* table_cache,
             DataFileFactory* files);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  /// Applies *edit to the current version, persists it to the manifest
  /// and installs the result as the new current version. `mu` is the
  /// DB mutex, released during manifest I/O.
  Status LogAndApply(VersionEdit* edit, std::mutex* mu);

  /// Recovers the last saved state from the manifest named by CURRENT.
  Status Recover();

  Version* current() const { return current_; }

  /// True while a reader holds a version of this set, beyond the set's
  /// own reference on current(). The set must outlive such readers.
  bool HasReaders() const {
    return current_->refs_ > 1 || dummy_versions_.next_ != current_;
  }

  uint64_t NewFileNumber() { return next_file_number_++; }
  void MarkFileNumberUsed(uint64_t number) {
    if (next_file_number_ <= number) {
      next_file_number_ = number + 1;
    }
  }
  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  /// Blocks new manifest appends (and waits out any in-flight one).
  /// While paused, the descriptor log on disk is frozen at a record
  /// boundary that exactly matches current() — the consistency point
  /// backups copy. Call with *mu held; pair with
  /// ResumeManifestAppends() (also under *mu). Flushes and compactions
  /// that reach LogAndApply meanwhile simply wait.
  void PauseManifestAppends(std::mutex* mu) {
    std::unique_lock<std::mutex> lock(*mu, std::adopt_lock);
    manifest_cv_.wait(lock, [this] { return !writing_manifest_; });
    lock.release();
    writing_manifest_ = true;
  }
  void ResumeManifestAppends() {
    writing_manifest_ = false;
    manifest_cv_.notify_all();
  }

  SequenceNumber LastSequence() const { return last_sequence_; }
  void SetLastSequence(SequenceNumber s) {
    assert(s >= last_sequence_);
    last_sequence_ = s;
  }

  uint64_t LogNumber() const { return log_number_; }

  int NumLevelFiles(int level) const;
  int64_t NumLevelBytes(int level) const;

  /// Adds the numbers of all SST files referenced by any live version.
  void AddLiveFiles(std::set<uint64_t>* live);

  /// True if a background compaction is warranted.
  bool NeedsCompaction() const;

  /// Picks the next compaction per the configured style; nullptr when
  /// nothing to do. Caller owns the result.
  Compaction* PickCompaction();

  /// Manual compaction of [begin, end] at `level`.
  Compaction* CompactRange(int level, const InternalKey* begin,
                           const InternalKey* end);

  /// A merged iterator over all compaction inputs. Caller deletes.
  Iterator* MakeInputIterator(Compaction* c);

  const InternalKeyComparator* icmp() const { return icmp_; }
  const Options& options() const { return options_; }
  TableCache* table_cache() const { return table_cache_; }
  int num_levels() const { return num_levels_; }

  /// Max bytes configured for `level` under leveled compaction.
  double MaxBytesForLevel(int level) const;

 private:
  class Builder;
  friend class Compaction;
  friend class Version;

  void Finalize(Version* v);
  void AppendVersion(Version* v);
  Status WriteSnapshot(log::Writer* log);

  // Leveled-style helpers.
  void SetupOtherInputs(Compaction* c);
  void GetRange(const std::vector<FileMetaData*>& inputs,
                InternalKey* smallest, InternalKey* largest);
  void GetRange2(const std::vector<FileMetaData*>& inputs1,
                 const std::vector<FileMetaData*>& inputs2,
                 InternalKey* smallest, InternalKey* largest);

  Compaction* PickLeveledCompaction();
  Compaction* PickUniversalCompaction();
  Compaction* PickFifoCompaction();
  bool SomeOverlap(int level, const Slice& smallest_user_key,
                   const Slice& largest_user_key);

  const std::string dbname_;
  const Options options_;
  const InternalKeyComparator* icmp_;
  TableCache* table_cache_;
  DataFileFactory* files_;
  const int num_levels_;

  uint64_t next_file_number_ = 2;
  uint64_t manifest_file_number_ = 0;
  uint64_t log_number_ = 0;
  SequenceNumber last_sequence_ = 0;

  std::unique_ptr<WritableFile> descriptor_file_;
  std::unique_ptr<log::Writer> descriptor_log_;

  // LogAndApply releases the DB mutex during manifest I/O; flush and
  // compaction jobs may both land here, so manifest writers are
  // serialized explicitly.
  bool writing_manifest_ = false;
  std::condition_variable manifest_cv_;

  Version dummy_versions_;  // head of circular list of live versions
  Version* current_ = nullptr;

  // Per-level key at which the next leveled compaction should start.
  std::string compact_pointer_[kMaxNumLevels];
};

/// A picked compaction job: inputs at `level` (and `level+1` for
/// leveled), plus the edit under construction.
class Compaction {
 public:
  ~Compaction();

  int level() const { return level_; }
  int output_level() const { return output_level_; }
  VersionEdit* edit() { return &edit_; }

  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }
  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  /// A move-only compaction: the input can be trivially re-linked to
  /// the next level without merging.
  bool IsTrivialMove() const;

  /// FIFO: inputs are simply deleted, nothing is rewritten.
  bool is_deletion_only() const { return deletion_only_; }

  /// True when the compaction output lands in the bottommost data:
  /// deletion tombstones can be dropped.
  bool bottommost() const { return bottommost_; }

  /// Adds all inputs of this compaction as deletions to *edit.
  void AddInputDeletions(VersionEdit* edit);

  /// True iff `user_key` cannot exist in levels below the output
  /// level (used to drop tombstones early).
  bool IsBaseLevelForKey(const Slice& user_key);

  void ReleaseInputs();

 private:
  friend class VersionSet;

  Compaction(const Options& options, int level, int output_level);

  int level_;
  int output_level_;
  uint64_t max_output_file_size_;
  Version* input_version_ = nullptr;
  VersionEdit edit_;
  bool deletion_only_ = false;
  bool bottommost_ = false;

  std::vector<FileMetaData*> inputs_[2];

  // State for IsBaseLevelForKey: files in levels beyond output_level.
  size_t level_ptrs_[kMaxNumLevels] = {};
};

}  // namespace shield

#endif  // SHIELD_LSM_VERSION_SET_H_
