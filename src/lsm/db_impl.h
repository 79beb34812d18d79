#ifndef SHIELD_LSM_DB_IMPL_H_
#define SHIELD_LSM_DB_IMPL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/io_stats.h"
#include "lsm/compaction_service.h"
#include "lsm/db.h"
#include "lsm/error_handler.h"
#include "lsm/log_writer.h"
#include "lsm/memtable.h"
#include "lsm/rotation_manifest.h"
#include "lsm/snapshot.h"
#include "lsm/version_set.h"
#include "shield/dek_manager.h"
#include "shield/file_crypto.h"
#include "util/event_logger.h"
#include "util/health.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace shield {

class DBImpl final : public DB {
 public:
  DBImpl(const Options& raw_options, const std::string& dbname,
         bool read_only);
  ~DBImpl() override;

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  // DB interface.
  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  std::vector<Status> MultiGet(const ReadOptions& options,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status Flush() override;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  Status TryCatchUp() override;
  void WaitForIdle() override;
  Status VerifyIntegrity() override;
  Status Resume() override;
  Status StartTrace(const TraceOptions& trace_options,
                    const std::string& trace_path) override;
  Status EndTrace() override;
  Status EvaluateHealth(std::vector<HealthTransition>* transitions) override;
  Status RotateDeks(const RotateOptions& options,
                    RotateResult* result) override;
  Status CreateBackup(const std::string& backup_dir,
                      const BackupOptions& options) override;
  Status IngestExternalFile(const std::string& file_path,
                            const IngestOptions& options,
                            IngestResult* result) override;
  Status DumpRange(const std::string& dump_dir, const Slice* begin,
                   const Slice* end, const DumpOptions& options) override;

  /// Startup: recover manifest + WALs. Called by DB::Open.
  Status Recover();

  DekManager* dek_manager() { return dek_manager_.get(); }

 private:
  friend class DB;

  struct CompactionState;
  struct LogWriterBatch;

  // A queued writer (group commit).
  struct Writer {
    Writer() = default;
    Status status;
    WriteBatch* batch = nullptr;
    bool sync = false;
    bool done = false;
    std::condition_variable cv;
  };

  struct CompactionStats {
    int64_t micros = 0;
    int64_t bytes_read = 0;
    int64_t bytes_written = 0;
    int64_t count = 0;

    void Add(const CompactionStats& c) {
      micros += c.micros;
      bytes_read += c.bytes_read;
      bytes_written += c.bytes_written;
      count += c.count;
    }
  };

  // Setup helpers (db_impl.cc).
  Status SetupEncryption();
  Status NewDb();
  void RemoveObsoleteFiles();  // mutex_ held
  /// Creates the info LOG (unless Options supplied one) and emits the
  /// db_open event with sanitized options + build info.
  void SetupInfoLog();

  // Write path (db_write.cc).
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock, bool force);
  WriteBatch* BuildBatchGroup(Writer** last_writer);
  Status SwitchMemTable(std::unique_lock<std::mutex>& lock);
  /// Applies a verified batch group to mem_, one thread per memtable
  /// shard for large groups (the shard partitions are disjoint, so
  /// each shard keeps a single inserting thread). REQUIRES: mutex_
  /// NOT held; calling thread is the group-commit leader.
  Status ApplyGroupToMemTable(WriteBatch* write_batch);

  // Read path (db_read.cc).
  Iterator* NewInternalIterator(const ReadOptions& options,
                                SequenceNumber* latest_snapshot);

  // Recovery (db_recovery.cc).
  /// Replays one WAL. The writer flushes overflow to level-0 SSTs
  /// recorded in *edit; a read-only instance passes `replica_mem` and
  /// every record stays there.
  Status RecoverLogFile(uint64_t log_number, MemTable* replica_mem,
                        SequenceNumber* max_sequence, VersionEdit* edit);
  /// On success with a non-empty output, *pending_output is the new
  /// file's number, still registered in pending_outputs_: the caller
  /// must erase it only AFTER the edit has been installed, or a
  /// concurrent RemoveObsoleteFiles from another background job could
  /// delete the not-yet-referenced file.
  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                          uint64_t* pending_output);

  // Read-only instances (db_recovery.cc).
  /// What a read-only instance serves: the version its manifest read
  /// produced, the memtable its WAL replay filled, and one table-cache
  /// pin per SST of the version. The pins keep the view readable after
  /// the writer deletes its files.
  struct ReplicaView {
    std::unique_ptr<VersionSet> versions;
    MemTable* mem = nullptr;
    std::vector<Cache::Handle*> pins;
  };
  /// Builds a complete view from the published manifest and WALs,
  /// re-reading the manifest while it moves underneath (up to a fixed
  /// number of attempts, then TryAgain). On failure *view is empty.
  Status BuildReplicaView(ReplicaView* view);
  /// One attempt; on failure the caller releases *view. Sets *stale
  /// when the failure proves that a newer manifest exists (a file the
  /// manifest named is gone).
  Status TryBuildReplicaView(ReplicaView* view, bool* stale);
  /// Swaps *view in as the served view. The previous one is retired
  /// until no reader holds its version. REQUIRES: mutex_ held.
  void InstallReplicaView(ReplicaView* view);
  /// Unpins and frees a view that no reader can reach.
  void ReleaseReplicaView(ReplicaView* view);

  // Background work (db_compaction.cc). The jobs report failures to
  // error_handler_ with a BackgroundErrorReason attributing the failed
  // layer; `*reason` out-params refine the default attribution (e.g. a
  // flush whose manifest install failed reports kManifestWrite).
  void MaybeScheduleFlush();    // mutex_ held
  void MaybeScheduleCompaction();  // mutex_ held
  void BackgroundFlush();
  void BackgroundCompaction();
  Status CompactMemTable(BackgroundErrorReason* reason);  // mutex_ held
  Status DoCompactionWork(CompactionState* compact,
                          BackgroundErrorReason* reason);
  Status DoOffloadedCompaction(Compaction* c, VersionEdit* edit,
                               CompactionStats* stats);
  Status OpenCompactionOutputFile(CompactionState* compact);
  Status FinishCompactionOutputFile(CompactionState* compact,
                                    Iterator* input);
  Status InstallCompactionResults(CompactionState* compact);
  Status RunManualCompaction(int level, const InternalKey* begin,
                             const InternalKey* end);

  // Integrity scrubbing (db_scrub.cc).
  struct ScrubStats {
    uint64_t files_scanned = 0;
    uint64_t corrupt_files = 0;
    uint64_t repaired_files = 0;
  };
  /// One full pass over the live SSTs. `throttle` enables the
  /// scrub_bytes_per_second budget (background passes only).
  Status ScrubPass(bool throttle, ScrubStats* stats);
  Status ScrubFile(int level, uint64_t number, uint64_t file_size,
                   bool throttle);
  /// Quarantine + repair pipeline for one corrupt file.
  Status HandleCorruptFile(int level, uint64_t number, uint64_t file_size,
                           const Status& corruption);
  Status RepairFromReplica(int level, uint64_t number, uint64_t file_size);
  Status SalvageLocally(int level, uint64_t number, uint64_t file_size);
  Status QuarantineFile(uint64_t number);
  void ScrubLoop();

  // Bulk ingest/dump (db_ingest.cc).
  /// Adopts a SHIELD-encrypted SST byte-for-byte: re-wraps the
  /// embedded DEK onto our identity, patches the header copy and
  /// registers the key. On success *contents holds the patched
  /// physical image to install.
  Status PrepareEncryptedIngest(const std::string& file_path,
                                std::string* contents, bool* rewrapped);
  /// Re-builds a plaintext SST through the DB's own encryption path
  /// into `fname` (already-reserved table file name). *file_size is
  /// the logical size of the rebuilt table.
  Status RebuildPlaintextIngest(const std::string& file_path,
                                const std::string& fname,
                                uint64_t* file_size);
  /// Opens the freshly installed table (logical size `file_size`) to
  /// recover its key range and max sequence, then publishes it at
  /// level 0 and bumps the sequence horizon past its entries.
  Status InstallIngestedFile(uint64_t file_number, uint64_t file_size,
                             IngestResult* result);

  // Cluster health plane (db_health.cc).
  /// Registers the stall/L0/WAL-pipeline/scrub/KDS/rotation/catch-up
  /// detectors with health_monitor_ and wires the transition sink to
  /// the event logger. Called once at the end of Recover().
  void SetupHealthPlane();
  /// Refreshes the DB-level gauges (levels, health, catch-up lag) in
  /// metrics_ — called while serving the "shield.metrics" property.
  /// REQUIRES: mutex_ held.
  void RefreshMetricsGauges();
  /// Replica catch-up lag versus the primary's published state: bytes
  /// of manifest not yet applied and manifest generations behind.
  /// Writers report zero. Returns non-OK when the shared storage is
  /// unreachable (partition) — the catch-up detector's critical edge.
  Status ComputeCatchupLag(uint64_t* lag_bytes, uint64_t* lag_generations);
  /// Records the manifest state a successful Recover/TryCatchUp
  /// applied, the baseline ComputeCatchupLag compares against.
  void RecordCatchupApplied();

  // Online DEK rotation (db_rotation.cc).
  /// Executes (or resumes) the rotation described by `manifest`,
  /// persisting progress after every file. rotation_pass_mutex_ held.
  Status RunRotation(RotationManifest* manifest, const RotateOptions& opts,
                     RotateResult* result);
  /// Rewrites one live SST to a fresh DEK via the table-rewrite path.
  /// Returns OK with *skipped=true when `number` already left the live
  /// version (stale manifest entry).
  Status RotateFile(uint64_t number, uint64_t* bytes, bool* skipped);
  /// Background rotation job: resumes a pending rotation at open, then
  /// runs age-based passes every dek_rotation_interval_micros.
  void RotationLoop();
  /// True when a rotation manifest is pending on disk at open time
  /// (set by Recover, consumed by RotationLoop).
  bool ResumePendingRotation();

  // State below.
  const std::string dbname_;
  Options options_;  // env_ may be rewritten to the EncFS wrapper
  bool read_only_;
  const InternalKeyComparator internal_comparator_;

  // The physical (pre-encryption) view of the DB directory, captured
  // before SetupEncryption may rewrite options_.env: quarantine and
  // repair move on-disk images around byte-for-byte, without any
  // encryption layer transforming them.
  Env* raw_env_ = nullptr;

  // Observability plane. The LOG and trace files are written through
  // raw_env_ (deliberately plaintext; no keys or user data ever reach
  // them). event_logger_ wraps the LOG for JSON-lines engine events;
  // tracer_ owns the active trace started via StartTrace.
  // Declared before the env/crypto members that may reference the
  // event logger so it destructs after them.
  std::unique_ptr<EventLogger> event_logger_;
  // I/O tracing env interposed directly above the physical env (below
  // counting + encryption) so io.* spans describe ciphertext traffic.
  std::unique_ptr<Env> owned_tracing_env_;
  Tracer tracer_;
  std::mutex trace_mutex_;  // serializes StartTrace/EndTrace

  // Physical I/O accounting: a counting Env interposed below the
  // encryption layer, so it sees ciphertext traffic (what actually
  // hits storage). Mirrored into options_.statistics when configured.
  // Declared before owned_encrypted_env_: the EncFS wrapper holds a
  // pointer to the counting env, so it must be destroyed first
  // (members destruct in reverse declaration order).
  IoStats io_stats_;
  std::unique_ptr<Env> owned_counting_env_;

  // Encryption plumbing. Order matters for destruction: factory before
  // dek manager before cache/kds.
  std::unique_ptr<Env> owned_encrypted_env_;  // EncFS wrapper, if any
  std::shared_ptr<Kds> kds_;                  // SHIELD (owned or shared)
  std::unique_ptr<SecureDekCache> secure_dek_cache_;
  std::unique_ptr<DekManager> dek_manager_;
  std::unique_ptr<ThreadPool> encryption_pool_;
  std::unique_ptr<DataFileFactory> files_;

  std::shared_ptr<Cache> block_cache_;
  std::unique_ptr<TableCache> table_cache_;

  std::mutex mutex_;
  std::atomic<bool> shutting_down_{false};
  std::condition_variable background_work_finished_signal_;

  MemTable* mem_ = nullptr;
  MemTable* imm_ = nullptr;  // being flushed
  std::atomic<bool> has_imm_{false};

  std::unique_ptr<WritableFile> logfile_;
  uint64_t logfile_number_ = 0;
  std::unique_ptr<log::Writer> log_;
  // True after a failed WAL append/sync: the tail may hold a torn
  // record, and log replay stops at the first damaged record, so any
  // further appends to this file could be silently lost at recovery.
  // MakeRoomForWrite rolls to a fresh WAL before the next write.
  bool log_tainted_ = false;  // guarded by mutex_

  // The write queue has a dedicated mutex so arriving writers can
  // enqueue while the leader works under mutex_ (or no lock): groups
  // only form when the queue is reachable during the leader's service
  // time. Lock order: mutex_ before writers_mutex_.
  std::mutex writers_mutex_;
  std::deque<Writer*> writers_;  // guarded by writers_mutex_
  WriteBatch tmp_batch_;         // touched only by the group leader

  SnapshotList snapshots_;
  std::set<uint64_t> pending_outputs_;
  // Output numbers of the in-flight offloaded compaction; unpinned by
  // DoCompactionWork after the edit is installed.
  std::vector<uint64_t> offload_pending_outputs_;

  std::unique_ptr<ThreadPool> bg_pool_;
  // Workers for the parallel shard apply in the write path; non-null
  // only when options_.memtable_shards > 1. Kept separate from
  // bg_pool_ so a long compaction can never starve a committed group's
  // memtable apply.
  std::unique_ptr<ThreadPool> apply_pool_;
  bool flush_scheduled_ = false;
  bool compaction_scheduled_ = false;
  bool manual_compaction_running_ = false;

  std::unique_ptr<VersionSet> versions_;

  // Read-only instances: the pins of the served view (versions_ and
  // mem_), and earlier views whose versions readers still hold. Both
  // guarded by mutex_; catchup_mutex_ serializes TryCatchUp so views
  // are installed in manifest order.
  std::vector<Cache::Handle*> view_pins_;
  std::vector<ReplicaView> retired_views_;
  std::mutex catchup_mutex_;

  // Classifies background failures, drives the DB error state machine
  // and schedules auto-resume retries. All access under mutex_.
  ErrorHandler error_handler_;

  // Background scrubber (db_scrub.cc). The thread sleeps on scrub_cv_
  // between passes; scrub_pass_mutex_ serializes passes (the thread vs
  // on-demand VerifyIntegrity).
  std::thread scrub_thread_;
  std::mutex scrub_mutex_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;  // guarded by scrub_mutex_
  std::mutex scrub_pass_mutex_;

  // Background DEK rotation (db_rotation.cc). Same shape as the
  // scrubber: the thread sleeps on rotation_cv_ between passes;
  // rotation_pass_mutex_ serializes passes (the thread vs on-demand
  // RotateDeks).
  std::thread rotation_thread_;
  std::mutex rotation_mutex_;
  std::condition_variable rotation_cv_;
  bool rotation_stop_ = false;  // guarded by rotation_mutex_
  std::mutex rotation_pass_mutex_;
  // True when Recover found a ROTATION manifest on disk; the rotation
  // thread (or, with no thread configured, a one-shot resume) finishes
  // that rotation before anything else.
  bool rotation_pending_at_open_ = false;
  std::atomic<bool> rotation_running_{false};
  std::atomic<uint64_t> rotation_files_rotated_{0};
  std::atomic<uint64_t> rotation_passes_{0};
  // Files still owed by the persisted rotation manifest (for the
  // "shield.rotation-state" property).
  std::atomic<uint64_t> rotation_pending_files_{0};

  std::atomic<uint64_t> scrub_corruptions_detected_{0};
  std::atomic<uint64_t> scrub_repaired_files_{0};
  std::atomic<uint64_t> scrub_quarantined_files_{0};
  // Offloaded compactions that fell back to local execution after the
  // service exhausted its retries ("shield.offload-fallbacks").
  std::atomic<uint64_t> offload_fallbacks_{0};
  // WALs whose replay was cut short by damage that crash semantics
  // explain, tolerated because paranoid_checks is off
  // ("shield.recovery-salvaged-logs").
  std::atomic<uint64_t> recovery_salvaged_logs_{0};
  CompactionStats stats_[kMaxNumLevels];
  std::atomic<uint64_t> stall_micros_{0};

  // Cluster health plane (db_health.cc). metrics_ is this DB's labeled
  // registry: Options::statistics mirrors its tickers/histograms into
  // it (AttachRegistry), and DB-level gauges (levels, health, catch-up
  // lag) are refreshed on property reads. health_monitor_ owns the
  // detector state machines; transitions are emitted as
  // "health_transition" events.
  MetricsRegistry metrics_;
  HealthMonitor health_monitor_;
  // Manifest state the last successful Recover/TryCatchUp applied
  // (read-only instances): baseline for catch-up lag.
  std::atomic<uint64_t> catchup_applied_manifest_{0};
  std::atomic<uint64_t> catchup_applied_manifest_bytes_{0};
  // Last published catch-up lag, mirrored into gauges and the
  // replica.catchup detector.
  std::atomic<uint64_t> catchup_lag_bytes_{0};
  std::atomic<uint64_t> catchup_lag_generations_{0};
};

}  // namespace shield

#endif  // SHIELD_LSM_DB_IMPL_H_
