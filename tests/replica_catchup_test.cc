// Read-only replica catch-up consistency: a replica calling
// TryCatchUp() while the writer is mid-flush / mid-batch — and while
// the storage layer is injecting transient faults — must never observe
// a partially durable version: a WriteBatch is visible all-or-nothing,
// and a manifest mid-rewrite never yields a mixed file set.

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "lsm/db.h"
#include "lsm/iterator.h"
#include "lsm/write_batch.h"

namespace shield {
namespace {

constexpr int kKeysPerGeneration = 24;

std::string GenKey(int i) { return "gen-key-" + std::to_string(i); }
std::string GenValue(int g) {
  return "generation-" + std::to_string(g) + std::string(32, 'p');
}

/// Runs a hook, once, at the start of the next GetChildren call: the
/// point between a catch-up's manifest read and its WAL listing.
class ListingHookEnv : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  void ArmOnce(std::function<void()> hook) { hook_ = std::move(hook); }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    if (hook_) {
      std::function<void()> hook = std::move(hook_);
      hook_ = nullptr;
      hook();
    }
    return EnvWrapper::GetChildren(dir, result);
  }

 private:
  std::function<void()> hook_;
};

class ReplicaCatchupTest : public ::testing::Test {
 protected:
  ReplicaCatchupTest() : base_(NewMemEnv()) {
    FaultInjectionOptions fopts;
    fopts.seed = 71;
    fault_env_ = std::make_unique<FaultInjectionEnv>(base_.get(), fopts);
    fault_env_->SetFaultsEnabled(false);
  }

  Options DbOptions() {
    Options options;
    options.env = fault_env_.get();
    options.write_buffer_size = 8 * 1024;
    return options;
  }

  void OpenWriterAndReplica() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(DbOptions(), "/catchup", &raw).ok());
    writer_.reset(raw);
    ASSERT_TRUE(writer_->Flush().ok());  // publish an initial manifest
    raw = nullptr;
    ASSERT_TRUE(DB::OpenReadOnly(DbOptions(), "/catchup", &raw).ok());
    replica_.reset(raw);
  }

  /// Writes one atomic generation: all keys move to generation `g` in
  /// a single WriteBatch (one WAL record).
  void WriteGeneration(int g) {
    WriteBatch batch;
    for (int i = 0; i < kKeysPerGeneration; i++) {
      batch.Put(GenKey(i), GenValue(g));
    }
    ASSERT_TRUE(writer_->Write(WriteOptions(), &batch).ok());
  }

  /// Scans the replica's generation keys. Fails the test if the view
  /// is torn (some keys on one generation, some on another). Returns
  /// the observed generation value, or "" when no keys are visible.
  std::string ObservedGeneration() {
    std::map<std::string, std::string> seen;
    std::unique_ptr<Iterator> it(replica_->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const std::string key = it->key().ToString();
      if (key.rfind("gen-key-", 0) == 0) {
        seen[key] = it->value().ToString();
      }
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    if (seen.empty()) {
      return "";
    }
    // All-or-nothing: every key present, every value identical.
    EXPECT_EQ(static_cast<size_t>(kKeysPerGeneration), seen.size())
        << "replica observed a partial generation";
    const std::string& first = seen.begin()->second;
    for (const auto& kv : seen) {
      EXPECT_EQ(first, kv.second)
          << "replica observed a torn generation at " << kv.first;
    }
    return first;
  }

  /// Reads every generation key through Get. Each read must succeed,
  /// and all must show generation `g`.
  void ExpectGetsSeeGeneration(int g) {
    for (int i = 0; i < kKeysPerGeneration; i++) {
      std::string value;
      const Status s = replica_->Get(ReadOptions(), GenKey(i), &value);
      ASSERT_TRUE(s.ok()) << GenKey(i) << ": " << s.ToString();
      EXPECT_EQ(GenValue(g), value) << GenKey(i);
    }
  }

  std::unique_ptr<Env> base_;
  std::unique_ptr<FaultInjectionEnv> fault_env_;
  // Declared before replica_, which may be opened over it.
  std::unique_ptr<ListingHookEnv> hook_env_;
  std::unique_ptr<DB> writer_;
  std::unique_ptr<DB> replica_;
};

// Interleaved single-threaded schedule with transient storage faults
// active during every catch-up: the replica's manifest + WAL re-read
// hits injected errors, and whenever TryCatchUp does report success,
// the state it exposes must be a complete generation.
TEST_F(ReplicaCatchupTest, FaultedCatchUpNeverObservesPartialGeneration) {
  OpenWriterAndReplica();

  FaultInjectionOptions faulty;
  faulty.seed = 71;
  faulty.read_error_probability = 0.25;
  faulty.metadata_error_probability = 0.15;
  faulty.permanent_error_ratio = 0.0;

  int catchup_successes = 0;
  int catchup_failures = 0;
  for (int g = 1; g <= 30; g++) {
    WriteGeneration(g);
    if (g % 3 == 0) {
      // The flush publishes a new SST + manifest edit; catch-up right
      // after exercises the manifest-catch-up path specifically.
      ASSERT_TRUE(writer_->Flush().ok());
    }

    fault_env_->SetOptions(faulty);
    fault_env_->SetFaultsEnabled(true);
    Status s;
    for (int attempt = 0; attempt < 50; attempt++) {
      s = replica_->TryCatchUp();
      if (s.ok()) {
        break;
      }
      // A failed catch-up must leave the previous consistent view
      // intact — check the invariant on every failure too (with
      // injection paused so the check itself reads cleanly).
      fault_env_->SetFaultsEnabled(false);
      ObservedGeneration();
      fault_env_->SetFaultsEnabled(true);
      catchup_failures++;
    }
    fault_env_->SetFaultsEnabled(false);
    if (!s.ok()) {
      // Clean retry must succeed once faults stop.
      s = replica_->TryCatchUp();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    catchup_successes++;

    const std::string observed = ObservedGeneration();
    // After a successful catch-up the replica replays the writer's
    // WAL, so it is fully current, not just durable-as-of-last-flush.
    EXPECT_EQ(GenValue(g), observed);
  }
  EXPECT_EQ(30, catchup_successes);
  // The fault schedule must actually have bitten at least once for
  // this test to mean anything.
  EXPECT_GT(catchup_failures, 0);
}

// True concurrency: the writer keeps writing batches and flushing on
// its own thread while the replica catches up as fast as it can. Any
// successful catch-up, sampled at any point relative to an in-flight
// flush, must expose an atomic generation.
TEST_F(ReplicaCatchupTest, ConcurrentCatchUpSeesOnlyAtomicGenerations) {
  OpenWriterAndReplica();

  constexpr int kGenerations = 120;
  std::atomic<bool> writer_done{false};
  std::thread writer_thread([&] {
    for (int g = 1; g <= kGenerations; g++) {
      WriteGeneration(g);
      if (g % 5 == 0) {
        EXPECT_TRUE(writer_->Flush().ok());
      }
    }
    writer_done.store(true);
  });

  int views = 0;
  while (!writer_done.load()) {
    Status s = replica_->TryCatchUp();
    if (s.ok()) {
      ObservedGeneration();  // asserts atomicity internally
      views++;
    }
    std::this_thread::yield();
  }
  writer_thread.join();

  // Final catch-up on the quiesced writer must land on the last
  // generation exactly.
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(GenValue(kGenerations), ObservedGeneration());
  EXPECT_GT(views, 0);
}

// The catch-up lag properties quantify how far a replica trails the
// shared manifest: zero on a caught-up replica, nonzero once the
// writer publishes new version edits, and back to zero after the next
// successful TryCatchUp (the same signal the replica.catchup health
// detector and the shield_replica_catchup_lag_* gauges consume).
TEST_F(ReplicaCatchupTest, LagPropertiesDrainToZeroAfterCatchUp) {
  OpenWriterAndReplica();

  auto lag = [&](const char* prop) {
    std::string v;
    EXPECT_TRUE(replica_->GetProperty(prop, &v)) << prop;
    return v.empty() ? 0ull : std::stoull(v);
  };

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(0u, lag("shield.replica.catchup-lag-generations"));
  EXPECT_EQ(0u, lag("shield.replica.catchup-lag-bytes"));

  // A flush appends version edits past the replica's applied prefix.
  WriteGeneration(1);
  ASSERT_TRUE(writer_->Flush().ok());
  EXPECT_GT(lag("shield.replica.catchup-lag-generations"), 0u);
  EXPECT_GT(lag("shield.replica.catchup-lag-bytes"), 0u);

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(0u, lag("shield.replica.catchup-lag-generations"));
  EXPECT_EQ(0u, lag("shield.replica.catchup-lag-bytes"));
  EXPECT_EQ(GenValue(1), ObservedGeneration());

  // The writer's own probe never reports lag: the properties are
  // replica-only by construction.
  std::string v;
  ASSERT_TRUE(writer_->GetProperty("shield.replica.catchup-lag-bytes", &v));
  EXPECT_EQ("0", v);
}

// A caught-up view stays readable until the next catch-up, even after
// the writer's compactions delete every table it names: the replica
// holds those tables open.
TEST_F(ReplicaCatchupTest, CaughtUpViewSurvivesWriterCompaction) {
  OpenWriterAndReplica();
  for (int g = 1; g <= 3; g++) {
    WriteGeneration(g);
    ASSERT_TRUE(writer_->Flush().ok());
  }
  ASSERT_TRUE(replica_->TryCatchUp().ok());

  // Merges the level-0 tables into a new file and deletes them.
  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  writer_->WaitForIdle();

  EXPECT_EQ(GenValue(3), ObservedGeneration());
  ExpectGetsSeeGeneration(3);
}

// A WAL the replica cannot read is not a clean catch-up: the log reader
// gives up on the block after its retries, and the catch-up must report
// that rather than serve a view without the rest of the log. The
// previous view stays whole.
TEST_F(ReplicaCatchupTest, WalReadErrorFailsCatchUpAndKeepsView) {
  OpenWriterAndReplica();
  WriteGeneration(1);
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  ASSERT_EQ(GenValue(1), ObservedGeneration());

  WriteGeneration(2);
  FaultInjectionOptions wal_faults;
  wal_faults.seed = 71;
  wal_faults.read_error_probability = 1.0;
  wal_faults.fault_kind_mask = FileKindBit(FileKind::kWal);
  fault_env_->SetOptions(wal_faults);
  fault_env_->SetFaultsEnabled(true);
  const Status s = replica_->TryCatchUp();
  fault_env_->SetFaultsEnabled(false);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(GenValue(1), ObservedGeneration());
  ExpectGetsSeeGeneration(1);

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(GenValue(2), ObservedGeneration());
}

// The writer flushes and deletes the WAL the replica's manifest names
// between the replica's manifest read and its WAL listing. Replaying
// only the WALs still listed would show a later write without an
// earlier one; the catch-up must re-read the manifest instead.
TEST_F(ReplicaCatchupTest, WalFlushedBeforeListingIsNotSkipped) {
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(DbOptions(), "/catchup", &raw).ok());
  writer_.reset(raw);
  ASSERT_TRUE(writer_->Flush().ok());
  hook_env_ = std::make_unique<ListingHookEnv>(fault_env_.get());
  Options replica_options = DbOptions();
  replica_options.env = hook_env_.get();
  raw = nullptr;
  ASSERT_TRUE(DB::OpenReadOnly(replica_options, "/catchup", &raw).ok());
  replica_.reset(raw);

  WriteGeneration(1);  // only in the WAL the replica's manifest names
  hook_env_->ArmOnce([&] {
    ASSERT_TRUE(writer_->Flush().ok());
    writer_->WaitForIdle();
    std::vector<std::string> children;
    ASSERT_TRUE(base_->GetChildren("/catchup", &children).ok());
    int wals = 0;
    for (const std::string& name : children) {
      wals += name.size() > 4 && name.compare(name.size() - 4, 4, ".log") == 0;
    }
    ASSERT_EQ(1, wals) << "the flushed WAL must be gone before the listing";
    ASSERT_TRUE(writer_->Put(WriteOptions(), "late-key", "late").ok());
  });

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  std::string late;
  ASSERT_TRUE(replica_->Get(ReadOptions(), "late-key", &late).ok());
  EXPECT_EQ("late", late);
  EXPECT_EQ(GenValue(1), ObservedGeneration());
  ExpectGetsSeeGeneration(1);
}

// An iterator opened on a view keeps reading that view after a later
// catch-up replaces it: the replica frees the old view, with its pinned
// tables, only once no reader holds it.
TEST_F(ReplicaCatchupTest, IteratorKeepsItsViewAcrossCatchUp) {
  OpenWriterAndReplica();
  WriteGeneration(1);
  ASSERT_TRUE(writer_->Flush().ok());
  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  writer_->WaitForIdle();
  ASSERT_TRUE(replica_->TryCatchUp().ok());

  // Positioned later: tables below level 0 open on first access.
  std::unique_ptr<Iterator> it(replica_->NewIterator(ReadOptions()));

  WriteGeneration(2);
  ASSERT_TRUE(writer_->Flush().ok());
  ASSERT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
  writer_->WaitForIdle();
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  ASSERT_TRUE(replica_->TryCatchUp().ok());

  int keys = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(GenValue(1), it->value().ToString()) << it->key().ToString();
    keys++;
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(kKeysPerGeneration, keys);
  it.reset();

  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(GenValue(2), ObservedGeneration());
  ExpectGetsSeeGeneration(2);
}

// Reads on the replica run while another thread catches it up and the
// writer flushes and compacts: a read started on any view, including
// one a catch-up has since replaced, must succeed and see a whole
// generation.
TEST_F(ReplicaCatchupTest, ReadsDuringCatchUpStayWhole) {
  OpenWriterAndReplica();

  constexpr int kGenerations = 60;
  std::atomic<bool> writer_done{false};
  std::thread writer_thread([&] {
    for (int g = 1; g <= kGenerations; g++) {
      WriteGeneration(g);
      if (g % 4 == 0) {
        EXPECT_TRUE(writer_->Flush().ok());
      }
      if (g % 12 == 0) {
        EXPECT_TRUE(writer_->CompactRange(nullptr, nullptr).ok());
      }
    }
    writer_done.store(true);
  });
  std::thread catchup_thread([&] {
    while (!writer_done.load()) {
      (void)replica_->TryCatchUp();  // a failure keeps the old view
      std::this_thread::yield();
    }
  });

  int reads = 0;
  while (!writer_done.load()) {
    ObservedGeneration();  // asserts OK status and atomicity
    std::string value;
    const Status s = replica_->Get(ReadOptions(), GenKey(0), &value);
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    reads++;
  }
  catchup_thread.join();
  writer_thread.join();

  writer_->WaitForIdle();
  ASSERT_TRUE(replica_->TryCatchUp().ok());
  EXPECT_EQ(GenValue(kGenerations), ObservedGeneration());
  EXPECT_GT(reads, 0);
}

}  // namespace
}  // namespace shield
