#include "bench.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <thread>

#include "checker.h"
#include "ds/compaction_worker.h"
#include "ds/storage_service.h"
#include "kds/local_kds.h"
#include "kds/sim_kds.h"
#include "spans.h"
#include "util/perf_context.h"
#include "util/statistics.h"
#include "wrappers.h"

namespace perfbench {

using shield::DB;
using shield::Status;
using shield::Tickers;

namespace {

enum class Engine { kPlain, kShield };
constexpr std::array<Engine, 2> kEngines = {Engine::kPlain, Engine::kShield};

const char* EngineName(Engine e) {
  return e == Engine::kPlain ? "plain" : "shield";
}

// A run is a number of rounds per engine (Spec::rounds). Each round
// loads a DB from scratch, reopens it kReopens times (timed), warms it,
// runs one timed window, drains and verifies; engines alternate inside
// a round and swap order between rounds. In a traced run the odd rounds
// are traced and the even ones give the untraced reference.
constexpr int kReopens = 3;
// Threads that load a round's dataset. Concurrent Puts go through group
// commit, whose latency is steadier run to run than a lone writer's.
constexpr int kLoaders = 3;
constexpr uint64_t kMixRun = 8;
constexpr double kProbeSeconds = 0.1;

struct Spec {
  const char* name;
  bool ds;                  // simulated disaggregated storage
  uint64_t keys;            // writable keyspace
  uint64_t preload_keys;    // written once during set-up
  size_t value_size;
  bool drain_in_window;     // ops/s pays for the drain
  int readers;              // Get-only clients
  int writers;              // Put-only clients
  int mixed;                // 50/50 Get/Put clients (they also write)
  double absent_share;      // share of window Gets aimed at absent keys
  size_t write_buffer_size;
  int l0_compaction_trigger;
  size_t block_cache_size;
  int verify_gets;          // checked Gets after the drain
  int reopen_gets;          // checked Gets inside each timed reopen
  int rounds;               // per engine; the window is split over them
};

// Why each workload exists: README.md.
const Spec kSpecs[] = {
    {"fill", false, 999'999, 16'000, 100, true, 0, 3, 0, 0.0, 1 << 20, 4,
     8 << 20, 2000, 500, 4},
    {"read-hot", false, 16'000, 16'000, 100, false, 2, 0, 0, 0.1, 1 << 20, 4,
     4 << 20, 2000, 500, 12},
    {"read-cold", false, 6'000, 6'000, 1024, false, 2, 1, 0, 0.0, 1 << 20, 4,
     1 << 20, 2000, 500, 8},
    // Small memtable and L0 trigger: the client's few hundred Puts per
    // window still flush and run an offloaded compaction.
    {"ds", true, 5'000, 5'000, 100, false, 0, 0, 1, 0.1, 32 << 10, 2,
     16 << 20, 100, 50, 4},
};

constexpr uint64_t kDsRttMicros = 200;
constexpr uint64_t kDsBandwidth = 125ull * 1000 * 1000;  // 1 GbE
constexpr uint64_t kDsKdsLatencyMicros = 2750;

// Tickers read as window(+drain) deltas.
constexpr std::array<Tickers, 8> kTickers = {
    Tickers::kLsmBlockCacheHit,     Tickers::kLsmBlockCacheMiss,
    Tickers::kLsmStallMicros,       Tickers::kLsmWriteGroups,
    Tickers::kLsmWriteGroupSize,    Tickers::kCryptoBytesEncrypted,
    Tickers::kShieldWalBufferDrains, Tickers::kDsNetworkBytes};
using TickerValues = std::array<uint64_t, kTickers.size()>;

size_t TickerSlot(Tickers t) {
  return static_cast<size_t>(std::find(kTickers.begin(), kTickers.end(), t) -
                             kTickers.begin());
}

TickerValues ReadTickers(const shield::Statistics& stats) {
  TickerValues v{};
  for (size_t i = 0; i < kTickers.size(); ++i) {
    v[i] = stats.GetTickerCount(kTickers[i]);
  }
  return v;
}

// PerfContext fields summed over a traced window, per op type.
struct PerfSums {
  uint64_t decrypt_bytes = 0;
  uint64_t decrypt_micros = 0;
  uint64_t hmac_verify_count = 0;
  uint64_t encrypt_micros = 0;

  void Add(const shield::PerfContext& p) {
    decrypt_bytes += p.decrypt_bytes;
    decrypt_micros += p.decrypt_micros;
    hmac_verify_count += p.hmac_verify_count;
    encrypt_micros += p.encrypt_micros;
  }
  void Add(const PerfSums& o) {
    decrypt_bytes += o.decrypt_bytes;
    decrypt_micros += o.decrypt_micros;
    hmac_verify_count += o.hmac_verify_count;
    encrypt_micros += o.encrypt_micros;
  }
};

uint32_t ClampNs(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

// What a set of client threads did; merged across threads and rounds.
struct Tally {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t loop_ns = 0;  // wall time of the client loops
  std::vector<uint32_t> get_ns;
  std::vector<uint32_t> put_ns;
  PerfSums get_perf;
  PerfSums put_perf;

  void Merge(const Tally& o) {
    gets += o.gets;
    puts += o.puts;
    failed += o.failed;
    wrong += o.wrong;
    loop_ns += o.loop_ns;
    get_ns.insert(get_ns.end(), o.get_ns.begin(), o.get_ns.end());
    put_ns.insert(put_ns.end(), o.put_ns.begin(), o.put_ns.end());
    get_perf.Add(o.get_perf);
    put_perf.Add(o.put_perf);
  }
};

// One engine's DB with the storage, KDS and offload stack under it.
// Members are destroyed bottom-up: the DB first, the storage last.
struct Instance {
  std::unique_ptr<shield::Env> storage_env;  // MemEnv: monolith or DS media
  std::unique_ptr<shield::StorageService> storage;
  std::unique_ptr<shield::Env> remote_env;
  std::unique_ptr<TimedEnv> env;
  std::shared_ptr<shield::Statistics> stats;
  std::unique_ptr<shield::RemoteCompactionWorker> worker;
  std::unique_ptr<TimedCompactionService> offload;
  shield::Options options;
  std::string path;
  std::unique_ptr<DB> db;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    db.reset();
    if (storage != nullptr) storage->network()->SetStatisticsSink(nullptr);
  }
};

std::unique_ptr<Instance> MakeInstance(const Spec& spec, Engine engine) {
  auto inst = std::make_unique<Instance>();
  inst->stats = shield::CreateDBStatistics();
  inst->storage_env = shield::NewMemEnv();
  shield::Options& o = inst->options;
  if (spec.ds) {
    shield::NetworkSimOptions net;
    net.rtt_micros = kDsRttMicros;
    net.bandwidth_bytes_per_sec = kDsBandwidth;
    inst->storage = std::make_unique<shield::StorageService>(
        inst->storage_env.get(), net);
    inst->storage->network()->SetStatisticsSink(inst->stats.get());
    inst->remote_env = shield::NewRemoteEnv(inst->storage.get(), nullptr);
    inst->env = std::make_unique<TimedEnv>(inst->remote_env.get());
    inst->path = "/cluster/db";
  } else {
    inst->env = std::make_unique<TimedEnv>(inst->storage_env.get());
    inst->path = "/perfbench/db";
  }
  o.env = inst->env.get();
  o.statistics = inst->stats;
  o.write_buffer_size = spec.write_buffer_size;
  o.level0_file_num_compaction_trigger = spec.l0_compaction_trigger;
  o.block_cache_size = spec.block_cache_size;
  o.sync_wal = false;
  if (engine == Engine::kShield) {
    // The paper's full design (Engine::kShieldWalBuf in src/benchutil):
    // per-file DEKs and a 512 B WAL encryption buffer, no keystream
    // prefetch thread.
    o.encryption.mode = shield::EncryptionMode::kShield;
    o.encryption.wal_buffer_size = 512;
    o.encryption.wal_pipeline_window = 0;
    std::shared_ptr<shield::Kds> kds;
    if (spec.ds) {
      kds = std::make_shared<shield::SimKds>(
          shield::SimKdsOptions{.request_latency_us = kDsKdsLatencyMicros,
                                .one_time_provisioning = false,
                                .require_authorization = false});
      o.encryption.server_id = "primary";
    } else {
      kds = std::make_shared<shield::LocalKds>();
    }
    o.encryption.kds = std::make_shared<TimedKds>(std::move(kds));
  }
  if (spec.ds) {
    shield::RemoteCompactionWorker::WorkerOptions w;
    w.env = inst->storage->server_env();
    w.db_options = o;
    w.db_options.env = inst->storage->server_env();
    w.db_options.encryption.server_id = "worker";
    w.server_id = "worker";
    inst->worker = std::make_unique<shield::RemoteCompactionWorker>(w);
    inst->offload =
        std::make_unique<TimedCompactionService>(inst->worker.get());
    o.compaction_service = inst->offload.get();
  }
  return inst;
}

Status OpenDb(Instance* inst, const RunOptions& ro) {
  DB* raw = nullptr;
  Status s = DB::Open(inst->options, inst->path, &raw);
  if (!s.ok()) return s;
  inst->db.reset(raw);
  if (ro.decorate) inst->db = ro.decorate(std::move(inst->db));
  return Status::OK();
}

// --- Operations. Keys and values are made before the clock starts. ---

Verdict TimedGet(DB* db, const Keyspace& ks, uint64_t index, Tally* t) {
  const bool writable = index < ks.keys();
  const uint32_t before = writable ? ks.Committed(index) : 0;
  const std::string key = ks.Key(index);
  std::string value;
  const uint64_t start = NowNs();
  Status s;
  {
    Span span(SpanKind::kGet);
    s = db->Get(shield::ReadOptions(), key, &value);
  }
  t->get_ns.push_back(ClampNs(NowNs() - start));
  t->gets++;
  const uint32_t after = writable ? ks.Committed(index) : 0;
  const Verdict v = ks.Judge(index, before, after, s, value);
  if (v == Verdict::kFailed) t->failed++;
  if (v == Verdict::kWrong) t->wrong++;
  return v;
}

// Returns true when the Put returned OK and a new version was written
// for the first time (version 1).
bool TimedPut(DB* db, Keyspace* ks, uint64_t index, Tally* t) {
  const uint32_t version = ks->Committed(index) + 1;
  const std::string key = ks->Key(index);
  const std::string value = ks->Value(index, version);
  const uint64_t start = NowNs();
  Status s;
  {
    Span span(SpanKind::kPut);
    s = db->Put(shield::WriteOptions(), key, value);
  }
  t->put_ns.push_back(ClampNs(NowNs() - start));
  t->puts++;
  if (!s.ok()) {
    // Retried with the same version next time, so a Put that did land
    // stays within the reader's [before, after + 1] window.
    t->failed++;
    return false;
  }
  ks->Commit(index, version);
  return version == 1;
}

// Draws keys for checked Gets outside the window: nine in ten from the
// written set, one in ten never written.
class Sampler {
 public:
  Sampler(const Keyspace& ks, std::vector<uint32_t> written)
      : ks_(ks), written_(std::move(written)) {}

  uint64_t Next(Rng* rng) const {
    if (written_.empty() || rng->Unit() < 0.1) {
      return ks_.keys() + rng->Uniform(ks_.keys());
    }
    return written_[rng->Uniform(written_.size())];
  }

 private:
  const Keyspace& ks_;
  std::vector<uint32_t> written_;
};

// --- Phases of a round. ---

// Every round ends up with this tally merged into its engine's results.
void Account(const Tally& t, RunReport* report) {
  report->attempted += t.gets + t.puts;
  report->failed += t.failed;
  if (t.wrong > 0) report->correct = false;
}

// Opens a fresh DB and loads keys [0, preload_keys) at version 1 from
// kLoaders threads, then flushes and compacts everything, so every round
// starts from the same LSM shape.
Status Load(Instance* inst, Keyspace* ks, const RunOptions& ro,
            uint64_t preload_keys, Tally* tally) {
  Status s = OpenDb(inst, ro);
  if (!s.ok()) return s;
  DB* db = inst->db.get();
  std::vector<Tally> tallies(kLoaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoaders; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = t; i < preload_keys; i += kLoaders) {
        TimedPut(db, ks, i, &tallies[t]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Tally& t : tallies) tally->Merge(t);
  s = db->Flush();
  if (s.ok()) s = db->CompactRange(nullptr, nullptr);
  db->WaitForIdle();
  return s;
}

// One full scan reads every block into the cache and checks every entry.
void Warm(DB* db, const Keyspace& ks, uint64_t preload_keys, Tally* tally) {
  std::unique_ptr<shield::Iterator> it(db->NewIterator(shield::ReadOptions()));
  uint64_t entries = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    if (!ks.JudgeEntry(it->key().ToString(), it->value().ToString())) {
      tally->wrong++;
    }
    entries++;
  }
  tally->gets++;  // the scan counts as one operation
  if (!it->status().ok()) tally->failed++;
  if (entries != preload_keys) tally->wrong++;
}

struct WindowResult {
  double seconds = 0;  // window wall time
  Tally tally;
  std::vector<uint32_t> first_writes;
};

void RunWindow(const Spec& spec, DB* db, Keyspace* ks, uint64_t seed,
               double seconds, bool traced, WindowResult* out) {
  enum class Role { kRead, kWrite, kMix };
  struct Client {
    Role role;
    int writer;  // partition owned, -1 for readers
    Tally tally;
    std::vector<uint32_t> first_writes;
  };
  std::vector<Client> clients;
  int writer = 0;
  for (int i = 0; i < spec.writers; ++i) {
    clients.push_back({Role::kWrite, writer++, {}, {}});
  }
  for (int i = 0; i < spec.mixed; ++i) {
    clients.push_back({Role::kMix, writer++, {}, {}});
  }
  for (int i = 0; i < spec.readers; ++i) {
    clients.push_back({Role::kRead, -1, {}, {}});
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> deadline{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[c];
      Rng rng(Mix(seed ^ (0x1000 + c)));
      const uint64_t partition = ks->keys() / ks->writers();
      if (traced) {
        shield::SetPerfLevel(shield::PerfLevel::kEnableTime);
        shield::SetPerfAutoReset(true);
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t start = NowNs();
      const uint64_t end = deadline.load(std::memory_order_relaxed);
      for (uint64_t n = 0; NowNs() < end; ++n) {
        // A mixed client alternates runs of kMixRun Gets and Puts. Most
        // Puts then follow a Put rather than a Get that slept through a
        // fabric round trip, whose cold-CPU wake-up would otherwise set
        // the Put median.
        const bool put = me.role == Role::kWrite ||
                         (me.role == Role::kMix && (n / kMixRun) % 2 == 1);
        if (put) {
          const uint64_t index =
              me.writer + uint64_t(ks->writers()) * rng.Uniform(partition);
          if (TimedPut(db, ks, index, &me.tally)) {
            me.first_writes.push_back(static_cast<uint32_t>(index));
          }
          if (traced) me.tally.put_perf.Add(*shield::GetPerfContext());
        } else {
          const uint64_t index = rng.Unit() < spec.absent_share
                                     ? ks->keys() + rng.Uniform(ks->keys())
                                     : rng.Uniform(ks->keys());
          TimedGet(db, *ks, index, &me.tally);
          if (traced) me.tally.get_perf.Add(*shield::GetPerfContext());
        }
      }
      me.tally.loop_ns = NowNs() - start;
    });
  }
  while (ready.load() < static_cast<int>(clients.size())) {
    std::this_thread::yield();
  }
  const uint64_t start = NowNs();
  deadline.store(start + static_cast<uint64_t>(seconds * 1e9));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  out->seconds = (NowNs() - start) / 1e9;
  for (Client& c : clients) {
    out->tally.Merge(c.tally);
    out->first_writes.insert(out->first_writes.end(), c.first_writes.begin(),
                             c.first_writes.end());
  }
}

// Bytes of every file in the DB directory.
uint64_t StoredBytes(Instance* inst) {
  shield::Env* env = inst->storage_env.get();
  std::vector<std::string> children;
  if (!env->GetChildren(inst->path, &children).ok()) return 0;
  uint64_t total = 0;
  for (const std::string& name : children) {
    uint64_t size = 0;
    if (env->GetFileSize(inst->path + "/" + name, &size).ok()) total += size;
  }
  return total;
}

// --- Per-engine results over the rounds of one run. ---

struct EngineResult {
  std::vector<double> ops_per_s;         // untraced rounds
  std::vector<double> traced_ops_per_s;  // traced rounds
  std::vector<double> reopen_s;
  std::vector<double> space_amp;
  std::vector<double> setup_s;
  // Latency samples of each round, in nanoseconds.
  std::vector<std::vector<uint32_t>> get_ns, put_ns;
  // Traced rounds only.
  Tally traced_window;
  SpanTable spans;
  TickerValues tickers{};
  std::vector<double> drain_s;
  uint64_t user_bytes = 0;
  int traced_rounds = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile, in microseconds.
double PercentileUs(std::vector<uint32_t> ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  size_t rank = static_cast<size_t>(std::ceil(q * ns.size()));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return ns[rank - 1] / 1e3;
}

// The q-th percentile of a run's latencies. When every round holds at
// least ten samples beyond it, it is taken per round and the median over
// rounds reported, so one disturbed round does not move it; otherwise
// it is taken over the samples of all rounds.
double LatencyUs(const std::vector<std::vector<uint32_t>>& rounds, double q) {
  std::vector<double> per_round;
  std::vector<uint32_t> pooled;
  for (const std::vector<uint32_t>& ns : rounds) {
    if (ns.size() * (1 - q) >= 10) per_round.push_back(PercentileUs(ns, q));
    pooled.insert(pooled.end(), ns.begin(), ns.end());
  }
  return per_round.size() == rounds.size() ? Median(per_round)
                                           : PercentileUs(pooled, q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Status RunRound(const Spec& spec, Engine engine, const RunOptions& ro,
                bool traced, int round, EngineResult* er, RunReport* report) {
  const uint64_t seed = Mix(ro.seed * 131 + round * 2 + (int)engine);
  const int scale = ro.tiny ? 100 : 1;
  const int writers = std::max(1, spec.writers + spec.mixed);
  uint64_t keys = spec.keys / scale;
  keys -= keys % writers;
  const uint64_t preload_keys = spec.preload_keys / scale;
  Keyspace ks(seed, keys, spec.value_size, writers);
  std::unique_ptr<Instance> inst = MakeInstance(spec, engine);

  // Set-up, part 1: load and compact.
  Tally load;
  uint64_t setup_ns = NowNs();
  Status s = Load(inst.get(), &ks, ro, preload_keys, &load);
  setup_ns = NowNs() - setup_ns;
  if (!s.ok()) return s;
  Account(load, report);

  // Restart cost on the loaded DB, whose shape is the same every round:
  // close, DB::Open, and a checked sample of Gets.
  std::vector<uint32_t> written(preload_keys);
  for (uint64_t i = 0; i < preload_keys; ++i) written[i] = i;
  Rng rng(Mix(seed ^ 0xC0FFEE));
  const Sampler loaded(ks, written);
  SetTracing(traced);
  for (int r = 0; r < kReopens; ++r) {
    inst->db.reset();
    Tally sample;
    const uint64_t start = NowNs();
    {
      Span span(SpanKind::kOpen);
      s = OpenDb(inst.get(), ro);
      for (int i = 0; s.ok() && i < spec.reopen_gets / std::min(scale, 10);
           ++i) {
        TimedGet(inst->db.get(), ks, loaded.Next(&rng), &sample);
      }
    }
    if (!s.ok()) break;
    er->reopen_s.push_back((NowNs() - start) / 1e9);
    report->attempted++;  // the Open itself
    Account(sample, report);
  }
  SetTracing(false);
  if (!s.ok()) return s;

  // Set-up, part 2: warm the caches.
  Tally warm;
  uint64_t warm_ns = NowNs();
  Warm(inst->db.get(), ks, preload_keys, &warm);
  warm_ns = NowNs() - warm_ns;
  Account(warm, report);
  er->setup_s.push_back((setup_ns + warm_ns) / 1e9);

  // A window without Gets (fill) takes its Get latency from two readers
  // probing the loaded DB first, as read-hot's readers do.
  WindowResult probe;
  if (spec.readers + spec.mixed == 0) {
    Spec readers = spec;
    readers.readers = 2;
    readers.writers = 0;
    readers.absent_share = 0.1;
    RunWindow(readers, inst->db.get(), &ks, seed, kProbeSeconds, false,
              &probe);
    Account(probe.tally, report);
  }

  // The timed window, then the drain of the flush/compaction it caused.
  const double window_s = ro.seconds / (2.0 * spec.rounds);
  DB* db = inst->db.get();
  const TickerValues t0 = ReadTickers(*inst->stats);
  SetTracing(traced);
  WindowResult window;
  RunWindow(spec, db, &ks, seed, window_s, traced, &window);
  uint64_t drain_ns = NowNs();
  {
    Span span(SpanKind::kDrain);
    s = db->Flush();
    db->WaitForIdle();
  }
  drain_ns = NowNs() - drain_ns;
  SetTracing(false);
  if (!s.ok()) return s;
  const TickerValues t1 = ReadTickers(*inst->stats);

  const Tally& wt = window.tally;
  Account(wt, report);
  // fill pays for its compaction debt: the drain is part of its window.
  const double busy_s =
      window.seconds + (spec.drain_in_window ? drain_ns / 1e9 : 0);
  const double ops_per_s = (wt.gets + wt.puts) / busy_s;
  (traced ? er->traced_ops_per_s : er->ops_per_s).push_back(ops_per_s);
  // read-hot has no Puts in its window and takes its Put latency from
  // the load.
  const std::vector<uint32_t>& gets =
      wt.get_ns.empty() ? probe.tally.get_ns : wt.get_ns;
  const std::vector<uint32_t>& puts =
      wt.put_ns.empty() ? load.put_ns : wt.put_ns;
  er->get_ns.push_back(gets);
  er->put_ns.push_back(puts);

  // Check a sample of the window's outcome and measure the space used.
  written.insert(written.end(), window.first_writes.begin(),
                 window.first_writes.end());
  const uint64_t live_bytes =
      written.size() * (Keyspace::kKeySize + ks.value_size());
  er->space_amp.push_back(Ratio(StoredBytes(inst.get()), live_bytes));
  Sampler sampler(ks, std::move(written));
  Tally verify;
  for (int i = 0; i < spec.verify_gets / std::min(scale, 10); ++i) {
    TimedGet(db, ks, sampler.Next(&rng), &verify);
  }
  Account(verify, report);

  inst.reset();  // joins the engine's threads before spans are read
  if (traced) {
    er->traced_rounds++;
    er->traced_window.Merge(wt);
    for (size_t i = 0; i < kTickers.size(); ++i) {
      er->tickers[i] += t1[i] - t0[i];
    }
    er->drain_s.push_back(drain_ns / 1e9);
    er->user_bytes += wt.puts * (Keyspace::kKeySize + ks.value_size());
    CollectSpans(&er->spans);
    if (!ro.span_path.empty()) {
      WriteSpans(ro.span_path, std::string(spec.name) + " " +
                                   EngineName(engine) + " round " +
                                   std::to_string(round));
    }
    ResetSpans();
  }
  return Status::OK();
}

void AddEndToEnd(const std::array<EngineResult, 2>& results,
                 RunReport* report) {
  auto add = [&](const std::string& name, const char* unit, double v) {
    report->metrics.push_back(Metric{name, unit, v});
  };
  std::vector<double> setup;
  for (size_t r = 0; r < results[0].setup_s.size(); ++r) {
    setup.push_back(results[0].setup_s[r] + results[1].setup_s[r]);
  }
  add("setup_s", "s", Median(setup));
  for (Engine e : kEngines) {
    const EngineResult& er = results[static_cast<size_t>(e)];
    const std::string p = EngineName(e);
    add(p + ".ops_per_s", "1/s", Median(er.ops_per_s));
    add(p + ".get_p50_us", "us", LatencyUs(er.get_ns, 0.50));
    add(p + ".get_p99_us", "us", LatencyUs(er.get_ns, 0.99));
    add(p + ".put_p50_us", "us", LatencyUs(er.put_ns, 0.50));
    add(p + ".put_p99_us", "us", LatencyUs(er.put_ns, 0.99));
    add(p + ".reopen_s", "s", Median(er.reopen_s));
  }
  add("shield.space_amp", "ratio", Median(results[1].space_amp));
}

void AddPerLayer(const Spec& spec, const std::array<EngineResult, 2>& results,
                 RunReport* report) {
  auto add = [&](const std::string& name, const char* unit, double v) {
    report->metrics.push_back(Metric{name, unit, v});
  };
  constexpr std::array<SpanKind, 5> kEnvReadKinds = {
      SpanKind::kEnvOpenTable, SpanKind::kEnvOpenOther, SpanKind::kEnvRead,
      SpanKind::kEnvMeta, SpanKind::kEnvSync};
  for (Engine e : kEngines) {
    const EngineResult& er = results[static_cast<size_t>(e)];
    const std::string p = EngineName(e);
    const SpanTable& sp = er.spans;
    const Tally& w = er.traced_window;
    const double gets = w.gets;
    const double puts = w.puts;
    const double ops = gets + puts;
    const double rounds = er.traced_rounds;
    auto tick = [&](Tickers t) {
      return static_cast<double>(er.tickers[TickerSlot(t)]);
    };
    auto under_get = [&](SpanKind k) { return sp.at(k, Root::kGet); };
    // Everything except the timed reopens, which open files and write a
    // new MANIFEST and WAL of their own.
    auto outside_open = [&](SpanKind k) {
      SpanStat s = sp.Total(k);
      const SpanStat& o = sp.at(k, Root::kOpen);
      s.count -= o.count;
      s.total_ns -= o.total_ns;
      s.bytes -= o.bytes;
      return s;
    };
    double env_get_ns = 0, env_get_calls = 0;
    for (SpanKind k : kEnvReadKinds) {
      env_get_ns += under_get(k).total_ns;
      env_get_calls += under_get(k).count;
    }
    const SpanStat db_get = sp.at(SpanKind::kGet, Root::kGet);
    const SpanStat db_put = sp.at(SpanKind::kPut, Root::kPut);

    add(p + ".lsm.table_opens_per_get", "count",
        Ratio(under_get(SpanKind::kEnvOpenTable).count, gets));
    add(p + ".lsm.block_cache_hit_ratio", "ratio",
        Ratio(tick(Tickers::kLsmBlockCacheHit),
              tick(Tickers::kLsmBlockCacheHit) +
                  tick(Tickers::kLsmBlockCacheMiss)));
    add(p + ".lsm.stall_us_per_put", "us",
        Ratio(tick(Tickers::kLsmStallMicros), puts));
    add(p + ".lsm.write_group_size", "count",
        Ratio(tick(Tickers::kLsmWriteGroupSize),
              tick(Tickers::kLsmWriteGroups)));
    add(p + ".lsm.drain_s", "s", Median(er.drain_s));
    add(p + ".lsm.self_us_per_op", "us",
        Ratio((db_get.self_ns + db_put.self_ns) / 1e3, ops));
    add(p + ".unattributed_us_per_op", "us",
        Ratio((static_cast<double>(w.loop_ns) - db_get.total_ns -
               db_put.total_ns) /
                  1e3,
              ops));
    add(p + ".env.read_ops_per_get", "count",
        Ratio(under_get(SpanKind::kEnvRead).count, gets));
    add(p + ".env.read_bytes_per_get", "B",
        Ratio(under_get(SpanKind::kEnvRead).bytes, gets));
    add(p + ".env.read_us_per_get", "us", Ratio(env_get_ns / 1e3, gets));
    add(p + ".env.write_bytes_per_user_byte", "ratio",
        Ratio(outside_open(SpanKind::kEnvAppend).bytes, er.user_bytes));
    add(p + ".env.sync_count", "count",
        Ratio(outside_open(SpanKind::kEnvSync).count, rounds));
    const double ds = spec.ds ? 1 : 0;
    const SpanStat offload = sp.Total(SpanKind::kOffload);
    add(p + ".ds.round_trips_per_get", "count",
        ds * Ratio(env_get_calls, gets));
    add(p + ".ds.fabric_us_per_get", "us", ds * Ratio(env_get_ns / 1e3, gets));
    add(p + ".ds.bytes_per_op", "B",
        Ratio(tick(Tickers::kDsNetworkBytes), ops));
    add(p + ".ds.offload_calls", "count", Ratio(offload.count, rounds));
    add(p + ".ds.offload_us", "us",
        Ratio(offload.total_ns / 1e3, offload.count));
    add(p + ".trace.overhead", "ratio",
        1 - Ratio(Median(er.traced_ops_per_s), Median(er.ops_per_s)));
    if (e == Engine::kPlain) {
      add("plain.space_amp", "ratio", Median(er.space_amp));
      continue;
    }
    add("shield.crypto.decrypt_bytes_per_get", "B",
        Ratio(w.get_perf.decrypt_bytes, gets));
    add("shield.crypto.hmac_verifies_per_get", "count",
        Ratio(w.get_perf.hmac_verify_count, gets));
    add("shield.crypto.decrypt_us_per_get", "us",
        Ratio(w.get_perf.decrypt_micros, gets));
    add("shield.crypto.encrypt_bytes_per_user_byte", "ratio",
        Ratio(tick(Tickers::kCryptoBytesEncrypted), er.user_bytes));
    add("shield.crypto.encrypt_us_per_put", "us",
        Ratio(w.put_perf.encrypt_micros, puts));
    add("shield.wal_buffer_drains_per_put", "count",
        Ratio(tick(Tickers::kShieldWalBufferDrains), puts));
    const SpanStat create = sp.Total(SpanKind::kKdsCreate);
    const SpanStat get = sp.Total(SpanKind::kKdsGet);
    const SpanStat other = sp.Total(SpanKind::kKdsOther);
    add("shield.kds.calls", "count",
        Ratio(create.count + get.count + other.count, rounds));
    add("shield.kds.create_us", "us",
        Ratio(create.total_ns / 1e3, create.count));
    add("shield.kds.get_us", "us", Ratio(get.total_ns / 1e3, get.count));
  }
  add("paper.shield_vs_plain_ops", "ratio",
      Ratio(Median(results[1].ops_per_s), Median(results[0].ops_per_s)));
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& spec : kSpecs) v.push_back(spec.name);
    return v;
  }();
  return names;
}

namespace {
// The metric sets do not depend on the workload, so they are read off a
// report built from empty results.
std::vector<MetricDef> Defs(const std::vector<Metric>& metrics) {
  std::vector<MetricDef> defs;
  for (const Metric& m : metrics) defs.push_back({m.name, m.unit});
  return defs;
}
}  // namespace

std::vector<MetricDef> EndToEndMetrics() {
  RunReport report;
  AddEndToEnd({}, &report);
  return Defs(report.metrics);
}

std::vector<MetricDef> PerLayerMetrics() {
  RunReport report;
  AddPerLayer(kSpecs[0], {}, &report);
  return Defs(report.metrics);
}

Status RunWorkload(const RunOptions& ro, RunReport* report) {
  const Spec* spec = FindSpec(ro.workload);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload", ro.workload);
  }
  std::array<EngineResult, 2> results;
  for (int round = 0; round < spec->rounds; ++round) {
    const bool traced = ro.trace && round % 2 == 1;
    // ABBA: the engine that runs first alternates with seed and round.
    const bool plain_first = (ro.seed + round) % 2 == 0;
    for (int i = 0; i < 2; ++i) {
      const Engine e = kEngines[plain_first ? i : 1 - i];
      Status s = RunRound(*spec, e, ro, traced, round,
                          &results[static_cast<size_t>(e)], report);
      if (!s.ok()) return s;
    }
  }
  if (ro.trace) {
    AddPerLayer(*spec, results, report);
  } else {
    AddEndToEnd(results, report);
  }
  return Status::OK();
}

}  // namespace perfbench
