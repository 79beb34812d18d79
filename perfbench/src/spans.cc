#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

// Raw records kept per collection period, over all threads. Aggregates
// are exact regardless; the cap only bounds the dump's size.
constexpr uint64_t kMaxRecords = 1 << 17;

struct Record {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t op_id = 0;
  uint64_t bytes = 0;
  SpanKind kind = SpanKind::kCount;
};

struct OpenSpan {
  SpanKind kind;
  uint64_t start_ns;
  uint64_t child_ns;
  int32_t record;
  uint32_t generation;  // of `records` when the span opened
};

struct ThreadSpans {
  int index = 0;
  // Only the owning thread touches the stack and the root fields.
  std::vector<OpenSpan> stack;
  Root root = Root::kBackground;
  uint32_t op_id = 0;
  uint32_t next_op_id = 0;

  // Read by CollectSpans/WriteSpans from another thread.
  std::mutex mu;
  SpanTable table;
  std::vector<Record> records;
  uint32_t generation = 0;  // bumped by ResetSpans
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_records{0};

std::mutex g_registry_mu;
// Threads end before the process does (DB background threads die at
// close); their spans stay here until collected.
std::vector<std::unique_ptr<ThreadSpans>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadSpans>>();
  return *registry;
}

ThreadSpans* Mine() {
  thread_local ThreadSpans* mine = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto& registry = Registry();
    registry.push_back(std::make_unique<ThreadSpans>());
    registry.back()->index = static_cast<int>(registry.size() - 1);
    return registry.back().get();
  }();
  return mine;
}

bool IsRoot(SpanKind kind) { return kind <= SpanKind::kDrain; }

}  // namespace

const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[kNumKinds] = {
      "db.get",      "db.put",          "db.open",   "db.drain",
      "env.open_table", "env.open_other", "env.read", "env.append",
      "env.sync",    "env.meta",        "kds.create", "kds.get",
      "kds.other",   "ds.offload"};
  return kNames[static_cast<size_t>(kind)];
}

const char* RootName(Root root) {
  static const char* const kNames[kNumRoots] = {"get", "put", "open", "drain",
                                               "background"};
  return kNames[static_cast<size_t>(root)];
}

SpanStat SpanTable::Total(SpanKind kind) const {
  SpanStat sum;
  for (const SpanStat& s : cells[static_cast<size_t>(kind)]) {
    sum.count += s.count;
    sum.total_ns += s.total_ns;
    sum.self_ns += s.self_ns;
    sum.bytes += s.bytes;
  }
  return sum;
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(SpanKind kind) : active_(TracingOn()) {
  if (!active_) return;
  ThreadSpans* t = Mine();
  int32_t parent = -1;
  if (t->stack.empty()) {
    if (IsRoot(kind)) {
      t->root = static_cast<Root>(kind);
      t->op_id = ++t->next_op_id;
    } else {
      t->root = Root::kBackground;
      t->op_id = 0;
    }
  }
  const uint64_t start = NowNs();
  int32_t record = -1;
  uint32_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    generation = t->generation;
    if (!t->stack.empty() && t->stack.back().generation == generation) {
      parent = t->stack.back().record;
    }
    if (g_records.fetch_add(1, std::memory_order_relaxed) < kMaxRecords) {
      record = static_cast<int32_t>(t->records.size());
      Record r;
      r.start_ns = start;
      r.parent = parent;
      r.op_id = t->op_id;
      r.kind = kind;
      t->records.push_back(r);
    }
  }
  t->stack.push_back(OpenSpan{kind, start, 0, record, generation});
}

Span::~Span() {
  if (!active_) return;
  ThreadSpans* t = Mine();
  const OpenSpan open = t->stack.back();
  t->stack.pop_back();
  const uint64_t end = NowNs();
  const uint64_t duration = end - open.start_ns;
  if (!t->stack.empty()) t->stack.back().child_ns += duration;

  std::lock_guard<std::mutex> lock(t->mu);
  SpanStat& cell = t->table.cells[static_cast<size_t>(open.kind)]
                                 [static_cast<size_t>(t->root)];
  cell.count++;
  cell.total_ns += duration;
  cell.self_ns += duration - std::min(duration, open.child_ns);
  cell.bytes += bytes_;
  if (open.record >= 0 && open.generation == t->generation) {
    t->records[open.record].end_ns = end;
    t->records[open.record].bytes = bytes_;
  }
}

void CollectSpans(SpanTable* into) {
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& t : Registry()) {
    std::lock_guard<std::mutex> lock(t->mu);
    for (size_t k = 0; k < kNumKinds; ++k) {
      for (size_t r = 0; r < kNumRoots; ++r) {
        const SpanStat& s = t->table.cells[k][r];
        SpanStat& m = into->cells[k][r];
        m.count += s.count;
        m.total_ns += s.total_ns;
        m.self_ns += s.self_ns;
        m.bytes += s.bytes;
      }
    }
  }
}

void ResetSpans() {
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& t : Registry()) {
    std::lock_guard<std::mutex> lock(t->mu);
    t->table = SpanTable();
    std::vector<Record>().swap(t->records);
    t->generation++;
  }
  g_records.store(0, std::memory_order_relaxed);
}

bool WriteSpans(const std::string& path, const std::string& label) {
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n", label.c_str());
  std::lock_guard<std::mutex> registry_lock(g_registry_mu);
  for (auto& t : Registry()) {
    std::lock_guard<std::mutex> lock(t->mu);
    for (const Record& r : t->records) {
      if (r.end_ns == 0) continue;  // still open when collected
      std::fprintf(f, "%d %s %llu %llu %d %u %llu\n", t->index,
                   SpanKindName(r.kind),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns), r.parent,
                   r.op_id, static_cast<unsigned long long>(r.bytes));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
