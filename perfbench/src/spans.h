#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder for the traced run. The benchmark's own
// wrappers (its own DB calls, TimedEnv, TimedKds, TimedCompactionService)
// open a span around each call they make into a layer. Every thread
// keeps its open spans on a stack, so a span knows its parent and the
// benchmark operation (root) that caused it; spans opened on a thread
// with no benchmark operation in flight belong to the `background` root.
//
// Each closed span is aggregated on the spot (count, inclusive and self
// time, bytes per (kind, root)) and, while fewer than a fixed number of
// records are held over all threads, appended to the thread's raw record
// buffer, which WriteSpans dumps after each traced round. Recording is
// off unless SetTracing(true); while it is off, a wrapped call costs one
// relaxed atomic load.

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

enum class SpanKind : uint8_t {
  // The benchmark's own DB calls (roots).
  kGet,
  kPut,
  kOpen,   // DB::Open on reopen
  kDrain,  // Flush() + WaitForIdle()
  // env layer (TimedEnv).
  kEnvOpenTable,  // NewRandomAccessFile of an .sst
  kEnvOpenOther,  // any other file open
  kEnvRead,
  kEnvAppend,
  kEnvSync,  // Sync/Flush/Close of a writable file
  kEnvMeta,  // directory and namespace calls
  // kds layer (TimedKds).
  kKdsCreate,
  kKdsGet,
  kKdsOther,
  // ds offload (TimedCompactionService).
  kOffload,
  kCount,
};

/// Roots: the four benchmark operations plus `background`.
enum class Root : uint8_t { kGet, kPut, kOpen, kDrain, kBackground, kCount };

constexpr size_t kNumKinds = static_cast<size_t>(SpanKind::kCount);
constexpr size_t kNumRoots = static_cast<size_t>(Root::kCount);

const char* SpanKindName(SpanKind kind);
const char* RootName(Root root);

struct SpanStat {
  uint64_t count = 0;
  uint64_t total_ns = 0;  // inclusive
  uint64_t self_ns = 0;   // minus time covered by child spans
  uint64_t bytes = 0;
};

/// Aggregates of every span closed since the last ResetSpans().
struct SpanTable {
  std::array<std::array<SpanStat, kNumRoots>, kNumKinds> cells{};

  const SpanStat& at(SpanKind kind, Root root) const {
    return cells[static_cast<size_t>(kind)][static_cast<size_t>(root)];
  }
  /// Sum of `kind` over every root.
  SpanStat Total(SpanKind kind) const;
};

void SetTracing(bool on);
bool TracingOn();

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

/// Opens a span on the calling thread; closes it on destruction. Does
/// nothing while tracing is off.
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();

  void AddBytes(uint64_t n) { bytes_ += n; }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  uint64_t bytes_ = 0;
};

/// Adds every thread's aggregates into `*into`.
void CollectSpans(SpanTable* into);

/// Clears aggregates and raw records of every thread.
void ResetSpans();

/// Appends every thread's raw records to `path` as text, one span per
/// line: thread, name, start_ns, end_ns, parent (index in the thread,
/// -1 for none), op id, bytes. Returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::string& label);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
