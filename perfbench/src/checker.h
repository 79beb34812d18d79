#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

// The benchmark's own answer model. Keys are indices into a seeded,
// scrambled keyspace; indices in [0, keys) may be written and indices in
// [keys, 2*keys) never are. Each writable key has exactly one writer
// (index % writers), so its versions form one sequence; a value is
// derived from (seed, index, version) and carries both, which lets a
// reader decide from the bytes alone whether an answer is current.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace perfbench {

/// Seeded splitmix64 stream; one per thread.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t Mix(uint64_t x);

enum class Verdict { kOk, kFailed, kWrong };

class Keyspace {
 public:
  static constexpr size_t kKeySize = 16;
  /// Version (4 bytes) and index (4 bytes) lead every value.
  static constexpr size_t kMinValueSize = 8;

  Keyspace(uint64_t seed, uint64_t keys, size_t value_size, int writers);

  uint64_t keys() const { return keys_; }
  size_t value_size() const { return value_size_; }
  int writers() const { return writers_; }

  std::string Key(uint64_t index) const;
  std::string Value(uint64_t index, uint32_t version) const;

  /// The last version whose Put returned OK (0 = never written).
  uint32_t Committed(uint64_t index) const {
    return committed_[index].load(std::memory_order_acquire);
  }
  /// Only the key's writer calls this, after its Put returned OK.
  void Commit(uint64_t index, uint32_t version) {
    committed_[index].store(version, std::memory_order_release);
  }

  /// Judges a Get of `index`. `before` is Committed(index) read before
  /// the Get was issued and `after` the same read after it returned: a
  /// written key must return a version in [before, after + 1] (the +1
  /// is the owner's Put in flight), a never-written or absent key must
  /// return NotFound. A status other than OK/NotFound is a failed
  /// operation; anything else that disagrees is a wrong answer.
  Verdict Judge(uint64_t index, uint32_t before, uint32_t after,
                const shield::Status& s, const std::string& value) const;

  /// Judges one entry of a full scan: the value must name the key it is
  /// stored under and be the committed version.
  bool JudgeEntry(const std::string& key, const std::string& value) const;

 private:
  const uint64_t seed_;
  const uint64_t keys_;
  const size_t value_size_;
  const int writers_;
  std::unique_ptr<std::atomic<uint32_t>[]> committed_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
