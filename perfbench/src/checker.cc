#include "checker.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

constexpr uint64_t kMask60 = (uint64_t{1} << 60) - 1;

void PutFixed32(char* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<char>(v >> (8 * i));
}

uint32_t GetFixed32(const char* src) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(src[i])) << (8 * i);
  }
  return v;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ull;
  return Mix(state_);
}

Keyspace::Keyspace(uint64_t seed, uint64_t keys, size_t value_size,
                   int writers)
    : seed_(seed),
      keys_(keys),
      value_size_(value_size < kMinValueSize ? kMinValueSize : value_size),
      writers_(writers < 1 ? 1 : writers),
      committed_(new std::atomic<uint32_t>[keys]) {
  for (uint64_t i = 0; i < keys; ++i) {
    committed_[i].store(0, std::memory_order_relaxed);
  }
}

std::string Keyspace::Key(uint64_t index) const {
  // Odd multipliers and an xor-shift are bijections on 60 bits, so keys
  // are distinct, spread over the whole key range, and seed-dependent.
  uint64_t x = (index * 0x9E3779B97F4A7C15ull + Mix(seed_)) & kMask60;
  x ^= x >> 29;
  x = (x * 0xD6E8FEB86659FD93ull) & kMask60;
  static const char kHex[] = "0123456789abcdef";
  std::string key(kKeySize, 'k');
  for (size_t i = kKeySize; i-- > 1;) {
    key[i] = kHex[x & 0xf];
    x >>= 4;
  }
  return key;
}

std::string Keyspace::Value(uint64_t index, uint32_t version) const {
  std::string value(value_size_, '\0');
  PutFixed32(&value[0], version);
  PutFixed32(&value[4], static_cast<uint32_t>(index));
  uint64_t stream = Mix(seed_ ^ Mix(index) ^ (uint64_t{version} << 40));
  for (size_t pos = kMinValueSize; pos < value_size_; pos += 8) {
    stream = Mix(stream);
    const size_t n = std::min<size_t>(8, value_size_ - pos);
    std::memcpy(&value[pos], &stream, n);
  }
  return value;
}

Verdict Keyspace::Judge(uint64_t index, uint32_t before, uint32_t after,
                        const shield::Status& s,
                        const std::string& value) const {
  if (s.IsNotFound()) {
    return before == 0 ? Verdict::kOk : Verdict::kWrong;
  }
  if (!s.ok()) return Verdict::kFailed;
  if (index >= keys_ || value.size() != value_size_) return Verdict::kWrong;
  const uint32_t version = GetFixed32(value.data());
  if (GetFixed32(value.data() + 4) != static_cast<uint32_t>(index) ||
      version == 0 || version < before ||
      static_cast<uint64_t>(version) > uint64_t{after} + 1) {
    return Verdict::kWrong;
  }
  return value == Value(index, version) ? Verdict::kOk : Verdict::kWrong;
}

bool Keyspace::JudgeEntry(const std::string& key,
                          const std::string& value) const {
  if (value.size() != value_size_) return false;
  const uint64_t index = GetFixed32(value.data() + 4);
  if (index >= keys_ || Key(index) != key) return false;
  const uint32_t version = GetFixed32(value.data());
  return version != 0 && version == Committed(index) &&
         value == Value(index, version);
}

}  // namespace perfbench
