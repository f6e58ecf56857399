#ifndef DYNOPT_COMMON_HASH_H_
#define DYNOPT_COMMON_HASH_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace dynopt {

/// SplitMix64 finalizer: cheap, well-distributed 64-bit mixing. Used for
/// value hashing, hash-partitioning, and as the hash function feeding the
/// HyperLogLog sketch.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two hashes (boost-style but 64-bit).
inline uint64_t HashCombine(uint64_t seed, uint64_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// FNV-1a over arbitrary bytes, finalized through Mix64.
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

/// Hash of a double under the engine's cross-type key rule: integral
/// doubles hash like the equal int64, so cross-type join keys behave
/// consistently with Value::Compare; other doubles hash their bits. The
/// range check comes first: casting NaN, an infinity or a double beyond
/// int64's range to int64 is undefined behaviour.
inline uint64_t HashDouble(double d) {
  if (std::abs(d) < 9.0e18) {
    const int64_t i = static_cast<int64_t>(d);
    if (d == static_cast<double>(i)) return Mix64(static_cast<uint64_t>(i));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(d));
  return Mix64(bits);
}

}  // namespace dynopt

#endif  // DYNOPT_COMMON_HASH_H_
