#ifndef DYNOPT_EXEC_JOIN_HASH_TABLE_H_
#define DYNOPT_EXEC_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <vector>

namespace dynopt {

/// Flat build table for the local hash join: a power-of-two bucket array of
/// chain heads plus one `next` link per build row, all stored in three
/// contiguous vectors sized exactly once from the build side. Compared to
/// the previous std::unordered_map<uint64_t, std::vector<size_t>> this
/// performs zero per-key heap allocations and keeps probes on cache lines
/// instead of node pointers ("Design Trade-offs for a Robust Dynamic Hybrid
/// Hash Join": flat build-table design).
///
/// Chains are built by inserting rows in reverse, so traversal yields build
/// indices in ascending order — the same match-emission order as the
/// oracle's map of insertion-ordered index vectors, which keeps downstream
/// row order (and thus order-sensitive statistics sketches) bit-identical.
class JoinHashTable {
 public:
  static constexpr uint32_t kEnd = 0xffffffffu;

  /// Builds the table: `hashes[0..n)` are the combined key hashes of the
  /// build batch's rows (flat partition index space) and `key_null[i]` != 0
  /// marks rows whose key contains a NULL; those are stored with hash 0 and
  /// left unlinked (NULL keys never match).
  void Build(const uint64_t* hashes, const uint8_t* key_null, size_t n) {
    hashes_.resize(n);
    next_.assign(n, kEnd);
    // 2x overprovisioning keeps the bucket array mostly empty, so the common
    // probe-miss path is a single predictable branch-not-taken on an
    // L1/L2-resident array instead of a chain walk.
    size_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    heads_.assign(cap, kEnd);
    mask_ = cap - 1;
    // Reverse insertion + head-prepend == ascending chain order.
    for (size_t i = n; i-- > 0;) {
      if (key_null[i]) {
        hashes_[i] = 0;
        continue;
      }
      const uint64_t h = hashes[i];
      hashes_[i] = h;
      const size_t bucket = h & mask_;
      next_[i] = heads_[bucket];
      heads_[bucket] = static_cast<uint32_t>(i);
    }
  }

  /// Raw views for the probe loop (valid after Build(), even for an empty
  /// build side): the chain of hash h starts at heads()[h & mask()] and
  /// follows next() until kEnd; entries on a chain may carry other hashes,
  /// so callers compare hashes()[i]. Hoisting these into const locals keeps
  /// them in registers across the emission writes (which the compiler must
  /// otherwise assume could alias the vectors' headers).
  const uint32_t* heads() const { return heads_.data(); }
  const uint32_t* next() const { return next_.data(); }
  const uint64_t* hashes() const { return hashes_.data(); }
  size_t mask() const { return mask_; }

 private:
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> hashes_;
  size_t mask_ = 0;
};

}  // namespace dynopt

#endif  // DYNOPT_EXEC_JOIN_HASH_TABLE_H_
