#ifndef DYNOPT_EXEC_JOIN_HASH_TABLE_H_
#define DYNOPT_EXEC_JOIN_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/value.h"
#include "common/row_kernels.h"

namespace dynopt {

/// True when any of the key slots of `row` is NULL (SQL equi-join
/// semantics: NULL keys never match, so such rows are skipped on both the
/// build and the probe side).
inline bool AnyJoinKeyNull(const Row& row, const std::vector<int>& keys) {
  for (int k : keys) {
    if (row[static_cast<size_t>(k)].is_null()) return true;
  }
  return false;
}

/// Compares the key slots of two rows position-wise.
inline bool JoinKeysEqual(const Row& a, const std::vector<int>& a_keys,
                          const Row& b, const std::vector<int>& b_keys) {
  for (size_t i = 0; i < a_keys.size(); ++i) {
    if (a[static_cast<size_t>(a_keys[i])] !=
        b[static_cast<size_t>(b_keys[i])]) {
      return false;
    }
  }
  return true;
}

/// Flat build table for the local hash join: a power-of-two bucket array of
/// chain heads plus one `next` link per build row, all stored in three
/// contiguous vectors sized exactly once from the build side. Compared to
/// the previous std::unordered_map<uint64_t, std::vector<size_t>> this
/// performs zero per-key heap allocations and keeps probes on cache lines
/// instead of node pointers ("Design Trade-offs for a Robust Dynamic Hybrid
/// Hash Join": flat build-table design).
///
/// Chains are built by inserting rows in reverse, so traversal yields build
/// indices in ascending order — the same match-emission order as the old
/// map of insertion-ordered index vectors, which keeps downstream row order
/// (and thus order-sensitive statistics sketches) bit-identical.
class JoinHashTable {
 public:
  static constexpr uint32_t kEnd = 0xffffffffu;

  /// Builds over `rows`; rows with NULL keys are excluded. When
  /// `precomputed` is non-null it must hold HashRowKey(rows[i], keys) for
  /// every i (the shuffle already paid for those), otherwise hashes are
  /// computed here.
  void Build(const std::vector<Row>& rows, const std::vector<int>& keys,
             const std::vector<uint64_t>* precomputed) {
    const size_t n = rows.size();
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
      // The NULL-key check dereferences each row's payload — a pointer
      // chase like the shuffle's; prefetch far enough ahead (behind, here)
      // to hide the miss latency.
      if (i >= 16) {
        __builtin_prefetch(rows[i - 16].data());
      }
      if (AnyJoinKeyNull(rows[i], keys)) {
        hashes_[i] = 0;
        continue;
      }
      const uint64_t h = precomputed != nullptr ? (*precomputed)[i]
                                                : HashRowKeyInline(rows[i], keys);
      hashes_[i] = h;
      const size_t bucket = h & mask_;
      next_[i] = heads_[bucket];
      heads_[bucket] = static_cast<uint32_t>(i);
    }
  }

  /// Columnar build: `hashes[0..n)` are the combined key hashes of the
  /// build batch's rows (flat partition index space) and `key_null[i]` != 0
  /// marks rows whose key contains a NULL. Identical table shape to Build()
  /// — reverse insertion, 2x overprovisioned power-of-two buckets, NULL-key
  /// rows stored with hash 0 and left unlinked.
  void BuildFromHashes(const uint64_t* hashes, const uint8_t* key_null,
                       size_t n) {
    hashes_.resize(n);
    next_.assign(n, kEnd);
    size_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    heads_.assign(cap, kEnd);
    mask_ = cap - 1;
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

  /// Head of the chain for hash `h` (kEnd when empty). Entries on the chain
  /// may carry different hashes; callers filter with hash_at(). Build()
  /// must have been called (the bucket array always exists afterwards, even
  /// for an empty build side).
  uint32_t First(uint64_t h) const { return heads_[h & mask_]; }

  uint32_t Next(uint32_t i) const { return next_[i]; }

  uint64_t hash_at(uint32_t i) const { return hashes_[i]; }

  /// Raw views for hot probe loops: hoisting these into const locals keeps
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
