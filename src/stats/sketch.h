#ifndef DYNOPT_STATS_SKETCH_H_
#define DYNOPT_STATS_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dynopt {

/// Predicate-transfer sketches ("Online Sketch-based Query Optimization"):
/// a partitioned Bloom filter carrying the set of join-key hashes a dataset
/// actually contains, and a Fast-AGMS sketch whose cross product estimates
/// join sizes from key-frequency vectors. Both are deterministic under a
/// fixed seed and mergeable across worker shards, so per-partition builders
/// can be combined into one dataset-level sketch.
///
/// Every operation consumes a precomputed 64-bit key hash — the executor
/// hashes key columns with the same HashKeyColumns function the shuffle
/// uses, so equal keys produce equal hashes on both join sides
/// regardless of which column carries them.

/// SplitMix64 finalizer: the remix both sketches use to derive independent
/// hash functions from one key hash. Kept local to the stats layer so the
/// library keeps depending only on dynopt_common.
inline uint64_t SketchMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shared knobs for one sketch family; two sketches are mergeable /
/// comparable only when built from identical options. The engine builds
/// every sketch from the defaults.
struct SketchOptions {
  double bits_per_key = 8.0;  ///< Bloom budget in bits per expected key.
  size_t agms_depth = 5;      ///< Independent estimator rows (median taken).
  size_t agms_width = 256;    ///< Counters per row.
  uint64_t seed = 0x5eed5eedULL;
};

/// Partitioned (blocked) Bloom filter: k = round(bits_per_key * ln 2) hash
/// functions, each owning a private slice of the bit array, so a lookup is
/// exactly k independent probes and merging shards is a bitwise OR. No
/// false negatives ever; false-positive rate ~= (1 - e^(-n*k/m))^k.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_keys` insertions at `bits_per_key`.
  /// Deterministic: equal arguments yield equal layouts, so per-partition
  /// builders sized from the same total merge cleanly.
  BloomFilter(uint64_t expected_keys, double bits_per_key,
              uint64_t seed = SketchOptions().seed);

  void Insert(uint64_t key_hash);
  bool MayContain(uint64_t key_hash) const;

  /// Bitwise OR of another shard built with identical layout; returns false
  /// (and leaves this filter unchanged) on a layout mismatch.
  bool MergeFrom(const BloomFilter& other);

  uint64_t num_bits() const { return slice_bits_ * num_hashes_; }
  size_t num_hashes() const { return num_hashes_; }
  /// Wire size when shipped to probe-side nodes (metered as network bytes).
  uint64_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }
  uint64_t num_inserted() const { return num_inserted_; }

 private:
  void Probe(uint64_t key_hash, uint64_t* slots) const;

  uint64_t seed_;
  size_t num_hashes_;
  uint64_t slice_bits_;  ///< Bits per hash-function slice.
  uint64_t num_inserted_ = 0;
  std::vector<uint64_t> words_;
};

/// Fast-AGMS (Count-Sketch) frequency sketch over join-key hashes: depth
/// rows of width signed counters. The dot product of two sketches over the
/// same key domain estimates sum_k f_A(k) * f_B(k) — the equi-join size —
/// and the median over depth independent rows controls variance, which is
/// what lets it see hot-key skew the ndv-quotient formula misses.
class FastAgmsSketch {
 public:
  explicit FastAgmsSketch(const SketchOptions& options = SketchOptions());

  void Update(uint64_t key_hash, int64_t count = 1);

  /// Estimated equi-join cardinality against `other` (median of per-row
  /// dot products, clamped at zero). Returns -1 on a shape/seed mismatch.
  double JoinSizeEstimate(const FastAgmsSketch& other) const;

  /// Estimated sum of squared key frequencies (self-join size).
  double SelfJoinSize() const { return JoinSizeEstimate(*this); }

  /// Elementwise add of another shard; returns false on a shape mismatch.
  bool MergeFrom(const FastAgmsSketch& other);

  size_t depth() const { return depth_; }
  size_t width() const { return width_; }
  uint64_t SizeBytes() const { return counters_.size() * sizeof(int64_t); }
  uint64_t total_count() const { return total_count_; }

 private:
  bool SameShape(const FastAgmsSketch& other) const {
    return depth_ == other.depth_ && width_ == other.width_ &&
           seed_ == other.seed_;
  }

  size_t depth_;
  size_t width_;
  uint64_t seed_;
  uint64_t total_count_ = 0;
  std::vector<int64_t> counters_;  ///< depth_ x width_, row-major.
};

/// Both sketches for one (dataset, join-key column) pair, plus the exact
/// row count observed while building them.
struct JoinKeySketch {
  /// Empty sketches at the default SketchOptions, the Bloom filter sized
  /// for `expected_keys` insertions (at least 1), so shards sized from the
  /// same total merge cleanly.
  static JoinKeySketch ForKeys(uint64_t expected_keys) {
    return JoinKeySketch{
        BloomFilter(std::max<uint64_t>(expected_keys, 1),
                    SketchOptions().bits_per_key),
        FastAgmsSketch(), 0, 0};
  }

  BloomFilter bloom;
  FastAgmsSketch agms;
  uint64_t rows = 0;       ///< Rows scanned (including null keys).
  uint64_t null_keys = 0;  ///< Rows whose key was null (never inserted).
};

/// Thread-safe registry mapping "dataset|column" -> sketch, mirroring
/// StatsManager: load-time sketches for base tables, online sketches for
/// materialized intermediates. Entries are immutable once published
/// (shared_ptr<const>), so readers never race a re-Put.
class SketchManager {
 public:
  static std::string Key(const std::string& table, const std::string& column) {
    return table + "|" + column;
  }

  void Put(const std::string& table, const std::string& column,
           std::shared_ptr<const JoinKeySketch> sketch);
  /// nullptr when no sketch exists for (table, column).
  std::shared_ptr<const JoinKeySketch> Get(const std::string& table,
                                           const std::string& column) const;
  bool Has(const std::string& table, const std::string& column) const;
  /// Drops every sketch of `table` (all columns) — temp-table cleanup.
  void RemoveTable(const std::string& table);
  void Clear();

  std::vector<std::string> Keys() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const JoinKeySketch>> sketches_;
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_SKETCH_H_
