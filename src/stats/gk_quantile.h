#ifndef DYNOPT_STATS_GK_QUANTILE_H_
#define DYNOPT_STATS_GK_QUANTILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dynopt {

/// Greenwald–Khanna epsilon-approximate quantile summary.
///
/// This is the sketch the paper (Section 4) uses to extract the bucket
/// borders of equi-height histograms: "Following the Greenwald-Khanna
/// algorithm, we extract quantiles which represent the right border of a
/// bucket in an equi-height histogram."
///
/// Guarantees: after inserting n values, Quantile(phi) returns a value whose
/// rank is within eps*n of ceil(phi*n). Summaries for different partitions
/// of a dataset can be merged (error degrades to the sum of the component
/// epsilons, which is the standard GK merging bound).
///
/// Inserts are buffered (at most one compress period and never more than
/// kMaxPending values), and the summary is byte-identical to inserting one
/// value at a time: binary search, insert ahead of equal values with
/// delta = floor(2*eps*n) when min < x <= max, and a greedy compress every
/// floor(1/(2*eps)) inserts. Each pending value's delta is fixed in
/// insertion order. The summary does not change while inserts are
/// pending, so a flush finds each pending value's slot among the tuples
/// (branch-free binary searches), orders the pending values by slot (then
/// by value, later inserts first on ties) and scatters both runs into
/// place without comparing them again; a period's last flush then
/// compresses in place. A NaN key has no order to search, so the first one
/// switches the sketch to one-at-a-time inserts for good. Const queries
/// flush first, so a sketch with pending inserts must not be read from two
/// threads at once.
class GkQuantileSketch {
 public:
  explicit GkQuantileSketch(double epsilon = 0.005);

  /// Inserts one observation.
  void Insert(double value) { Insert(&value, 1); }
  /// Inserts n observations in order.
  void Insert(const double* values, size_t n);

  /// Merges another summary into this one (partition-level collection).
  void Merge(const GkQuantileSketch& other);

  /// Returns an eps-approximate phi-quantile, phi in [0, 1]. Requires
  /// count() > 0.
  double Quantile(double phi) const;

  /// Estimated fraction of inserted values that are <= v (an approximate
  /// CDF evaluation). Returns a value in [0, 1]; 0 if empty.
  double EstimateRankFraction(double v) const;

  /// Extracts `num_buckets + 1` boundaries of an equi-height histogram
  /// (the 0/num_buckets ... num_buckets/num_buckets quantiles).
  std::vector<double> ExtractBoundaries(int num_buckets) const;

  uint64_t count() const { return count_; }
  double epsilon() const { return epsilon_; }
  size_t NumTuples() const { return tuples_.size() + pending_.size(); }

  /// GK summary tuple: value v covers g ranks; delta bounds rank slack.
  struct Tuple {
    double v;
    uint64_t g;
    uint64_t delta;
  };
  /// The flushed summary, in order (for tests).
  const std::vector<Tuple>& tuples() const;

 private:
  /// Most pending inserts a sketch holds, whatever epsilon is.
  static constexpr size_t kMaxPending = 256;

  /// A buffered insert: its delta, its position in insertion order and,
  /// during a flush, its slot (the number of summary tuples below it).
  struct Pending {
    double v;
    uint64_t delta;
    uint32_t seq;
    uint32_t slot;
  };

  /// Moves the pending inserts into tuples_, compressing afterwards when a
  /// compress period has just ended.
  void Flush(bool compress) const;
  /// GK's greedy in-place compress under the current count.
  void Compress() const;
  /// The unbuffered insert, used once a NaN key has been seen.
  void InsertOne(double value);
  /// Replaces each of the k non-decreasing phis in `values` with
  /// Quantile(phi), in one sweep: the first qualifying tuple never moves
  /// left as phi grows.
  void QuantilesInPlace(double* values, size_t k) const;

  double epsilon_;
  uint64_t compress_period_;
  uint64_t count_ = 0;
  uint64_t inserts_since_compress_ = 0;
  /// False once a NaN key has been inserted here or merged in.
  bool ordered_ = true;
  /// Min and max of the summary plus pending inserts (valid while
  /// pending_ is non-empty).
  double lo_ = 0.0;
  double hi_ = 0.0;
  mutable std::vector<Tuple> tuples_;  // Sorted by v while ordered_.
  mutable std::vector<Pending> pending_;  // In insertion order.
  // Reused by every flush, so that a warm sketch allocates nothing: the
  // pending inserts ordered by slot, and per-slot counts.
  mutable std::vector<Pending> by_slot_;
  mutable std::vector<uint32_t> slot_ends_;
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_GK_QUANTILE_H_
