#ifndef DYNOPT_STATS_COLUMN_STATS_H_
#define DYNOPT_STATS_COLUMN_STATS_H_

#include <string>

#include "common/value.h"
#include "stats/gk_quantile.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"

namespace dynopt {

/// Tuning knobs for statistics collection (sketch resolution). The defaults
/// match the accuracy regime the paper relies on: fine enough that single
/// fixed-value range predicates estimate well, cheap enough that collection
/// is a small fraction of scan cost.
struct StatsOptions {
  double gk_epsilon = 0.005;
  int hll_precision = 12;
  int histogram_buckets = 64;
};

/// Finalized, immutable per-column statistics snapshot used by the
/// optimizer: distinct count (HLL), value range, and an equi-height
/// histogram for range selectivity.
struct ColumnStatsSnapshot {
  uint64_t count = 0;
  uint64_t null_count = 0;
  double ndv = 0.0;
  Value min_value;
  Value max_value;
  EquiHeightHistogram histogram;

  /// Selectivity of `column = v` among non-null values: 1/ndv (uniform
  /// within distinct values), clamped to [0, 1]. Out-of-range constants
  /// estimate ~0.
  double EstimateEqSelectivity(const Value& v) const;

  /// Selectivity of values in [lo, hi] (either side may be open: pass a
  /// null Value). Uses the histogram.
  double EstimateRangeSelectivity(const Value& lo, const Value& hi) const;

  std::string ToString() const;
};

/// Streaming accumulator for one column; mergeable across partitions.
class ColumnStatsBuilder {
 public:
  explicit ColumnStatsBuilder(const StatsOptions& options = StatsOptions());

  void Add(const Value& v);
  /// Add(Value(s)) for a string whose HashString is already known (a
  /// dictionary's cached hash), without materializing the Value.
  void AddString(const std::string& s, uint64_t hash);
  void Merge(const ColumnStatsBuilder& other);
  ColumnStatsSnapshot Finalize() const;

  uint64_t count() const { return count_; }

 private:
  StatsOptions options_;
  uint64_t count_ = 0;
  uint64_t null_count_ = 0;
  Value min_value_;
  Value max_value_;
  GkQuantileSketch gk_;
  HyperLogLog hll_;
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_COLUMN_STATS_H_
