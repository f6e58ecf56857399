#ifndef DYNOPT_STATS_COLUMN_STATS_H_
#define DYNOPT_STATS_COLUMN_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
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

/// kInvalidArgument naming the first out-of-range field: gk_epsilon must lie
/// in (0, 0.5), hll_precision in [4, 18] and histogram_buckets in
/// [1, 65536]. Entry points that take caller-supplied options check them
/// here, before any sketch is built.
Status ValidateStatsOptions(const StatsOptions& options);

/// Whether a statistics builder keeps a Greenwald–Khanna sketch for the
/// equi-height histogram. Base tables collect quantiles; re-optimization
/// points skip them, because the planner reads an intermediate's counts,
/// bounds and HLL ndv but never its histogram (an intermediate's alias
/// carries no local predicate), and an empty histogram estimates a range at
/// Selinger's 1/3.
enum class Quantiles { kCollect, kSkip };

/// Finalized, immutable per-column statistics snapshot used by the
/// optimizer: distinct count (HLL), value range, and an equi-height
/// histogram for range selectivity (empty when built with
/// Quantiles::kSkip).
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

/// The rows of one typed column a bulk add reads: rows sel[0, n) when `sel`
/// is non-null, rows [0, n) otherwise. A row whose `validity` byte is 0 is
/// NULL; without a validity array every row is valid.
struct ColumnRows {
  const uint8_t* validity = nullptr;
  const uint32_t* sel = nullptr;
  size_t n = 0;
};

/// Streaming accumulator for one column; mergeable across partitions.
///
/// Typed columns are added in bulk, each add equivalent to Add(Value) of
/// every row in order but without making any row a Value: HLL hashes are
/// the value hashes (Mix64, HashDouble, a dictionary's cached HashString),
/// the GK key is Value::NumericKey, and min/max follow Value::Compare —
/// numbers compare as doubles, strings bytewise, every number sorts before
/// every string, and the first occurrence wins ties — becoming a Value once
/// per call.
class ColumnStatsBuilder {
 public:
  /// With Quantiles::kSkip no GK sketch exists: values feed only the
  /// counts, bounds and HLL, and Finalize leaves the histogram empty.
  explicit ColumnStatsBuilder(const StatsOptions& options = StatsOptions(),
                              Quantiles quantiles = Quantiles::kCollect);

  /// One value: the row-at-a-time oracle the typed bulk adds must match
  /// (TableStatsBuilder::AddRow and the tests).
  void Add(const Value& v);
  void AddInt64s(const int64_t* values, const ColumnRows& rows);
  void AddDoubles(const double* values, const ColumnRows& rows);
  /// Bytes are booleans: 0 is false, anything else true.
  void AddBools(const uint8_t* values, const ColumnRows& rows);
  /// Dictionary-encoded strings: row i holds entries[codes[i]], whose
  /// HashString is hashes[codes[i]].
  void AddStrings(const uint32_t* codes, const std::string* entries,
                  const uint64_t* hashes, const ColumnRows& rows);
  /// The merge keeps a GK sketch only when both sides have one.
  void Merge(const ColumnStatsBuilder& other);
  ColumnStatsSnapshot Finalize() const;

  uint64_t count() const { return count_; }

 private:
  template <typename Column>
  void AddNumbers(const Column& column, const ColumnRows& rows);
  /// Calls add(i) for each valid selected row i and inserts the GK keys it
  /// returns, when there is a sketch; returns the number of NULL rows.
  template <typename AddRow>
  uint64_t AddValidRows(const ColumnRows& rows, AddRow&& add);

  StatsOptions options_;
  uint64_t count_ = 0;
  uint64_t null_count_ = 0;
  Value min_value_;
  Value max_value_;
  std::optional<GkQuantileSketch> gk_;  ///< Empty under Quantiles::kSkip.
  HyperLogLog hll_;
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_COLUMN_STATS_H_
