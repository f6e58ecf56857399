#include "stats/column_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace dynopt {

double ColumnStatsSnapshot::EstimateEqSelectivity(const Value& v) const {
  if (count == 0 || ndv <= 0) return 0.1;  // Selinger default 1/10.
  if (!v.is_null() && !min_value.is_null() && !max_value.is_null()) {
    if (v < min_value || v > max_value) return 0.0;
  }
  return std::clamp(1.0 / ndv, 0.0, 1.0);
}

double ColumnStatsSnapshot::EstimateRangeSelectivity(const Value& lo,
                                                     const Value& hi) const {
  if (count == 0) return 1.0 / 3.0;
  double lo_key = lo.is_null() ? -std::numeric_limits<double>::infinity()
                               : lo.NumericKey();
  double hi_key = hi.is_null() ? std::numeric_limits<double>::infinity()
                               : hi.NumericKey();
  return histogram.EstimateRangeFraction(lo_key, hi_key);
}

std::string ColumnStatsSnapshot::ToString() const {
  std::ostringstream os;
  os << "count=" << count << " nulls=" << null_count << " ndv=" << ndv
     << " min=" << min_value.ToString() << " max=" << max_value.ToString();
  return os.str();
}

ColumnStatsBuilder::ColumnStatsBuilder(const StatsOptions& options)
    : options_(options),
      gk_(options.gk_epsilon),
      hll_(options.hll_precision) {}

void ColumnStatsBuilder::Add(const Value& v) {
  ++count_;
  if (v.is_null()) {
    ++null_count_;
    return;
  }
  if (min_value_.is_null() || v < min_value_) min_value_ = v;
  if (max_value_.is_null() || v > max_value_) max_value_ = v;
  hll_.Add(v.Hash());
  gk_.Insert(v.NumericKey());
}

void ColumnStatsBuilder::AddString(const std::string& s, uint64_t hash) {
  ++count_;
  // Value::Compare orders every non-string, non-NULL value before every
  // string, and strings bytewise.
  auto compare = [&s](const Value& bound) {
    if (bound.type() != ValueType::kString) return -1;
    return bound.AsStringUnchecked().compare(s);
  };
  if (min_value_.is_null() || compare(min_value_) > 0) min_value_ = Value(s);
  if (max_value_.is_null() || compare(max_value_) < 0) max_value_ = Value(s);
  hll_.Add(hash);
  gk_.Insert(static_cast<double>(hash >> 11));  // Value::NumericKey.
}

void ColumnStatsBuilder::Merge(const ColumnStatsBuilder& other) {
  count_ += other.count_;
  null_count_ += other.null_count_;
  if (!other.min_value_.is_null() &&
      (min_value_.is_null() || other.min_value_ < min_value_)) {
    min_value_ = other.min_value_;
  }
  if (!other.max_value_.is_null() &&
      (max_value_.is_null() || other.max_value_ > max_value_)) {
    max_value_ = other.max_value_;
  }
  hll_.Merge(other.hll_);
  gk_.Merge(other.gk_);
}

ColumnStatsSnapshot ColumnStatsBuilder::Finalize() const {
  ColumnStatsSnapshot snap;
  snap.count = count_;
  snap.null_count = null_count_;
  const uint64_t non_null = count_ - null_count_;
  if (non_null > 0) {
    snap.ndv = std::min(hll_.Estimate(), static_cast<double>(non_null));
    snap.ndv = std::max(snap.ndv, 1.0);
  }
  snap.min_value = min_value_;
  snap.max_value = max_value_;
  snap.histogram =
      EquiHeightHistogram::FromSketch(gk_, options_.histogram_buckets);
  return snap;
}

}  // namespace dynopt
