#include "stats/column_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/hash.h"

namespace dynopt {

Status ValidateStatsOptions(const StatsOptions& options) {
  if (!(options.gk_epsilon > 0 && options.gk_epsilon < 0.5)) {
    return Status::InvalidArgument(
        "StatsOptions.gk_epsilon must be in (0, 0.5), got " +
        std::to_string(options.gk_epsilon));
  }
  if (options.hll_precision < 4 || options.hll_precision > 18) {
    return Status::InvalidArgument(
        "StatsOptions.hll_precision must be in [4, 18], got " +
        std::to_string(options.hll_precision));
  }
  if (options.histogram_buckets < 1 || options.histogram_buckets > 65536) {
    return Status::InvalidArgument(
        "StatsOptions.histogram_buckets must be in [1, 65536], got " +
        std::to_string(options.histogram_buckets));
  }
  return Status::OK();
}

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

ColumnStatsBuilder::ColumnStatsBuilder(const StatsOptions& options,
                                       Quantiles quantiles)
    : options_(options), hll_(options.hll_precision) {
  if (quantiles == Quantiles::kCollect) gk_.emplace(options.gk_epsilon);
}

void ColumnStatsBuilder::Add(const Value& v) {
  ++count_;
  if (v.is_null()) {
    ++null_count_;
    return;
  }
  if (min_value_.is_null() || v < min_value_) min_value_ = v;
  if (max_value_.is_null() || v > max_value_) max_value_ = v;
  hll_.Add(v.Hash());
  if (gk_) gk_->Insert(v.NumericKey());
}

namespace {

// GK keys are handed to the sketch this many at a time.
constexpr size_t kKeyBatch = 256;

// Calls add(i) for each valid selected row i, in order, and, when kKeys,
// inserts the GK keys it returns into `gk`; returns the number of NULL rows.
template <bool kKeys, typename AddRow>
uint64_t ScanValidRows(const ColumnRows& rows, GkQuantileSketch* gk,
                       AddRow&& add) {
  double keys[kKeys ? kKeyBatch : 1] = {};
  size_t num_keys = 0;
  uint64_t nulls = 0;
  for (size_t k = 0; k < rows.n; ++k) {
    const size_t i = rows.sel != nullptr ? rows.sel[k] : k;
    if (rows.validity != nullptr && rows.validity[i] == 0) {
      ++nulls;
      continue;
    }
    const double key = add(i);
    if constexpr (kKeys) {
      keys[num_keys++] = key;
      if (num_keys == kKeyBatch) {
        gk->Insert(keys, num_keys);
        num_keys = 0;
      }
    }
  }
  if constexpr (kKeys) gk->Insert(keys, num_keys);
  return nulls;
}

// Numeric columns: Key is Value::NumericKey (also the order Value::Compare
// uses between numbers), Hash is Value::Hash, Box is the Value.
struct Int64Column {
  const int64_t* v;
  double Key(size_t i) const { return static_cast<double>(v[i]); }
  uint64_t Hash(size_t i) const { return Mix64(static_cast<uint64_t>(v[i])); }
  Value Box(size_t i) const { return Value(v[i]); }
};

struct DoubleColumn {
  const double* v;
  double Key(size_t i) const { return v[i]; }
  uint64_t Hash(size_t i) const { return HashDouble(v[i]); }
  Value Box(size_t i) const { return Value(v[i]); }
};

struct BoolColumn {
  const uint8_t* v;
  double Key(size_t i) const { return v[i] != 0 ? 1.0 : 0.0; }
  uint64_t Hash(size_t i) const { return Mix64(v[i] != 0 ? 1 : 0); }
  Value Box(size_t i) const { return Value(v[i] != 0); }
};

constexpr size_t kNoRow = static_cast<size_t>(-1);

}  // namespace

template <typename AddRow>
uint64_t ColumnStatsBuilder::AddValidRows(const ColumnRows& rows,
                                          AddRow&& add) {
  return gk_ ? ScanValidRows<true>(rows, &*gk_, add)
             : ScanValidRows<false>(rows, nullptr, add);
}

template <typename Column>
void ColumnStatsBuilder::AddNumbers(const Column& column,
                                    const ColumnRows& rows) {
  // Running bounds as doubles. A NULL bound takes the first value; a string
  // bound sorts above every number, so it loses the minimum to the first
  // value and keeps the maximum.
  bool has_min = min_value_.IsNumeric();
  bool has_max = max_value_.IsNumeric();
  const bool max_is_string = max_value_.type() == ValueType::kString;
  double lo = has_min ? min_value_.NumericKey() : 0.0;
  double hi = has_max ? max_value_.NumericKey() : 0.0;
  size_t lo_row = kNoRow;
  size_t hi_row = kNoRow;
  null_count_ += AddValidRows(rows, [&](size_t i) {
    const double x = column.Key(i);
    if (!has_min || x < lo) {
      lo = x;
      lo_row = i;
      has_min = true;
    }
    if (!max_is_string && (!has_max || x > hi)) {
      hi = x;
      hi_row = i;
      has_max = true;
    }
    hll_.Add(column.Hash(i));
    return x;
  });
  count_ += rows.n;
  if (lo_row != kNoRow) min_value_ = column.Box(lo_row);
  if (hi_row != kNoRow) max_value_ = column.Box(hi_row);
}

void ColumnStatsBuilder::AddInt64s(const int64_t* values,
                                   const ColumnRows& rows) {
  AddNumbers(Int64Column{values}, rows);
}

void ColumnStatsBuilder::AddDoubles(const double* values,
                                    const ColumnRows& rows) {
  AddNumbers(DoubleColumn{values}, rows);
}

void ColumnStatsBuilder::AddBools(const uint8_t* values,
                                  const ColumnRows& rows) {
  AddNumbers(BoolColumn{values}, rows);
}

void ColumnStatsBuilder::AddStrings(const uint32_t* codes,
                                    const std::string* entries,
                                    const uint64_t* hashes,
                                    const ColumnRows& rows) {
  // A numeric minimum sorts below every string and stays; a NULL or numeric
  // maximum loses to the first string.
  const bool min_is_number = min_value_.IsNumeric();
  const std::string* lo = min_value_.type() == ValueType::kString
                              ? &min_value_.AsStringUnchecked()
                              : nullptr;
  const std::string* hi = max_value_.type() == ValueType::kString
                              ? &max_value_.AsStringUnchecked()
                              : nullptr;
  bool lo_moved = false;
  bool hi_moved = false;
  null_count_ += AddValidRows(rows, [&](size_t i) {
    const uint32_t code = codes[i];
    const std::string& s = entries[code];
    if (!min_is_number && (lo == nullptr || s.compare(*lo) < 0)) {
      lo = &s;
      lo_moved = true;
    }
    if (hi == nullptr || s.compare(*hi) > 0) {
      hi = &s;
      hi_moved = true;
    }
    hll_.Add(hashes[code]);
    return static_cast<double>(hashes[code] >> 11);  // Value::NumericKey.
  });
  count_ += rows.n;
  if (lo_moved) min_value_ = Value(*lo);
  if (hi_moved) max_value_ = Value(*hi);
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
  if (gk_ && other.gk_) {
    gk_->Merge(*other.gk_);
  } else {
    gk_.reset();
  }
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
  if (gk_) {
    snap.histogram =
        EquiHeightHistogram::FromSketch(*gk_, options_.histogram_buckets);
  }
  return snap;
}

}  // namespace dynopt
