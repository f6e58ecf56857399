#ifndef DYNOPT_COMMON_ROW_KERNELS_H_
#define DYNOPT_COMMON_ROW_KERNELS_H_

#include "common/hash.h"
#include "common/value.h"

namespace dynopt {

/// Header-inline equivalents of Value::Hash / Value::SizeBytes for column
/// storage's per-value hash and size (ColumnVector::HashAt / SizeAt on the
/// mixed-type kValues layout). The out-of-line versions in common/value.cc
/// cost a call per value; inlining lets the compiler fold the variant
/// dispatch into the loop. They must stay bit-identical to the out-of-line
/// versions — exchange_test and columnar_test cross-check them against
/// HashRowKey / RowSizeBytes.

inline uint64_t ValueHashInline(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0x9ae16a3b2f90404fULL;
    case ValueType::kBool:
      return Mix64(v.AsBool() ? 1 : 0);
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(v.AsInt64()));
    case ValueType::kDouble:
      return HashDouble(v.AsDouble());
    case ValueType::kString:
      return HashString(v.AsString());
  }
  return 0;
}

inline size_t ValueSizeBytesInline(const Value& v) {
  // Table-indexed by type tag instead of a switch: the shuffle meters every
  // moved row, so this runs once per value and the jump table (two switches
  // once Value::type()'s own dispatch is counted) shows up in the routing
  // loop. Sizes match Value::SizeBytes: null/bool=1, int64/double=8,
  // string=16+length.
  static constexpr size_t kSizeByType[5] = {1, 1, 8, 8, 16};
  const auto t = static_cast<size_t>(v.type());
  size_t size = kSizeByType[t];
  if (t == static_cast<size_t>(ValueType::kString)) {
    size += v.AsStringUnchecked().size();
  }
  return size;
}

/// Exact h % n for a fixed n via a precomputed reciprocal: one 128-bit
/// multiply plus a bounded correction instead of a ~20-cycle hardware
/// divide per row. recip = floor((2^64-1)/n) <= (2^64-1)/n, so the
/// estimated quotient q = floor(h*recip / 2^64) never exceeds floor(h/n)
/// and undershoots by at most 2; the correction loop therefore runs at most
/// twice and the result equals h % n for every h (exchange_test sweeps this
/// against the plain operator).
class FastMod {
 public:
  explicit FastMod(uint64_t n)
      : n_(n), recip_(n > 1 ? ~uint64_t{0} / n : 0) {}

  uint64_t operator()(uint64_t h) const {
    if (n_ <= 1) return 0;
    uint64_t q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(h) * recip_) >> 64);
    uint64_t r = h - q * n_;
    while (r >= n_) r -= n_;
    return r;
  }

 private:
  uint64_t n_;
  uint64_t recip_;
};

}  // namespace dynopt

#endif  // DYNOPT_COMMON_ROW_KERNELS_H_
