#ifndef DYNOPT_COMMON_ROW_KERNELS_H_
#define DYNOPT_COMMON_ROW_KERNELS_H_

#include <cstdint>

namespace dynopt {

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
