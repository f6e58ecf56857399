#include "stats/hyperloglog.h"

#include <array>
#include <cmath>

#include "common/logging.h"

namespace dynopt {

namespace {

// 2^-r for every register value r (at most 64 - 4 + 1), exactly as
// std::ldexp(1.0, -r).
constexpr std::array<double, 64> kInversePowersOfTwo = [] {
  std::array<double, 64> table{};
  double x = 1.0;
  for (double& e : table) {
    e = x;
    x /= 2.0;
  }
  return table;
}();

}  // namespace

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  DYNOPT_CHECK(precision >= 4 && precision <= 18);
  registers_.assign(static_cast<size_t>(1) << precision, 0);
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  double alpha;
  if (registers_.size() == 16) {
    alpha = 0.673;
  } else if (registers_.size() == 32) {
    alpha = 0.697;
  } else if (registers_.size() == 64) {
    alpha = 0.709;
  } else {
    alpha = 0.7213 / (1.0 + 1.079 / m);
  }
  double sum = 0.0;
  size_t zeros = 0;
  for (uint8_t reg : registers_) {
    sum += kInversePowersOfTwo[reg];
    zeros += reg == 0;
  }
  double estimate = alpha * m * m / sum;
  // Linear counting for the small-cardinality regime.
  if (estimate <= 2.5 * m && zeros > 0) {
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  DYNOPT_CHECK(precision_ == other.precision_);
  for (size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
    }
  }
}

}  // namespace dynopt
