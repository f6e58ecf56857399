#include "support/reference_stats.h"

#include <algorithm>
#include <cmath>

namespace dynopt {
namespace reference {

using Tuple = GkQuantileSketch::Tuple;

GkSketch::GkSketch(double epsilon) : epsilon_(epsilon) {}

void GkSketch::Insert(double value) {
  // Find insertion position (first tuple with v >= value).
  auto it = std::lower_bound(
      tuples_.begin(), tuples_.end(), value,
      [](const Tuple& t, double v) { return t.v < v; });
  uint64_t delta = 0;
  if (it != tuples_.begin() && it != tuples_.end()) {
    // Interior insert: delta = floor(2 * eps * n).
    delta = static_cast<uint64_t>(std::floor(2.0 * epsilon_ *
                                             static_cast<double>(count_)));
  }
  tuples_.insert(it, Tuple{value, 1, delta});
  ++count_;
  if (++inserts_since_compress_ >=
      static_cast<uint64_t>(1.0 / (2.0 * epsilon_))) {
    Compress();
    inserts_since_compress_ = 0;
  }
}

void GkSketch::Compress() {
  if (tuples_.size() < 3) return;
  const double threshold = 2.0 * epsilon_ * static_cast<double>(count_);
  std::vector<Tuple> out;
  out.reserve(tuples_.size());
  out.push_back(tuples_[0]);
  for (size_t i = 1; i < tuples_.size(); ++i) {
    Tuple cur = tuples_[i];
    Tuple& prev = out.back();
    bool prev_is_first = (out.size() == 1);
    bool cur_is_last = (i + 1 == tuples_.size());
    if (!prev_is_first && !cur_is_last &&
        static_cast<double>(prev.g + cur.g + cur.delta) <= threshold) {
      cur.g += prev.g;
      out.back() = cur;
    } else {
      out.push_back(cur);
    }
  }
  tuples_ = std::move(out);
}

void GkSketch::Merge(const GkSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    tuples_ = other.tuples_;
    count_ = other.count_;
    return;
  }
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  size_t i = 0, j = 0;
  while (i < tuples_.size() && j < other.tuples_.size()) {
    if (tuples_[i].v <= other.tuples_[j].v) {
      merged.push_back(tuples_[i++]);
    } else {
      merged.push_back(other.tuples_[j++]);
    }
  }
  while (i < tuples_.size()) merged.push_back(tuples_[i++]);
  while (j < other.tuples_.size()) merged.push_back(other.tuples_[j++]);
  tuples_ = std::move(merged);
  count_ += other.count_;
  Compress();
}

double GkSketch::Quantile(double phi) const {
  phi = std::clamp(phi, 0.0, 1.0);
  const double target =
      phi * static_cast<double>(count_ - 1) + 1.0;  // 1-based rank.
  const double slack = epsilon_ * static_cast<double>(count_);
  uint64_t rmin = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    rmin += tuples_[i].g;
    const double rmax = static_cast<double>(rmin + tuples_[i].delta);
    if (rmax >= target - slack &&
        static_cast<double>(rmin) >= target - slack) {
      return tuples_[i].v;
    }
    if (rmax >= target + slack) return tuples_[i].v;
  }
  return tuples_.back().v;
}

std::vector<double> GkSketch::ExtractBoundaries(int num_buckets) const {
  std::vector<double> boundaries;
  if (count_ == 0 || num_buckets <= 0) return boundaries;
  for (int b = 0; b <= num_buckets; ++b) {
    boundaries.push_back(Quantile(static_cast<double>(b) /
                                  static_cast<double>(num_buckets)));
  }
  return boundaries;
}

HllSketch::HllSketch(int precision)
    : precision_(precision),
      registers_(static_cast<size_t>(1) << precision, 0) {}

void HllSketch::Add(uint64_t hash) {
  const uint64_t index = hash >> (64 - precision_);
  const uint64_t remaining = hash << precision_;
  const int rank = remaining == 0 ? 64 - precision_ + 1
                                  : __builtin_clzll(remaining) + 1;
  auto& reg = registers_[index];
  if (rank > reg) reg = static_cast<uint8_t>(rank);
}

double HllSketch::Estimate() const {
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
    sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

}  // namespace reference
}  // namespace dynopt
