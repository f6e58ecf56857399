#include "stats/gk_quantile.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dynopt {

namespace {

using Tuple = GkQuantileSketch::Tuple;

// std::lower_bound over the tuples' values (the number of tuples with
// v < x in a sorted summary) for each x, eight searches at a time so their
// load chains overlap, with a conditional move per step instead of a
// branch.
template <typename Pending>
void FindSlots(const Tuple* tuples, size_t n, Pending* p, size_t m) {
  if (n == 0) {
    for (size_t j = 0; j < m; ++j) p[j].slot = 0;
    return;
  }
  constexpr size_t kLanes = 8;
  for (size_t j = 0; j < m; j += kLanes) {
    const size_t lanes = std::min(kLanes, m - j);
    const Tuple* base[kLanes] = {};
    for (size_t k = 0; k < kLanes; ++k) base[k] = tuples;
    for (size_t len = n; len > 1;) {
      const size_t half = len / 2;
      for (size_t k = 0; k < lanes; ++k) {
        base[k] = base[k][half].v < p[j + k].v ? base[k] + half : base[k];
      }
      len -= half;
    }
    for (size_t k = 0; k < lanes; ++k) {
      p[j + k].slot = static_cast<uint32_t>(base[k] - tuples) +
                      (base[k]->v < p[j + k].v ? 1 : 0);
    }
  }
}

}  // namespace

GkQuantileSketch::GkQuantileSketch(double epsilon) : epsilon_(epsilon) {
  DYNOPT_CHECK(epsilon > 0 && epsilon < 0.5);
  compress_period_ = static_cast<uint64_t>(1.0 / (2.0 * epsilon_));
}

void GkQuantileSketch::Insert(const double* values, size_t n) {
  size_t i = 0;
  while (i < n) {
    if (!ordered_ || std::isnan(values[i])) {
      InsertOne(values[i++]);
      continue;
    }
    if (pending_.empty()) {
      if (pending_.capacity() == 0) {
        pending_.reserve(std::min<uint64_t>(compress_period_, kMaxPending));
      }
      if (count_ > 0) {
        lo_ = tuples_.front().v;
        hi_ = tuples_.back().v;
      }
    }
    // Buffer a run that ends at the next compress, the pending cap or NaN.
    const size_t room = static_cast<size_t>(std::min<uint64_t>(
        compress_period_ - inserts_since_compress_,
        kMaxPending - pending_.size()));
    const size_t end = i + std::min(room, n - i);
    const size_t first = pending_.size();
    for (; i < end && !std::isnan(values[i]); ++i) {
      const double x = values[i];
      // The one-at-a-time insert lands strictly inside the summary, and so
      // gets delta = floor(2 * eps * n), exactly when min < x <= max.
      uint64_t delta = 0;
      if (count_ == 0) {
        lo_ = hi_ = x;
      } else {
        if (lo_ < x && x <= hi_) {
          delta = static_cast<uint64_t>(
              std::floor(2.0 * epsilon_ * static_cast<double>(count_)));
        }
        if (x < lo_) lo_ = x;
        if (x > hi_) hi_ = x;
      }
      pending_.push_back(
          Pending{x, delta, static_cast<uint32_t>(pending_.size()), 0});
      ++count_;
    }
    inserts_since_compress_ += pending_.size() - first;
    if (inserts_since_compress_ >= compress_period_) {
      Flush(/*compress=*/true);
      inserts_since_compress_ = 0;
    } else if (pending_.size() == kMaxPending) {
      Flush(/*compress=*/false);
    }
  }
}

void GkQuantileSketch::InsertOne(double value) {
  Flush(/*compress=*/false);
  ordered_ = false;
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
  if (++inserts_since_compress_ >= compress_period_) {
    Compress();
    inserts_since_compress_ = 0;
  }
}

void GkQuantileSketch::Flush(bool compress) const {
  const size_t nb = pending_.size();
  if (nb == 0) return;
  const size_t na = tuples_.size();
  // Each pending value goes ahead of the first tuple with v >= value, the
  // slot the one-at-a-time insert finds (the tuples do not change while
  // inserts are pending). Counting sort by slot, in insertion order.
  FindSlots(tuples_.data(), na, pending_.data(), nb);
  slot_ends_.assign(na + 1, 0);
  uint32_t largest = 0;
  for (const Pending& p : pending_) {
    largest = std::max(largest, ++slot_ends_[p.slot]);
  }
  uint32_t below = 0;
  for (uint32_t& end : slot_ends_) {
    below += end;
    end = below - end;  // Pending values in earlier slots.
  }
  by_slot_.resize(nb);
  for (const Pending& p : pending_) by_slot_[slot_ends_[p.slot]++] = p;
  // slot_ends_[s] now counts the pending values in slots <= s. Within a
  // slot, order by value, later inserts first on ties (each later insert
  // lands ahead of the earlier equal ones). Slots hold a few values each
  // unless the input is monotone or has few distinct values, so one
  // insertion pass is linear; when a slot is long, sort instead.
  auto before = [](const Pending& a, const Pending& b) {
    return a.slot < b.slot ||
           (a.slot == b.slot &&
            (a.v < b.v || (!(b.v < a.v) && a.seq > b.seq)));
  };
  if (largest > 8) {
    std::sort(by_slot_.begin(), by_slot_.end(), before);
  } else {
    for (size_t r = 1; r < nb; ++r) {
      if (!before(by_slot_[r], by_slot_[r - 1])) continue;
      const Pending x = by_slot_[r];
      size_t j = r;
      for (; j > 0 && before(x, by_slot_[j - 1]); --j) {
        by_slot_[j] = by_slot_[j - 1];
      }
      by_slot_[j] = x;
    }
  }
  // Scatter: tuple i moves up past the pending values in slots <= i, and
  // the r-th pending value lands after the tuples below its slot.
  tuples_.resize(na + nb);
  Tuple* out = tuples_.data();
  for (size_t i = na; i-- > 0;) out[i + slot_ends_[i]] = out[i];
  for (size_t r = 0; r < nb; ++r) {
    const Pending& p = by_slot_[r];
    out[p.slot + r] = Tuple{p.v, 1, p.delta};
  }
  pending_.clear();
  if (compress) Compress();
}

void GkQuantileSketch::Compress() const {
  // GK's greedy compress, in place: tuple i merges into its successor when
  // g_i + g_{i+1} + delta_{i+1} <= 2*eps*n (the band condition); the first
  // and last tuples stay intact so min/max quantiles stay exact.
  // Branch-free: every tuple is written, over its predecessor when that
  // one merges into it.
  const size_t n = tuples_.size();
  if (n < 3) return;
  const double threshold = 2.0 * epsilon_ * static_cast<double>(count_);
  Tuple* t = tuples_.data();
  size_t w = 2;
  uint64_t prev_g = t[1].g;
  for (size_t i = 2; i + 1 < n; ++i) {
    Tuple cur = t[i];
    const bool merge =
        static_cast<double>(prev_g + cur.g + cur.delta) <= threshold;
    cur.g += merge ? prev_g : 0;
    w -= merge ? 1 : 0;
    t[w++] = cur;
    prev_g = cur.g;
  }
  t[w++] = t[n - 1];
  tuples_.resize(w);
}

void GkQuantileSketch::Merge(const GkQuantileSketch& other) {
  if (&other == this) {
    const GkQuantileSketch copy = other;
    Merge(copy);
    return;
  }
  if (other.count_ == 0) return;
  Flush(/*compress=*/false);
  other.Flush(/*compress=*/false);
  ordered_ = ordered_ && other.ordered_;
  if (count_ == 0) {
    tuples_ = other.tuples_;
    count_ = other.count_;
    return;
  }
  // Standard GK merge: interleave the two sorted tuple sequences, ours
  // first on ties (the same steps whatever the values, NaN included). The
  // resulting summary answers queries with error eps_a + eps_b; we then
  // compress under the (larger) combined count. Ours move to the back and
  // the merged run is written from the front; once theirs run out, the
  // rest of ours is already in place.
  const size_t na = tuples_.size();
  const size_t nb = other.tuples_.size();
  tuples_.resize(na + nb);
  Tuple* out = tuples_.data();
  std::copy_backward(out, out + na, out + na + nb);
  const Tuple* a = out + nb;
  const Tuple* const a_end = out + na + nb;
  const Tuple* b = other.tuples_.data();
  const Tuple* const b_end = b + nb;
  while (a < a_end && b < b_end) *out++ = a->v <= b->v ? *a++ : *b++;
  while (b < b_end) *out++ = *b++;
  count_ += other.count_;
  Compress();
}

const std::vector<GkQuantileSketch::Tuple>& GkQuantileSketch::tuples() const {
  Flush(/*compress=*/false);
  return tuples_;
}

void GkQuantileSketch::QuantilesInPlace(double* values, size_t k) const {
  Flush(/*compress=*/false);
  const double slack = epsilon_ * static_cast<double>(count_);
  const size_t n = tuples_.size();
  size_t i = 0;
  uint64_t rmin = tuples_[0].g;  // Sum of g over tuples [0, i].
  for (size_t q = 0; q < k; ++q) {
    const double phi = std::clamp(values[q], 0.0, 1.0);
    const double target =
        phi * static_cast<double>(count_ - 1) + 1.0;  // 1-based rank.
    while (i < n) {
      const double rmax = static_cast<double>(rmin + tuples_[i].delta);
      if ((rmax >= target - slack &&
           static_cast<double>(rmin) >= target - slack) ||
          rmax >= target + slack) {
        break;
      }
      if (++i < n) rmin += tuples_[i].g;
    }
    values[q] = i < n ? tuples_[i].v : tuples_.back().v;
  }
}

double GkQuantileSketch::Quantile(double phi) const {
  DYNOPT_CHECK(count_ > 0);
  QuantilesInPlace(&phi, 1);
  return phi;
}

double GkQuantileSketch::EstimateRankFraction(double v) const {
  if (count_ == 0) return 0.0;
  Flush(/*compress=*/false);
  if (v < tuples_.front().v) return 0.0;
  if (v >= tuples_.back().v) return 1.0;
  uint64_t rmin = 0;
  double prev_v = tuples_.front().v;
  uint64_t prev_rank = 0;
  for (const Tuple& t : tuples_) {
    rmin += t.g;
    const uint64_t mid_rank = rmin + t.delta / 2;
    if (t.v > v) {
      // Linear interpolation between the previous tuple and this one.
      double span = t.v - prev_v;
      double frac = span > 0 ? (v - prev_v) / span : 0.0;
      double rank = static_cast<double>(prev_rank) +
                    frac * static_cast<double>(mid_rank - prev_rank);
      return std::clamp(rank / static_cast<double>(count_), 0.0, 1.0);
    }
    prev_v = t.v;
    prev_rank = mid_rank;
  }
  return 1.0;
}

std::vector<double> GkQuantileSketch::ExtractBoundaries(
    int num_buckets) const {
  std::vector<double> boundaries;
  if (count_ == 0 || num_buckets <= 0) return boundaries;
  boundaries.resize(static_cast<size_t>(num_buckets) + 1);
  for (size_t b = 0; b < boundaries.size(); ++b) {
    boundaries[b] =
        static_cast<double>(b) / static_cast<double>(num_buckets);
  }
  QuantilesInPlace(boundaries.data(), boundaries.size());
  return boundaries;
}

}  // namespace dynopt
