#ifndef DYNOPT_TESTS_SUPPORT_REFERENCE_STATS_H_
#define DYNOPT_TESTS_SUPPORT_REFERENCE_STATS_H_

#include <cstdint>
#include <vector>

#include "stats/gk_quantile.h"

namespace dynopt {
namespace reference {

/// The statistics sketches as the engine first implemented them, kept as
/// the oracle for the buffered GkQuantileSketch and the table-driven
/// HyperLogLog::Estimate: stats_test asserts that the engine's summaries
/// and estimates are bit-identical to these on the same input.

/// Greenwald–Khanna, one value at a time: binary search, a vector insert
/// ahead of equal values, and an allocating greedy compress every
/// floor(1/(2*eps)) inserts; Merge interleaves (ours first on ties) and
/// compresses; Quantile scans from the front for every phi.
class GkSketch {
 public:
  explicit GkSketch(double epsilon);

  void Insert(double value);
  void Merge(const GkSketch& other);
  double Quantile(double phi) const;
  std::vector<double> ExtractBoundaries(int num_buckets) const;

  uint64_t count() const { return count_; }
  const std::vector<GkQuantileSketch::Tuple>& tuples() const {
    return tuples_;
  }

 private:
  void Compress();

  double epsilon_;
  uint64_t count_ = 0;
  std::vector<GkQuantileSketch::Tuple> tuples_;
  uint64_t inserts_since_compress_ = 0;
};

/// HyperLogLog with Estimate summing std::ldexp(1.0, -register).
class HllSketch {
 public:
  explicit HllSketch(int precision);

  void Add(uint64_t hash);
  double Estimate() const;

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace reference
}  // namespace dynopt

#endif  // DYNOPT_TESTS_SUPPORT_REFERENCE_STATS_H_
