#ifndef DYNOPT_STATS_HYPERLOGLOG_H_
#define DYNOPT_STATS_HYPERLOGLOG_H_

#include <cstdint>
#include <vector>

namespace dynopt {

/// HyperLogLog distinct-count sketch (Flajolet et al.), the paper's choice
/// for U(x.k) in the join-cardinality formula
///     |A join_k B| = S(A) * S(B) / max(U(A.k), U(B.k)).
///
/// Uses 2^precision 6-bit registers, the standard alpha_m bias constant and
/// linear-counting correction for small cardinalities. Sketches with equal
/// precision merge by register-wise max, so per-partition sketches combine
/// exactly as if the stream had been observed centrally.
class HyperLogLog {
 public:
  /// precision in [4, 18]; default 12 gives ~1.6% standard error.
  explicit HyperLogLog(int precision = 12);

  /// Adds an element identified by its 64-bit hash.
  void Add(uint64_t hash) {
    const uint64_t index = hash >> (64 - precision_);
    const uint64_t remaining = hash << precision_;
    // Rank = position of leftmost 1-bit in the remaining bits (1-based);
    // all-zero remainder gets the maximum rank.
    const int rank = remaining == 0 ? 64 - precision_ + 1
                                    : __builtin_clzll(remaining) + 1;
    uint8_t& reg = registers_[index];
    if (rank > reg) reg = static_cast<uint8_t>(rank);
  }

  /// Estimated number of distinct elements added.
  double Estimate() const;

  /// Register-wise max merge. Requires equal precision.
  void Merge(const HyperLogLog& other);

  int precision() const { return precision_; }

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_HYPERLOGLOG_H_
