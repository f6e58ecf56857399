#ifndef DYNOPT_OPT_CARDINALITY_H_
#define DYNOPT_OPT_CARDINALITY_H_

#include <memory>
#include <string>

#include "opt/stats_view.h"
#include "plan/query_spec.h"
#include "stats/sketch.h"

namespace dynopt {

/// Knobs selecting which optimizer persona the estimator plays. Simple
/// fixed-value predicates are estimated from equi-height histograms (paper
/// Section 5.1: single local predicates are estimated, not executed).
struct EstimationOptions {
  /// INGRES mode: only dataset cardinalities are known; distinct counts
  /// and histograms are ignored.
  bool cardinality_only = false;
};

/// Join and filter cardinality estimation.
///
/// The join formula is the paper's formula (1) (from Selinger [28]):
///     |A join_k B| = S(A) * S(B) / max(U(A.k), U(B.k))
/// extended to composite keys by multiplying the max-ndv terms (capped by
/// the input sizes). S(x) is the post-predicate size: when a dataset's
/// predicates were already executed (dynamic optimization), S comes from
/// the materialized intermediate's fresh stats; otherwise it is estimated
/// from base-table sketches under the independence assumption.
class CardinalityEstimator {
 public:
  CardinalityEstimator(const StatsView* view,
                       const EstimationOptions& options = EstimationOptions())
      : view_(view), options_(options) {}

  /// Estimated selectivity (in [0,1]) of the conjunction of all local
  /// predicates attached to `alias` — the product of per-conjunct
  /// selectivities (independence assumption), each estimated from the
  /// histogram when simple or defaulted when complex.
  double EstimatePredicateSelectivity(const std::string& alias) const;

  /// Estimated rows of `alias` after its local predicates.
  double EstimateFilteredSize(const std::string& alias) const;

  /// Estimated bytes of `alias` after its local predicates (selectivity
  /// scaled byte size; what the broadcast rule compares to the threshold).
  double EstimateFilteredBytes(const std::string& alias) const;

  /// Formula (1): estimated result rows of `edge` between the two
  /// (post-predicate) inputs. Optional overrides allow the caller to plug
  /// in sizes of already-estimated sub-plans (DP enumeration); negative
  /// override means "estimate from stats".
  double EstimateJoinCardinality(const JoinEdge& edge,
                                 double left_size_override = -1.0,
                                 double right_size_override = -1.0) const;

  /// Attaches the engine's join-key sketch registry; null detaches. With a
  /// registry attached, SketchJoinCardinality can answer from Fast-AGMS
  /// sketches.
  void SetSketches(const SketchManager* sketches) { sketches_ = sketches; }
  bool has_sketches() const { return sketches_ != nullptr; }

  /// Sketch-backed join estimate: when `edge` is a single-key join and both
  /// sides carry a Fast-AGMS sketch, returns the sketch dot product —
  /// sum_k f_left(k) * f_right(k), the exact equi-join size up to sketch
  /// variance — scaled by each side's restriction (local-predicate
  /// selectivity or size override) under the containment assumption.
  /// Returns -1 when no sketch estimate is available (caller falls back to
  /// formula (1)).
  double SketchJoinCardinality(const JoinEdge& edge,
                               double left_size_override = -1.0,
                               double right_size_override = -1.0) const;

  /// Sketch for `alias`'s side of a qualified key column: intermediates
  /// resolve under their temp-table name and qualified column;
  /// base tables under the table name and unqualified column (mirroring
  /// StatsView::Column's resolution).
  std::shared_ptr<const JoinKeySketch> SketchFor(const std::string& alias,
                                                 const std::string& key) const;

  const EstimationOptions& options() const { return options_; }
  const StatsView& view() const { return *view_; }

 private:
  double ConjunctSelectivity(const std::string& alias,
                             const ExprPtr& conjunct) const;

  const StatsView* view_;
  EstimationOptions options_;
  const SketchManager* sketches_ = nullptr;
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_CARDINALITY_H_
