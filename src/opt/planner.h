#ifndef DYNOPT_OPT_PLANNER_H_
#define DYNOPT_OPT_PLANNER_H_

#include <map>
#include <memory>
#include <string>

#include <vector>

#include "common/status.h"
#include "exec/cluster.h"
#include "opt/cardinality.h"
#include "opt/decision_log.h"
#include "opt/join_tree.h"
#include "plan/query_spec.h"
#include "storage/catalog.h"

namespace dynopt {

/// Multiplicative widening of the selectivity confidence interval, built
/// from observed q-errors (this query's decision log) and cross-query
/// priors (opt/error_stats.h). The planner costs with *pessimistic* sizes —
/// estimate x factor — while reporting the expected estimate in the
/// decision log, so a strategy that has already been burned by a bad
/// estimate stops trusting marginal cost differences (e.g. a broadcast that
/// is only safe if the estimate is exact). A default-constructed risk is
/// neutral: every factor is 1 and planning is bit-identical to no risk.
struct SelectivityRisk {
  /// Applied to every join *output* estimate (the least observable size).
  double global_factor = 1.0;
  /// Per-alias input widening (keyed by query alias); absent alias = 1.
  /// Intermediates have exact counts, so they normally carry no entry.
  std::map<std::string, double> alias_factors;
  /// Provenance of the dominant cross-query prior behind this risk: the
  /// ErrorStatsStore key whose factor was largest and that factor, filled
  /// by PriorRisk() (empty/1.0 for feedback-only or neutral risks). Copied
  /// onto the decisions planned under this risk so EXPLAIN can name the
  /// prior that shaped a plan ("prior=<key>x<factor>").
  std::string prior_key;
  double prior_factor = 1.0;

  double FactorFor(const std::string& alias) const {
    auto it = alias_factors.find(alias);
    return it == alias_factors.end() ? 1.0 : it->second;
  }
  bool IsNeutral() const {
    if (global_factor > 1.0) return false;
    for (const auto& [alias, f] : alias_factors) {
      (void)alias;
      if (f > 1.0) return false;
    }
    return true;
  }
};

/// Planner knobs shared by the optimizers.
struct PlannerOptions {
  /// Consider the indexed nested loop join (Figure 8 experiments).
  bool enable_inlj = false;
  EstimationOptions estimation;
};

/// One planned join step: the chosen edge, its estimated result size and
/// the physical method, with the build (broadcast/outer) side identified.
struct PlannedJoin {
  JoinEdge edge;
  double estimated_cardinality = 0;
  double estimated_bytes = 0;
  JoinMethod method = JoinMethod::kHashShuffle;
  /// Alias of the side used as hash build / broadcast / INLJ outer.
  std::string build_alias;
  /// Estimated exec-cost (simulated seconds) of the chosen method; <0 when
  /// the planner did not cost it.
  double estimated_cost = -1;
  /// Where `estimated_cardinality` came from: "sketch" when a Fast-AGMS
  /// join-size sketch answered, "stats" when the planner had sketches
  /// attached but fell back to formula (1), empty when sketches were never
  /// in play (the default — keeps historical rendering byte-identical).
  std::string provenance;
  /// Alternatives considered and rejected while planning this step:
  /// "method: ..." entries (cost = exec-cost seconds) from the algorithm
  /// choice, "join-order: ..." entries (cost = estimated rows) from the
  /// edge choice. Feeds the optimizer decision log.
  std::vector<PlanAlternative> rejected;

  std::string ToString() const;
};

/// The paper's Planner stage (Section 5.2 / Algorithm 1 lines 25-33): finds
/// the join with the least estimated result cardinality under the current
/// statistics, picks the best algorithm for it, and — when only two joins
/// remain — orders the final two joins.
class Planner {
 public:
  /// `risk` (optional, non-owning, must outlive the planner) widens size
  /// estimates while costing; nullptr or a neutral risk reproduces the
  /// historical behavior exactly. `sketches` (optional, non-owning, must
  /// outlive the planner) lets the estimator answer join cardinalities from
  /// Fast-AGMS sketches where available; nullptr plans purely from stats.
  Planner(const StatsView* view, const ClusterConfig& cluster,
          const PlannerOptions& options,
          const SelectivityRisk* risk = nullptr,
          const SketchManager* sketches = nullptr);

  /// The cheapest next join among the query's remaining edges.
  Result<PlannedJoin> PickNextJoin() const;

  /// Called when at most two joins remain: produces the complete join tree
  /// for the rest of the query (min-cardinality join innermost). With a
  /// non-null `steps`, appends the planned join step(s) in execution order
  /// (inner first) so callers can log the decisions.
  Result<std::shared_ptr<const JoinTree>> PlanRemaining(
      std::vector<PlannedJoin>* steps = nullptr) const;

  /// Applies the join-algorithm rules (Section 6.1.2) to one edge given
  /// the estimated sizes of its two inputs. `left/right_bytes` are
  /// post-predicate estimates; `left/right_rows` likewise.
  PlannedJoin DecorateWithMethod(const JoinEdge& edge, double card,
                                 double left_rows, double left_bytes,
                                 double right_rows, double right_bytes) const;

  const CardinalityEstimator& estimator() const { return estimator_; }

 private:
  /// True when the INLJ preconditions hold for probing `inner_alias` with
  /// a broadcast of the other side: single-column key, inner is a base
  /// dataset with a secondary index on that key and no local predicates,
  /// and the broadcast side is filtered.
  bool InljApplicable(const JoinEdge& edge, const std::string& outer_alias,
                      const std::string& inner_alias) const;

  double RiskFactor(const std::string& alias) const {
    return risk_ == nullptr ? 1.0 : risk_->FactorFor(alias);
  }

  /// Sketch-first cardinality for `edge`: the AGMS estimate when both sides
  /// carry sketches, formula (1) otherwise. `provenance` (may be null)
  /// receives "sketch"/"stats" when sketches are attached, "" when not.
  double EstimateEdgeCardinality(const JoinEdge& edge, double left_override,
                                 double right_override,
                                 std::string* provenance) const;

  const StatsView* view_;
  ClusterConfig cluster_;
  PlannerOptions options_;
  const SelectivityRisk* risk_;
  CardinalityEstimator estimator_;
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_PLANNER_H_
