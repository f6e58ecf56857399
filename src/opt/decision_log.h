#ifndef DYNOPT_OPT_DECISION_LOG_H_
#define DYNOPT_OPT_DECISION_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/tracer.h"
#include "exec/job.h"

namespace dynopt {

/// A plan alternative the optimizer considered and rejected, with the cost
/// it was rejected at (estimated rows for join-order choices, estimated
/// exec-cost seconds for algorithm choices).
struct PlanAlternative {
  std::string description;
  double cost = 0;

  std::string ToString() const;
};

/// One join-order/algorithm decision: what the optimizer chose at one
/// decision point, what it estimated, and — back-patched once the subtree
/// materializes — what actually came out, so per-decision q-error is
/// computable. Logged by all seven strategies.
struct PlanDecision {
  int id = -1;            // index in the owning DecisionLog
  std::string point;      // "pushdown:d1", "reopt-2", "final", "initial-plan"
  std::string chosen;     // human-readable choice, e.g. the planned join
  JoinMethod method = JoinMethod::kHashShuffle;
  std::string build_alias;       // empty when not a single-join decision
  double estimated_rows = -1;    // <0: no cardinality estimate applies
  double estimated_cost = -1;    // <0: no exec-cost estimate applies
  double actual_rows = -1;       // <0: never materialized / back-patched
  /// Estimate provenance: "sketch" (Fast-AGMS), "stats" (formula (1) under
  /// a sketch-enabled planner), or empty (historical stats-only path —
  /// keeps pre-sketch renderings byte-identical).
  std::string provenance;
  /// ErrorStatsStore prior consumed while planning this decision: the store
  /// key of the dominant widening factor and the factor itself. Empty/1.0
  /// when no prior was in play (the default — keeps pre-prior renderings
  /// byte-identical). Rendered as "prior=<key>x<factor>" and used by the
  /// plan-regression detector to name the prior that drove a divergence.
  std::string prior_key;
  double prior_factor = 1.0;
  std::vector<PlanAlternative> rejected;

  bool has_actual() const { return actual_rows >= 0; }
  /// q-error = max(est/actual, actual/est) with one-row floors; 0 when the
  /// decision has no estimate or no actual.
  double QError() const;
  std::string ToString() const;
};

/// Append-only per-query log of PlanDecisions. Record() returns the
/// decision id so the optimizer can SetActual() it after materialization.
class DecisionLog {
 public:
  int Record(PlanDecision decision);
  void SetActual(int id, double rows);

  const std::vector<PlanDecision>& decisions() const { return decisions_; }
  size_t NumWithActuals() const;
  /// Worst QError() over decisions with actuals (0 when there are none).
  double MaxQError() const;
  /// Geometric mean of QError() over decisions with actuals (1.0 when
  /// there are none) — the calibrated "how wrong have we been so far this
  /// query" factor the feedback loop widens confidence intervals by.
  double GeoMeanQError() const;
  std::string ToString() const;

 private:
  std::vector<PlanDecision> decisions_;
};

/// Canonical key for a join subtree: its sorted alias set joined with '+'.
/// Used to attach actual materialized cardinalities to plan-tree nodes.
std::string SubtreeKey(const std::set<std::string>& aliases);

/// Everything observed about one optimizer run besides its metrics (those
/// live once, in OptimizerRunResult::metrics): the decision log, the
/// actual cardinality of every materialized subtree and (when tracing was
/// enabled) the drained span timeline. Attached to
/// OptimizerRunResult::profile and rendered by ExplainAnalyze().
struct QueryProfile {
  std::string optimizer;  // "dynamic", "cost-based", ...
  DecisionLog decisions;
  /// SubtreeKey -> actual materialized row count. Single-alias keys are
  /// filtered base tables (predicate push-down sinks).
  std::map<std::string, uint64_t> subtree_actual_rows;
  std::vector<TraceEvent> trace;
  /// Introspection-plane annotations, filled by IntrospectionRun::Complete
  /// (opt/profile_archive.h) and empty when introspection is off — the
  /// ExplainAnalyze sections they feed only render when non-empty, keeping
  /// the default output byte-identical.
  std::string fingerprint;      ///< canonical QuerySpec fingerprint (hex)
  std::string critical_path;    ///< dominant sim-seconds span chain
  std::string regression_note;  ///< non-empty when a plan regression fired
};

}  // namespace dynopt

#endif  // DYNOPT_OPT_DECISION_LOG_H_
