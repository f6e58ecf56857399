#ifndef DYNOPT_OPT_EXPLAIN_H_
#define DYNOPT_OPT_EXPLAIN_H_

#include <memory>
#include <string>

#include "exec/engine.h"
#include "opt/join_tree.h"
#include "opt/optimizer.h"
#include "plan/query_spec.h"

namespace dynopt {

/// EXPLAIN for the static strategies: plans `spec` with the DP cost-based
/// optimizer (without executing anything) and renders the join tree with
/// the estimator's per-subtree cardinality/byte estimates — the
/// plan-inspection surface a user of the engine would reach for before
/// running an expensive query.
///
/// Example output:
///
///   Join[BROADCAST] est_rows=480 est_bytes=38.4KB
///     Scan d1 (filtered) est_rows=30
///     Scan ss est_rows=28800
///
/// The dynamic optimizer cannot be explained without executing (its plan
/// *is* discovered at runtime); use OptimizerRunResult::plan_trace for the
/// after-the-fact narrative instead.
Result<std::string> ExplainStatic(Engine* engine, const QuerySpec& query);

/// Renders an already-decided join tree with estimates from the current
/// statistics (used to pretty-print recorded dynamic plans too).
Result<std::string> ExplainTree(Engine* engine, const QuerySpec& spec,
                                const JoinTree& tree);

/// Estimated output cardinality of `tree` under the current statistics
/// (bottom-up, same model ExplainTree prints). Used to log plan-level
/// estimates for strategies that pick a tree without costing it edge by
/// edge (best-order, worst-order).
Result<double> EstimateTreeCardinality(Engine* engine, const QuerySpec& spec,
                                       const JoinTree& tree);

/// EXPLAIN ANALYZE: renders the executed run's effective join tree with
/// both estimated and actual per-subtree cardinalities (q-error where both
/// are known), followed by the optimizer's full decision log (estimates,
/// chosen algorithm, rejected alternatives, back-patched actuals) and the
/// run's deterministic execution counters (simulated seconds, spill/retry/
/// memory). Requires run.profile (always set by the seven strategies); host
/// wall-clock values are deliberately excluded so the output is stable
/// across machines (golden-tested on TPC-H Q9).
Result<std::string> ExplainAnalyze(Engine* engine, const QuerySpec& query,
                                   const OptimizerRunResult& run);

}  // namespace dynopt

#endif  // DYNOPT_OPT_EXPLAIN_H_
