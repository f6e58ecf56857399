#include "opt/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "opt/cardinality.h"
#include "opt/plan_builder.h"
#include "opt/static_optimizer.h"
#include "opt/stats_view.h"

namespace dynopt {

namespace {

std::string HumanBytes(double bytes) {
  const char* const units[] = {"B", "KB", "MB", "GB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 3) {
    bytes /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  os.precision(bytes < 10 ? 2 : 1);
  os << std::fixed << bytes << units[unit];
  return os.str();
}

/// Estimated (rows, bytes) of a subtree: leaves from the estimator's
/// filtered sizes, joins via formula (1) applied bottom-up.
struct SubtreeEstimate {
  double rows = 0;
  double bytes = 0;
};

/// Renders " actual_rows=N q_error=Q" when the run recorded an actual
/// cardinality for this subtree (keyed by SubtreeKey of its alias set).
void AppendActual(const std::map<std::string, uint64_t>* actuals,
                  const std::set<std::string>& aliases, double est_rows,
                  std::ostringstream* out) {
  if (actuals == nullptr) return;
  auto it = actuals->find(SubtreeKey(aliases));
  if (it == actuals->end()) return;
  double actual = static_cast<double>(it->second);
  double est = std::max(est_rows, 1.0);
  double act = std::max(actual, 1.0);
  char q[32];
  std::snprintf(q, sizeof(q), "%.2f", std::max(est / act, act / est));
  *out << " actual_rows=" << it->second << " q_error=" << q;
}

SubtreeEstimate Annotate(const QuerySpec& spec,
                         const CardinalityEstimator& estimator,
                         const JoinTree& tree, int indent,
                         std::ostringstream* out,
                         const std::map<std::string, uint64_t>* actuals =
                             nullptr) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  if (tree.IsLeaf()) {
    SubtreeEstimate est;
    est.rows = estimator.EstimateFilteredSize(tree.alias);
    est.bytes = estimator.EstimateFilteredBytes(tree.alias);
    const TableRef* ref = spec.FindRef(tree.alias);
    bool filtered = ref != nullptr &&
                    (ref->filtered || !spec.PredicatesFor(tree.alias).empty());
    *out << pad << "Scan " << tree.alias;
    if (ref != nullptr && ref->alias != ref->table) {
      *out << " [" << ref->table << "]";
    }
    if (filtered) *out << " (filtered)";
    *out << " est_rows=" << std::llround(est.rows)
         << " est_bytes=" << HumanBytes(est.bytes);
    AppendActual(actuals, {tree.alias}, est.rows, out);
    *out << "\n";
    return est;
  }

  // Header first, children after: reserve the header line via a separate
  // stream so estimates (computed bottom-up) can be printed top-down.
  std::ostringstream left_out, right_out;
  SubtreeEstimate left =
      Annotate(spec, estimator, *tree.left, indent + 1, &left_out, actuals);
  SubtreeEstimate right =
      Annotate(spec, estimator, *tree.right, indent + 1, &right_out, actuals);

  // Result estimate: pseudo-edge over the crossing keys, sizes overridden
  // by the child estimates.
  SubtreeEstimate est;
  auto keys = KeysBetween(spec, tree.left->Aliases(), tree.right->Aliases());
  if (keys.ok()) {
    // Build a transient edge anchored at any pair of member aliases.
    JoinEdge edge;
    edge.left_alias = *tree.left->Aliases().begin();
    edge.right_alias = *tree.right->Aliases().begin();
    edge.keys = keys.value();
    est.rows = estimator.EstimateJoinCardinality(edge, left.rows, right.rows);
  } else {
    est.rows = left.rows * right.rows;
  }
  double left_width = left.rows > 0 ? left.bytes / left.rows : 64.0;
  double right_width = right.rows > 0 ? right.bytes / right.rows : 64.0;
  est.bytes = est.rows * (left_width + right_width);

  *out << pad << "Join[" << JoinMethodName(tree.method) << "]";
  if (keys.ok()) {
    *out << " on ";
    for (size_t i = 0; i < keys->size(); ++i) {
      if (i > 0) *out << " AND ";
      *out << (*keys)[i].first << "=" << (*keys)[i].second;
    }
  }
  *out << " est_rows=" << std::llround(est.rows)
       << " est_bytes=" << HumanBytes(est.bytes);
  AppendActual(actuals, tree.Aliases(), est.rows, out);
  *out << "\n" << left_out.str() << right_out.str();
  return est;
}

void AppendPostProcessing(const QuerySpec& spec, std::ostringstream* out) {
  if (!spec.HasPostProcessing()) return;
  if (!spec.aggregates.empty() || !spec.group_by.empty()) {
    *out << "then GROUP BY (" << spec.group_by.size() << " keys, "
         << spec.aggregates.size() << " aggregates)\n";
  }
  if (!spec.order_by.empty()) {
    *out << "then ORDER BY (" << spec.order_by.size() << " keys)\n";
  }
  if (spec.limit >= 0) *out << "then LIMIT " << spec.limit << "\n";
}

}  // namespace

Result<std::string> ExplainTree(Engine* engine, const QuerySpec& spec,
                                const JoinTree& tree) {
  StatsView view(&spec, &engine->stats(), &engine->catalog());
  CardinalityEstimator estimator(&view);
  std::ostringstream out;
  Annotate(spec, estimator, tree, 0, &out);
  AppendPostProcessing(spec, &out);
  return out.str();
}

Result<double> EstimateTreeCardinality(Engine* engine, const QuerySpec& spec,
                                       const JoinTree& tree) {
  StatsView view(&spec, &engine->stats(), &engine->catalog());
  CardinalityEstimator estimator(&view);
  std::ostringstream sink;
  return Annotate(spec, estimator, tree, 0, &sink).rows;
}

Result<std::string> ExplainAnalyze(Engine* engine, const QuerySpec& query,
                                   const OptimizerRunResult& run) {
  if (run.profile == nullptr) {
    return Status::InvalidArgument(
        "EXPLAIN ANALYZE needs a run profile (produced by every optimizer "
        "Run())");
  }
  QuerySpec spec = query;
  spec.NormalizeJoins();
  DYNOPT_RETURN_IF_ERROR(spec.Validate());
  const QueryProfile& profile = *run.profile;
  std::ostringstream out;
  out << "EXPLAIN ANALYZE (" << profile.optimizer << ")\n";

  StatsView view(&spec, &engine->stats(), &engine->catalog());
  CardinalityEstimator estimator(&view);
  std::shared_ptr<const JoinTree> tree = run.join_tree;
  if (tree == nullptr && spec.tables.size() == 1) {
    tree = JoinTree::Leaf(spec.tables[0].alias);
  }
  if (tree != nullptr) {
    Annotate(spec, estimator, *tree, 0, &out, &profile.subtree_actual_rows);
  }
  AppendPostProcessing(spec, &out);

  const DecisionLog& log = profile.decisions;
  out << "-- decisions: " << log.decisions().size() << " ("
      << log.NumWithActuals() << " with actuals, max q_error ";
  {
    char q[32];
    std::snprintf(q, sizeof(q), "%.2f", log.MaxQError());
    out << q;
  }
  out << ") --\n" << log.ToString();

  // Deterministic execution counters only: host wall-clock times vary run
  // to run and would break golden comparisons.
  const ExecMetrics& m = run.metrics;
  out << "-- counters --\n"
      << "rows_out=" << m.rows_out << " tuples=" << m.tuples_processed
      << " jobs=" << m.num_jobs << " reopts=" << m.num_reopt_points << "\n"
      << "scanned=" << m.bytes_scanned << "B shuffled=" << m.bytes_shuffled
      << "B broadcast=" << m.bytes_broadcast
      << "B materialized=" << m.bytes_materialized
      << "B reread=" << m.bytes_intermediate_read << "B\n"
      << "sim_s=" << m.simulated_seconds << " reopt_s=" << m.reopt_seconds
      << " stats_s=" << m.stats_seconds
      << " recovery_s=" << m.recovery_seconds << "\n"
      << "retries=" << m.num_retries
      << " speculative=" << m.speculative_executions
      << " corrupted_blocks=" << m.corrupted_blocks
      << " spilled=" << m.spilled_bytes << "B spill_parts="
      << m.spill_partitions << " peak_mem=" << m.peak_memory_bytes << "B\n";
  // Predicate-transfer line only when the feature did something: existing
  // goldens (knob off) stay byte-identical.
  if (m.pt_filter_bytes > 0 || m.pt_pruned_rows > 0) {
    out << "pt_filter=" << m.pt_filter_bytes
        << "B pt_pruned_rows=" << m.pt_pruned_rows
        << " pt_pruned=" << m.pt_pruned_bytes << "B\n";
  }
  // Introspection-plane sections, only when IntrospectionRun filled them
  // (introspection.enabled + tracing/archive produced something): default
  // runs leave these empty and the historical rendering byte-identical.
  if (!profile.critical_path.empty()) {
    out << "-- critical path --\n" << profile.critical_path << "\n";
  }
  if (!profile.regression_note.empty()) {
    out << "-- regression --\n" << profile.regression_note << "\n";
  }
  return out.str();
}

Result<std::string> ExplainStatic(Engine* engine, const QuerySpec& query) {
  QuerySpec spec = query;
  spec.NormalizeJoins();
  DYNOPT_RETURN_IF_ERROR(spec.Validate());
  if (spec.tables.size() == 1) {
    return ExplainTree(engine, spec, *JoinTree::Leaf(spec.tables[0].alias));
  }
  StatsView view(&spec, &engine->stats(), &engine->catalog());
  DYNOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const JoinTree> tree,
      StaticCostBasedOptimizer::PlanWithDp(spec, view, engine->cluster(),
                                           PlannerOptions()));
  return ExplainTree(engine, spec, *tree);
}

}  // namespace dynopt
