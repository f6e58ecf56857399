#include "opt/pilot_run_optimizer.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "exec/vector_kernels.h"
#include "opt/error_stats.h"
#include "opt/plan_builder.h"
#include "opt/query_run.h"
#include "opt/reconstruction.h"
#include "opt/static_execution.h"
#include "opt/static_optimizer.h"
#include "opt/stats_view.h"

namespace dynopt {

namespace {

/// Locates a join node whose children are both leaves (every finite binary
/// tree has one); this is the join the initial plan executes first.
const JoinTree* FindFirstJoin(const JoinTree& tree) {
  if (tree.IsLeaf()) return nullptr;
  if (tree.left->IsLeaf() && tree.right->IsLeaf()) return &tree;
  if (const JoinTree* in_left = FindFirstJoin(*tree.left)) return in_left;
  return FindFirstJoin(*tree.right);
}

}  // namespace

PilotRunOptimizer::PilotRunOptimizer(Engine* engine,
                                     const PilotRunOptions& options)
    : engine_(engine), options_(options) {}

Result<OptimizerRunResult> PilotRunOptimizer::Run(const QuerySpec& query) {
  QuerySpec spec = query;
  spec.NormalizeJoins();
  DYNOPT_RETURN_IF_ERROR(spec.Validate());
  DYNOPT_RETURN_IF_ERROR(CheckContext());

  OptimizerRunResult result;
  std::ostringstream trace;
  const ClusterConfig& cluster = engine_->cluster();
  QueryRun run(engine_, spec, name(), ctx_);
  auto profile = std::make_shared<QueryProfile>();
  profile->optimizer = name();

  // ---- Stage 1: pilot runs over samples of every base dataset -----------
  std::map<std::string, TableStats> overrides;
  for (const auto& ref : spec.tables) {
    if (ref.is_intermediate) continue;
    DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                            engine_->catalog().GetTable(ref.table));
    // Columns to sample: join keys + projections of this alias, with stats
    // stored under unqualified names (base-table convention).
    std::vector<std::string> qualified =
        RequiredColumns(spec, ref.alias, false);
    std::vector<std::string> names;
    std::vector<int> indices;
    const std::string prefix = ref.alias + ".";
    for (const auto& q : qualified) {
      std::string unqualified =
          q.rfind(prefix, 0) == 0 ? q.substr(prefix.size()) : q;
      int idx = table->schema().FieldIndex(unqualified);
      if (idx >= 0) {
        names.push_back(unqualified);
        indices.push_back(idx);
      }
    }
    // Compile this alias's local predicates against the stored columns,
    // named as the spec qualifies them.
    const Schema& schema = table->schema();
    std::vector<std::string> qualified_fields;
    std::vector<int> all_fields;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      qualified_fields.push_back(prefix + schema.field(i).name);
      all_fields.push_back(static_cast<int>(i));
    }
    VecPredicate predicate;
    ExprPtr expr = CombineConjuncts(spec.PredicatesFor(ref.alias));
    if (expr != nullptr) {
      DYNOPT_ASSIGN_OR_RETURN(
          predicate, VecPredicate::Compile(expr, qualified_fields, &spec.params,
                                           &engine_->udfs()));
    }

    // Read the stored runs in row order, a chunk at a time, until
    // sample_limit rows have matched; only matched rows feed the builder.
    constexpr size_t kChunkRows = 1024;
    const uint64_t limit = options_.sample_limit;
    TableStatsBuilder builder(names, indices);
    uint64_t scanned = 0, matched = 0, scanned_bytes = 0;
    std::vector<uint8_t> keep;
    std::vector<uint32_t> sel;
    for (size_t p = 0; p < table->num_partitions() && matched < limit; ++p) {
      for (const ColumnBatch& run : table->partition(p)) {
        for (size_t start = 0; start < run.num_rows && matched < limit;
             start += kChunkRows) {
          const size_t m = std::min(kChunkRows, run.num_rows - start);
          size_t taken = m;  // Rows scanned in this chunk.
          sel.clear();
          if (expr != nullptr) {
            predicate.EvalBools(SliceBatch(run, start, m, all_fields.data(),
                                           all_fields.size()),
                                &keep);
            for (size_t i = 0; i < m; ++i) {
              if (!keep[i]) continue;
              sel.push_back(static_cast<uint32_t>(start + i));
              if (matched + sel.size() >= limit) {
                taken = i + 1;
                break;
              }
            }
          } else {
            taken = static_cast<size_t>(std::min<uint64_t>(m, limit - matched));
            for (size_t i = 0; i < taken; ++i) {
              sel.push_back(static_cast<uint32_t>(start + i));
            }
          }
          scanned += taken;
          for (size_t i = 0; i < taken; ++i) {
            scanned_bytes += run.row_sizes[start + i];
          }
          matched += sel.size();
          uint64_t sel_bytes = 0;
          for (uint32_t i : sel) sel_bytes += run.row_sizes[i];
          builder.AddRows(sel.size(), sel_bytes);
          for (size_t c = 0; c < indices.size(); ++c) {
            AddColumnToStats(run.columns[static_cast<size_t>(indices[c])],
                             sel.data(), sel.size(), &builder.column(c));
          }
        }
        if (matched >= limit) break;
      }
    }
    // Charge the pilot-run work (it runs cluster-parallel).
    result.metrics.bytes_scanned += scanned_bytes;
    result.metrics.tuples_processed += scanned;
    result.metrics.simulated_seconds +=
        (static_cast<double>(scanned_bytes) /
         static_cast<double>(cluster.num_nodes)) *
            cluster.scan_seconds_per_byte +
        (static_cast<double>(scanned) /
         static_cast<double>(cluster.num_nodes)) *
            cluster.cpu_seconds_per_tuple;

    // Scale the sample to the full dataset.
    const double total_rows = static_cast<double>(table->NumRows());
    const double selectivity =
        scanned > 0 ? static_cast<double>(matched) / static_cast<double>(scanned)
                    : 1.0;
    const double est_rows = std::max(1.0, selectivity * total_rows);
    const double avg_width =
        table->NumRows() > 0
            ? static_cast<double>(table->TotalBytes()) /
                  static_cast<double>(table->NumRows())
            : 64.0;
    TableStats stats = builder.Finalize();
    const double scale =
        scanned > 0 ? total_rows / static_cast<double>(scanned) : 1.0;
    for (auto& [name, col] : stats.columns) {
      // Linear ndv scale-up: the known weakness on skewed non-pk/fk keys.
      col.ndv = std::min(est_rows, col.ndv * scale * selectivity);
      col.ndv = std::max(col.ndv, 1.0);
      col.count = static_cast<uint64_t>(est_rows);
    }
    stats.row_count = static_cast<uint64_t>(est_rows);
    stats.total_bytes = static_cast<uint64_t>(est_rows * avg_width);
    overrides[ref.alias] = std::move(stats);
    trace << "[pilot-run] " << ref.alias << ": scanned " << scanned
          << ", matched " << matched << ", est_rows " << est_rows << "\n";
  }

  // The overrides already reflect local predicates; drop them from the
  // planning copy so selectivities are not applied twice, but keep them for
  // execution.
  QuerySpec planning_spec = spec;
  planning_spec.predicates.clear();
  for (auto& ref : planning_spec.tables) {
    if (overrides.count(ref.alias) > 0 &&
        !spec.PredicatesFor(ref.alias).empty()) {
      ref.filtered = true;
    }
  }

  // ---- Stage 2: complete initial plan from pilot statistics -------------
  // Cross-query error memory (off by default): priors widen this plan's
  // confidence intervals on top of the pilot samples — the samples
  // calibrate selectivities, the priors remember where sampling itself has
  // misled before (skewed join keys the linear ndv scale-up gets wrong).
  ErrorStatsStore* err_store = EngineErrorStats(engine_);
  const bool use_risk = cluster.risk.error_feedback || err_store != nullptr;
  const SelectivityRisk prior_risk =
      PriorRisk(spec, err_store, kMaxCiWidening);
  StatsView view(&planning_spec, &engine_->stats(), &engine_->catalog());
  view.SetAliasOverrides(&overrides);
  TraceSpan plan_span("plan-dp", "opt");
  double initial_rows = -1;
  double initial_cost = -1;
  DYNOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const JoinTree> initial_tree,
      StaticCostBasedOptimizer::PlanWithDp(
          planning_spec, view, cluster, options_.planner, &initial_rows,
          &initial_cost, err_store != nullptr ? &prior_risk : nullptr));
  plan_span.End();
  trace << "[pilot-run] initial plan: " << initial_tree->ToString() << "\n";
  PlanDecision initial_decision;
  initial_decision.point = "initial-plan";
  initial_decision.chosen = initial_tree->ToString();
  initial_decision.estimated_rows = initial_rows;
  initial_decision.estimated_cost = initial_cost;
  StampPrior(err_store, prior_risk, &initial_decision);
  const int initial_id =
      profile->decisions.Record(std::move(initial_decision));

  if (spec.joins.size() <= 1) {
    // One job runs the whole plan; the samples were paid before it.
    DYNOPT_RETURN_IF_ERROR(CheckContext());
    const ExecMetrics samples = std::exchange(result.metrics, ExecMetrics());
    DYNOPT_RETURN_IF_ERROR(ExecuteTree(engine_, spec, *initial_tree, ctx_,
                                       profile.get(), initial_id, &result));
    result.join_tree = std::move(initial_tree);
    result.plan_trace = trace.str();
    run.Finish(std::move(profile), samples, &result);
    return result;
  }

  // ---- Stage 3: execute the first join, re-optimization point -----------
  DYNOPT_RETURN_IF_ERROR(CheckContext());
  JobExecutor executor = engine_->MakeExecutor(ctx_);
  const JoinTree* first = FindFirstJoin(*initial_tree);
  if (first == nullptr) {
    return Status::Internal("initial plan has no innermost join");
  }
  const std::string build = first->left->alias;
  const std::string probe = first->right->alias;
  auto step_tree =
      JoinTree::Join(JoinTree::Leaf(build), JoinTree::Leaf(probe),
                     first->method);
  DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> join_plan,
                          BuildPhysicalPlan(spec, *step_tree, false));
  // The executed edge between build/probe.
  JoinEdge executed;
  bool edge_found = false;
  for (const auto& edge : spec.joins) {
    if (edge.Involves(build) && edge.Involves(probe)) {
      executed = edge;
      edge_found = true;
      break;
    }
  }
  if (!edge_found) {
    return Status::Internal("initial plan joins unconnected datasets");
  }
  // Columns the rest of the query needs from this intermediate.
  const std::vector<std::string> out_columns =
      RequiredOutputColumns(spec, executed);
  // Pilot-statistics estimate of the executed join (what the initial plan
  // believed), recorded against the materialized actual below.
  CardinalityEstimator pilot_estimator(&view, options_.planner.estimation);
  const double pilot_est_rows =
      pilot_estimator.EstimateJoinCardinality(executed);
  TraceSpan pilot_span("pilot-join", "stage");
  auto projected = PlanNode::Project(std::move(join_plan), out_columns);
  DYNOPT_ASSIGN_OR_RETURN(JobResult job,
                          executor.Execute(*projected, spec.params));
  result.metrics.Add(job.metrics);
  DYNOPT_ASSIGN_OR_RETURN(
      SinkResult sink,
      executor.Materialize(std::move(job.data), TempTablePrefix(ctx_, "pilot"),
                           out_columns, true, &result.metrics));
  // Any early error return below used to leak the pilot sink table; drop
  // it on every exit path instead.
  struct SinkCleanup {
    Engine* engine;
    const std::string* name;
    ~SinkCleanup() { engine->DropTempTable(*name); }
  } sink_cleanup{engine_, &sink.table_name};
  trace << "[pilot-run] executed " << executed.ToString() << " -> "
        << sink.table_name << " (" << sink.stats.row_count << " rows)\n";
  double pilot_q = 0;
  {
    PlanDecision decision;
    decision.point = "pilot-join";
    decision.chosen = executed.ToString() +
                      " [" + JoinMethodName(first->method) + "]";
    decision.method = first->method;
    decision.build_alias = build;
    decision.estimated_rows = pilot_est_rows;
    decision.actual_rows = static_cast<double>(sink.stats.row_count);
    pilot_q = decision.QError();
    if (err_store != nullptr) {
      std::vector<std::string> pair_tables;
      for (const std::string& alias : {build, probe}) {
        const TableRef* ref = spec.FindRef(alias);
        pair_tables.push_back(
            ref != nullptr && !ref->is_intermediate ? ref->table : alias);
      }
      err_store->Record(JoinErrorKey(std::move(pair_tables)), pilot_q);
    }
    profile->decisions.Record(std::move(decision));
  }
  profile->subtree_actual_rows[SubtreeKey({build, probe})] =
      sink.stats.row_count;
  pilot_span.AddArg("actual_rows",
                    static_cast<double>(sink.stats.row_count));
  pilot_span.End();

  const std::string new_alias = "__p0";
  overrides.erase(build);
  overrides.erase(probe);
  QuerySpec remaining =
      ReconstructAfterJoin(spec, executed, sink.table_name, new_alias,
                           out_columns);

  // ---- Stage 4: re-optimize the remaining plan with fresh statistics ----
  DYNOPT_RETURN_IF_ERROR(CheckContext());
  // Planning copy: predicates of overridden aliases are already folded into
  // the pilot statistics, so drop them to avoid double-counting.
  QuerySpec remaining_planning = remaining;
  remaining_planning.predicates.erase(
      std::remove_if(remaining_planning.predicates.begin(),
                     remaining_planning.predicates.end(),
                     [&](const LocalPredicate& p) {
                       return overrides.count(p.alias) > 0;
                     }),
      remaining_planning.predicates.end());
  for (auto& ref : remaining_planning.tables) {
    if (overrides.count(ref.alias) > 0 &&
        !remaining.PredicatesFor(ref.alias).empty()) {
      ref.filtered = true;
    }
  }
  StatsView view2(&remaining_planning, &engine_->stats(),
                  &engine_->catalog());
  view2.SetAliasOverrides(&overrides);
  std::shared_ptr<const JoinTree> rest_tree;
  double rest_rows = -1;
  double rest_cost = -1;
  // Error-aware replan: the pilot join's own q-error is the freshest
  // evidence of how far the sampled statistics can be trusted — a bad one
  // widens every remaining estimate (on top of any cross-query priors)
  // before the tail of the plan commits to broadcast-sized bets.
  SelectivityRisk rest_risk =
      PriorRisk(remaining, err_store, kMaxCiWidening);
  if (cluster.risk.error_feedback && pilot_q > 1.0) {
    const double widen = std::min(pilot_q, kMaxCiWidening);
    rest_risk.global_factor = std::max(rest_risk.global_factor, widen);
    for (const auto& ref : remaining.tables) {
      if (ref.is_intermediate) continue;
      double& f = rest_risk.alias_factors[ref.alias];
      f = std::max(f, widen);
    }
  }
  if (remaining.joins.empty()) {
    rest_tree = JoinTree::Leaf(new_alias);
  } else {
    TraceSpan replan_span("replan-dp", "opt");
    DYNOPT_ASSIGN_OR_RETURN(
        rest_tree,
        StaticCostBasedOptimizer::PlanWithDp(
            remaining_planning, view2, cluster, options_.planner, &rest_rows,
            &rest_cost, use_risk ? &rest_risk : nullptr));
  }
  trace << "[pilot-run] adjusted plan: " << rest_tree->ToString() << "\n";
  PlanDecision rest_decision;
  rest_decision.point = "adjusted-plan";
  rest_decision.chosen = rest_tree->ToString();
  rest_decision.estimated_rows = rest_rows;
  rest_decision.estimated_cost = rest_cost;
  StampPrior(err_store, rest_risk, &rest_decision);
  const int rest_id = profile->decisions.Record(std::move(rest_decision));
  TraceSpan rest_span("final", "stage");
  DYNOPT_ASSIGN_OR_RETURN(
      const uint64_t final_rows,
      RunFinalJob(executor, cluster, remaining, *rest_tree, &result));
  // Both the whole-query initial estimate and the adjusted plan are judged
  // against the final pre-post-processing output.
  profile->decisions.SetActual(initial_id, static_cast<double>(final_rows));
  profile->decisions.SetActual(rest_id, static_cast<double>(final_rows));
  RecordWholePlanError(err_store, spec, profile->decisions, initial_id);
  result.join_tree = ExpandTree(rest_tree, {{new_alias, step_tree}});
  profile->subtree_actual_rows[SubtreeKey(result.join_tree->Aliases())] =
      final_rows;
  rest_span.AddArg("actual_rows", static_cast<double>(final_rows));
  rest_span.End();
  result.plan_trace = trace.str();
  run.Finish(std::move(profile), ExecMetrics(), &result);
  return result;
}

}  // namespace dynopt
