#include "opt/dynamic_optimizer.h"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "opt/error_stats.h"
#include "opt/plan_builder.h"
#include "opt/query_run.h"
#include "opt/reconstruction.h"
#include "opt/static_execution.h"
#include "opt/static_optimizer.h"
#include "plan/analysis.h"

namespace dynopt {

namespace {

/// Key columns of future joins among `available` — the "attributes that
/// participate on subsequent join stages" the paper collects online
/// statistics for.
std::vector<std::string> FutureJoinKeyColumns(
    const QuerySpec& spec, const JoinEdge& executed,
    const std::vector<std::string>& available) {
  std::set<std::string> keys;
  for (const auto& other : spec.joins) {
    if (other.Involves(executed.left_alias) &&
        other.Involves(executed.right_alias)) {
      continue;  // The executed edge.
    }
    for (const auto& [l, r] : other.keys) {
      keys.insert(l);
      keys.insert(r);
    }
  }
  std::vector<std::string> out;
  for (const auto& col : available) {
    if (keys.count(col) > 0) out.push_back(col);
  }
  return out;
}

}  // namespace

DynamicOptimizer::DynamicOptimizer(Engine* engine,
                                   const DynamicOptimizerOptions& options)
    : engine_(engine), options_(options) {}

Result<OptimizerRunResult> DynamicOptimizer::Run(const QuerySpec& query) {
  return Run(query, ExecMetrics());
}

Result<OptimizerRunResult> DynamicOptimizer::Run(const QuerySpec& query,
                                                 const ExecMetrics& prepaid) {
  DynamicCheckpoint state;
  state.prepaid = prepaid;
  state.spec = query;
  state.spec.NormalizeJoins();
  DYNOPT_RETURN_IF_ERROR(state.spec.Validate());
  for (const auto& ref : state.spec.tables) {
    state.subtrees[ref.alias] = JoinTree::Leaf(ref.alias);
    state.base_tables[ref.alias] = ref.table;
  }
  return RunFromState(std::move(state));
}

Result<OptimizerRunResult> DynamicOptimizer::Resume(
    DynamicCheckpoint checkpoint) {
  // The checkpoint data are the materialized temp tables; verify they are
  // still alive before continuing.
  for (const auto& name : checkpoint.temp_tables) {
    if (!engine_->catalog().HasTable(name)) {
      return Status::NotFound("checkpoint temp table " + name +
                              " no longer exists; cannot resume");
    }
  }
  return RunFromState(std::move(checkpoint));
}

Result<OptimizerRunResult> DynamicOptimizer::ResumeFromLastCheckpoint() {
  if (!last_checkpoint_.has_value()) {
    return Status::InvalidArgument(
        "dynamic: no checkpoint to resume from (last run did not fail "
        "with a retryable error)");
  }
  DynamicCheckpoint checkpoint = std::move(*last_checkpoint_);
  last_checkpoint_.reset();
  return Resume(std::move(checkpoint));
}

Result<OptimizerRunResult> DynamicOptimizer::RunFromState(
    DynamicCheckpoint state) {
  last_checkpoint_.reset();
  // Fingerprints state.spec before push-down rewrites it, so a resumed run
  // keeps the fingerprint of the original query (via spec.base_tables).
  QueryRun run(engine_, state.spec, name(), ctx_);
  JobExecutor executor = engine_->MakeExecutor(ctx_);
  std::ostringstream trace;
  trace << state.trace;

  // Temp tables used to leak when a run died between materializing an
  // intermediate and finish(): the early error return skipped the drop
  // loop. This guard drops them on every exit path instead — except when a
  // retryable failure cut a checkpoint, because the temp tables *are* the
  // checkpoint data a later Resume() reads.
  struct TempCleanup {
    Engine* engine;
    const std::vector<std::string>* names;
    bool armed = true;
    ~TempCleanup() {
      if (!armed) return;
      for (const auto& name : *names) engine->DropTempTable(name);
    }
  } cleanup{engine_, &state.temp_tables};

  // Cuts a checkpoint after a completed stage; returns true when the run
  // must abort here (failure injection).
  auto checkpoint_and_maybe_fail = [&]() {
    ++state.completed_stages;
    state.trace = trace.str();
    if (options_.inject_failure_after_stages >= 0 &&
        state.completed_stages >= options_.inject_failure_after_stages) {
      last_checkpoint_ = state;
      cleanup.armed = false;
      return true;
    }
    return false;
  };

  // Routes a mid-stage executor failure. Retryable faults (injected node
  // loss, detected corruption) cut a checkpoint at `at` — the state as of
  // the last completed stage boundary, so the dying stage's partial
  // metrics never leak into work-already-paid-for — and keep the temp
  // tables alive for ResumeFromLastCheckpoint(). Fatal errors leave no
  // checkpoint and let the cleanup guard reclaim the temps.
  auto fail_stage = [&](Status st, DynamicCheckpoint at) -> Status {
    if (st.retryable()) {
      last_checkpoint_ = std::move(at);
      cleanup.armed = false;
    }
    return st;
  };

  // Runs one stage's job and materializes its output as a temp table of
  // `kind`, the stage's checkpoint. A failure in either step routes through
  // fail_stage with the state as of the stage's start.
  auto run_stage = [&](const PlanNode& plan, const char* kind,
                       const std::vector<std::string>& stats_columns,
                       bool collect_stats,
                       const std::vector<std::string>* sketch_columns)
      -> Result<SinkResult> {
    DynamicCheckpoint stage_start = state;
    auto job = executor.Execute(plan, state.spec.params);
    if (!job.ok()) return fail_stage(job.status(), std::move(stage_start));
    state.metrics.Add(job->metrics);
    auto sink = executor.Materialize(
        std::move(job->data), TempTablePrefix(ctx_, kind), stats_columns,
        collect_stats, &state.metrics, sketch_columns);
    if (!sink.ok()) return fail_stage(sink.status(), std::move(stage_start));
    state.temp_tables.push_back(sink->table_name);
    return sink;
  };

  // ---- Risk-aware planning state (all knobs off by default) --------------
  // error_feedback: observed q-errors widen the selectivity confidence
  // interval for the *remaining* decisions and can buy extra
  // re-optimization checkpoints. use_error_store: past queries' errors seed
  // the widening before anything is observed. Both fail soft: no error
  // signal => neutral risk => planning identical to the knobs-off build.
  const RiskConfig& risk_cfg = engine_->cluster().risk;
  ErrorStatsStore* err_store = EngineErrorStats(engine_);
  const bool use_risk = risk_cfg.error_feedback || err_store != nullptr;
  SelectivityRisk risk;  // Rebuilt before every planning round.
  auto rebuild_risk = [&]() {
    risk = err_store != nullptr
               ? PriorRisk(state.spec, err_store, kMaxCiWidening)
               : SelectivityRisk();
    if (!risk_cfg.error_feedback) return;
    const double observed = std::clamp(state.decisions.GeoMeanQError(), 1.0,
                                       kMaxCiWidening);
    if (observed <= 1.0) return;
    // Widen every still-estimated input (intermediates have exact counts)
    // and the join outputs by the error observed so far this query.
    risk.global_factor = std::max(risk.global_factor, observed);
    for (const auto& ref : state.spec.tables) {
      if (ref.is_intermediate) continue;
      double& f = risk.alias_factors[ref.alias];
      f = std::max(f, observed);
    }
  };
  // A decision planned under the current risk (whose prior it carries),
  // filled from `planned` when it is one planner step.
  auto decision_for = [&](std::string point, std::string chosen,
                          const PlannedJoin* planned) {
    PlanDecision d;
    d.point = std::move(point);
    d.chosen = std::move(chosen);
    StampPrior(err_store, risk, &d);
    if (planned != nullptr) {
      d.method = planned->method;
      d.build_alias = planned->build_alias;
      d.estimated_rows = planned->estimated_cardinality;
      d.estimated_cost = planned->estimated_cost;
      d.provenance = planned->provenance;
      d.rejected = planned->rejected;
    }
    return d;
  };
  // Base-table names for a subtree's alias set (store keys must outlive
  // this query's temp aliases).
  auto base_tables_of = [&](const std::set<std::string>& aliases) {
    std::vector<std::string> out;
    for (const auto& alias : aliases) {
      auto it = state.base_tables.find(alias);
      out.push_back(it != state.base_tables.end() ? it->second : alias);
    }
    return out;
  };

  // ---- Stage 1: predicate push-down (Algorithm 1 lines 6-9) -------------
  if (!state.pushdown_done) {
    std::vector<std::string> aliases;
    for (const auto& ref : state.spec.tables) aliases.push_back(ref.alias);
    for (size_t i = state.pushdown_next_index; i < aliases.size(); ++i) {
      // Stage boundary: a cancelled/expired query stops here with
      // kCancelled; the cleanup guard (still armed — kCancelled is not
      // retryable) reclaims the temp tables already materialized.
      DYNOPT_RETURN_IF_ERROR(CheckContext());
      state.pushdown_next_index = i;
      const std::string& alias = aliases[i];
      std::vector<ExprPtr> preds = state.spec.PredicatesFor(alias);
      if (preds.empty()) continue;
      PredicateShape shape = AnalyzePredicates(preds);
      if (!shape.RequiresPushDown() && !options_.pushdown_simple_predicates) {
        continue;  // Single simple predicate: estimated via histogram.
      }
      DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> leaf,
                              BuildLeafPlan(state.spec, alias));
      std::vector<std::string> needed =
          RequiredColumns(state.spec, alias, false);
      auto plan = PlanNode::Project(std::move(leaf), needed);
      // Estimate before executing: this is exactly what a static optimizer
      // would have believed about the filtered table.
      StatsView pd_view(&state.spec, &engine_->stats(), &engine_->catalog());
      CardinalityEstimator pd_estimator(&pd_view,
                                        options_.planner.estimation);
      const double pd_est_rows = pd_estimator.EstimateFilteredSize(alias);
      // Sketch the filtered table's join-key columns so later planning
      // rounds can estimate joins against it from Fast-AGMS rather than
      // formula (1).
      std::vector<std::string> sketch_cols;
      if (options_.use_sketches) {
        std::set<std::string> join_keys;
        for (const auto& j : state.spec.joins) {
          if (!j.Involves(alias)) continue;
          for (const auto& key : j.KeysOf(alias)) join_keys.insert(key);
        }
        for (const auto& col : needed) {
          if (join_keys.count(col) > 0) sketch_cols.push_back(col);
        }
      }
      TraceSpan stage_span("pushdown:" + alias, "stage");
      DYNOPT_ASSIGN_OR_RETURN(
          SinkResult sink,
          run_stage(*plan, "pushdown", needed, options_.collect_online_stats,
                    sketch_cols.empty() ? nullptr : &sketch_cols));
      trace << "[pushdown] " << alias << " -> " << sink.table_name << " ("
            << sink.stats.row_count << " rows)\n";
      PlanDecision decision;
      decision.point = "pushdown:" + alias;
      decision.chosen = "materialize filtered " + alias;
      decision.estimated_rows = pd_est_rows;
      decision.actual_rows = static_cast<double>(sink.stats.row_count);
      if (err_store != nullptr) {
        auto bt = state.base_tables.find(alias);
        err_store->Record(
            TableErrorKey(bt != state.base_tables.end() ? bt->second : alias,
                          preds),
            decision.QError());
      }
      state.decisions.Record(std::move(decision));
      state.subtree_actual_rows[SubtreeKey({alias})] = sink.stats.row_count;
      stage_span.AddArg("actual_rows",
                        static_cast<double>(sink.stats.row_count));
      stage_span.End();
      state.spec = ReplaceWithFiltered(state.spec, alias, sink.table_name,
                                       std::move(needed));
      state.pushdown_next_index = i + 1;
      if (checkpoint_and_maybe_fail()) {
        return Status::Transient("injected failure after push-down stage");
      }
    }
    state.pushdown_done = true;
  }

  // ---- Stage 2: re-optimization loop (Algorithm 1 lines 11-15) ----------
  // The stop_after_pushdown ablation skips it. With error feedback on, a
  // query whose observed q-error crossed the threshold earns extra rounds:
  // instead of handing the final two joins to PlanRemaining on estimates
  // it has already seen fail, it materializes one more join and plans the
  // tail on exact counts. Statics never get this chance — it is the
  // dynamic strategy's unique ability to buy information mid-query.
  auto extra_reopt_due = [&]() {
    return risk_cfg.error_feedback && state.spec.joins.size() == 2 &&
           state.extra_reopts < kMaxExtraReopts &&
           state.decisions.MaxQError() > kQErrorReoptThreshold;
  };
  while (!options_.stop_after_pushdown &&
         (state.spec.joins.size() > 2 || extra_reopt_due())) {
    // Re-optimization point: the natural cancellation boundary (the paper's
    // materialization points are exactly where mid-query decisions — here,
    // stopping — are safe).
    DYNOPT_RETURN_IF_ERROR(CheckContext());
    const bool extra_round = state.spec.joins.size() <= 2;
    if (extra_round) {
      trace << "[error-reopt] max q-error " << state.decisions.MaxQError()
            << " > " << kQErrorReoptThreshold
            << "; extra materialization point before the final join\n";
    }
    TraceSpan round_span("reopt-" + std::to_string(state.join_counter),
                         "opt");
    StatsView view(&state.spec, &engine_->stats(), &engine_->catalog());
    rebuild_risk();
    Planner planner(&view, engine_->cluster(), options_.planner,
                    use_risk ? &risk : nullptr,
                    options_.use_sketches ? &engine_->sketches() : nullptr);
    DYNOPT_ASSIGN_OR_RETURN(PlannedJoin planned, planner.PickNextJoin());

    const std::string& build = planned.build_alias;
    const std::string& probe = planned.edge.Other(build);
    auto step_tree = JoinTree::Join(JoinTree::Leaf(build),
                                    JoinTree::Leaf(probe), planned.method);
    DYNOPT_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> join_plan,
                            BuildPhysicalPlan(state.spec, *step_tree, false));
    std::vector<std::string> out_columns =
        RequiredOutputColumns(state.spec, planned.edge);
    auto plan = PlanNode::Project(std::move(join_plan), out_columns);

    // Online statistics: only on attributes of subsequent join stages, and
    // skipped in the very last loop iteration (no further re-optimization
    // will consume them — Section 5.3).
    bool last_iteration = state.spec.joins.size() == 3 || extra_round;
    std::vector<std::string> stats_columns =
        FutureJoinKeyColumns(state.spec, planned.edge, out_columns);
    bool collect = options_.collect_online_stats && !last_iteration &&
                   !stats_columns.empty();
    // Sketches are collected on every round, including the last: the tail
    // PlanRemaining still estimates the final two joins, and Fast-AGMS on
    // the freshly materialized intermediate is exactly what sharpens it.
    bool sketch = options_.use_sketches && !stats_columns.empty();
    DYNOPT_ASSIGN_OR_RETURN(
        SinkResult sink,
        run_stage(*plan, "join", stats_columns, collect,
                  sketch ? &stats_columns : nullptr));

    const int round = state.join_counter;
    std::string new_alias = "__j" + std::to_string(state.join_counter++);
    trace << "[join] " << planned.ToString() << " -> " << sink.table_name
          << " (" << sink.stats.row_count << " rows, est "
          << planned.estimated_cardinality << ")\n";
    state.subtrees[new_alias] = JoinTree::Join(
        state.subtrees.at(build), state.subtrees.at(probe), planned.method);
    state.subtrees.erase(build);
    state.subtrees.erase(probe);
    PlanDecision decision = decision_for(
        "reopt-" + std::to_string(round), planned.ToString(), &planned);
    decision.actual_rows = static_cast<double>(sink.stats.row_count);
    if (err_store != nullptr) {
      err_store->Record(
          JoinErrorKey(
              base_tables_of(state.subtrees.at(new_alias)->Aliases())),
          decision.QError());
    }
    state.decisions.Record(std::move(decision));
    state.subtree_actual_rows[SubtreeKey(
        state.subtrees.at(new_alias)->Aliases())] = sink.stats.row_count;
    if (extra_round) {
      // Spend the trigger only once the bought checkpoint actually exists:
      // a failure in this round resumes from stage_start (pre-increment)
      // and re-earns it, so it is neither lost nor double-counted.
      ++state.extra_reopts;
      state.metrics.error_reopt_triggers += 1;
    }
    round_span.AddArg("actual_rows",
                      static_cast<double>(sink.stats.row_count));
    round_span.AddArg("est_rows", planned.estimated_cardinality);
    round_span.End();
    state.spec = ReconstructAfterJoin(state.spec, planned.edge,
                                      sink.table_name, new_alias,
                                      std::move(out_columns));
    if (checkpoint_and_maybe_fail()) {
      return Status::Transient("injected failure after join stage");
    }
  }

  // ---- Stage 3: final job (Algorithm 1 lines 17-18) ---------------------
  // The Figure-6 ablation (stop_after_pushdown) plans the whole rest of the
  // query statically (DP over the refined statistics) instead. The job's
  // output (before post-processing) is the actual for the last planning
  // decision; the inner of a two-join tail never materializes separately,
  // so it is logged estimate-only.
  std::optional<TraceSpan> final_span;
  std::shared_ptr<const JoinTree> final_tree;
  std::vector<PlanDecision> final_decisions;
  if (options_.stop_after_pushdown) {
    StatsView view(&state.spec, &engine_->stats(), &engine_->catalog());
    double dp_rows = -1;
    double dp_cost = -1;
    rebuild_risk();
    DYNOPT_ASSIGN_OR_RETURN(
        final_tree,
        StaticCostBasedOptimizer::PlanWithDp(
            state.spec, view, engine_->cluster(), options_.planner, &dp_rows,
            &dp_cost, use_risk ? &risk : nullptr));
    trace << "[pushdown-only] static plan: " << final_tree->ToString() << "\n";
    final_decisions.push_back(
        decision_for("static-rest", final_tree->ToString(), nullptr));
    final_decisions.back().estimated_rows = dp_rows;
    final_decisions.back().estimated_cost = dp_cost;
  } else {
    DYNOPT_RETURN_IF_ERROR(CheckContext());
    final_span.emplace("final", "stage");
    StatsView view(&state.spec, &engine_->stats(), &engine_->catalog());
    rebuild_risk();
    Planner planner(&view, engine_->cluster(), options_.planner,
                    use_risk ? &risk : nullptr,
                    options_.use_sketches ? &engine_->sketches() : nullptr);
    std::vector<PlannedJoin> steps;
    DYNOPT_ASSIGN_OR_RETURN(final_tree, planner.PlanRemaining(&steps));
    trace << "[final] " << final_tree->ToString() << "\n";
    if (steps.size() == 2) {
      final_decisions.push_back(
          decision_for("final-inner", steps[0].ToString(), &steps[0]));
    }
    final_decisions.push_back(
        decision_for("final", final_tree->ToString(),
                     steps.empty() ? nullptr : &steps.back()));
  }
  OptimizerRunResult result;
  result.metrics = state.metrics;
  auto join_rows = RunFinalJob(executor, engine_->cluster(), state.spec,
                               *final_tree, &result);
  if (!join_rows.ok()) return fail_stage(join_rows.status(), state);
  result.join_tree = ExpandTree(final_tree, state.subtrees);
  const std::set<std::string> aliases = result.join_tree->Aliases();
  PlanDecision& root = final_decisions.back();
  root.actual_rows = static_cast<double>(*join_rows);
  if (err_store != nullptr) {
    err_store->Record(JoinErrorKey(base_tables_of(aliases)), root.QError());
  }
  for (PlanDecision& d : final_decisions) state.decisions.Record(std::move(d));
  state.subtree_actual_rows[SubtreeKey(aliases)] = *join_rows;
  if (final_span.has_value()) {
    final_span->AddArg("actual_rows", static_cast<double>(*join_rows));
    final_span->End();
  }
  result.plan_trace = trace.str();
  // Persist what this query taught the error memory; a failed save only
  // costs the lesson, never the query. The cleanup guard drops the temp
  // tables on scope exit (success and fatal failure alike).
  if (err_store != nullptr) (void)err_store->Save();
  auto profile = std::make_shared<QueryProfile>();
  profile->optimizer = name();
  profile->decisions = state.decisions;
  profile->subtree_actual_rows = state.subtree_actual_rows;
  run.Finish(std::move(profile), state.prepaid, &result);
  return result;
}

}  // namespace dynopt
