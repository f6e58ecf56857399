// Risk-aware planning (spill-aware costing + q-error feedback):
//  - cost model: with no budget the spill share is exactly zero and the
//    cost matches the spill-blind closed form; growing the budget never
//    increases the predicted cost; predicted spill volume tracks the
//    executor's metered ExecMetrics.spilled_bytes within a fixed factor;
//  - knob neutrality: all new RiskConfig knobs default off, and turning
//    spill-aware costing on with no budget configured meters byte-for-byte
//    identically (simulated seconds, EXPLAIN ANALYZE text) across all six
//    strategies;
//  - behavior: spill-aware costing flips a broadcast that would overflow
//    the join budget to a shuffle and lands a lower simulated cost; a
//    misestimated chain earns the dynamic strategy an extra error-triggered
//    re-optimization checkpoint that beats the feedback-free run; the
//    ErrorStatsStore calibrates the *next* query's static plan;
//  - resume: q-errors and the extra-reopt trigger are neither lost nor
//    double-counted across ResumeFromLastCheckpoint.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/metrics_registry.h"
#include "exec/engine.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/degrade.h"
#include "opt/dynamic_optimizer.h"
#include "opt/error_stats.h"
#include "opt/explain.h"
#include "opt/recovery.h"
#include "opt/static_optimizer.h"
#include "opt/stats_view.h"
#include "opt/strategies.h"
#include "storage/serde.h"

namespace dynopt {
namespace {

namespace fs = std::filesystem;

void AddTable(Engine* engine, const std::string& name, const Schema& schema,
              const std::vector<Row>& rows,
              const std::vector<std::string>& stats_columns) {
  auto t = std::make_shared<Table>(name, schema, engine->cluster().num_nodes);
  for (const Row& row : rows) t->AppendRow(row);
  ASSERT_TRUE(engine->catalog().RegisterTable(t).ok());
  ASSERT_TRUE(engine->CollectBaseStats(name, stats_columns).ok());
}

std::vector<Row> SortedRows(const OptimizerRunResult& result) {
  std::vector<Row> rows = result.rows;
  SortRows(&rows);
  return rows;
}

// ---- Fixtures (mirroring bench_feedback's trap scenarios) ----------------

/// Two-table join whose build side r (~240KB) fits the 256KB broadcast
/// threshold but overflows a 64KB per-node join budget when replicated.
void BuildSpillTables(Engine* engine) {
  {
    std::vector<Row> rows;
    for (int i = 0; i < 3000; ++i) {
      rows.push_back({Value(int64_t{i}), Value(std::string(48, 'r'))});
    }
    AddTable(engine, "r",
             Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"k"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) {
      rows.push_back({Value(int64_t{i % 3000}), Value(std::string(80, 's'))});
    }
    AddTable(engine, "s",
             Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"k"});
  }
}

QuerySpec SpillQuery() {
  QuerySpec spec;
  spec.tables = {{"r", "r", false, false, {}}, {"s", "s", false, false, {}}};
  spec.joins = {{"r", "s", {{"r.k", "s.k"}}}};
  // r.pad is projected so column pruning cannot shrink the broadcast build
  // below the budget — the trap only exists at full width.
  spec.projections = {"r.k", "r.pad", "s.pad"};
  spec.NormalizeJoins();
  return spec;
}

/// Four-table chain f-g-h-i: f carries two perfectly correlated predicates
/// (independence underestimates 10x) and the g-h join hides a hot key the
/// ndv-quotient estimator misses; i is large enough that broadcasting the
/// misestimated g-h pair looks cheap on paper and is a cliff in practice.
void BuildMisestimationTables(Engine* engine) {
  {
    std::vector<Row> rows;
    for (int i = 0; i < 6000; ++i) {
      rows.push_back({Value(int64_t{i % 600}), Value(int64_t{i % 10}),
                      Value(int64_t{i % 10}), Value(std::string(40, 'f'))});
    }
    AddTable(engine, "f",
             Schema({{"f_k", ValueType::kInt64},
                     {"c1", ValueType::kInt64},
                     {"c2", ValueType::kInt64},
                     {"pad", ValueType::kString}}),
             rows, {"f_k", "c1", "c2"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 600; ++i) {
      rows.push_back(
          {Value(int64_t{i}), Value(int64_t{i < 180 ? 7 : 1000 + i})});
    }
    AddTable(engine, "g",
             Schema({{"g_k", ValueType::kInt64}, {"g2", ValueType::kInt64}}),
             rows, {"g_k", "g2"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1500; ++i) {
      rows.push_back({Value(int64_t{i < 450 ? 7 : 100000 + i}),
                      Value(int64_t{i})});
    }
    AddTable(engine, "h",
             Schema({{"h2", ValueType::kInt64}, {"h_j", ValueType::kInt64}}),
             rows, {"h2", "h_j"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value(int64_t{i}), Value(std::string(48, 'i'))});
    }
    AddTable(engine, "i",
             Schema({{"i_j", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"i_j"});
  }
}

QuerySpec MisestimationQuery() {
  QuerySpec spec;
  spec.tables = {{"f", "f", false, true, {}},
                 {"g", "g", false, false, {}},
                 {"h", "h", false, false, {}},
                 {"i", "i", false, false, {}}};
  spec.predicates = {{"f", Eq(Col("f", "c1"), Lit(Value(int64_t{3})))},
                     {"f", Eq(Col("f", "c2"), Lit(Value(int64_t{3})))}};
  spec.joins = {{"f", "g", {{"f.f_k", "g.g_k"}}},
                {"g", "h", {{"g.g2", "h.h2"}}},
                {"h", "i", {{"h.h_j", "i.i_j"}}}};
  spec.projections = {"f.c1", "g.g2", "h.h_j", "i.i_j"};
  spec.NormalizeJoins();
  return spec;
}

/// Three-table chain with the same correlated-predicate misestimate on a;
/// the a-b intermediate is what run 2 must learn to stop broadcasting.
void BuildMemoryTables(Engine* engine) {
  {
    std::vector<Row> rows;
    for (int i = 0; i < 6000; ++i) {
      rows.push_back({Value(int64_t{i % 600}), Value(int64_t{i % 10}),
                      Value(int64_t{i % 10}), Value(std::string(100, 'a'))});
    }
    AddTable(engine, "a",
             Schema({{"a_k", ValueType::kInt64},
                     {"c1", ValueType::kInt64},
                     {"c2", ValueType::kInt64},
                     {"pad", ValueType::kString}}),
             rows, {"a_k", "c1", "c2"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 3000; ++i) {
      rows.push_back({Value(int64_t{i % 600}), Value(int64_t{i})});
    }
    AddTable(engine, "b",
             Schema({{"b_k", ValueType::kInt64}, {"b_j", ValueType::kInt64}}),
             rows, {"b_k", "b_j"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value(int64_t{i % 3000}), Value(std::string(80, 'c'))});
    }
    AddTable(engine, "c",
             Schema({{"c_j", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"c_j"});
  }
}

QuerySpec MemoryQuery() {
  QuerySpec spec;
  spec.tables = {{"a", "a", false, true, {}},
                 {"b", "b", false, false, {}},
                 {"c", "c", false, false, {}}};
  spec.predicates = {{"a", Eq(Col("a", "c1"), Lit(Value(int64_t{3})))},
                     {"a", Eq(Col("a", "c2"), Lit(Value(int64_t{3})))}};
  spec.joins = {{"a", "b", {{"a.a_k", "b.b_k"}}},
                {"b", "c", {{"b.b_j", "c.c_j"}}}};
  spec.projections = {"a.c1", "a.pad", "b.b_j", "c.c_j"};
  spec.NormalizeJoins();
  return spec;
}

// ---- Cost model ----------------------------------------------------------

JoinCostInputs SampleInputs(uint64_t budget) {
  JoinCostInputs in;
  in.build_rows = 4000;
  in.build_bytes = 220e3;  // Over a 64KB per-node budget when broadcast.
  in.probe_rows = 40000;
  in.probe_bytes = 3.2e6;
  in.out_rows = 40000;
  in.out_bytes = 3.4e6;
  in.memory_budget_bytes = budget;
  return in;
}

TEST(SpillCostModelTest, ZeroBudgetHasNoSpillShareAndMatchesTotal) {
  Engine engine;
  for (JoinMethod method : {JoinMethod::kHashShuffle, JoinMethod::kBroadcast}) {
    const JoinCostInputs in = SampleInputs(0);
    const JoinCostBreakdown d =
        EstimateJoinExecCostDetail(method, in, engine.cluster(),
                                   in.probe_bytes);
    EXPECT_EQ(d.spill_seconds, 0.0);
    EXPECT_EQ(d.spilled_bytes, 0.0);
    EXPECT_EQ(d.spill_passes, 0);
    // The breakdown's total and the scalar entry point agree exactly.
    EXPECT_EQ(d.cost, EstimateJoinExecCost(method, in, engine.cluster(),
                                           in.probe_bytes));
  }
}

TEST(SpillCostModelTest, CostMonotoneNonIncreasingInBudget) {
  Engine engine;
  const double unlimited = EstimateJoinExecCost(
      JoinMethod::kBroadcast, SampleInputs(0), engine.cluster(), 3.2e6);
  for (JoinMethod method : {JoinMethod::kHashShuffle, JoinMethod::kBroadcast}) {
    double prev_cost = std::numeric_limits<double>::infinity();
    double prev_spill = std::numeric_limits<double>::infinity();
    bool saw_spill = false;
    for (uint64_t budget : {uint64_t{4} << 10, uint64_t{16} << 10,
                            uint64_t{64} << 10, uint64_t{256} << 10,
                            uint64_t{1} << 20, uint64_t{64} << 20}) {
      const JoinCostBreakdown d = EstimateJoinExecCostDetail(
          method, SampleInputs(budget), engine.cluster(), 3.2e6);
      EXPECT_LE(d.cost, prev_cost) << "budget " << budget;
      EXPECT_LE(d.spilled_bytes, prev_spill) << "budget " << budget;
      EXPECT_GE(d.cost, d.spill_seconds);
      saw_spill = saw_spill || d.spill_passes > 0;
      prev_cost = d.cost;
      prev_spill = d.spilled_bytes;
    }
    // The tightest budget actually trips the spill path, and a budget the
    // build comfortably fits prices exactly like no budget at all.
    EXPECT_TRUE(saw_spill);
    if (method == JoinMethod::kBroadcast) {
      const JoinCostBreakdown roomy = EstimateJoinExecCostDetail(
          method, SampleInputs(uint64_t{64} << 20), engine.cluster(), 3.2e6);
      EXPECT_EQ(roomy.cost, unlimited);
    }
  }
}

TEST(SpillCostModelTest, ResidentBytesAndReservationsShrinkUnderBudget) {
  Engine engine;
  // No budget: fully resident, byte-for-byte.
  EXPECT_EQ(EstimateResidentBytes(5e6, engine.cluster()), 5e6);
  engine.mutable_cluster().memory.join_memory_budget_bytes = 64 << 10;
  const double cap =
      static_cast<double>(64 << 10) * engine.cluster().num_nodes;
  EXPECT_EQ(EstimateResidentBytes(5e6, engine.cluster()), cap);
  EXPECT_EQ(EstimateResidentBytes(1e4, engine.cluster()), 1e4);  // Fits.

  // Admission reservations route through the same model: a budgeted engine
  // reserves less for a query whose inputs exceed budget * num_nodes.
  BuildSpillTables(&engine);
  const QuerySpec spec = SpillQuery();
  const uint64_t with_budget = EstimateQueryReservationBytes(spec, &engine);
  engine.mutable_cluster().memory.join_memory_budget_bytes = 0;
  const uint64_t unbudgeted = EstimateQueryReservationBytes(spec, &engine);
  EXPECT_LT(with_budget, unbudgeted);
}

// ---- Spill-aware planning (tentpole layer a) -----------------------------

TEST(FeedbackTest, SpillAwareCostingFlipsBroadcastToShuffle) {
  Engine engine;
  engine.mutable_cluster().memory.join_memory_budget_bytes = 64 << 10;
  BuildSpillTables(&engine);
  const QuerySpec spec = SpillQuery();

  engine.mutable_cluster().risk.spill_aware_costing = false;
  StaticCostBasedOptimizer blind(&engine);
  auto blind_run = blind.Run(spec);
  ASSERT_TRUE(blind_run.ok()) << blind_run.status().ToString();

  engine.mutable_cluster().risk.spill_aware_costing = true;
  StaticCostBasedOptimizer aware(&engine);
  auto aware_run = aware.Run(spec);
  ASSERT_TRUE(aware_run.ok()) << aware_run.status().ToString();

  // Same rows, different method, lower simulated cost, no spill at all.
  EXPECT_EQ(SortedRows(aware_run.value()), SortedRows(blind_run.value()));
  ASSERT_NE(blind_run->join_tree, nullptr);
  ASSERT_NE(aware_run->join_tree, nullptr);
  EXPECT_NE(blind_run->join_tree->ToString(), aware_run->join_tree->ToString());
  EXPECT_GT(blind_run->metrics.spilled_bytes, 0u);
  EXPECT_EQ(aware_run->metrics.spilled_bytes, 0u);
  EXPECT_LT(aware_run->metrics.simulated_seconds,
            blind_run->metrics.simulated_seconds);

  // Model/executor parity on the trap the blind plan fell into: predict the
  // broadcast's spill volume from the same estimates the planner saw and
  // hold it against the metered ExecMetrics.spilled_bytes.
  StatsView view(&spec, &engine.stats(), &engine.catalog());
  CardinalityEstimator estimator(&view);
  JoinCostInputs in;
  in.build_rows = estimator.EstimateFilteredSize("r");
  in.build_bytes = estimator.EstimateFilteredBytes("r");
  in.probe_rows = estimator.EstimateFilteredSize("s");
  in.probe_bytes = estimator.EstimateFilteredBytes("s");
  in.out_rows = estimator.EstimateJoinCardinality(spec.joins[0]);
  in.out_bytes = in.out_rows * (in.build_bytes / in.build_rows +
                                in.probe_bytes / in.probe_rows);
  in.memory_budget_bytes = engine.cluster().memory.join_memory_budget_bytes;
  const JoinCostBreakdown predicted = EstimateJoinExecCostDetail(
      JoinMethod::kBroadcast, in, engine.cluster(), in.probe_bytes);
  ASSERT_GT(predicted.spilled_bytes, 0.0);
  const double ratio = predicted.spilled_bytes /
                       static_cast<double>(blind_run->metrics.spilled_bytes);
  EXPECT_GT(ratio, 1.0 / 8);
  EXPECT_LT(ratio, 8.0);
}

// ---- Knob neutrality (the defaults-off pin) ------------------------------

TEST(FeedbackTest, DefaultAndNeutralKnobsMeterIdenticallyAcrossStrategies) {
  Engine engine;
  BuildMisestimationTables(&engine);
  const QuerySpec spec = MisestimationQuery();

  DynamicOptimizer hint_source(&engine);
  auto hint_run = hint_source.Run(spec);
  ASSERT_TRUE(hint_run.ok()) << hint_run.status().ToString();
  std::shared_ptr<const JoinTree> hint = hint_run->join_tree;

  for (const char* name : {"dynamic", "best-order", "cost-based", "pilot-run",
                           "ingres-like", "worst-order"}) {
    SCOPED_TRACE(name);
    // Defaults: every risk knob off.
    engine.mutable_cluster().risk = RiskConfig();
    auto optimizer =
        MakeOptimizer(&engine, name, PlannerOptions(), hint).value();
    auto baseline = optimizer->Run(spec);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_EQ(baseline->metrics.error_reopt_triggers, 0u);
    auto baseline_text = ExplainAnalyze(&engine, spec, baseline.value());
    ASSERT_TRUE(baseline_text.ok());

    // Same engine, same defaults: metering is deterministic to the byte.
    auto repeat = optimizer->Run(spec);
    ASSERT_TRUE(repeat.ok());

    // Spill-aware costing on with no budget configured must be a no-op:
    // the model only diverges when memory_budget_bytes > 0.
    engine.mutable_cluster().risk.spill_aware_costing = true;
    auto neutral = optimizer->Run(spec);
    ASSERT_TRUE(neutral.ok());
    engine.mutable_cluster().risk = RiskConfig();

    for (const auto* run : {&repeat, &neutral}) {
      EXPECT_EQ(MeteringDiff((*run)->metrics, baseline->metrics), "");
      EXPECT_EQ((*run)->rows, baseline->rows);
      auto text = ExplainAnalyze(&engine, spec, run->value());
      ASSERT_TRUE(text.ok());
      EXPECT_EQ(text.value(), baseline_text.value());
    }
  }
}

// ---- Error feedback (tentpole layer b) -----------------------------------

TEST(FeedbackTest, ErrorFeedbackBuysExtraReoptCheckpointAndWins) {
  Engine engine;
  BuildMisestimationTables(&engine);
  const QuerySpec spec = MisestimationQuery();

  DynamicOptimizer no_feedback(&engine);
  auto off = no_feedback.Run(spec);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(off->metrics.error_reopt_triggers, 0u);
  EXPECT_GT(off->metrics.max_q_error, kQErrorReoptThreshold);

  // Registries are engine-scoped now: the trigger counter lands in the
  // engine's own registry, not the process-wide default.
  Counter* triggers =
      engine.metrics_registry().counter("query.error_reopt_triggers");
  const uint64_t counter_before = triggers->value();
  engine.mutable_cluster().risk.error_feedback = true;
  DynamicOptimizer with_feedback(&engine);
  auto on = with_feedback.Run(spec);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  engine.mutable_cluster().risk = RiskConfig();

  EXPECT_GE(on->metrics.error_reopt_triggers, 1u);
  EXPECT_EQ(triggers->value(),
            counter_before + on->metrics.error_reopt_triggers);
  EXPECT_EQ(SortedRows(on.value()), SortedRows(off.value()));
  // The extra checkpoint replans the tail on exact counts and dodges the
  // oversized broadcast the feedback-free run walks into.
  EXPECT_LT(on->metrics.simulated_seconds, off->metrics.simulated_seconds);
}

TEST(FeedbackTest, ResumeNeitherLosesNorDoubleCountsQErrors) {
  Engine engine;
  BuildMisestimationTables(&engine);
  const QuerySpec spec = MisestimationQuery();
  engine.mutable_cluster().risk.error_feedback = true;

  DynamicOptimizer reference(&engine);
  auto expected = reference.Run(spec);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GE(expected->metrics.error_reopt_triggers, 1u);

  // Fail after every completed stage (push-down and join rounds alike,
  // including the error-bought extra round) and resume each time; the
  // final accounting must match the uninterrupted run exactly.
  DynamicOptimizerOptions options;
  options.inject_failure_after_stages = 1;
  DynamicOptimizer optimizer(&engine, options);
  auto resumed = optimizer.Run(spec);
  int resumes = 0;
  while (!resumed.ok() && resumed.status().retryable() &&
         optimizer.CanResume() && ++resumes < 32) {
    resumed = optimizer.ResumeFromLastCheckpoint();
  }
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_GT(resumes, 1);  // The injector re-tripped across the extra round.
  engine.mutable_cluster().risk = RiskConfig();

  EXPECT_EQ(SortedRows(resumed.value()), SortedRows(expected.value()));
  EXPECT_EQ(resumed->metrics.error_reopt_triggers,
            expected->metrics.error_reopt_triggers);
  EXPECT_EQ(resumed->metrics.num_decisions, expected->metrics.num_decisions);
  EXPECT_EQ(resumed->metrics.max_q_error, expected->metrics.max_q_error);
  ASSERT_NE(resumed->profile, nullptr);
  ASSERT_NE(expected->profile, nullptr);
  EXPECT_EQ(resumed->profile->decisions.decisions().size(),
            expected->profile->decisions.decisions().size());
  EXPECT_EQ(resumed->profile->decisions.NumWithActuals(),
            expected->profile->decisions.NumWithActuals());
  EXPECT_EQ(resumed->profile->decisions.MaxQError(),
            expected->profile->decisions.MaxQError());
}

// ---- Cross-query error memory (tentpole layer c) -------------------------

TEST(FeedbackTest, ErrorStoreCalibratesTheNextQuery) {
  const std::string store_path =
      (fs::temp_directory_path() /
       ("dynopt_feedback_test_store_" + std::to_string(::getpid())))
          .string();
  std::error_code ec;
  fs::remove(store_path, ec);

  Engine engine;
  BuildMemoryTables(&engine);
  const QuerySpec spec = MemoryQuery();
  engine.mutable_cluster().risk.use_error_store = true;
  engine.mutable_cluster().risk.error_stats_path = store_path;

  StaticCostBasedOptimizer first(&engine);
  auto run1 = first.Run(spec);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  StaticCostBasedOptimizer second(&engine);
  auto run2 = second.Run(spec);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  engine.mutable_cluster().risk = RiskConfig();

  // Run 1 planned blind, misjudged the correlated-predicate intermediate
  // (large q-error) and persisted what it learned; run 2 started from the
  // stored prior and planned around the oversized broadcast.
  EXPECT_GT(run1->metrics.max_q_error, 4.0);
  ASSERT_NE(run1->join_tree, nullptr);
  ASSERT_NE(run2->join_tree, nullptr);
  EXPECT_NE(run1->join_tree->ToString(), run2->join_tree->ToString());
  EXPECT_LT(run2->metrics.simulated_seconds, run1->metrics.simulated_seconds);
  EXPECT_EQ(SortedRows(run2.value()), SortedRows(run1.value()));

  ASSERT_TRUE(fs::exists(store_path));
  ErrorStatsStore reader(store_path);
  ASSERT_TRUE(reader.Load().ok());
  EXPECT_GT(reader.NumEntries(), 0u);
  fs::remove(store_path, ec);
}

// ---- Pessimistic-bound DP (unit) -----------------------------------------

TEST(FeedbackTest, PlanWithDpNeutralRiskIsExactAndWideRiskFlips) {
  Engine engine;
  BuildMemoryTables(&engine);
  const QuerySpec spec = MemoryQuery();
  StatsView view(&spec, &engine.stats(), &engine.catalog());

  auto plain = StaticCostBasedOptimizer::PlanWithDp(spec, view,
                                                    engine.cluster(),
                                                    PlannerOptions());
  ASSERT_TRUE(plain.ok());
  SelectivityRisk neutral;
  auto with_neutral = StaticCostBasedOptimizer::PlanWithDp(
      spec, view, engine.cluster(), PlannerOptions(), nullptr, nullptr,
      &neutral);
  ASSERT_TRUE(with_neutral.ok());
  // Contract: a neutral risk reproduces the historical plan exactly.
  EXPECT_EQ(plain.value()->ToString(), with_neutral.value()->ToString());

  SelectivityRisk wide;
  wide.global_factor = 8.0;
  auto with_wide = StaticCostBasedOptimizer::PlanWithDp(
      spec, view, engine.cluster(), PlannerOptions(), nullptr, nullptr, &wide);
  ASSERT_TRUE(with_wide.ok());
  // Widening the composite estimates past the broadcast threshold flips
  // the plan the expected-cost DP picks.
  EXPECT_NE(plain.value()->ToString(), with_wide.value()->ToString());
}

// ---- Registry telemetry (satellite) --------------------------------------

TEST(FeedbackTest, RunEpilogueExportsQErrorTelemetry) {
  Engine engine;
  BuildSpillTables(&engine);
  const QuerySpec spec = SpillQuery();

  auto& registry = engine.metrics_registry();
  const uint64_t decisions_before =
      registry.counter("query.num_decisions")->value();
  const uint64_t actuals_before =
      registry.counter("opt.decisions_with_actuals")->value();
  const uint64_t hist_before = registry.histogram("opt.q_error")->count();

  StaticCostBasedOptimizer optimizer(&engine);
  auto result = optimizer.Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile, nullptr);
  ASSERT_GT(result->metrics.num_decisions, 0u);

  EXPECT_EQ(registry.counter("query.num_decisions")->value(),
            decisions_before + result->metrics.num_decisions);
  EXPECT_EQ(registry.counter("opt.decisions_with_actuals")->value(),
            actuals_before + result->profile->decisions.NumWithActuals());
  EXPECT_EQ(registry.histogram("opt.q_error")->count(),
            hist_before + result->profile->decisions.NumWithActuals());
}

// Every finished query adds its integral summed fields to the engine's
// registry as "query.<field>" counters, so the registry agrees with
// sys.queries: work and retries of a query that fails count nowhere.
TEST(FeedbackTest, RegistryCountersSumTheFinishedQueriesFields) {
  Engine engine;
  BuildMisestimationTables(&engine);
  const QuerySpec spec = MisestimationQuery();
  FaultInjectionConfig faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.task_failure_probability = 0.1;
  engine.mutable_cluster().fault = faults;
  engine.ArmFaultInjection();

  ExecMetrics finished;
  for (const char* name : {"dynamic", "cost-based", "pilot-run",
                           "ingres-like", "worst-order"}) {
    auto optimizer =
        MakeOptimizer(&engine, name, PlannerOptions(), nullptr).value();
    auto result = optimizer->Run(spec);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    finished.Add(result->metrics);
  }
  EXPECT_GT(finished.num_retries, 0u);

  // One more query retries tasks, then dies at a later stage.
  faults.fail_query_at_stage = 6;
  engine.mutable_cluster().fault = faults;
  engine.ArmFaultInjection();
  DynamicOptimizer failing(&engine);
  RecoveryPolicy once;
  once.max_attempts = 1;
  auto failed = RunWithRecovery(&failing, &engine, spec, once);
  ASSERT_FALSE(failed.ok());
  EXPECT_GT(engine.fault_injector()->stages_started(), 6);

  MetricsRegistry& registry = engine.metrics_registry();
  VisitMetricFields(
      [&](const MetricField& field, auto value) {
        if constexpr (std::is_integral_v<decltype(value)>) {
          if (field.merge != MetricMerge::kSum) return;
          EXPECT_EQ(registry.counter(std::string("query.") + field.name)
                        ->value(),
                    static_cast<uint64_t>(value))
              << field.name;
        }
      },
      finished);
}

}  // namespace
}  // namespace dynopt
