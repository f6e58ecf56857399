// Cross-layer consistency properties:
//  - the plan-time cost model must rank join methods the same way the
//    metered executor does (otherwise the planner's choices are noise);
//  - degenerate inputs (empty filters, single rows) flow through every
//    optimizer without errors;
//  - simulated time is deterministic across repeated runs;
//  - with predicate transfer disabled (the default), no strategy ships a
//    filter or prunes a row;
//  - an invalid cluster config set after engine construction comes back
//    from every strategy as kInvalidArgument naming the knob, never as a
//    process abort.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/cost_model.h"
#include "opt/dynamic_optimizer.h"
#include "opt/explain.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "sys/system_tables.h"

namespace dynopt {
namespace {

/// (build rows, probe rows, key domain): the cost model and the executor
/// must agree on which of hash/broadcast is cheaper whenever the gap is
/// meaningful.
class MethodRankingTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, MethodRankingTest,
    ::testing::Values(std::make_tuple(50, 20000, 500),
                      std::make_tuple(500, 20000, 500),
                      std::make_tuple(5000, 20000, 500),
                      std::make_tuple(200, 5000, 100),
                      std::make_tuple(2000, 2000, 200)));

TEST_P(MethodRankingTest, CostModelAgreesWithExecutor) {
  auto [build_rows, probe_rows, domain] = GetParam();
  Engine engine;
  Rng rng(11);
  auto make = [&](const std::string& name, int rows) {
    auto t = std::make_shared<Table>(
        name,
        Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
        engine.cluster().num_nodes);
    // Deliberately NOT partitioned on k so the shuffle is real.
    for (int i = 0; i < rows; ++i) {
      t->AppendRow({Value(rng.NextInt64(0, domain - 1)),
                    Value("padding_payload_" + std::to_string(i % 97))});
    }
    ASSERT_TRUE(engine.catalog().RegisterTable(t).ok());
  };
  make("b", build_rows);
  make("p", probe_rows);

  double measured[2];
  double estimated[2];
  JoinMethod methods[2] = {JoinMethod::kHashShuffle, JoinMethod::kBroadcast};
  auto bt = engine.catalog().GetTable("b").value();
  auto pt = engine.catalog().GetTable("p").value();
  for (int m = 0; m < 2; ++m) {
    auto plan =
        PlanNode::Join(methods[m], PlanNode::Scan("b", "b"),
                       PlanNode::Scan("p", "p"), {{"b.k", "p.k"}});
    JobExecutor executor = engine.MakeExecutor();
    auto result = executor.Execute(*plan, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    measured[m] = result->metrics.simulated_seconds;

    JoinCostInputs in;
    in.build_rows = static_cast<double>(bt->NumRows());
    in.build_bytes = static_cast<double>(bt->TotalBytes());
    in.probe_rows = static_cast<double>(pt->NumRows());
    in.probe_bytes = static_cast<double>(pt->TotalBytes());
    in.out_rows = static_cast<double>(result->data.NumRows());
    in.out_bytes = static_cast<double>(result->data.TotalBytes());
    estimated[m] =
        EstimateJoinExecCost(methods[m], in, engine.cluster(), 0.0);
  }
  // When one method is measurably better (>25% gap), the model must rank
  // it first too.
  double gap = std::abs(measured[0] - measured[1]) /
               std::max(measured[0], measured[1]);
  if (gap > 0.25) {
    EXPECT_EQ(measured[0] < measured[1], estimated[0] < estimated[1])
        << "measured hash=" << measured[0] << " bcast=" << measured[1]
        << " estimated hash=" << estimated[0] << " bcast=" << estimated[1];
  }
}

class DegenerateInputTest : public ::testing::Test {
 protected:
  static void LoadTables(Engine* engine) {
    Rng rng(5);
    for (const char* name : {"x", "y", "z"}) {
      auto t = std::make_shared<Table>(
          name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
          engine->cluster().num_nodes);
      ASSERT_TRUE(t->SetPartitionKey({"k"}).ok());
      for (int i = 0; i < 300; ++i) {
        t->AppendRow({Value(rng.NextInt64(0, 49)), Value(rng.NextInt64(0, 9))});
      }
      ASSERT_TRUE(engine->catalog().RegisterTable(t).ok());
      ASSERT_TRUE(engine->CollectBaseStats(name, {"k", "v"}).ok());
    }
  }

  void SetUp() override {
    engine_ = std::make_unique<Engine>();
    LoadTables(engine_.get());
  }

  QuerySpec ChainQuery() {
    QuerySpec spec;
    spec.tables = {{"x", "x", false, false, {}},
                   {"y", "y", false, false, {}},
                   {"z", "z", false, false, {}}};
    spec.joins = {{"x", "y", {{"x.k", "y.k"}}}, {"y", "z", {{"y.k", "z.k"}}}};
    spec.projections = {"x.v", "y.v", "z.v"};
    spec.NormalizeJoins();
    return spec;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(DegenerateInputTest, EmptyFilterResultAcrossAllOptimizers) {
  QuerySpec spec = ChainQuery();
  // Two contradictory predicates force push-down and an empty intermediate.
  spec.predicates.push_back(
      {"y", Cmp(CompareOp::kLt, Col("y", "v"), Lit(Value(-1)))});
  spec.predicates.push_back(
      {"y", Cmp(CompareOp::kGt, Col("y", "v"), Lit(Value(100)))});

  DynamicOptimizer dynamic(engine_.get());
  auto dyn = dynamic.Run(spec);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  EXPECT_TRUE(dyn->rows.empty());

  StaticCostBasedOptimizer cost_based(engine_.get());
  auto cb = cost_based.Run(spec);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  EXPECT_TRUE(cb->rows.empty());

  PilotRunOptimizer pilot(engine_.get());
  auto pr = pilot.Run(spec);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  EXPECT_TRUE(pr->rows.empty());

  IngresLikeOptimizer ingres(engine_.get());
  auto ing = ingres.Run(spec);
  ASSERT_TRUE(ing.ok()) << ing.status().ToString();
  EXPECT_TRUE(ing->rows.empty());

  WorstOrderOptimizer worst(engine_.get());
  auto wo = worst.Run(spec);
  ASSERT_TRUE(wo.ok()) << wo.status().ToString();
  EXPECT_TRUE(wo->rows.empty());
}

TEST_F(DegenerateInputTest, SimulatedTimeIsDeterministic) {
  QuerySpec spec = ChainQuery();
  DynamicOptimizer dynamic(engine_.get());
  auto a = dynamic.Run(spec);
  auto b = dynamic.Run(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->metrics.simulated_seconds,
                   b->metrics.simulated_seconds);
  EXPECT_EQ(a->metrics.bytes_shuffled, b->metrics.bytes_shuffled);
  EXPECT_EQ(a->join_tree->ToString(), b->join_tree->ToString());
}

TEST_F(DegenerateInputTest, TwoTableQueryHasNoReoptLoop) {
  QuerySpec spec;
  spec.tables = {{"x", "x", false, false, {}}, {"y", "y", false, false, {}}};
  spec.joins = {{"x", "y", {{"x.k", "y.k"}}}};
  spec.projections = {"x.v", "y.v"};
  spec.NormalizeJoins();
  DynamicOptimizer dynamic(engine_.get());
  auto result = dynamic.Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.num_reopt_points, 0);
  EXPECT_GT(result->rows.size(), 0u);
}

TEST_F(DegenerateInputTest, MetricsDecompositionIsConsistent) {
  QuerySpec spec = ChainQuery();
  spec.predicates.push_back(
      {"x", Cmp(CompareOp::kLt, Col("x", "v"), Lit(Value(5)))});
  spec.predicates.push_back(
      {"x", Cmp(CompareOp::kGt, Col("x", "v"), Lit(Value(0)))});
  DynamicOptimizer dynamic(engine_.get());
  auto result = dynamic.Run(spec);
  ASSERT_TRUE(result.ok());
  const ExecMetrics& m = result->metrics;
  EXPECT_GE(m.simulated_seconds, m.reopt_seconds + m.stats_seconds);
  EXPECT_GT(m.reopt_seconds, 0.0);  // Push-down materialized something.
  EXPECT_GE(m.num_reopt_points, 1);
  EXPECT_EQ(m.rows_out, result->rows.size());
}

TEST_F(DegenerateInputTest, InvalidConfigIsAStatusInEveryStrategy) {
  QuerySpec spec = ChainQuery();
  // Best-order replays a join tree, so take its hint while the config is
  // still valid.
  DynamicOptimizer hint_run(engine_.get());
  auto hint = hint_run.Run(spec);
  ASSERT_TRUE(hint.ok()) << hint.status().ToString();
  ASSERT_NE(hint->join_tree, nullptr);

  engine_->mutable_cluster().exec.max_batch_size = 0;
  DynamicOptimizer dynamic(engine_.get());
  BestOrderOptimizer best(engine_.get(), hint->join_tree);
  StaticCostBasedOptimizer cost_based(engine_.get());
  PilotRunOptimizer pilot(engine_.get());
  IngresLikeOptimizer ingres(engine_.get());
  WorstOrderOptimizer worst(engine_.get());
  SketchDynamicOptimizer sketch(engine_.get());
  for (Optimizer* opt : std::vector<Optimizer*>{&dynamic, &best, &cost_based,
                                                &pilot, &ingres, &worst,
                                                &sketch}) {
    auto result = opt->Run(spec);
    ASSERT_FALSE(result.ok()) << opt->name();
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << opt->name() << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find("max_batch_size"),
              std::string::npos)
        << opt->name() << ": " << result.status().ToString();
  }
  // Valid again: the same engine runs the query.
  engine_->mutable_cluster().exec.max_batch_size = 1024;
  EXPECT_TRUE(DynamicOptimizer(engine_.get()).Run(spec).ok());
}

// With enable_predicate_transfer=false (the default), none of the seven
// strategies ships a Bloom filter or prunes a row — including
// sketch-dynamic, which builds sketches for its estimates but never
// transfers them — so their metering is that of a build without the
// subsystem.
TEST_F(DegenerateInputTest, PredicateTransferOffIsByteIdentical) {
  QuerySpec spec = ChainQuery();
  // Multi-predicate alias forces a push-down materialization, so the
  // sketch-collection path in the dynamic optimizers is actually reached.
  spec.predicates.push_back(
      {"x", Cmp(CompareOp::kLt, Col("x", "v"), Lit(Value(5)))});
  spec.predicates.push_back(
      {"x", Cmp(CompareOp::kGt, Col("x", "v"), Lit(Value(0)))});

  Engine* engine = engine_.get();
  size_t runs = 0;
  auto record = [&](Optimizer* opt) {
    auto result = opt->Run(spec);
    ASSERT_TRUE(result.ok()) << opt->name() << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->metrics.pt_filter_bytes, 0u) << opt->name();
    EXPECT_EQ(result->metrics.pt_pruned_rows, 0u) << opt->name();
    EXPECT_EQ(result->metrics.pt_pruned_bytes, 0u) << opt->name();
    auto explained = ExplainAnalyze(engine, spec, *result);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    ++runs;
  };
  DynamicOptimizer dynamic(engine);
  record(&dynamic);
  auto hint = dynamic.Run(spec);
  ASSERT_TRUE(hint.ok());
  ASSERT_NE(hint->join_tree, nullptr);
  BestOrderOptimizer best(engine, hint->join_tree);
  record(&best);
  StaticCostBasedOptimizer cost_based(engine);
  record(&cost_based);
  PilotRunOptimizer pilot(engine);
  record(&pilot);
  IngresLikeOptimizer ingres(engine);
  record(&ingres);
  WorstOrderOptimizer worst(engine);
  record(&worst);
  SketchDynamicOptimizer sketch(engine);
  record(&sketch);
  EXPECT_EQ(runs, 7u);
}

// With introspection.enabled=false (the default), installing the sys.*
// catalog provider and tweaking the archive capacity must not change a single
// metered byte or EXPLAIN ANALYZE character for any of the seven
// strategies: the introspection plane observes, it never participates.
TEST_F(DegenerateInputTest, IntrospectionOffIsByteIdentical) {
  QuerySpec spec = ChainQuery();
  spec.predicates.push_back(
      {"x", Cmp(CompareOp::kLt, Col("x", "v"), Lit(Value(5)))});
  spec.predicates.push_back(
      {"x", Cmp(CompareOp::kGt, Col("x", "v"), Lit(Value(0)))});

  struct StrategyRun {
    std::string name;
    size_t rows;
    ExecMetrics metrics;
    std::string explained;
  };
  auto run_all = [&](Engine* engine, std::vector<StrategyRun>* out_runs) {
    std::vector<StrategyRun>& out = *out_runs;
    auto record = [&](Optimizer* opt) {
      auto result = opt->Run(spec);
      ASSERT_TRUE(result.ok()) << opt->name() << ": "
                               << result.status().ToString();
      auto explained = ExplainAnalyze(engine, spec, *result);
      ASSERT_TRUE(explained.ok()) << explained.status().ToString();
      out.push_back({opt->name(), result->rows.size(), result->metrics,
                     explained.value()});
    };
    DynamicOptimizer dynamic(engine);
    record(&dynamic);
    auto hint = dynamic.Run(spec);
    ASSERT_TRUE(hint.ok());
    ASSERT_NE(hint->join_tree, nullptr);
    BestOrderOptimizer best(engine, hint->join_tree);
    record(&best);
    StaticCostBasedOptimizer cost_based(engine);
    record(&cost_based);
    PilotRunOptimizer pilot(engine);
    record(&pilot);
    IngresLikeOptimizer ingres(engine);
    record(&ingres);
    WorstOrderOptimizer worst(engine);
    record(&worst);
    SketchDynamicOptimizer sketch(engine);
    record(&sketch);
  };

  std::vector<StrategyRun> defaults;
  run_all(engine_.get(), &defaults);
  if (HasFailure()) return;

  // sys.* tables resolvable + a non-default archive capacity — but enabled
  // stays false, so no run is fingerprinted, archived, or annotated.
  auto tweaked_engine = std::make_unique<Engine>();
  tweaked_engine->mutable_cluster().introspection.archive_capacity = 4;
  InstallSystemTables(tweaked_engine.get());
  LoadTables(tweaked_engine.get());
  std::vector<StrategyRun> tweaked;
  run_all(tweaked_engine.get(), &tweaked);
  if (HasFailure()) return;

  ASSERT_EQ(defaults.size(), 7u);
  ASSERT_EQ(tweaked.size(), defaults.size());
  for (size_t i = 0; i < defaults.size(); ++i) {
    EXPECT_EQ(defaults[i].name, tweaked[i].name);
    EXPECT_EQ(defaults[i].rows, tweaked[i].rows) << defaults[i].name;
    EXPECT_EQ(MeteringDiff(defaults[i].metrics, tweaked[i].metrics), "")
        << defaults[i].name;
    EXPECT_EQ(defaults[i].explained, tweaked[i].explained)
        << defaults[i].name;
  }
}

}  // namespace
}  // namespace dynopt
