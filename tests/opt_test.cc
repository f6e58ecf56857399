#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/dynamic_optimizer.h"
#include "opt/join_tree.h"
#include "opt/plan_builder.h"
#include "opt/planner.h"
#include "opt/reconstruction.h"
#include "opt/static_optimizer.h"
#include "opt/stats_view.h"

namespace dynopt {
namespace {

/// Fixture with a small star schema: fact(fk1, fk2, v), dim1(pk, attr),
/// dim2(pk, attr); dim1 is 10x smaller than dim2.
class OptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>();
    Rng rng(17);
    auto make = [&](const std::string& name, int rows, int domain1,
                    int domain2) {
      auto t = std::make_shared<Table>(
          name,
          Schema({{"a", ValueType::kInt64},
                  {"b", ValueType::kInt64},
                  {"v", ValueType::kInt64}}),
          engine_->cluster().num_nodes);
      ASSERT_TRUE(t->SetPartitionKey({"a"}).ok());
      for (int i = 0; i < rows; ++i) {
        t->AppendRow({Value(rng.NextInt64(0, domain1 - 1)),
                      Value(rng.NextInt64(0, domain2 - 1)),
                      Value(rng.NextInt64(0, 99))});
      }
      ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
      ASSERT_TRUE(engine_->CollectBaseStats(name, {"a", "b", "v"}).ok());
    };
    make("fact", 20000, 100, 1000);
    make("dim1", 100, 100, 100);
    make("dim2", 1000, 1000, 1000);
  }

  /// fact f joined to dim1 d1 (on a) and dim2 d2 (on b).
  QuerySpec StarQuery() {
    QuerySpec spec;
    spec.tables = {{"fact", "f", false, false, {}},
                   {"dim1", "d1", false, false, {}},
                   {"dim2", "d2", false, false, {}}};
    JoinEdge e1;
    e1.left_alias = "f";
    e1.right_alias = "d1";
    e1.keys = {{"f.a", "d1.a"}};
    JoinEdge e2;
    e2.left_alias = "f";
    e2.right_alias = "d2";
    e2.keys = {{"f.b", "d2.a"}};
    spec.joins = {e1, e2};
    spec.projections = {"f.v", "d1.v", "d2.v"};
    spec.NormalizeJoins();
    return spec;
  }

  std::unique_ptr<Engine> engine_;
};

// --- StatsView ----------------------------------------------------------------

TEST_F(OptTest, StatsViewReadsBaseStats) {
  QuerySpec spec = StarQuery();
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  EXPECT_DOUBLE_EQ(view.RowCount("f"), 20000.0);
  EXPECT_DOUBLE_EQ(view.RowCount("d1"), 100.0);
  EXPECT_GT(view.TotalBytes("f"), view.TotalBytes("d1"));
  const ColumnStatsSnapshot* col = view.Column("f", "f.a");
  ASSERT_NE(col, nullptr);
  EXPECT_NEAR(col->ndv, 100.0, 5.0);
  EXPECT_EQ(view.Column("f", "f.nope"), nullptr);
  EXPECT_EQ(view.RowCount("zzz"), 0.0);
}

TEST_F(OptTest, StatsViewAliasOverridesWin) {
  QuerySpec spec = StarQuery();
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  std::map<std::string, TableStats> overrides;
  TableStats fake;
  fake.row_count = 7;
  overrides["f"] = fake;
  view.SetAliasOverrides(&overrides);
  EXPECT_DOUBLE_EQ(view.RowCount("f"), 7.0);
  EXPECT_DOUBLE_EQ(view.RowCount("d1"), 100.0);  // Untouched.
}

TEST_F(OptTest, StatsViewIntermediateFallsBackToBaseStats) {
  QuerySpec spec = StarQuery();
  // Make f an intermediate providing f.a with NO stats of its own.
  TableRef* ref = spec.FindRef("f");
  ref->is_intermediate = true;
  ref->table = "__tmp_x_0";
  ref->provided_columns = {"f.a", "f.b", "f.v"};
  TableStats empty;
  empty.row_count = 5000;
  engine_->stats().Put("__tmp_x_0", empty);
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  EXPECT_DOUBLE_EQ(view.RowCount("f"), 5000.0);
  const ColumnStatsSnapshot* col = view.Column("f", "f.a");
  ASSERT_NE(col, nullptr) << "must fall back to base table stats";
  EXPECT_NEAR(col->ndv, 100.0, 5.0);
}

// --- Cardinality estimation -----------------------------------------------------

TEST_F(OptTest, FkJoinCardinalityMatchesFormula) {
  QuerySpec spec = StarQuery();
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  CardinalityEstimator estimator(&view);
  // |fact join_a dim1| = 20000 * 100 / max(100, 100) = 20000.
  double est = estimator.EstimateJoinCardinality(spec.joins[0]);
  EXPECT_NEAR(est, 20000.0, 2000.0);
}

TEST_F(OptTest, FilterScalesJoinEstimate) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kLt, Col("d1", "a"), Lit(Value(10)))});
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  CardinalityEstimator estimator(&view);
  // dim1 filtered to ~10%; containment scales the join result accordingly.
  EXPECT_NEAR(estimator.EstimateFilteredSize("d1"), 10.0, 4.0);
  double est = estimator.EstimateJoinCardinality(spec.joins[0]);
  EXPECT_NEAR(est, 2000.0, 600.0);
}

TEST_F(OptTest, ComplexPredicatesUseDefaults) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"f", Eq(Udf("u", {Col("f", "v")}), Lit(Value(1)))});
  spec.predicates.push_back({"d1", Eq(Col("d1", "v"), Param("p"))});
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  CardinalityEstimator estimator(&view);
  EXPECT_DOUBLE_EQ(estimator.EstimatePredicateSelectivity("f"), 0.1);
  EXPECT_DOUBLE_EQ(estimator.EstimatePredicateSelectivity("d1"), 0.1);
  // Range-shaped complex predicates default to 1/3.
  spec.predicates.clear();
  spec.predicates.push_back(
      {"f", Cmp(CompareOp::kGt, Udf("u", {Col("f", "v")}), Lit(Value(1)))});
  EXPECT_DOUBLE_EQ(estimator.EstimatePredicateSelectivity("f"), 1.0 / 3.0);
}

TEST_F(OptTest, IndependenceMultipliesConjuncts) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"f", Cmp(CompareOp::kLt, Col("f", "a"), Lit(Value(50)))});
  spec.predicates.push_back(
      {"f", Cmp(CompareOp::kLt, Col("f", "b"), Lit(Value(500)))});
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  CardinalityEstimator estimator(&view);
  EXPECT_NEAR(estimator.EstimatePredicateSelectivity("f"), 0.25, 0.05);
}

TEST_F(OptTest, CardinalityOnlyModeIgnoresSketches) {
  QuerySpec spec = StarQuery();
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  EstimationOptions options;
  options.cardinality_only = true;
  CardinalityEstimator estimator(&view, options);
  // INGRES proxy: max of the input sizes.
  EXPECT_DOUBLE_EQ(estimator.EstimateJoinCardinality(spec.joins[0]),
                   20000.0);
}

TEST_F(OptTest, HistogramRangeSelectivity) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"f", Between(Col("f", "v"), Lit(Value(0)), Lit(Value(24)))});
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  CardinalityEstimator estimator(&view);
  EXPECT_NEAR(estimator.EstimatePredicateSelectivity("f"), 0.25, 0.05);
}

// --- Cost model ----------------------------------------------------------------

TEST(CostModelTest, BroadcastBeatsShuffleForSmallBuild) {
  ClusterConfig cluster;
  JoinCostInputs in;
  in.build_rows = 100;
  in.build_bytes = 10e3;  // 10 KB build.
  in.probe_rows = 1e6;
  in.probe_bytes = 100e6;  // 100 MB probe.
  in.out_rows = 1e6;
  in.out_bytes = 100e6;
  double hash = EstimateJoinExecCost(JoinMethod::kHashShuffle, in, cluster, 0);
  double broadcast =
      EstimateJoinExecCost(JoinMethod::kBroadcast, in, cluster, 0);
  EXPECT_LT(broadcast, hash);
}

TEST(CostModelTest, ShuffleBeatsBroadcastForLargeBuild) {
  ClusterConfig cluster;
  JoinCostInputs in;
  in.build_rows = 1e6;
  in.build_bytes = 80e6;
  in.probe_rows = 1e6;
  in.probe_bytes = 100e6;
  in.out_rows = 1e6;
  in.out_bytes = 100e6;
  double hash = EstimateJoinExecCost(JoinMethod::kHashShuffle, in, cluster, 0);
  double broadcast =
      EstimateJoinExecCost(JoinMethod::kBroadcast, in, cluster, 0);
  EXPECT_LT(hash, broadcast);
}

TEST(CostModelTest, InljWinsWhenProbeScanIsExpensiveAndOuterSmall) {
  ClusterConfig cluster;
  JoinCostInputs in;
  in.build_rows = 50;
  in.build_bytes = 5e3;
  in.probe_rows = 1e6;
  in.probe_bytes = 100e6;
  in.out_rows = 500;
  in.out_bytes = 50e3;
  double broadcast =
      EstimateJoinExecCost(JoinMethod::kBroadcast, in, cluster, 0);
  double inlj = EstimateJoinExecCost(JoinMethod::kIndexNestedLoop, in,
                                     cluster, in.probe_bytes);
  EXPECT_LT(inlj, broadcast - (in.probe_bytes / 10.0) *
                                  cluster.scan_seconds_per_byte +
                      (in.probe_bytes / 10.0) * cluster.scan_seconds_per_byte);
  EXPECT_LT(inlj, broadcast);
}

TEST(CostModelTest, ScanCostScalesWithBytes) {
  ClusterConfig cluster;
  EXPECT_LT(EstimateScanCost(1e6, 1e4, cluster, false),
            EstimateScanCost(1e8, 1e6, cluster, false));
  // Intermediate reads are charged at the (slower) disk-read rate.
  EXPECT_LT(EstimateScanCost(1e6, 1e4, cluster, false),
            EstimateScanCost(1e6, 1e4, cluster, true));
}

// --- Planner -------------------------------------------------------------------

TEST_F(OptTest, PlannerPicksMinCardinalityJoin) {
  QuerySpec spec = StarQuery();
  // Filter dim1 hard: f-d1 result becomes tiny, so it must be picked.
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kLt, Col("d1", "a"), Lit(Value(5)))});
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  Planner planner(&view, engine_->cluster(), PlannerOptions());
  auto planned = planner.PickNextJoin();
  ASSERT_TRUE(planned.ok());
  EXPECT_TRUE(planned->edge.Involves("d1"));
  EXPECT_TRUE(planned->edge.Involves("f"));
}

TEST_F(OptTest, PlannerChoosesBroadcastForSmallSide) {
  QuerySpec spec = StarQuery();
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  Planner planner(&view, engine_->cluster(), PlannerOptions());
  auto planned = planner.PickNextJoin();
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->method, JoinMethod::kBroadcast);
  // The build side is the dimension, not the fact.
  EXPECT_NE(planned->build_alias, "f");
}

TEST_F(OptTest, PlannerInljRequiresIndexAndFilteredOuter) {
  QuerySpec spec = StarQuery();
  spec.FindRef("d1")->filtered = true;
  // Make the f-d1 edge the unambiguous minimum-cardinality pick.
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kLt, Col("d1", "a"), Lit(Value(50)))});
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  PlannerOptions options;
  options.enable_inlj = true;
  {
    // No index yet: INLJ cannot be chosen.
    Planner planner(&view, engine_->cluster(), options);
    auto planned = planner.PickNextJoin();
    ASSERT_TRUE(planned.ok());
    EXPECT_NE(planned->method, JoinMethod::kIndexNestedLoop);
  }
  auto fact = engine_->catalog().GetTable("fact");
  ASSERT_TRUE(fact.ok());
  ASSERT_TRUE(fact.value()->CreateSecondaryIndex("a").ok());
  {
    Planner planner(&view, engine_->cluster(), options);
    auto planned = planner.PickNextJoin();
    ASSERT_TRUE(planned.ok());
    EXPECT_EQ(planned->method, JoinMethod::kIndexNestedLoop);
    EXPECT_EQ(planned->build_alias, "d1");
  }
  {
    // Unfiltered outer disqualifies INLJ (paper Section 6.1.2).
    spec.FindRef("d1")->filtered = false;
    Planner planner(&view, engine_->cluster(), options);
    auto planned = planner.PickNextJoin();
    ASSERT_TRUE(planned.ok());
    EXPECT_NE(planned->method, JoinMethod::kIndexNestedLoop);
  }
}

TEST_F(OptTest, PlanRemainingOrdersFinalJoins) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kLt, Col("d1", "a"), Lit(Value(5)))});
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  Planner planner(&view, engine_->cluster(), PlannerOptions());
  auto tree = planner.PlanRemaining();
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  // The filtered f-d1 join must be innermost.
  ASSERT_FALSE((*tree)->IsLeaf());
  std::set<std::string> inner_aliases;
  const JoinTree* inner =
      (*tree)->left->IsLeaf() ? (*tree)->right.get() : (*tree)->left.get();
  ASSERT_FALSE(inner->IsLeaf());
  inner->CollectAliases(&inner_aliases);
  EXPECT_TRUE(inner_aliases.count("d1") > 0 && inner_aliases.count("f") > 0)
      << (*tree)->ToString();
}

// --- Reconstruction ---------------------------------------------------------------

TEST_F(OptTest, ReplaceWithFilteredRewiresRef) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kLt, Col("d1", "a"), Lit(Value(5)))});
  QuerySpec out =
      ReplaceWithFiltered(spec, "d1", "__tmp_pd_0", {"d1.a", "d1.v"});
  const TableRef* ref = out.FindRef("d1");
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->table, "__tmp_pd_0");
  EXPECT_TRUE(ref->is_intermediate);
  EXPECT_TRUE(ref->filtered);
  EXPECT_TRUE(out.PredicatesFor("d1").empty());
  EXPECT_TRUE(ref->Provides("d1.a"));
  EXPECT_FALSE(ref->Provides("d1.b"));
  // Joins untouched; spec still validates.
  EXPECT_EQ(out.joins.size(), spec.joins.size());
  EXPECT_TRUE(out.Validate().ok()) << out.Validate().ToString();
}

TEST_F(OptTest, ReconstructAfterJoinRewiresEdgesAndProjections) {
  QuerySpec spec = StarQuery();
  const JoinEdge* executed = nullptr;
  for (const auto& e : spec.joins) {
    if (e.Involves("d1")) executed = &e;
  }
  ASSERT_NE(executed, nullptr);
  QuerySpec out = ReconstructAfterJoin(spec, *executed, "__tmp_j_0", "__j0",
                                       {"f.v", "d1.v", "f.b"});
  EXPECT_EQ(out.tables.size(), 2u);
  EXPECT_EQ(out.FindRef("f"), nullptr);
  EXPECT_EQ(out.FindRef("d1"), nullptr);
  const TableRef* merged = out.FindRef("__j0");
  ASSERT_NE(merged, nullptr);
  EXPECT_TRUE(merged->is_intermediate);
  // The surviving f-d2 edge now connects __j0 and d2, key names unchanged.
  ASSERT_EQ(out.joins.size(), 1u);
  EXPECT_TRUE(out.joins[0].Involves("__j0"));
  EXPECT_TRUE(out.joins[0].Involves("d2"));
  EXPECT_EQ(out.joins[0].KeysOf("__j0")[0], "f.b");
  EXPECT_TRUE(out.Validate().ok()) << out.Validate().ToString();
  // base_tables mapping survives for stats fallback.
  EXPECT_EQ(out.base_tables.at("f"), "fact");
}

TEST_F(OptTest, ReconstructMergesParallelEdges) {
  // Triangle: a-b, b-c, a-c. Joining a-b leaves two edges both between
  // __j0 and c, which must merge into one composite edge.
  QuerySpec spec;
  spec.tables = {{"fact", "a", false, false, {}},
                 {"dim1", "b", false, false, {}},
                 {"dim2", "c", false, false, {}}};
  JoinEdge ab{"a", "b", {{"a.a", "b.a"}}};
  JoinEdge bc{"b", "c", {{"b.v", "c.v"}}};
  JoinEdge ac{"a", "c", {{"a.b", "c.a"}}};
  spec.joins = {ab, bc, ac};
  spec.projections = {"a.v"};
  spec.NormalizeJoins();
  ASSERT_EQ(spec.joins.size(), 3u);
  const JoinEdge* executed = nullptr;
  for (const auto& e : spec.joins) {
    if (e.Involves("a") && e.Involves("b")) executed = &e;
  }
  QuerySpec out = ReconstructAfterJoin(spec, *executed, "__tmp_j_1", "__j0",
                                       {"a.v", "a.b", "b.v"});
  ASSERT_EQ(out.joins.size(), 1u);
  EXPECT_EQ(out.joins[0].keys.size(), 2u);
}

TEST_F(OptTest, IntermediatesCarryNoLocalPredicates) {
  // Re-optimization points skip quantiles because nothing estimates a local
  // predicate on an intermediate: every rewrite drops the predicates of the
  // aliases it replaces, so only the untouched aliases keep theirs.
  QuerySpec spec = StarQuery();
  for (const char* alias : {"f", "d1", "d2"}) {
    spec.predicates.push_back(
        {alias, Cmp(CompareOp::kLt, Col(alias, "v"), Lit(Value(50)))});
    spec.predicates.push_back(
        {alias, Cmp(CompareOp::kGe, Col(alias, "a"), Lit(Value(2)))});
  }
  auto aliases_with_predicates = [](const QuerySpec& q) {
    std::set<std::string> out;
    for (const LocalPredicate& p : q.predicates) out.insert(p.alias);
    return out;
  };
  auto edge_between = [](const QuerySpec& q, const std::string& x,
                         const std::string& y) {
    for (const JoinEdge& e : q.joins) {
      if (e.Involves(x) && e.Involves(y)) return e;
    }
    ADD_FAILURE() << "no edge " << x << "-" << y;
    return JoinEdge{};
  };
  auto selectivity = [&](const QuerySpec& q, const std::string& alias) {
    StatsView view(&q, &engine_->stats(), &engine_->catalog());
    return CardinalityEstimator(&view).EstimatePredicateSelectivity(alias);
  };

  QuerySpec pushed =
      ReplaceWithFiltered(spec, "d1", "__tmp_pd_0", {"d1.a", "d1.v"});
  EXPECT_EQ(aliases_with_predicates(pushed),
            (std::set<std::string>{"f", "d2"}));
  EXPECT_EQ(selectivity(pushed, "d1"), 1.0);

  QuerySpec joined = ReconstructAfterJoin(
      pushed, edge_between(pushed, "f", "d1"), "__tmp_j_0", "__j0",
      {"f.v", "d1.v", "f.b"});
  EXPECT_EQ(aliases_with_predicates(joined), (std::set<std::string>{"d2"}));
  EXPECT_TRUE(joined.PredicatesFor("__j0").empty());
  EXPECT_EQ(selectivity(joined, "__j0"), 1.0);

  QuerySpec last = ReconstructAfterJoin(
      joined, edge_between(joined, "__j0", "d2"), "__tmp_j_1", "__j1",
      {"f.v", "d1.v", "d2.v"});
  EXPECT_TRUE(last.predicates.empty());
  EXPECT_EQ(selectivity(last, "__j1"), 1.0);
}

// --- Plan builder -------------------------------------------------------------------

TEST_F(OptTest, RequiredColumnsCoversProjectionsKeysPredicates) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"f", Cmp(CompareOp::kLt, Col("f", "b"), Lit(Value(5)))});
  auto with_preds = RequiredColumns(spec, "f", true);
  std::set<std::string> set(with_preds.begin(), with_preds.end());
  EXPECT_TRUE(set.count("f.v") > 0);  // Projection.
  EXPECT_TRUE(set.count("f.a") > 0);  // Join key.
  EXPECT_TRUE(set.count("f.b") > 0);  // Join key + predicate.
}

TEST_F(OptTest, KeysBetweenOrientsPairs) {
  QuerySpec spec = StarQuery();
  auto keys = KeysBetween(spec, {"d1"}, {"f"});
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0].first, "d1.a");
  EXPECT_EQ((*keys)[0].second, "f.a");
  // Disconnected sets error out.
  EXPECT_FALSE(KeysBetween(spec, {"d1"}, {"d2"}).ok());
}

TEST_F(OptTest, BuildPhysicalPlanExecutesTree) {
  QuerySpec spec = StarQuery();
  auto tree = JoinTree::Join(
      JoinTree::Leaf("d1"),
      JoinTree::Join(JoinTree::Leaf("d2"), JoinTree::Leaf("f"),
                     JoinMethod::kBroadcast),
      JoinMethod::kBroadcast);
  auto plan = BuildPhysicalPlan(spec, *tree, true);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  JobExecutor executor = engine_->MakeExecutor();
  auto result = executor.Execute(**plan, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->data.columns, spec.projections);
  EXPECT_GT(result->data.NumRows(), 0u);
}

TEST(JoinTreeTest, ToStringAndAliases) {
  auto tree = JoinTree::Join(
      JoinTree::Join(JoinTree::Leaf("a"), JoinTree::Leaf("b"),
                     JoinMethod::kBroadcast),
      JoinTree::Leaf("c"), JoinMethod::kIndexNestedLoop);
  EXPECT_EQ(tree->ToString(), "((a JOINb b) JOINi c)");
  EXPECT_EQ(tree->Aliases(), (std::set<std::string>{"a", "b", "c"}));
}

// --- Static DP optimizer -----------------------------------------------------------

TEST_F(OptTest, DpPlanCoversAllAliasesAndBroadcastsDims) {
  QuerySpec spec = StarQuery();
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  auto tree = StaticCostBasedOptimizer::PlanWithDp(
      spec, view, engine_->cluster(), PlannerOptions());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ((*tree)->Aliases(), (std::set<std::string>{"f", "d1", "d2"}));
  // Both dimensions are small: the plan should use at least one broadcast.
  EXPECT_NE((*tree)->ToString().find("JOINb"), std::string::npos);
}

TEST_F(OptTest, DpRejectsDisconnectedGraph) {
  QuerySpec spec = StarQuery();
  spec.joins.clear();
  StatsView view(&spec, &engine_->stats(), &engine_->catalog());
  EXPECT_FALSE(StaticCostBasedOptimizer::PlanWithDp(
                   spec, view, engine_->cluster(), PlannerOptions())
                   .ok());
}

// --- Dynamic optimizer behaviors -----------------------------------------------------

TEST_F(OptTest, DynamicPushesDownComplexPredicates) {
  ASSERT_TRUE(engine_->udfs()
                  .Register("iseven",
                            [](const std::vector<Value>& args) {
                              return Value(args[0].AsInt64() % 2 == 0);
                            })
                  .ok());
  QuerySpec spec = StarQuery();
  spec.predicates.push_back({"d2", Udf("iseven", {Col("d2", "v")})});
  DynamicOptimizer optimizer(engine_.get());
  auto result = optimizer.Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->plan_trace.find("[pushdown] d2"), std::string::npos)
      << result->plan_trace;
  // All surviving rows have even d2.v.
  int d2v_slot = -1;
  for (size_t i = 0; i < result->columns.size(); ++i) {
    if (result->columns[i] == "d2.v") d2v_slot = static_cast<int>(i);
  }
  ASSERT_GE(d2v_slot, 0);
  for (const Row& row : result->rows) {
    EXPECT_EQ(row[static_cast<size_t>(d2v_slot)].AsInt64() % 2, 0);
  }
}

TEST_F(OptTest, DynamicSingleSimplePredicateNotPushedDown) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kLt, Col("d1", "a"), Lit(Value(50)))});
  DynamicOptimizer optimizer(engine_.get());
  auto result = optimizer.Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan_trace.find("[pushdown]"), std::string::npos);
}

TEST_F(OptTest, DynamicStopAfterPushdownStillCorrect) {
  QuerySpec spec = StarQuery();
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kLt, Col("d1", "a"), Lit(Value(50)))});
  spec.predicates.push_back(
      {"d1", Cmp(CompareOp::kGt, Col("d1", "a"), Lit(Value(10)))});
  DynamicOptimizer full(engine_.get());
  auto a = full.Run(spec);
  ASSERT_TRUE(a.ok());
  DynamicOptimizerOptions options;
  options.stop_after_pushdown = true;
  DynamicOptimizer pushdown_only(engine_.get(), options);
  auto b = pushdown_only.Run(spec);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  SortRows(&a->rows);
  SortRows(&b->rows);
  EXPECT_EQ(a->rows, b->rows);
  EXPECT_EQ(b->metrics.num_reopt_points, 1);  // Only the push-down sink.
}

TEST_F(OptTest, DynamicRecordsJoinTreeOverOriginalAliases) {
  QuerySpec spec = StarQuery();
  DynamicOptimizer optimizer(engine_.get());
  auto result = optimizer.Run(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->join_tree, nullptr);
  EXPECT_EQ(result->join_tree->Aliases(),
            (std::set<std::string>{"f", "d1", "d2"}));
}

TEST_F(OptTest, SingleTableQueryWorks) {
  QuerySpec spec;
  spec.tables = {{"dim1", "d", false, false, {}}};
  spec.projections = {"d.v"};
  spec.predicates.push_back(
      {"d", Cmp(CompareOp::kLt, Col("d", "v"), Lit(Value(10)))});
  spec.NormalizeJoins();
  DynamicOptimizer optimizer(engine_.get());
  auto result = optimizer.Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const Row& row : result->rows) EXPECT_LT(row[0].AsInt64(), 10);
}

}  // namespace
}  // namespace dynopt
