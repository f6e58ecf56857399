#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/finalize.h"
#include "opt/static_optimizer.h"
#include "sql/binder.h"

namespace dynopt {
namespace {

/// Direct unit tests of ApplyPostProcessing over synthetic results.
class FinalizeTest : public ::testing::Test {
 protected:
  OptimizerRunResult MakeResult() {
    OptimizerRunResult result;
    result.columns = {"t.g", "t.v"};
    // Groups: g=1 -> v {10, 20, 30}; g=2 -> v {5}; g=3 -> v {7, 7}.
    result.rows = {{Value(1), Value(10)}, {Value(2), Value(5)},
                   {Value(1), Value(20)}, {Value(3), Value(7)},
                   {Value(1), Value(30)}, {Value(3), Value(7)}};
    return result;
  }

  QuerySpec AggSpec(AggFn fn) {
    QuerySpec spec;
    spec.projections = {"t.g", "t.v"};
    spec.group_by = {"t.g"};
    spec.aggregates = {{fn, "t.v", "agg"}};
    return spec;
  }

  ClusterConfig cluster_;
};

TEST_F(FinalizeTest, NoPostProcessingIsNoOp) {
  OptimizerRunResult result = MakeResult();
  QuerySpec spec;
  spec.projections = {"t.g", "t.v"};
  ASSERT_TRUE(ApplyPostProcessing(spec, cluster_, &result).ok());
  EXPECT_EQ(result.rows.size(), 6u);
  EXPECT_EQ(result.columns, (std::vector<std::string>{"t.g", "t.v"}));
}

TEST_F(FinalizeTest, CountPerGroup) {
  OptimizerRunResult result = MakeResult();
  ASSERT_TRUE(
      ApplyPostProcessing(AggSpec(AggFn::kCount), cluster_, &result).ok());
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.columns, (std::vector<std::string>{"t.g", "agg"}));
  // std::map over group keys yields sorted groups.
  EXPECT_EQ(result.rows[0], (Row{Value(1), Value(int64_t{3})}));
  EXPECT_EQ(result.rows[1], (Row{Value(2), Value(int64_t{1})}));
  EXPECT_EQ(result.rows[2], (Row{Value(3), Value(int64_t{2})}));
}

TEST_F(FinalizeTest, SumMinMaxAvg) {
  {
    OptimizerRunResult r = MakeResult();
    ASSERT_TRUE(ApplyPostProcessing(AggSpec(AggFn::kSum), cluster_, &r).ok());
    EXPECT_EQ(r.rows[0][1], Value(int64_t{60}));
  }
  {
    OptimizerRunResult r = MakeResult();
    ASSERT_TRUE(ApplyPostProcessing(AggSpec(AggFn::kMin), cluster_, &r).ok());
    EXPECT_EQ(r.rows[0][1], Value(int64_t{10}));
  }
  {
    OptimizerRunResult r = MakeResult();
    ASSERT_TRUE(ApplyPostProcessing(AggSpec(AggFn::kMax), cluster_, &r).ok());
    EXPECT_EQ(r.rows[0][1], Value(int64_t{30}));
  }
  {
    OptimizerRunResult r = MakeResult();
    ASSERT_TRUE(ApplyPostProcessing(AggSpec(AggFn::kAvg), cluster_, &r).ok());
    EXPECT_EQ(r.rows[0][1], Value(20.0));
  }
}

TEST_F(FinalizeTest, NullsIgnoredByAggregates) {
  OptimizerRunResult result;
  result.columns = {"t.g", "t.v"};
  result.rows = {{Value(1), Value(10)},
                 {Value(1), Value::Null()},
                 {Value(1), Value(20)}};
  ASSERT_TRUE(
      ApplyPostProcessing(AggSpec(AggFn::kCount), cluster_, &result).ok());
  EXPECT_EQ(result.rows[0][1], Value(int64_t{2}));
}

TEST_F(FinalizeTest, OrderByDescendingAndLimit) {
  OptimizerRunResult result = MakeResult();
  QuerySpec spec = AggSpec(AggFn::kSum);
  spec.order_by = {{"agg", true}};
  spec.limit = 2;
  ASSERT_TRUE(ApplyPostProcessing(spec, cluster_, &result).ok());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1], Value(int64_t{60}));   // g=1.
  EXPECT_EQ(result.rows[1][1], Value(int64_t{14}));   // g=3.
}

TEST_F(FinalizeTest, OrderByWithoutAggregation) {
  OptimizerRunResult result = MakeResult();
  QuerySpec spec;
  spec.projections = {"t.g", "t.v"};
  spec.order_by = {{"t.v", false}};
  spec.limit = 3;
  ASSERT_TRUE(ApplyPostProcessing(spec, cluster_, &result).ok());
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][1], Value(5));
  EXPECT_EQ(result.rows[1][1], Value(7));
  EXPECT_EQ(result.rows[2][1], Value(7));
}

TEST_F(FinalizeTest, ChargesSimulatedCost) {
  OptimizerRunResult result = MakeResult();
  double before = result.metrics.simulated_seconds;
  ASSERT_TRUE(
      ApplyPostProcessing(AggSpec(AggFn::kCount), cluster_, &result).ok());
  EXPECT_GT(result.metrics.simulated_seconds, before);
  EXPECT_EQ(result.metrics.rows_out, 3u);
}

TEST_F(FinalizeTest, GlobalAggregateNoGroupBy) {
  OptimizerRunResult result = MakeResult();
  QuerySpec spec;
  spec.projections = {"t.v"};
  spec.aggregates = {{AggFn::kSum, "t.v", "total"}};
  // Columns include t.g but aggregation only reads t.v.
  ASSERT_TRUE(ApplyPostProcessing(spec, cluster_, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.columns, (std::vector<std::string>{"total"}));
  EXPECT_EQ(result.rows[0][0], Value(int64_t{79}));
}

TEST_F(FinalizeTest, GlobalAggregateOverEmptyInputYieldsOneRow) {
  OptimizerRunResult result;
  result.columns = {"t.g", "t.v"};
  QuerySpec spec;
  spec.projections = {"t.v"};
  spec.aggregates = {{AggFn::kCount, "t.v", "c"},
                     {AggFn::kSum, "t.v", "s"},
                     {AggFn::kMin, "t.v", "lo"},
                     {AggFn::kMax, "t.v", "hi"},
                     {AggFn::kAvg, "t.v", "avg"}};
  ASSERT_TRUE(ApplyPostProcessing(spec, cluster_, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0], (Row{Value(int64_t{0}), Value::Null(),
                                 Value::Null(), Value::Null(),
                                 Value::Null()}));
  EXPECT_EQ(result.metrics.rows_out, 1u);

  // With GROUP BY, empty input still has no groups.
  OptimizerRunResult grouped;
  grouped.columns = {"t.g", "t.v"};
  ASSERT_TRUE(
      ApplyPostProcessing(AggSpec(AggFn::kCount), cluster_, &grouped).ok());
  EXPECT_TRUE(grouped.rows.empty());
}

/// End-to-end: COUNT over a filter that matches nothing is one row, 0.
TEST(AggregationEndToEndTest, CountOverEmptyFilterIsZero) {
  Engine engine;
  auto orders = std::make_shared<Table>(
      "orders",
      Schema({{"o_orderkey", ValueType::kInt64},
              {"o_totalprice", ValueType::kDouble}}),
      engine.cluster().num_nodes);
  ASSERT_TRUE(orders->SetPartitionKey({"o_orderkey"}).ok());
  for (int i = 1; i <= 200; ++i) {
    orders->AppendRow({Value(i), Value(1.5 * i)});
  }
  ASSERT_TRUE(engine.catalog().RegisterTable(orders).ok());
  ASSERT_TRUE(
      engine.CollectBaseStats("orders", {"o_orderkey", "o_totalprice"}).ok());

  auto query = ParseAndBind(
      "SELECT COUNT(o_orderkey), SUM(o_totalprice) FROM orders "
      "WHERE o_orderkey < 0",
      engine.catalog());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  DynamicOptimizer dynamic(&engine);
  StaticCostBasedOptimizer cost_based(&engine);
  for (Optimizer* opt : std::vector<Optimizer*>{&dynamic, &cost_based}) {
    auto run = opt->Run(query.value());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->rows.size(), 1u) << opt->name();
    EXPECT_EQ(run->rows[0], (Row{Value(int64_t{0}), Value::Null()}))
        << opt->name();
  }
}

/// End-to-end: aggregation through SQL and every optimizer.
TEST(AggregationEndToEndTest, AllOptimizersAgree) {
  Engine engine;
  Rng rng(3);
  auto fact = std::make_shared<Table>(
      "fact",
      Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
      engine.cluster().num_nodes);
  ASSERT_TRUE(fact->SetPartitionKey({"k"}).ok());
  for (int i = 0; i < 5000; ++i) {
    fact->AppendRow({Value(rng.NextInt64(0, 49)), Value(rng.NextInt64(0, 9))});
  }
  auto dim = std::make_shared<Table>(
      "dim",
      Schema({{"k", ValueType::kInt64}, {"name", ValueType::kString}}),
      engine.cluster().num_nodes);
  ASSERT_TRUE(dim->SetPartitionKey({"k"}).ok());
  for (int i = 0; i < 50; ++i) {
    dim->AppendRow({Value(i), Value("d" + std::to_string(i % 5))});
  }
  ASSERT_TRUE(engine.catalog().RegisterTable(fact).ok());
  ASSERT_TRUE(engine.catalog().RegisterTable(dim).ok());
  ASSERT_TRUE(engine.CollectBaseStats("fact", {"k", "v"}).ok());
  ASSERT_TRUE(engine.CollectBaseStats("dim", {"k", "name"}).ok());

  auto query = ParseAndBind(
      "SELECT d.name, COUNT(f.v), SUM(f.v), MIN(f.v), MAX(f.v) "
      "FROM fact f, dim d WHERE f.k = d.k "
      "GROUP BY d.name ORDER BY d.name LIMIT 4",
      engine.catalog());
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  DynamicOptimizer dynamic(&engine);
  auto dyn = dynamic.Run(query.value());
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  EXPECT_EQ(dyn->rows.size(), 4u);
  EXPECT_EQ(dyn->columns[0], "d.name");
  EXPECT_EQ(dyn->columns.size(), 5u);

  StaticCostBasedOptimizer cost_based(&engine);
  auto cb = cost_based.Run(query.value());
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  EXPECT_EQ(dyn->rows, cb->rows);
  EXPECT_EQ(dyn->columns, cb->columns);

  // Sanity against a hand computation: total count over all groups
  // without LIMIT equals the fact row count.
  auto no_limit = ParseAndBind(
      "SELECT d.name, COUNT(f.v) FROM fact f, dim d WHERE f.k = d.k "
      "GROUP BY d.name",
      engine.catalog());
  ASSERT_TRUE(no_limit.ok());
  auto all = dynamic.Run(no_limit.value());
  ASSERT_TRUE(all.ok());
  int64_t total = 0;
  for (const Row& row : all->rows) total += row[1].AsInt64();
  EXPECT_EQ(total, 5000);
}

TEST(AggregationBinderTest, UngroupedColumnRejected) {
  Engine engine;
  auto t = std::make_shared<Table>(
      "t", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}), 2);
  ASSERT_TRUE(engine.catalog().RegisterTable(t).ok());
  auto bad = ParseAndBind("SELECT t.a, COUNT(t.b) FROM t", engine.catalog());
  EXPECT_EQ(bad.status().code(), StatusCode::kBindError);
  auto good = ParseAndBind(
      "SELECT t.a, COUNT(t.b) FROM t GROUP BY t.a", engine.catalog());
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->aggregates.size(), 1u);
  EXPECT_EQ(good->aggregates[0].fn, AggFn::kCount);
  EXPECT_EQ(good->OutputColumns(),
            (std::vector<std::string>{"t.a", "COUNT(t.b)"}));
}

TEST(AggregationBinderTest, OrderByMustReferenceOutput) {
  Engine engine;
  auto t = std::make_shared<Table>(
      "t", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}), 2);
  ASSERT_TRUE(engine.catalog().RegisterTable(t).ok());
  auto bad = ParseAndBind(
      "SELECT t.a FROM t GROUP BY t.a ORDER BY t.b", engine.catalog());
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace dynopt
