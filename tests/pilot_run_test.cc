#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/pilot_run_optimizer.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

class PilotRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    TpchOptions tpch;
    tpch.sf = 0.3;
    ASSERT_TRUE(LoadTpch(engine_, tpch).ok());
    TpcdsOptions tpcds;
    tpcds.sf = 0.3;
    ASSERT_TRUE(LoadTpcds(engine_, tpcds).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static Engine* engine_;
};

Engine* PilotRunTest::engine_ = nullptr;

TEST_F(PilotRunTest, TraceShowsPilotRunsAndAdjustment) {
  auto query = TpchQ9(engine_);
  ASSERT_TRUE(query.ok());
  PilotRunOptimizer optimizer(engine_);
  auto result = optimizer.Run(query.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One pilot line per base dataset, an initial plan, one executed join,
  // and an adjusted plan.
  for (const char* alias : {"p", "s", "l", "ps", "o", "n"}) {
    EXPECT_NE(result->plan_trace.find(std::string("[pilot-run] ") + alias +
                                      ":"),
              std::string::npos)
        << "missing pilot run for " << alias << "\n"
        << result->plan_trace;
  }
  EXPECT_NE(result->plan_trace.find("initial plan:"), std::string::npos);
  EXPECT_NE(result->plan_trace.find("executed "), std::string::npos);
  EXPECT_NE(result->plan_trace.find("adjusted plan:"), std::string::npos);
}

TEST_F(PilotRunTest, SampleLimitBoundsScannedRows) {
  auto query = TpchQ9(engine_);
  ASSERT_TRUE(query.ok());
  PilotRunOptions small;
  small.sample_limit = 10;
  PilotRunOptimizer small_optimizer(engine_, small);
  auto small_result = small_optimizer.Run(query.value());
  ASSERT_TRUE(small_result.ok());

  PilotRunOptions large;
  large.sample_limit = 100000;  // Effectively full scans.
  PilotRunOptimizer large_optimizer(engine_, large);
  auto large_result = large_optimizer.Run(query.value());
  ASSERT_TRUE(large_result.ok());

  // Same answers either way.
  SortRows(&small_result->rows);
  SortRows(&large_result->rows);
  EXPECT_EQ(small_result->rows, large_result->rows);
}

TEST_F(PilotRunTest, ExactlyOneReoptPoint) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  PilotRunOptimizer optimizer(engine_);
  auto result = optimizer.Run(query.value());
  ASSERT_TRUE(result.ok());
  // Pilot-run materializes only its first join.
  EXPECT_EQ(result->metrics.num_reopt_points, 1);
}

TEST_F(PilotRunTest, NoTempLeaks) {
  auto query = TpcdsQ50(engine_, 9, 1999);
  ASSERT_TRUE(query.ok());
  size_t before = engine_->catalog().TableNames().size();
  PilotRunOptimizer optimizer(engine_);
  ASSERT_TRUE(optimizer.Run(query.value()).ok());
  EXPECT_EQ(engine_->catalog().TableNames().size(), before);
}

TEST_F(PilotRunTest, OutOfRangeStatsOptionsComeBackAsInvalidArgument) {
  // CollectBaseStats, the entry point that takes a caller-supplied sketch
  // resolution, rejects it before building a sketch (which would otherwise
  // abort).
  StatsOptions wide_hll;
  wide_hll.hll_precision = 20;
  StatsOptions no_eps;
  no_eps.gk_epsilon = 0.5;
  ASSERT_NE(engine_->stats().Get("nation"), nullptr);
  const std::string before = engine_->stats().Get("nation")->ToString();
  const size_t tables = engine_->catalog().TableNames().size();
  for (const StatsOptions& bad : {wide_hll, no_eps}) {
    const Status st = engine_->CollectBaseStats("nation", {"n_nationkey"}, bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  EXPECT_EQ(engine_->stats().Get("nation")->ToString(), before);
  EXPECT_EQ(engine_->catalog().TableNames().size(), tables);
}

TEST_F(PilotRunTest, AgreesWithDynamicOnAllQueries) {
  for (const char* q : {"q17", "q50", "q8", "q9"}) {
    Result<QuerySpec> query = std::string(q) == "q17"
                                  ? TpcdsQ17(engine_)
                              : std::string(q) == "q50"
                                  ? TpcdsQ50(engine_, 9, 1999)
                              : std::string(q) == "q8" ? TpchQ8(engine_)
                                                       : TpchQ9(engine_);
    ASSERT_TRUE(query.ok());
    DynamicOptimizer dynamic(engine_);
    auto dyn = dynamic.Run(query.value());
    ASSERT_TRUE(dyn.ok());
    PilotRunOptimizer pilot(engine_);
    auto pr = pilot.Run(query.value());
    ASSERT_TRUE(pr.ok()) << q << ": " << pr.status().ToString();
    SortRows(&dyn->rows);
    SortRows(&pr->rows);
    EXPECT_EQ(dyn->rows, pr->rows) << q;
  }
}

/// Q50 parameter sweep: every (moy, year) combination the paper's
/// myrand() ranges can produce must agree across dynamic and pilot-run.
class Q50ParamSweepTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Params, Q50ParamSweepTest,
    ::testing::Combine(::testing::Values(int64_t{8}, int64_t{9}, int64_t{10}),
                       ::testing::Values(int64_t{1998}, int64_t{1999},
                                         int64_t{2000})));

TEST_P(Q50ParamSweepTest, DynamicAndPilotAgree) {
  Engine local;
  TpcdsOptions options;
  options.sf = 0.2;
  ASSERT_TRUE(LoadTpcds(&local, options).ok());
  auto [moy, year] = GetParam();
  auto query = TpcdsQ50(&local, moy, year);
  ASSERT_TRUE(query.ok());
  DynamicOptimizer dynamic(&local);
  auto dyn = dynamic.Run(query.value());
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  PilotRunOptimizer pilot(&local);
  auto pr = pilot.Run(query.value());
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  SortRows(&dyn->rows);
  SortRows(&pr->rows);
  EXPECT_EQ(dyn->rows, pr->rows) << "moy=" << moy << " year=" << year;
  // Hot months (returns concentrate in 8-10) must actually return rows.
  EXPECT_FALSE(dyn->rows.empty());
}

}  // namespace
}  // namespace dynopt
