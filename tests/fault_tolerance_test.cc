// Fault tolerance via re-optimization checkpoints (the paper's Section 8
// future-work direction): the intermediate results materialized at every
// re-optimization point double as checkpoints, so a failed long-running
// query resumes from the last completed stage instead of starting over.

#include <gtest/gtest.h>

#include <memory>

#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

class FaultToleranceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    TpcdsOptions tpcds;
    tpcds.sf = 0.2;
    ASSERT_TRUE(LoadTpcds(engine_, tpcds).ok());
    TpchOptions tpch;
    tpch.sf = 0.2;
    ASSERT_TRUE(LoadTpch(engine_, tpch).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static Engine* engine_;
};

Engine* FaultToleranceTest::engine_ = nullptr;

TEST_F(FaultToleranceTest, ResumeAfterEachPossibleFailurePoint) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());

  // Reference run without failures.
  DynamicOptimizer reference(engine_);
  auto expected = reference.Run(query.value());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const int total_stages = expected->metrics.num_reopt_points;
  ASSERT_GT(total_stages, 2);

  for (int fail_after = 1; fail_after <= total_stages; ++fail_after) {
    size_t tables_before = engine_->catalog().TableNames().size();

    DynamicOptimizerOptions failing_options;
    failing_options.inject_failure_after_stages = fail_after;
    DynamicOptimizer failing(engine_, failing_options);
    auto failed = failing.Run(query.value());
    ASSERT_FALSE(failed.ok()) << "failure injection did not fire at stage "
                              << fail_after;
    ASSERT_NE(failing.last_checkpoint(), nullptr);
    DynamicCheckpoint checkpoint = *failing.last_checkpoint();
    EXPECT_EQ(checkpoint.completed_stages, fail_after);
    EXPECT_FALSE(checkpoint.temp_tables.empty());

    // Resume with a fresh optimizer (no injection).
    DynamicOptimizer resumer(engine_);
    auto resumed = resumer.Resume(std::move(checkpoint));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->rows, expected->rows)
        << "resume after stage " << fail_after << " diverges";
    EXPECT_EQ(resumed->columns, expected->columns);
    // Resumed total work (metrics carried over + remaining stages) matches
    // the failure-free run: nothing is redone and nothing is skipped.
    EXPECT_NEAR(resumed->metrics.simulated_seconds,
                expected->metrics.simulated_seconds,
                0.05 * expected->metrics.simulated_seconds);
    // Resume cleans up every checkpoint temp table.
    EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before);
  }
}

TEST_F(FaultToleranceTest, ResumeRejectsMissingCheckpointData) {
  auto query = TpchQ9(engine_);
  ASSERT_TRUE(query.ok());
  DynamicOptimizerOptions failing_options;
  failing_options.inject_failure_after_stages = 1;
  DynamicOptimizer failing(engine_, failing_options);
  ASSERT_FALSE(failing.Run(query.value()).ok());
  ASSERT_NE(failing.last_checkpoint(), nullptr);
  DynamicCheckpoint checkpoint = *failing.last_checkpoint();

  // Simulate losing the checkpoint data.
  std::vector<std::string> temps = checkpoint.temp_tables;
  for (const auto& name : temps) {
    ASSERT_TRUE(engine_->catalog().DropTable(name).ok());
    engine_->stats().Remove(name);
  }
  DynamicOptimizer resumer(engine_);
  auto resumed = resumer.Resume(std::move(checkpoint));
  EXPECT_EQ(resumed.status().code(), StatusCode::kNotFound);
}

TEST_F(FaultToleranceTest, SuccessfulRunLeavesNoCheckpoint) {
  auto query = TpcdsQ50(engine_, 9, 1999);
  ASSERT_TRUE(query.ok());
  DynamicOptimizer optimizer(engine_);
  ASSERT_TRUE(optimizer.Run(query.value()).ok());
  EXPECT_EQ(optimizer.last_checkpoint(), nullptr);
}

TEST_F(FaultToleranceTest, CheckpointTraceSurvivesResume) {
  auto query = TpchQ9(engine_);
  ASSERT_TRUE(query.ok());
  DynamicOptimizerOptions failing_options;
  failing_options.inject_failure_after_stages = 2;
  DynamicOptimizer failing(engine_, failing_options);
  ASSERT_FALSE(failing.Run(query.value()).ok());
  ASSERT_NE(failing.last_checkpoint(), nullptr);
  DynamicCheckpoint checkpoint = *failing.last_checkpoint();
  ASSERT_FALSE(checkpoint.trace.empty());

  DynamicOptimizer resumer(engine_);
  auto resumed = resumer.Resume(std::move(checkpoint));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  // The resumed trace contains the pre-failure stages plus the final plan.
  EXPECT_NE(resumed->plan_trace.find("[pushdown]"), std::string::npos);
  EXPECT_NE(resumed->plan_trace.find("[final]"), std::string::npos);
}

}  // namespace
}  // namespace dynopt
