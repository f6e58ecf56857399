// Cooperative cancellation and deadlines:
//  - a cancelled context stops the query at the next task boundary with
//    kCancelled, across every optimizer strategy;
//  - an expired deadline latches the token and reads as a cancel;
//  - RunWithRecovery never retries a cancelled query and reclaims both the
//    temp tables and the spill files the aborted attempt left behind.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/recovery.h"
#include "opt/strategies.h"
#include "storage/serde.h"

namespace dynopt {
namespace {

class CancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spill_dir_ = ::testing::TempDir() + "dynopt_cancel_test";
    std::filesystem::create_directories(spill_dir_);
    engine_ = std::make_unique<Engine>();
    engine_->mutable_cluster().spill_directory = spill_dir_;
    Rng rng(31);
    for (const char* name : {"x", "y", "z"}) {
      auto t = std::make_shared<Table>(
          name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
          engine_->cluster().num_nodes);
      ASSERT_TRUE(t->SetPartitionKey({"k"}).ok());
      for (int i = 0; i < 500; ++i) {
        t->AppendRow(
            {Value(rng.NextInt64(0, 49)), Value(rng.NextInt64(0, 9))});
      }
      ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
      ASSERT_TRUE(engine_->CollectBaseStats(name, {"k", "v"}).ok());
    }
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
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

  std::vector<std::unique_ptr<Optimizer>> AllOptimizers() {
    std::vector<std::unique_ptr<Optimizer>> opts;
    for (const char* name : {"dynamic", "cost-based", "pilot-run",
                             "ingres-like", "worst-order", "sketch-dynamic"}) {
      opts.push_back(
          MakeOptimizer(engine_.get(), name, PlannerOptions(), nullptr)
              .value());
    }
    return opts;
  }

  std::string spill_dir_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(CancelTest, PreCancelledContextStopsEveryOptimizer) {
  QuerySpec spec = ChainQuery();
  size_t tables_before = engine_->catalog().TableNames().size();
  for (auto& opt : AllOptimizers()) {
    QueryContext ctx(opt->name());
    ctx.Cancel("client disconnected");
    opt->set_context(&ctx);
    auto run = opt->Run(spec);
    ASSERT_FALSE(run.ok()) << opt->name() << " ignored the cancel";
    EXPECT_EQ(run.status().code(), StatusCode::kCancelled) << opt->name();
    EXPECT_NE(run.status().message().find("client disconnected"),
              std::string::npos)
        << opt->name() << ": " << run.status().message();
  }
  // Cancellation fires before any materialization or sketch: nothing to
  // leak, and nothing paid for.
  EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before);
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
  EXPECT_TRUE(engine_->sketches().Keys().empty());
}

TEST_F(CancelTest, ExpiredDeadlineReadsAsCancelled) {
  QueryContext ctx("deadline");
  ctx.set_timeout(-1.0);  // Already expired.
  EXPECT_FALSE(ctx.cancelled());  // Not latched until someone checks.
  Status st = ctx.CheckAlive();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("deadline exceeded"), std::string::npos);
  EXPECT_TRUE(ctx.cancelled());  // Latched: later checks are one atomic load.

  DynamicOptimizer dynamic(engine_.get());
  dynamic.set_context(&ctx);
  auto run = dynamic.Run(ChainQuery());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

TEST_F(CancelTest, MidRunCancelStopsAtNextBoundaryWithoutLeaks) {
  // A predicate UDF cancels the context after enough evaluations: the
  // cancellation lands *inside* stage execution, deterministic and
  // thread-free, and the next task boundary must surface kCancelled.
  QuerySpec spec = ChainQuery();
  QueryContext ctx("mid-run");
  std::atomic<int> calls{0};
  ASSERT_TRUE(engine_->udfs()
                  .Register("cancel_after",
                            [&](const std::vector<Value>&) {
                              if (calls.fetch_add(1) == 200) {
                                ctx.Cancel("poison pill");
                              }
                              return Value(true);
                            })
                  .ok());
  spec.predicates.push_back({"y", Udf("cancel_after", {Col("y", "v")})});

  size_t tables_before = engine_->catalog().TableNames().size();
  DynamicOptimizer dynamic(engine_.get());
  dynamic.set_context(&ctx);
  auto run = dynamic.Run(spec);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_GT(calls.load(), 200);  // It actually ran before being stopped.

  // The driver loop's cleanup guard must have dropped the temps the
  // cancelled run had already materialized.
  EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before);
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

TEST_F(CancelTest, RecoveryNeverRetriesACancelledQuery) {
  QuerySpec spec = ChainQuery();
  QueryContext ctx("no-retry");
  ctx.Cancel("user hit ^C");
  DynamicOptimizer dynamic(engine_.get());
  dynamic.set_context(&ctx);

  RecoveryPolicy policy;
  policy.max_attempts = 5;
  RecoveryReport report;
  auto run = RunWithRecovery(&dynamic, engine_.get(), spec, policy, &report);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  // One attempt, zero re-drives: kCancelled is terminal.
  EXPECT_EQ(report.restarts, 0);
  EXPECT_EQ(report.resumes, 0);
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

TEST_F(CancelTest, RecoverySweepsSpillFilesOfCancelledQuery) {
  // Plant orphaned spill files as if a cancel had landed between a
  // partition's write and its read-back; terminal recovery must sweep them.
  QueryContext ctx("orphan");
  std::string orphan = spill_dir_ + "/" + ctx.SpillFilePrefix() + "s0_p0.drb";
  ColumnBatch batch;
  batch.num_rows = 1;
  batch.columns.resize(1);
  batch.columns[0].Append(Value(int64_t{1}));
  batch.row_sizes.push_back(16);
  ASSERT_TRUE(WriteBatchesFile(orphan, {batch}).ok());
  ASSERT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 1);

  ctx.Cancel("abandoned");
  DynamicOptimizer dynamic(engine_.get());
  dynamic.set_context(&ctx);
  RecoveryReport report;
  auto run = RunWithRecovery(&dynamic, engine_.get(), ChainQuery(),
                             RecoveryPolicy(), &report);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

TEST_F(CancelTest, UngovernedSweepKeepsOtherProcessesSpillFiles) {
  // Another process sharing the spill directory names its files under its
  // own process id. An ungoverned query's terminal failure sweeps every
  // spill file of this process, and none of the other's.
  const std::string foreign = spill_dir_ + "/__spill_" +
                              std::to_string(::getpid() + 1) + "_q1_s0_p0.drb";
  const std::string own =
      spill_dir_ + "/" + ProcessSpillPrefix() + "q0_s0_p0.drb";
  ASSERT_TRUE(WriteBatchesFile(foreign, {}).ok());
  ASSERT_TRUE(WriteBatchesFile(own, {}).ok());

  // An invalid batch size fails every attempt with kInvalidArgument.
  engine_->mutable_cluster().exec.max_batch_size = 0;
  DynamicOptimizer dynamic(engine_.get());
  auto run = RunWithRecovery(&dynamic, engine_.get(), ChainQuery(),
                             RecoveryPolicy(), nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(std::filesystem::exists(foreign));
  EXPECT_FALSE(std::filesystem::exists(own));
}

TEST_F(CancelTest, CancelStatusesAreNotRetryable) {
  EXPECT_FALSE(Status::Cancelled("x").retryable());
  EXPECT_FALSE(Status::ResourceExhausted("x").retryable());
  EXPECT_TRUE(Status::Transient("x").retryable());
  EXPECT_TRUE(Status::DataCorruption("x").retryable());
}

}  // namespace
}  // namespace dynopt
