// Seeded chaos tests for the fault-injection + recovery subsystem: under
// deterministic injected task failures, stragglers, corrupted temp files
// and whole-query aborts, every optimization strategy must still return
// the exact fault-free result set — the dynamic strategies by resuming
// from their materialization checkpoints, the static ones by whole-query
// restart. Also guards the two invariants the subsystem must not break:
// with injection disabled the metering is byte-for-byte identical to a
// fault-free build, and a query that dies fatally leaks no temp tables.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/optimizer.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/recovery.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "opt/strategies.h"
#include "storage/catalog.h"
#include "storage/serde.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

const char* const kAllOptimizers[] = {"dynamic",     "cost-based",
                                      "worst-order", "best-order",
                                      "pilot-run",   "ingres-like"};

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    TpcdsOptions tpcds;
    tpcds.sf = 0.15;
    ASSERT_TRUE(LoadTpcds(engine_, tpcds).ok());
    TpchOptions tpch;
    tpch.sf = 0.15;
    ASSERT_TRUE(LoadTpch(engine_, tpch).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  void TearDown() override {
    // Every test leaves the shared engine fault-free, disk-less and
    // ungoverned again.
    engine_->DisarmFaultInjection();
    engine_->mutable_cluster().fault = FaultInjectionConfig();
    engine_->mutable_cluster().materialize_to_disk = false;
    engine_->mutable_cluster().memory = MemoryGovernanceConfig();
  }

  /// Arms the engine with `cfg` (enabled is forced on).
  static void Arm(FaultInjectionConfig cfg) {
    cfg.enabled = true;
    engine_->mutable_cluster().fault = cfg;
    engine_->ArmFaultInjection();
  }

  /// Fault-free reference result of the dynamic optimizer on TPC-DS Q17
  /// (all strategies must return this same set), with its join tree as the
  /// best-order hint. Computed once.
  struct Reference {
    std::vector<std::string> columns;
    std::vector<Row> sorted_rows;
    std::shared_ptr<const JoinTree> tree;
  };
  static const Reference& Q17Reference() {
    static Reference* reference = [] {
      auto query = TpcdsQ17(engine_);
      DYNOPT_CHECK(query.ok());
      DynamicOptimizer optimizer(engine_);
      auto result = optimizer.Run(query.value());
      DYNOPT_CHECK(result.ok());
      auto* ref = new Reference();
      ref->columns = result->columns;
      ref->sorted_rows = result->rows;
      SortRows(&ref->sorted_rows);
      ref->tree = result->join_tree;
      return ref;
    }();
    return *reference;
  }

  static Engine* engine_;
};

Engine* ChaosTest::engine_ = nullptr;

TEST_F(ChaosTest, StatusTaxonomy) {
  EXPECT_TRUE(IsRetryable(StatusCode::kTransient));
  EXPECT_TRUE(IsRetryable(StatusCode::kDataCorruption));
  EXPECT_FALSE(IsRetryable(StatusCode::kExecutionError));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_TRUE(Status::Transient("x").retryable());
  EXPECT_TRUE(Status::DataCorruption("x").retryable());
  EXPECT_FALSE(Status::ExecutionError("x").retryable());
  EXPECT_FALSE(Status::OK().retryable());
}

TEST_F(ChaosTest, DisabledInjectionMetersByteForByte) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  for (const char* name : {"dynamic", "cost-based"}) {
    auto optimizer =
        MakeOptimizer(engine_, name, PlannerOptions(), Q17Reference().tree)
            .value();
    // Never armed.
    auto baseline = optimizer->Run(query.value());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    // Armed but disabled: the injector exists yet every fault hook must be
    // a no-op, down to the last bit of floating-point metering.
    FaultInjectionConfig disabled;
    disabled.seed = 99;
    engine_->mutable_cluster().fault = disabled;  // enabled stays false.
    engine_->ArmFaultInjection();
    auto armed_off = optimizer->Run(query.value());
    ASSERT_TRUE(armed_off.ok()) << armed_off.status().ToString();

    // Disarmed again.
    engine_->DisarmFaultInjection();
    auto disarmed = optimizer->Run(query.value());
    ASSERT_TRUE(disarmed.ok());

    for (const auto* run : {&armed_off, &disarmed}) {
      EXPECT_EQ((*run)->metrics.simulated_seconds,
                baseline->metrics.simulated_seconds)
          << name << ": simulated seconds drifted with injection disabled";
      EXPECT_EQ((*run)->metrics.bytes_shuffled,
                baseline->metrics.bytes_shuffled);
      EXPECT_EQ((*run)->metrics.recovery_seconds, 0.0);
      EXPECT_EQ((*run)->metrics.num_retries, 0u);
      EXPECT_EQ((*run)->metrics.speculative_executions, 0u);
      EXPECT_EQ((*run)->rows, baseline->rows);
    }
  }
}

TEST_F(ChaosTest, ChaosSweepAllOptimizersMatchFaultFreeReference) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  const Reference& reference = Q17Reference();
  engine_->mutable_cluster().materialize_to_disk = true;

  uint64_t total_retries = 0;
  double total_recovery = 0;
  for (uint64_t seed : {0x5eed1ULL, 0x5eed2ULL, 0x5eed3ULL}) {
    for (const char* name : kAllOptimizers) {
      const size_t tables_before = engine_->catalog().TableNames().size();
      FaultInjectionConfig cfg;
      cfg.seed = seed;
      cfg.task_failure_probability = 0.08;
      cfg.straggler_probability = 0.15;
      cfg.straggler_multiplier = 3.0;
      cfg.corruption_probability = 0.10;
      Arm(cfg);

      auto optimizer =
          MakeOptimizer(engine_, name, PlannerOptions(), reference.tree)
              .value();
      RecoveryReport report;
      auto result = RunWithRecovery(optimizer.get(), engine_, query.value(),
                                    RecoveryPolicy(), &report);
      ASSERT_TRUE(result.ok())
          << name << " seed=" << seed << ": " << result.status().ToString();
      std::vector<Row> rows = result->rows;
      SortRows(&rows);
      EXPECT_EQ(rows, reference.sorted_rows)
          << name << " seed=" << seed
          << ": result diverged from the fault-free reference";
      EXPECT_EQ(result->columns, reference.columns);
      EXPECT_GE(result->metrics.recovery_seconds, 0.0);
      EXPECT_GE(report.total_paid_seconds,
                result->metrics.simulated_seconds);
      total_retries += result->metrics.num_retries;
      total_recovery += result->metrics.recovery_seconds;

      engine_->DisarmFaultInjection();
      EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before)
          << name << " seed=" << seed << " leaked temp tables";
    }
  }
  // The sweep must actually have exercised the machinery.
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(total_recovery, 0.0);
}

TEST_F(ChaosTest, SameSeedReplaysIdenticalFaults) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  FaultInjectionConfig cfg;
  cfg.seed = 424242;
  cfg.task_failure_probability = 0.1;
  cfg.straggler_probability = 0.2;
  cfg.straggler_multiplier = 4.0;

  auto run_once = [&]() {
    Arm(cfg);
    DynamicOptimizer optimizer(engine_);
    RecoveryReport report;
    auto result = RunWithRecovery(&optimizer, engine_, query.value(),
                                  RecoveryPolicy(), &report);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    engine_->DisarmFaultInjection();
    return result.ok() ? result->metrics : ExecMetrics();
  };
  ExecMetrics first = run_once();
  ExecMetrics second = run_once();
  EXPECT_EQ(first.simulated_seconds, second.simulated_seconds);
  EXPECT_EQ(first.recovery_seconds, second.recovery_seconds);
  EXPECT_EQ(first.num_retries, second.num_retries);
  EXPECT_EQ(first.speculative_executions, second.speculative_executions);
  // And the faults did fire: same-bits is vacuous on a clean run.
  EXPECT_GT(first.num_retries, 0u);
}

TEST_F(ChaosTest, QueryLevelFailureDynamicResumesFromCheckpoint) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  const Reference& reference = Q17Reference();

  // Benign armed run to learn how many kernel stages Q17 executes.
  Arm(FaultInjectionConfig());
  {
    DynamicOptimizer counter(engine_);
    ASSERT_TRUE(counter.Run(query.value()).ok());
  }
  const int stages = engine_->fault_injector()->stages_started();
  ASSERT_GT(stages, 3);

  for (int fail_at : {1, stages / 2, stages - 1}) {
    const size_t tables_before = engine_->catalog().TableNames().size();
    FaultInjectionConfig cfg;
    cfg.fail_query_at_stage = fail_at;
    Arm(cfg);
    DynamicOptimizer optimizer(engine_);
    RecoveryReport report;
    auto result = RunWithRecovery(&optimizer, engine_, query.value(),
                                  RecoveryPolicy(), &report);
    ASSERT_TRUE(result.ok())
        << "fail_at=" << fail_at << ": " << result.status().ToString();
    std::vector<Row> rows = result->rows;
    SortRows(&rows);
    EXPECT_EQ(rows, reference.sorted_rows) << "fail_at=" << fail_at;
    // The dynamic strategy recovers by resuming, never by restarting.
    EXPECT_EQ(report.resumes, 1) << "fail_at=" << fail_at;
    EXPECT_EQ(report.restarts, 0) << "fail_at=" << fail_at;
    engine_->DisarmFaultInjection();
    EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before);
  }
}

TEST_F(ChaosTest, QueryLevelFailureStaticOptimizerRestarts) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  const Reference& reference = Q17Reference();

  Arm(FaultInjectionConfig());
  {
    StaticCostBasedOptimizer counter(engine_);
    ASSERT_TRUE(counter.Run(query.value()).ok());
  }
  const int stages = engine_->fault_injector()->stages_started();
  ASSERT_GT(stages, 1);

  FaultInjectionConfig cfg;
  cfg.fail_query_at_stage = stages / 2;
  Arm(cfg);
  StaticCostBasedOptimizer optimizer(engine_);
  RecoveryReport report;
  auto result = RunWithRecovery(&optimizer, engine_, query.value(),
                                RecoveryPolicy(), &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<Row> rows = result->rows;
  SortRows(&rows);
  EXPECT_EQ(rows, reference.sorted_rows);
  // No checkpoints to resume from: the whole query re-ran.
  EXPECT_EQ(report.restarts, 1);
  EXPECT_EQ(report.resumes, 0);
  EXPECT_GE(report.wasted_seconds, 0.0);
  EXPECT_GE(report.total_paid_seconds, result->metrics.simulated_seconds);
}

TEST_F(ChaosTest, AutoCheckpointResumeViaOptimizerInterface) {
  // The legacy stage-count injection path now raises a retryable Transient
  // and the new resume interface picks it up without touching
  // DynamicCheckpoint by hand.
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  const Reference& reference = Q17Reference();
  const size_t tables_before = engine_->catalog().TableNames().size();

  DynamicOptimizerOptions options;
  options.inject_failure_after_stages = 2;
  DynamicOptimizer optimizer(engine_, options);
  auto failed = optimizer.Run(query.value());
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().retryable());
  ASSERT_TRUE(optimizer.CanResume());

  // Clear the injection knob for the resumed portion; the options are
  // per-optimizer, so resume through a fresh one wired to the same
  // checkpoint via the base-class interface.
  auto resumed = optimizer.ResumeFromLastCheckpoint();
  // completed_stages continues past the knob, so the resume re-trips the
  // injector; keep resuming — each failure checkpoints strictly later.
  int guard = 0;
  while (!resumed.ok() && resumed.status().retryable() &&
         optimizer.CanResume() && ++guard < 32) {
    resumed = optimizer.ResumeFromLastCheckpoint();
  }
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  std::vector<Row> rows = resumed->rows;
  SortRows(&rows);
  EXPECT_EQ(rows, reference.sorted_rows);
  EXPECT_FALSE(optimizer.CanResume());
  EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before);
}

TEST_F(ChaosTest, FatalCorruptionLeaksNoTempTables) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  engine_->mutable_cluster().materialize_to_disk = true;

  // A retry budget of 1 turns the first corrupted materialization into a
  // fatal ExecutionError. Scan seeds until a run dies *after* at least one
  // stage completed (so temp tables existed when it died): before the
  // cleanup guard, that scenario leaked them.
  bool found_late_fatal = false;
  for (uint64_t seed = 1; seed <= 30 && !found_late_fatal; ++seed) {
    const size_t tables_before = engine_->catalog().TableNames().size();
    FaultInjectionConfig cfg;
    cfg.seed = seed;
    cfg.corruption_probability = 0.08;
    cfg.backoff.max_attempts = 1;
    Arm(cfg);
    DynamicOptimizer optimizer(engine_);
    auto result = optimizer.Run(query.value());
    const int stages = engine_->fault_injector()->stages_started();
    engine_->DisarmFaultInjection();
    if (!result.ok()) {
      ASSERT_FALSE(result.status().retryable())
          << result.status().ToString();
      EXPECT_FALSE(optimizer.CanResume());
      EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before)
          << "seed=" << seed << " leaked temp tables on fatal failure";
      if (stages >= 2) found_late_fatal = true;
    }
  }
  EXPECT_TRUE(found_late_fatal)
      << "no seed produced a fatal failure after the first stage; "
         "loosen the sweep";
}

TEST_F(ChaosTest, PilotRunDropsSinkOnMidQueryFailure) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());

  Arm(FaultInjectionConfig());
  {
    PilotRunOptimizer counter(engine_);
    ASSERT_TRUE(counter.Run(query.value()).ok());
  }
  const int stages = engine_->fault_injector()->stages_started();
  ASSERT_GT(stages, 2);

  // Kill the query in its last kernel — well after the pilot sink table
  // was materialized. The sink must not outlive the failed run.
  const size_t tables_before = engine_->catalog().TableNames().size();
  FaultInjectionConfig cfg;
  cfg.fail_query_at_stage = stages - 1;
  Arm(cfg);
  PilotRunOptimizer optimizer(engine_);
  auto result = optimizer.Run(query.value());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().retryable());
  EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before);
}

TEST_F(ChaosTest, StragglersTriggerSpeculativeExecution) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  const Reference& reference = Q17Reference();

  bool speculated = false;
  for (uint64_t seed = 1; seed <= 5 && !speculated; ++seed) {
    FaultInjectionConfig cfg;
    cfg.seed = seed;
    cfg.straggler_probability = 0.5;
    cfg.straggler_multiplier = 10.0;
    Arm(cfg);
    DynamicOptimizer optimizer(engine_);
    auto result = optimizer.Run(query.value());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Row> rows = result->rows;
    SortRows(&rows);
    EXPECT_EQ(rows, reference.sorted_rows);
    if (result->metrics.speculative_executions > 0) {
      EXPECT_GT(result->metrics.recovery_seconds, 0.0);
      speculated = true;
    }
    engine_->DisarmFaultInjection();
  }
  EXPECT_TRUE(speculated)
      << "no seed produced a speculative backup; loosen the sweep";
}

TEST_F(ChaosTest, FaultsUnderTightMemoryBudgetStillMatchReference) {
  // Chaos and memory pressure together: injected task failures, stragglers
  // and corrupted temp files while every hash join is squeezed through the
  // spill-to-disk grace path. Recovery must still reconstruct the exact
  // fault-free result, and neither temp tables nor spill files may leak.
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());
  const Reference& reference = Q17Reference();
  engine_->mutable_cluster().materialize_to_disk = true;
  // The sf-0.15 fixture has tiny per-partition build sides, so the budget
  // must sit far below the bench default to actually force spilling here.
  engine_->mutable_cluster().memory.join_memory_budget_bytes = 512;

  bool spilled = false;
  for (const char* name : {"dynamic", "cost-based", "ingres-like"}) {
    const size_t tables_before = engine_->catalog().TableNames().size();
    FaultInjectionConfig cfg;
    cfg.seed = 0xbadbeef;
    cfg.task_failure_probability = 0.08;
    cfg.straggler_probability = 0.15;
    cfg.straggler_multiplier = 3.0;
    cfg.corruption_probability = 0.10;
    Arm(cfg);

    QueryContext ctx(name);
    auto optimizer =
        MakeOptimizer(engine_, name, PlannerOptions(), reference.tree).value();
    optimizer->set_context(&ctx);
    RecoveryReport report;
    auto result = RunWithRecovery(optimizer.get(), engine_, query.value(),
                                  RecoveryPolicy(), &report);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    std::vector<Row> rows = result->rows;
    SortRows(&rows);
    EXPECT_EQ(rows, reference.sorted_rows)
        << name << ": diverged under faults + memory pressure";
    if (result->metrics.spilled_bytes > 0) spilled = true;

    engine_->DisarmFaultInjection();
    EXPECT_EQ(engine_->catalog().TableNames().size(), tables_before)
        << name << " leaked temp tables";
    EXPECT_EQ(CountFilesWithPrefix(engine_->cluster().spill_directory,
                                   ctx.SpillFilePrefix()),
              0)
        << name << " leaked spill files";
  }
  EXPECT_TRUE(spilled) << "the budget never forced a spill; tighten it";
}

// A query that exhausts its attempts leaves nothing behind: sketch-dynamic
// registers join-key sketches under every temp table it materializes, and
// the final cleanup drops them with the tables and their statistics.
TEST(RecoveryCleanupTest, TerminalFailureDropsTempTablesStatsAndSketches) {
  Engine engine;
  TpchOptions tpch;
  tpch.sf = 0.2;
  ASSERT_TRUE(LoadTpch(&engine, tpch).ok());
  auto query = TpchQ9(&engine);
  ASSERT_TRUE(query.ok());
  RecoveryPolicy once;
  once.max_attempts = 1;
  for (int stage : {4, 8, 12, 16, 20}) {
    SCOPED_TRACE("fail_query_at_stage=" + std::to_string(stage));
    FaultInjectionConfig cfg;
    cfg.enabled = true;
    cfg.fail_query_at_stage = stage;
    engine.mutable_cluster().fault = cfg;
    engine.ArmFaultInjection();
    SketchDynamicOptimizer optimizer(&engine);
    auto result = RunWithRecovery(&optimizer, &engine, query.value(), once);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kTransient);
    for (const std::string& name : engine.catalog().TableNames()) {
      EXPECT_FALSE(Catalog::IsTempName(name)) << name;
    }
    for (const std::string& name : engine.stats().TableNames()) {
      EXPECT_FALSE(Catalog::IsTempName(name)) << name;
    }
    for (const std::string& key : engine.sketches().Keys()) {
      EXPECT_FALSE(Catalog::IsTempName(key)) << key;
    }
  }
}

TEST_F(ChaosTest, DropTempTablesWithPrefixIsSelective) {
  Catalog catalog;
  auto add = [&](const std::string& name) {
    auto table = std::make_shared<Table>(
        name, Schema({{"x", ValueType::kInt64}}), 2);
    ASSERT_TRUE(catalog.RegisterTable(std::move(table)).ok());
  };
  add("base_table");
  const std::string foo1 = catalog.UniqueTempName("foo");
  const std::string foo2 = catalog.UniqueTempName("foo");
  const std::string bar = catalog.UniqueTempName("bar");
  add(foo1);
  add(foo2);
  add(bar);

  std::vector<std::string> dropped = catalog.DropTempTablesWithPrefix("foo");
  EXPECT_EQ(dropped.size(), 2u);
  EXPECT_FALSE(catalog.HasTable(foo1));
  EXPECT_FALSE(catalog.HasTable(foo2));
  EXPECT_TRUE(catalog.HasTable(bar));
  EXPECT_TRUE(catalog.HasTable("base_table"));

  // Empty prefix: the failure-path janitor drops every temp table but
  // never a base table.
  dropped = catalog.DropTempTablesWithPrefix("");
  EXPECT_EQ(dropped, std::vector<std::string>{bar});
  EXPECT_TRUE(catalog.HasTable("base_table"));
}

}  // namespace
}  // namespace dynopt
