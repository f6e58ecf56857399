// End-to-end overload resilience (run under ASan+UBSan in CI):
//  - with every new serving knob at its default (no priorities, shedding
//    off, degradation off, retry budget off, watchdog off, jitter off),
//    admission-governed runs meter byte-for-byte identically to ungoverned
//    runs across all six strategies — the overload machinery is free when
//    unused;
//  - ApplyStrategyDowngrade swaps a downgraded query's dynamic optimizer
//    for the static cost-based one (same results, context forwarded);
//  - EstimateQueryReservationBytes scales with the query's filtered input
//    and respects its floor;
//  - an exhausted engine retry budget fails the query fast with
//    kResourceExhausted and recovery does NOT re-drive it;
//  - the watchdog stall-kills a query that stops heartbeating, and the
//    recovery sweep reclaims its temp table and spill file;
//  - sustained mixed-priority traffic under fault injection + shedding +
//    degradation + watchdog leaks no slots, reservations, temp tables or
//    spill files, and every successful query returns correct rows.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"
#include "exec/engine.h"
#include "opt/degrade.h"
#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/recovery.h"
#include "opt/static_optimizer.h"
#include "storage/serde.h"

namespace dynopt {
namespace {

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spill_dir_ = ::testing::TempDir() + "dynopt_overload_test";
    std::filesystem::create_directories(spill_dir_);
    engine_ = std::make_unique<Engine>();
    engine_->mutable_cluster().spill_directory = spill_dir_;
    Rng rng(47);
    for (const char* name : {"u", "w"}) {
      auto t = std::make_shared<Table>(
          name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
          engine_->cluster().num_nodes);
      ASSERT_TRUE(t->SetPartitionKey({"k"}).ok());
      for (int i = 0; i < 800; ++i) {
        t->AppendRow(
            {Value(rng.NextInt64(0, 59)), Value(rng.NextInt64(0, 9))});
      }
      ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
      ASSERT_TRUE(engine_->CollectBaseStats(name, {"k", "v"}).ok());
    }
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  QuerySpec JoinQuery(int64_t v_limit) {
    QuerySpec spec;
    spec.tables = {{"u", "u", false, false, {}}, {"w", "w", false, false, {}}};
    spec.joins = {{"u", "w", {{"u.k", "w.k"}}}};
    spec.projections = {"u.v", "w.v"};
    spec.predicates.push_back(
        {"u", Cmp(CompareOp::kLt, Col("u", "v"), Lit(Value(v_limit)))});
    spec.NormalizeJoins();
    return spec;
  }

  std::unique_ptr<Optimizer> MakeStrategy(
      const std::string& name, std::shared_ptr<const JoinTree> hint) {
    if (name == "dynamic") {
      return std::make_unique<DynamicOptimizer>(engine_.get());
    }
    if (name == "cost-based") {
      return std::make_unique<StaticCostBasedOptimizer>(engine_.get());
    }
    if (name == "worst-order") {
      return std::make_unique<WorstOrderOptimizer>(engine_.get());
    }
    if (name == "pilot-run") {
      return std::make_unique<PilotRunOptimizer>(engine_.get());
    }
    if (name == "ingres-like") {
      return std::make_unique<IngresLikeOptimizer>(engine_.get());
    }
    EXPECT_EQ(name, "best-order");
    return std::make_unique<BestOrderOptimizer>(engine_.get(),
                                                std::move(hint));
  }

  /// Count of catalog temp tables left behind (any prefix).
  int TempTableCount() {
    int n = 0;
    for (const auto& name : engine_->catalog().TableNames()) {
      if (Catalog::IsTempName(name)) ++n;
    }
    return n;
  }

  std::string spill_dir_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(OverloadTest, DefaultKnobsMeterIdenticallyAcrossAllStrategies) {
  // The hint for best-order comes from an ungoverned dynamic run.
  DynamicOptimizer hint_opt(engine_.get());
  auto hint_run = hint_opt.Run(JoinQuery(3));
  ASSERT_TRUE(hint_run.ok()) << hint_run.status().ToString();
  auto hint = hint_run->join_tree;

  for (const char* name : {"dynamic", "cost-based", "worst-order",
                           "pilot-run", "ingres-like", "best-order"}) {
    SCOPED_TRACE(name);
    auto baseline_opt = MakeStrategy(name, hint);
    auto baseline = baseline_opt->Run(JoinQuery(3));
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    // Same strategy, but through the full serving path at defaults:
    // admission (single-class FIFO, no reservation), context attached.
    QueryContext ctx(std::string("governed-") + name);
    auto ticket = engine_->admission().Admit(&ctx);
    ASSERT_TRUE(ticket.ok());
    auto governed_opt = MakeStrategy(name, hint);
    governed_opt->set_context(&ctx);
    auto governed = governed_opt->Run(JoinQuery(3));
    ASSERT_TRUE(governed.ok()) << governed.status().ToString();
    ticket->Release();

    std::vector<Row> expect_rows = baseline->rows;
    std::vector<Row> got_rows = governed->rows;
    SortRows(&expect_rows);
    SortRows(&got_rows);
    EXPECT_EQ(got_rows, expect_rows);

    // The simulated metering must be byte-for-byte what the ungoverned
    // engine produces: every serving default is behavior-neutral.
    const ExecMetrics& a = baseline->metrics;
    const ExecMetrics& b = governed->metrics;
    EXPECT_EQ(b.simulated_seconds, a.simulated_seconds);
    EXPECT_EQ(b.reopt_seconds, a.reopt_seconds);
    EXPECT_EQ(b.stats_seconds, a.stats_seconds);
    EXPECT_EQ(b.rows_out, a.rows_out);
    EXPECT_EQ(b.tuples_processed, a.tuples_processed);
    EXPECT_EQ(b.bytes_scanned, a.bytes_scanned);
    EXPECT_EQ(b.bytes_shuffled, a.bytes_shuffled);
    EXPECT_EQ(b.bytes_broadcast, a.bytes_broadcast);
    EXPECT_EQ(b.bytes_materialized, a.bytes_materialized);
    EXPECT_EQ(b.bytes_intermediate_read, a.bytes_intermediate_read);
    EXPECT_EQ(b.index_lookups, a.index_lookups);
    EXPECT_EQ(b.num_jobs, a.num_jobs);
    EXPECT_EQ(b.num_reopt_points, a.num_reopt_points);
    EXPECT_EQ(b.num_retries, 0u);
    EXPECT_EQ(b.admission_degraded, 0u);
    EXPECT_FALSE(ctx.memory_degraded);
    EXPECT_FALSE(ctx.strategy_downgraded);
  }
  EXPECT_EQ(TempTableCount(), 0);
}

TEST_F(OverloadTest, ApplyStrategyDowngradeSwapsToStatic) {
  // Not downgraded: the planned optimizer passes through untouched.
  QueryContext plain("plain");
  auto kept = ApplyStrategyDowngrade(
      std::make_unique<DynamicOptimizer>(engine_.get()), engine_.get(),
      &plain);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->name(), "dynamic");

  // Downgraded: swapped for the static cost-based strategy, context
  // forwarded, and the results still match.
  QueryContext degraded("degraded");
  degraded.strategy_downgraded = true;
  auto swapped = ApplyStrategyDowngrade(
      std::make_unique<DynamicOptimizer>(engine_.get()), engine_.get(),
      &degraded);
  ASSERT_NE(swapped, nullptr);
  EXPECT_EQ(swapped->name(), "cost-based");
  EXPECT_EQ(swapped->context(), &degraded);

  auto reference = kept->Run(JoinQuery(4));
  auto downgraded_run = swapped->Run(JoinQuery(4));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(downgraded_run.ok()) << downgraded_run.status().ToString();
  std::vector<Row> expect_rows = reference->rows;
  std::vector<Row> got_rows = downgraded_run->rows;
  SortRows(&expect_rows);
  SortRows(&got_rows);
  EXPECT_EQ(got_rows, expect_rows);

  // Null context / null optimizer pass through without crashing.
  EXPECT_EQ(ApplyStrategyDowngrade(nullptr, engine_.get(), &degraded),
            nullptr);
  auto no_ctx = ApplyStrategyDowngrade(
      std::make_unique<DynamicOptimizer>(engine_.get()), engine_.get(),
      nullptr);
  ASSERT_NE(no_ctx, nullptr);
  EXPECT_EQ(no_ctx->name(), "dynamic");
}

TEST_F(OverloadTest, ReservationEstimateScalesWithFilteredInput) {
  // v < 9 passes ~90% of u, v < 1 ~10%: the wider query must reserve more.
  const uint64_t narrow =
      EstimateQueryReservationBytes(JoinQuery(1), engine_.get(), 1);
  const uint64_t wide =
      EstimateQueryReservationBytes(JoinQuery(9), engine_.get(), 1);
  EXPECT_GT(narrow, 0u);
  EXPECT_GT(wide, narrow);

  // The floor backstops tiny estimates (a query always reserves something).
  const uint64_t floored = EstimateQueryReservationBytes(
      JoinQuery(1), engine_.get(), uint64_t{1} << 30);
  EXPECT_EQ(floored, uint64_t{1} << 30);
}

TEST_F(OverloadTest, RetryBudgetFailsFastUnderFaultStorm) {
  engine_->mutable_cluster().fault.enabled = true;
  engine_->mutable_cluster().fault.seed = 7;
  engine_->mutable_cluster().fault.task_failure_probability = 0.15;

  // Unlimited budget (the default): injected failures are absorbed by
  // per-task retries and the query completes.
  engine_->ArmFaultInjection();
  engine_->RearmRetryBudget();
  DynamicOptimizer unlimited(engine_.get());
  RecoveryReport unlimited_report;
  auto ok_run = RunWithRecovery(&unlimited, engine_.get(), JoinQuery(3),
                                RecoveryPolicy{}, &unlimited_report);
  ASSERT_TRUE(ok_run.ok()) << ok_run.status().ToString();
  // The storm must actually demand more than one retry, otherwise the
  // budgeted rerun below would not be denied.
  ASSERT_GE(ok_run->metrics.num_retries, 2u);

  // Same deterministic fault pattern, but the engine only budgets one
  // retry: the second re-execution is denied and the query fails FAST with
  // kResourceExhausted — which recovery never re-drives.
  engine_->mutable_cluster().retry_budget.max_tokens = 1;
  engine_->mutable_cluster().retry_budget.refill_per_second = 0;
  engine_->ArmFaultInjection();
  engine_->RearmRetryBudget();
  DynamicOptimizer budgeted(engine_.get());
  RecoveryReport report;
  auto denied = RunWithRecovery(&budgeted, engine_.get(), JoinQuery(3),
                                RecoveryPolicy{}, &report);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(denied.status().message().find("retry budget"),
            std::string::npos);
  EXPECT_EQ(report.restarts, 0);
  EXPECT_EQ(report.resumes, 0);
  EXPECT_GE(engine_->retry_budget().denied(), 1u);

  // Fail-fast must not strand intermediates.
  EXPECT_EQ(TempTableCount(), 0);
  engine_->DisarmFaultInjection();
}

/// Test-only strategy that registers a temp table and writes a spill file,
/// then spins without ever heartbeating — the signature of a query stuck
/// outside its cooperative checkpoints. Only the raw token is polled so
/// the watchdog's staleness clock keeps running.
class StuckOptimizer : public Optimizer {
 public:
  explicit StuckOptimizer(Engine* engine) : engine_(engine) {}
  std::string name() const override { return "stuck"; }

  Result<OptimizerRunResult> Run(const QuerySpec& query) override {
    (void)query;
    const std::string temp_name =
        engine_->catalog().UniqueTempName(TempTablePrefix(ctx_, "stuck"));
    auto t = std::make_shared<Table>(
        temp_name, Schema({{"k", ValueType::kInt64}}), 1);
    t->AppendRow({Value(int64_t{1})});
    Status st = engine_->catalog().RegisterTable(t);
    if (!st.ok()) return st;
    const std::string spill_path = engine_->cluster().spill_directory + "/" +
                                   ctx_->SpillFilePrefix() + "0.part";
    std::ofstream(spill_path) << "stuck";
    while (!ctx_->cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ctx_->CheckAlive();
  }

 private:
  Engine* engine_;
};

TEST_F(OverloadTest, WatchdogReclaimsStuckQuery) {
  engine_->mutable_cluster().watchdog.enabled = true;
  engine_->mutable_cluster().watchdog.poll_interval_seconds = 0.005;
  engine_->mutable_cluster().watchdog.progress_timeout_seconds = 0.05;
  engine_->RearmWatchdog();

  QueryContext ctx("stuck");
  StuckOptimizer stuck(engine_.get());
  stuck.set_context(&ctx);
  Result<OptimizerRunResult> result = Status::OK();
  {
    WatchdogRegistration watched(&engine_->watchdog(), &ctx);
    result = RunWithRecovery(&stuck, engine_.get(), JoinQuery(3),
                             RecoveryPolicy{});
  }

  // The watchdog stall-killed it; the kill is a plain cancellation.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(result.status().message().find("watchdog"), std::string::npos);
  EXPECT_EQ(engine_->watchdog().stall_kills(), 1u);
  EXPECT_EQ(engine_->watchdog().deadline_kills(), 0u);

  // Reclamation is the existing terminal-failure sweep: the stuck query's
  // temp table and spill file are both gone.
  EXPECT_EQ(TempTableCount(), 0);
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, ctx.SpillFilePrefix()), 0);
}

TEST_F(OverloadTest, ChaosUnderTrafficLeaksNothing) {
  // Fault-free serial references, one per distinct predicate.
  std::vector<std::vector<Row>> expected(5);
  for (int v = 0; v < 5; ++v) {
    DynamicOptimizer opt(engine_.get());
    auto run = opt.Run(JoinQuery(1 + v));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expected[static_cast<size_t>(v)] = std::move(run->rows);
    SortRows(&expected[static_cast<size_t>(v)]);
  }

  // Everything on at once: injected faults with real disk round-trips,
  // shedding, degradation, a generous retry budget, and the watchdog.
  auto& cluster = engine_->mutable_cluster();
  cluster.materialize_to_disk = true;
  cluster.fault.enabled = true;
  cluster.fault.seed = 11;
  cluster.fault.task_failure_probability = 0.10;
  cluster.fault.corruption_probability = 0.05;
  cluster.admission.max_concurrent_queries = 2;
  cluster.admission.max_queue_depth = 16;
  cluster.admission.queue_timeout_seconds = 30.0;
  cluster.admission.shed_enabled = true;
  cluster.admission.shed_queue_depth = 5;
  cluster.admission.degrade_queue_depth = 3;
  cluster.admission.degrade_strategy = true;
  cluster.memory.engine_budget_bytes = 256ull << 20;
  cluster.memory.query_reservation_bytes = 1 << 20;
  cluster.retry_budget.max_tokens = 10000;
  cluster.retry_budget.refill_per_second = 10000;
  cluster.watchdog.enabled = true;
  cluster.watchdog.poll_interval_seconds = 0.01;
  cluster.watchdog.progress_timeout_seconds = 10.0;
  engine_->ArmFaultInjection();
  engine_->RearmAdmission();
  engine_->RearmRetryBudget();
  engine_->RearmWatchdog();

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::atomic<int> succeeded{0};
  std::atomic<int> shed{0};
  std::atomic<int> failed{0};
  std::atomic<int> wrong_rows{0};
  std::mutex prefix_mu;
  std::vector<std::string> spill_prefixes;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (int i = 0; i < kPerClient; ++i) {
        const int v = (c + i) % 5;
        QueryContext ctx("chaos-" + std::to_string(c) + "-" +
                         std::to_string(i));
        ctx.priority = static_cast<QueryPriority>(c % 3);
        ctx.estimated_memory_bytes =
            EstimateQueryReservationBytes(JoinQuery(1 + v), engine_.get());
        {
          std::lock_guard<std::mutex> lock(prefix_mu);
          spill_prefixes.push_back(ctx.SpillFilePrefix());
        }
        auto ticket = engine_->admission().Admit(&ctx);
        if (!ticket.ok()) {
          if (ticket.status().message().find("shed") != std::string::npos) {
            ++shed;
          } else {
            ++failed;
          }
          continue;
        }
        WatchdogRegistration watched(&engine_->watchdog(), &ctx);
        auto optimizer = ApplyStrategyDowngrade(
            std::make_unique<DynamicOptimizer>(engine_.get()), engine_.get(),
            &ctx);
        optimizer->set_context(&ctx);
        auto run = RunWithRecovery(optimizer.get(), engine_.get(),
                                   JoinQuery(1 + v), RecoveryPolicy{});
        ticket->Release();
        if (!run.ok()) {
          ++failed;
          continue;
        }
        std::vector<Row> rows = std::move(run->rows);
        SortRows(&rows);
        if (rows != expected[static_cast<size_t>(v)]) ++wrong_rows;
        ++succeeded;
      }
    });
  }
  for (auto& t : clients) t.join();

  // Under this fault rate with a generous budget and 5 recovery attempts,
  // the bulk of the traffic completes — and completes CORRECTLY.
  EXPECT_EQ(wrong_rows.load(), 0);
  EXPECT_GT(succeeded.load(), 0);
  EXPECT_EQ(succeeded + shed + failed, kClients * kPerClient);

  // Nothing leaked: no slots, no waiters, no reservation bytes, no temp
  // tables, no spill/materialization files.
  EXPECT_EQ(engine_->admission().running(), 0);
  EXPECT_EQ(engine_->admission().queued(), 0);
  EXPECT_EQ(engine_->memory().used(), 0u);
  EXPECT_EQ(engine_->watchdog().stall_kills(), 0u);
  EXPECT_EQ(TempTableCount(), 0);
  for (const auto& prefix : spill_prefixes) {
    EXPECT_EQ(CountFilesWithPrefix(spill_dir_, prefix), 0) << prefix;
  }
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, ""), 0)
      << "stray files left in the spill directory";
  engine_->DisarmFaultInjection();
}

}  // namespace
}  // namespace dynopt
