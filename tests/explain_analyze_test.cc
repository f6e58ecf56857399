// EXPLAIN ANALYZE:
//  - golden-file comparison on TPC-H Q9 under the dynamic optimizer; the
//    rendered text includes only deterministic quantities (estimates,
//    actual rows, q-errors, simulated-cost counters), so any drift is a
//    real behavior change. Regenerate with DYNOPT_REGEN_GOLDEN=1.
//  - golden-file comparison on Q9 under sketch-dynamic with predicate
//    transfer enabled: the pt[...] counters and est_src=sketch provenance
//    are pinned down the same way (explain_analyze_q9_sketch.txt).
//  - golden files for Q9 under pilot-run, ingres-like and the dynamic
//    optimizer's push-down-only ablation, and for the error store's entries
//    after every strategy ran Q8 and Q9 (error_store_q8_q9.txt).
//  - all seven strategies produce a QueryProfile on TPC-DS Q17 whose
//    decision log carries estimate-vs-actual rows and a q-error.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/error_stats.h"
#include "opt/explain.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

#ifndef DYNOPT_GOLDEN_DIR
#define DYNOPT_GOLDEN_DIR "tests/golden"
#endif

namespace dynopt {
namespace {

class ExplainAnalyzeTest : public ::testing::Test {
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

Engine* ExplainAnalyzeTest::engine_ = nullptr;

/// Compares text to the named golden file, regenerating it (and skipping)
/// when DYNOPT_REGEN_GOLDEN is set.
void CompareGolden(const std::string& text, const std::string& file_name) {
  const std::string golden_path =
      std::string(DYNOPT_GOLDEN_DIR) + "/" + file_name;
  if (std::getenv("DYNOPT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << text;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run once with DYNOPT_REGEN_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str())
      << "EXPLAIN ANALYZE drifted from the golden file; if the change is "
         "intended, regenerate with DYNOPT_REGEN_GOLDEN=1";
}

TEST_F(ExplainAnalyzeTest, GoldenQ9Dynamic) {
  auto query = TpchQ9(engine_);
  ASSERT_TRUE(query.ok());
  DynamicOptimizer optimizer(engine_);
  auto result = optimizer.Run(query.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto text = ExplainAnalyze(engine_, query.value(), result.value());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  CompareGolden(text.value(), "explain_analyze_q9.txt");
}

// Sketch-dynamic on Q9 with predicate transfer on, against its own engine
// so the shared fixture engine (and the dynamic golden above) stays
// untouched by sketch collection.
TEST_F(ExplainAnalyzeTest, GoldenQ9SketchDynamic) {
  Engine engine;
  engine.mutable_cluster().sketch.enable_predicate_transfer = true;
  TpchOptions tpch;
  tpch.sf = 0.2;
  ASSERT_TRUE(LoadTpch(&engine, tpch).ok());

  auto query = TpchQ9(&engine);
  ASSERT_TRUE(query.ok());
  SketchDynamicOptimizer optimizer(&engine);
  auto result = optimizer.Run(query.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.pt_pruned_bytes, 0u);
  auto text = ExplainAnalyze(&engine, query.value(), result.value());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("est_src=sketch"), std::string::npos) << *text;
  EXPECT_NE(text->find("pt_filter="), std::string::npos) << *text;
  CompareGolden(text.value(), "explain_analyze_q9_sketch.txt");
}

// Q9 run twice on a dedicated engine with the in-memory error store armed:
// run 1 plans blind and records its q-errors, run 2 consumes them as priors
// — the decisions that did so carry a "prior=<key>x<factor>" annotation in
// EXPLAIN ANALYZE, golden-pinned like the other renderings.
TEST(ExplainAnalyzePriorTest, GoldenQ9DynamicWithPriors) {
  Engine engine;
  TpchOptions tpch;
  tpch.sf = 0.2;
  ASSERT_TRUE(LoadTpch(&engine, tpch).ok());
  // Empty error_stats_path = in-memory store: deterministic, no file I/O.
  engine.mutable_cluster().risk.use_error_store = true;

  auto query = TpchQ9(&engine);
  ASSERT_TRUE(query.ok());
  DynamicOptimizer first(&engine);
  auto seed = first.Run(query.value());
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  DynamicOptimizer second(&engine);
  auto result = second.Run(query.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto text = ExplainAnalyze(&engine, query.value(), result.value());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("prior="), std::string::npos)
      << "second run consumed no error-store prior:\n" << text.value();
  CompareGolden(text.value(), "explain_analyze_q9_prior.txt");
}

/// Runs `optimizer` on Q9 over `engine` and compares its EXPLAIN ANALYZE to
/// the named golden file.
void ExpectGoldenQ9(Engine* engine, Optimizer* optimizer,
                    const std::string& file_name) {
  auto query = TpchQ9(engine);
  ASSERT_TRUE(query.ok());
  auto result = optimizer->Run(query.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto text = ExplainAnalyze(engine, query.value(), result.value());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  CompareGolden(text.value(), file_name);
}

TEST_F(ExplainAnalyzeTest, GoldenQ9PilotRun) {
  PilotRunOptimizer optimizer(engine_);
  ExpectGoldenQ9(engine_, &optimizer, "explain_analyze_q9_pilot.txt");
}

TEST_F(ExplainAnalyzeTest, GoldenQ9IngresLike) {
  IngresLikeOptimizer optimizer(engine_);
  ExpectGoldenQ9(engine_, &optimizer, "explain_analyze_q9_ingres.txt");
}

// Figure 6's ablation: push-down stages, then the rest as one static job.
TEST_F(ExplainAnalyzeTest, GoldenQ9DynamicPushdownOnly) {
  DynamicOptimizerOptions options;
  options.stop_after_pushdown = true;
  DynamicOptimizer optimizer(engine_, options);
  ExpectGoldenQ9(engine_, &optimizer, "explain_analyze_q9_pushdown_only.txt");
}

// One run of each strategy on Q8, then on Q9, against one engine with the
// in-memory error store: later runs plan from the priors earlier runs
// recorded, and the store's entries (count, and the log q-error sum and
// the maximum as hex floats) pin what every strategy records.
TEST(ExplainAnalyzeStoreTest, GoldenErrorStoreAfterEveryStrategyOnQ8AndQ9) {
  Engine engine;
  TpchOptions tpch;
  tpch.sf = 0.2;
  ASSERT_TRUE(LoadTpch(&engine, tpch).ok());
  engine.mutable_cluster().risk.use_error_store = true;

  for (auto make_query : {TpchQ8, TpchQ9}) {
    auto query = make_query(&engine);
    ASSERT_TRUE(query.ok());
    DynamicOptimizer dynamic(&engine);
    auto dynamic_run = dynamic.Run(query.value());
    ASSERT_TRUE(dynamic_run.ok()) << dynamic_run.status().ToString();
    std::unique_ptr<Optimizer> others[] = {
        std::make_unique<BestOrderOptimizer>(&engine, dynamic_run->join_tree),
        std::make_unique<StaticCostBasedOptimizer>(&engine),
        std::make_unique<PilotRunOptimizer>(&engine),
        std::make_unique<IngresLikeOptimizer>(&engine),
        std::make_unique<WorstOrderOptimizer>(&engine),
        std::make_unique<SketchDynamicOptimizer>(&engine)};
    for (auto& optimizer : others) {
      auto result = optimizer->Run(query.value());
      ASSERT_TRUE(result.ok())
          << optimizer->name() << ": " << result.status().ToString();
    }
  }

  std::string text;
  for (const auto& [key, entry] : EngineErrorStats(&engine)->Entries()) {
    char line[512];
    std::snprintf(line, sizeof(line), "%s count=%llu sum_log_q=%a max_q=%a\n",
                  key.c_str(), static_cast<unsigned long long>(entry.count),
                  entry.sum_log_q, entry.max_q);
    text += line;
  }
  EXPECT_FALSE(text.empty());
  CompareGolden(text, "error_store_q8_q9.txt");
}

TEST_F(ExplainAnalyzeTest, AllSevenStrategiesProfileQ17) {
  auto query = TpcdsQ17(engine_);
  ASSERT_TRUE(query.ok());

  // best-order needs a hint: the plan a dynamic run discovers.
  DynamicOptimizer hint_source(engine_);
  auto hint_run = hint_source.Run(query.value());
  ASSERT_TRUE(hint_run.ok());
  std::shared_ptr<const JoinTree> hint = hint_run->join_tree;
  ASSERT_NE(hint, nullptr);

  std::unique_ptr<Optimizer> optimizers[7];
  optimizers[0] = std::make_unique<DynamicOptimizer>(engine_);
  optimizers[1] = std::make_unique<BestOrderOptimizer>(engine_, hint);
  optimizers[2] =
      std::make_unique<StaticCostBasedOptimizer>(engine_, PlannerOptions());
  optimizers[3] = std::make_unique<PilotRunOptimizer>(engine_);
  optimizers[4] =
      std::make_unique<IngresLikeOptimizer>(engine_, PlannerOptions());
  optimizers[5] =
      std::make_unique<WorstOrderOptimizer>(engine_, PlannerOptions());
  optimizers[6] = std::make_unique<SketchDynamicOptimizer>(engine_);

  for (auto& optimizer : optimizers) {
    SCOPED_TRACE(optimizer->name());
    auto result = optimizer->Run(query.value());
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Every strategy attaches a profile with at least one decision whose
    // actual cardinality was back-patched.
    ASSERT_NE(result->profile, nullptr);
    const DecisionLog& log = result->profile->decisions;
    EXPECT_GT(log.decisions().size(), 0u);
    EXPECT_GT(log.NumWithActuals(), 0u);
    EXPECT_GE(log.MaxQError(), 1.0);
    EXPECT_EQ(result->metrics.num_decisions, log.decisions().size());
    EXPECT_EQ(result->metrics.max_q_error, log.MaxQError());
    EXPECT_FALSE(result->profile->subtree_actual_rows.empty());

    auto text = ExplainAnalyze(engine_, query.value(), result.value());
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_NE(text->find("EXPLAIN ANALYZE"), std::string::npos);
    EXPECT_NE(text->find("est_rows="), std::string::npos) << *text;
    EXPECT_NE(text->find("actual_rows="), std::string::npos) << *text;
    EXPECT_NE(text->find("q_error="), std::string::npos) << *text;
    EXPECT_NE(text->find("-- decisions:"), std::string::npos);
    EXPECT_NE(text->find("-- counters --"), std::string::npos);
  }
}

TEST_F(ExplainAnalyzeTest, RejectsRunWithoutProfile) {
  auto query = TpchQ9(engine_);
  ASSERT_TRUE(query.ok());
  OptimizerRunResult bare;
  EXPECT_FALSE(ExplainAnalyze(engine_, query.value(), bare).ok());
}

}  // namespace
}  // namespace dynopt
