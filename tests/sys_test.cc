// The live introspection plane end to end:
//  - every sys.* virtual table answers `SELECT *` through the SQL front
//    end under all seven strategies;
//  - sys scans are metered at zero simulated cost, and turning
//    introspection on does not change a query's simulated time;
//  - metrics registries are engine-scoped (two engines do not share
//    counters);
//  - every view of a run reads one copy of its metrics: the archived
//    entry equals the returned result under all seven strategies, and
//    sys.queries has one column per ExecMetrics field;
//  - the profile archive is a bounded ring keyed by a stable logical
//    fingerprint;
//  - the critical-path extractor picks the dominant sim-seconds chain;
//  - the plan-regression detector names the first diverging decision and
//    the error-store prior that drove it, in both sys.decisions and
//    EXPLAIN ANALYZE.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/critical_path.h"
#include "opt/dynamic_optimizer.h"
#include "opt/explain.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/profile_archive.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "sql/binder.h"
#include "sys/system_tables.h"

namespace dynopt {
namespace {

class SysTest : public ::testing::Test {
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

  static QuerySpec ChainQuery() {
    QuerySpec spec;
    spec.tables = {{"x", "x", false, false, {}},
                   {"y", "y", false, false, {}},
                   {"z", "z", false, false, {}}};
    spec.joins = {{"x", "y", {{"x.k", "y.k"}}}, {"y", "z", {{"y.k", "z.k"}}}};
    spec.projections = {"x.v", "y.v", "z.v"};
    spec.NormalizeJoins();
    return spec;
  }

  void SetUp() override {
    engine_ = std::make_unique<Engine>();
    EnableIntrospection(engine_.get());
    LoadTables(engine_.get());
  }

  std::unique_ptr<Engine> engine_;
};

int ColumnIndex(const std::vector<std::string>& columns,
                const std::string& suffix) {
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string& c = columns[i];
    if (c == suffix ||
        (c.size() > suffix.size() &&
         c.compare(c.size() - suffix.size(), suffix.size(), suffix) == 0 &&
         c[c.size() - suffix.size() - 1] == '.')) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

TEST_F(SysTest, EverySysTableQueryableUnderAllSevenStrategies) {
  // One completed query so sys.queries / sys.decisions have rows.
  QuerySpec chain = ChainQuery();
  DynamicOptimizer seed(engine_.get());
  ASSERT_TRUE(seed.Run(chain).ok());

  for (const std::string& table : SystemTableNames()) {
    auto spec = ParseAndBind("SELECT * FROM " + table, engine_->catalog());
    ASSERT_TRUE(spec.ok()) << table << ": " << spec.status().ToString();

    auto check = [&](Optimizer* opt) {
      auto result = opt->Run(*spec);
      ASSERT_TRUE(result.ok())
          << table << " under " << opt->name() << ": "
          << result.status().ToString();
      EXPECT_FALSE(result->columns.empty()) << table << " " << opt->name();
      if (table == "sys.metrics" || table == "sys.admission" ||
          table == "sys.memory" || table == "sys.queries") {
        EXPECT_GT(result->rows.size(), 0u) << table << " " << opt->name();
      }
    };
    DynamicOptimizer dynamic(engine_.get());
    check(&dynamic);
    BestOrderOptimizer best(engine_.get(), nullptr);
    check(&best);
    StaticCostBasedOptimizer cost_based(engine_.get());
    check(&cost_based);
    PilotRunOptimizer pilot(engine_.get());
    check(&pilot);
    IngresLikeOptimizer ingres(engine_.get());
    check(&ingres);
    WorstOrderOptimizer worst(engine_.get());
    check(&worst);
    SketchDynamicOptimizer sketch(engine_.get());
    check(&sketch);
  }
}

TEST_F(SysTest, SysScansAreMeteredAtZeroSimulatedCost) {
  auto spec = ParseAndBind("SELECT * FROM sys.metrics", engine_->catalog());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  DynamicOptimizer dynamic(engine_.get());
  auto result = dynamic.Run(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows.size(), 0u);
  EXPECT_DOUBLE_EQ(result->metrics.simulated_seconds, 0.0);
}

TEST_F(SysTest, IntrospectionOnDoesNotChangeSimulatedTime) {
  QuerySpec chain = ChainQuery();
  auto plain = std::make_unique<Engine>();
  LoadTables(plain.get());
  DynamicOptimizer off(plain.get());
  auto a = off.Run(chain);
  ASSERT_TRUE(a.ok());

  DynamicOptimizer on(engine_.get());  // fixture engine: introspection on
  auto b = on.Run(chain);
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->metrics.simulated_seconds, b->metrics.simulated_seconds);
  EXPECT_EQ(a->metrics.bytes_shuffled, b->metrics.bytes_shuffled);
}

TEST_F(SysTest, MetricsRegistriesAreEngineScoped) {
  auto other = std::make_unique<Engine>();
  LoadTables(other.get());
  Counter* other_decisions =
      other->metrics_registry().counter("query.num_decisions");
  const uint64_t other_before = other_decisions->value();

  QuerySpec chain = ChainQuery();
  DynamicOptimizer dynamic(engine_.get());
  ASSERT_TRUE(dynamic.Run(chain).ok());

  EXPECT_GT(
      engine_->metrics_registry().counter("query.num_decisions")->value(),
      0u);
  // A run on one engine must not bleed into another engine's registry.
  EXPECT_EQ(other_decisions->value(), other_before);
}

// The archive (what sys.queries shows and the regression detector
// compares) holds the metrics the run returned, and rows_out counts the
// returned rows — under all seven strategies, on a fresh engine (so
// sketch-dynamic pays for its base sketches in the run) and on a one-join
// query (pilot-run's single-job path).
TEST_F(SysTest, ArchiveHoldsTheReturnedMetricsUnderAllSevenStrategies) {
  QuerySpec one_join;
  one_join.tables = {{"x", "x", false, false, {}},
                     {"y", "y", false, false, {}}};
  one_join.joins = {{"x", "y", {{"x.k", "y.k"}}}};
  one_join.projections = {"x.v", "y.v"};
  one_join.NormalizeJoins();
  for (const QuerySpec& spec : {ChainQuery(), one_join}) {
    auto engine = std::make_unique<Engine>();
    EnableIntrospection(engine.get());
    LoadTables(engine.get());
    ProfileArchive* archive = EngineProfileArchive(engine.get());
    ASSERT_NE(archive, nullptr);
    auto check = [&](Optimizer* opt) {
      auto result = opt->Run(spec);
      ASSERT_TRUE(result.ok()) << opt->name() << ": "
                               << result.status().ToString();
      EXPECT_EQ(result->metrics.rows_out, result->rows.size()) << opt->name();
      const ArchivedQuery archived = archive->Snapshot().back();
      EXPECT_EQ(archived.optimizer, opt->name());
      EXPECT_EQ(archived.metrics.simulated_seconds,
                result->metrics.simulated_seconds)
          << opt->name();
      EXPECT_EQ(MeteringDiff(archived.metrics, result->metrics), "")
          << opt->name();
    };
    SketchDynamicOptimizer sketch(engine.get());
    check(&sketch);
    DynamicOptimizer dynamic(engine.get());
    check(&dynamic);
    auto hint = DynamicOptimizer(engine.get()).Run(spec);
    ASSERT_TRUE(hint.ok());
    BestOrderOptimizer best(engine.get(), hint->join_tree);
    check(&best);
    StaticCostBasedOptimizer cost_based(engine.get());
    check(&cost_based);
    PilotRunOptimizer pilot(engine.get());
    check(&pilot);
    IngresLikeOptimizer ingres(engine.get());
    check(&ingres);
    WorstOrderOptimizer worst(engine.get());
    check(&worst);
  }
}

TEST_F(SysTest, QueriesHasAColumnPerMetricField) {
  DynamicOptimizer dynamic(engine_.get());
  auto run = dynamic.Run(ChainQuery());
  ASSERT_TRUE(run.ok());
  auto spec = ParseAndBind("SELECT * FROM sys.queries", engine_->catalog());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto queries = dynamic.Run(*spec);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  const int status_col = ColumnIndex(queries->columns, "status");
  ASSERT_GE(status_col, 0);
  // The chain run is the only completed query; the scan itself is running.
  const Row* completed = nullptr;
  for (const Row& row : queries->rows) {
    if (row[static_cast<size_t>(status_col)].AsString() == "completed") {
      completed = &row;
    }
  }
  ASSERT_NE(completed, nullptr);
  // The leaf pipelines' wall time is recorded like every other field.
  EXPECT_GT(run->metrics.wall_scan_seconds, 0.0);
  VisitMetricFields(
      [&](const MetricField& field, auto value) {
        const int col = ColumnIndex(queries->columns, field.name);
        ASSERT_GE(col, 0) << field.name;
        const Value& cell = (*completed)[static_cast<size_t>(col)];
        if constexpr (std::is_floating_point_v<decltype(value)>) {
          EXPECT_EQ(cell.AsDouble(), value) << field.name;
        } else {
          EXPECT_EQ(cell.AsInt64(), static_cast<int64_t>(value)) << field.name;
        }
      },
      run->metrics);
}

TEST_F(SysTest, ArchiveIsABoundedRing) {
  auto engine = std::make_unique<Engine>();
  engine->mutable_cluster().introspection.enabled = true;
  engine->mutable_cluster().introspection.archive_capacity = 3;
  InstallSystemTables(engine.get());
  LoadTables(engine.get());

  // Five distinct single-table queries (distinct fingerprints).
  for (int limit = 1; limit <= 5; ++limit) {
    QuerySpec spec;
    spec.tables = {{"x", "x", false, false, {}}};
    spec.projections = {"x.v"};
    spec.limit = limit;
    DynamicOptimizer dynamic(engine.get());
    ASSERT_TRUE(dynamic.Run(spec).ok());
  }
  ProfileArchive* archive = EngineProfileArchive(engine.get());
  ASSERT_NE(archive, nullptr);
  EXPECT_EQ(archive->NumArchived(), 3u);
  EXPECT_GT(archive->ApproxBytes(), 0u);
  // Oldest evicted first: the surviving entries are the last three runs.
  auto entries = archive->Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& e : entries) {
    EXPECT_FALSE(e.fingerprint.empty());
  }
  EXPECT_NE(entries[0].fingerprint, entries[1].fingerprint);
}

TEST_F(SysTest, FingerprintIsStableAcrossBindingsAndOrdering) {
  QuerySpec a = ChainQuery();
  QuerySpec b = ChainQuery();
  // Same prepared statement, different parameter *values*: same shape.
  a.params["p"] = Value(static_cast<int64_t>(1));
  b.params["p"] = Value(static_cast<int64_t>(99));
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(b));

  // Table and join order is canonicalized away.
  QuerySpec c = ChainQuery();
  c.params["p"] = Value(static_cast<int64_t>(1));
  std::reverse(c.tables.begin(), c.tables.end());
  std::reverse(c.joins.begin(), c.joins.end());
  EXPECT_EQ(QueryFingerprint(a), QueryFingerprint(c));

  // A different logical shape fingerprints differently.
  QuerySpec d = ChainQuery();
  d.params["p"] = Value(static_cast<int64_t>(1));
  d.limit = 10;
  EXPECT_NE(QueryFingerprint(a), QueryFingerprint(d));
}

TEST(CriticalPathTest, PicksTheDominantSimSecondsChain) {
  // One query span over two stages; the second stage dominates and has a
  // metered job below it. Children carry "sim_seconds" args, the query
  // span aggregates.
  std::vector<TraceEvent> events;
  events.push_back({"query:test", "query", 0, 100, 1, 0, {}});
  events.push_back({"stage-a", "stage", 5, 20, 1, 1, {{"sim_seconds", "0.5"}}});
  events.push_back(
      {"stage-b", "stage", 30, 60, 1, 1, {{"sim_seconds", "2.0"}}});
  events.push_back(
      {"job-x", "job", 35, 20, 1, 2, {{"sim_seconds", "1.5"}}});
  EXPECT_EQ(CriticalPath(events),
            "query:test (2.500s) -> stage-b (2.000s) -> job-x (1.500s)");

  // No metered span anywhere -> no path.
  std::vector<TraceEvent> unmetered;
  unmetered.push_back({"query:test", "query", 0, 100, 1, 0, {}});
  EXPECT_EQ(CriticalPath(unmetered), "");
  EXPECT_EQ(CriticalPath({}), "");
}

TEST_F(SysTest, RegressionDetectorNamesDivergentDecisionAndPrior) {
  // Seeded fast/slow pair of the same logical query, fed through the real
  // IntrospectionRun plumbing. The slow run's plan departs at decision #0,
  // where an error-store prior was in play.
  QuerySpec spec;
  spec.tables = {{"x", "x", false, false, {}}};
  spec.projections = {"x.v"};

  auto make_result = [&](const std::string& chosen, const std::string& prior,
                         double prior_factor, double sim) {
    OptimizerRunResult result;
    result.profile = std::make_shared<QueryProfile>();
    result.profile->optimizer = "dynamic";
    PlanDecision d;
    d.point = "join-1";
    d.chosen = chosen;
    d.estimated_rows = 100;
    d.prior_key = prior;
    d.prior_factor = prior_factor;
    int id = result.profile->decisions.Record(std::move(d));
    result.profile->decisions.SetActual(id, 300);
    result.metrics.simulated_seconds = sim;
    return result;
  };

  {
    IntrospectionRun fast(engine_.get(), spec, "dynamic", nullptr);
    auto result = make_result("(x*y)", "", 1.0, 1.0);
    fast.Complete(&result);
    EXPECT_TRUE(result.profile->regression_note.empty());
  }
  OptimizerRunResult slow_result;
  {
    IntrospectionRun slow(engine_.get(), spec, "dynamic", nullptr);
    slow_result = make_result("(z*y)", "y.k|z.k", 2.5, 5.0);
    slow.Complete(&slow_result);
  }
  const std::string& note = slow_result.profile->regression_note;
  ASSERT_FALSE(note.empty());
  EXPECT_NE(note.find("5.00x the best archived run"), std::string::npos)
      << note;
  EXPECT_NE(note.find("first divergent decision #0 join-1: (z*y) "
                      "(baseline: (x*y))"),
            std::string::npos)
      << note;
  EXPECT_NE(note.find("prior=y.k|z.k" + std::string("x2.50")),
            std::string::npos)
      << note;

  // The same verdict must be visible in EXPLAIN ANALYZE...
  auto explained = ExplainAnalyze(engine_.get(), spec, slow_result);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained->find("-- regression --"), std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("first divergent decision #0 join-1"),
            std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("prior=y.k|z.k"), std::string::npos)
      << *explained;

  // ...and in sys.decisions / sys.queries, queried through SQL.
  auto dspec =
      ParseAndBind("SELECT * FROM sys.decisions", engine_->catalog());
  ASSERT_TRUE(dspec.ok()) << dspec.status().ToString();
  DynamicOptimizer dynamic(engine_.get());
  auto decisions = dynamic.Run(*dspec);
  ASSERT_TRUE(decisions.ok()) << decisions.status().ToString();
  const int prior_col = ColumnIndex(decisions->columns, "prior_key");
  const int diverged_col = ColumnIndex(decisions->columns, "diverged");
  const int chosen_col = ColumnIndex(decisions->columns, "chosen");
  ASSERT_GE(prior_col, 0);
  ASSERT_GE(diverged_col, 0);
  ASSERT_GE(chosen_col, 0);
  bool found = false;
  for (const Row& row : decisions->rows) {
    if (row[static_cast<size_t>(diverged_col)].AsBool() &&
        row[static_cast<size_t>(chosen_col)].AsString() == "(z*y)") {
      found = true;
      EXPECT_EQ(row[static_cast<size_t>(prior_col)].AsString(), "y.k|z.k");
    }
  }
  EXPECT_TRUE(found) << "no diverged decision row in sys.decisions";

  auto qspec = ParseAndBind("SELECT * FROM sys.queries", engine_->catalog());
  ASSERT_TRUE(qspec.ok());
  auto queries = dynamic.Run(*qspec);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  const int regressed_col = ColumnIndex(queries->columns, "regressed");
  const int regression_col = ColumnIndex(queries->columns, "regression");
  ASSERT_GE(regressed_col, 0);
  ASSERT_GE(regression_col, 0);
  bool regressed_row = false;
  for (const Row& row : queries->rows) {
    if (row[static_cast<size_t>(regressed_col)].AsBool()) {
      regressed_row = true;
      EXPECT_NE(row[static_cast<size_t>(regression_col)].AsString().find(
                    "prior=y.k|z.k"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(regressed_row) << "no regressed row in sys.queries";
}

TEST_F(SysTest, RealRunsRegressAgainstAFasterArchivedPlan) {
  // End-to-end: the same query under dynamic (small-first join order) and
  // then worst-order, which knowingly builds the exploding b*c
  // intermediate first; the slower run is flagged against the archived
  // fast one and EXPLAIN ANALYZE carries the verdict.
  auto engine = std::make_unique<Engine>();
  engine->mutable_cluster().introspection.enabled = true;
  InstallSystemTables(engine.get());
  Rng rng(7);
  auto load = [&](const std::string& name, int rows) {
    auto t = std::make_shared<Table>(
        name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
        engine->cluster().num_nodes);
    ASSERT_TRUE(t->SetPartitionKey({"k"}).ok());
    for (int i = 0; i < rows; ++i) {
      t->AppendRow({Value(rng.NextInt64(0, 99)), Value(rng.NextInt64(0, 9))});
    }
    ASSERT_TRUE(engine->catalog().RegisterTable(t).ok());
    ASSERT_TRUE(engine->CollectBaseStats(name, {"k", "v"}).ok());
  };
  load("s", 10);
  load("b", 1000);
  load("c", 1000);

  QuerySpec chain;
  chain.tables = {{"s", "s", false, false, {}},
                  {"b", "b", false, false, {}},
                  {"c", "c", false, false, {}}};
  chain.joins = {{"s", "b", {{"s.k", "b.k"}}}, {"b", "c", {{"b.k", "c.k"}}}};
  chain.projections = {"s.v", "b.v", "c.v"};
  chain.NormalizeJoins();

  DynamicOptimizer dynamic(engine.get());
  auto fast = dynamic.Run(chain);
  ASSERT_TRUE(fast.ok());
  WorstOrderOptimizer worst(engine.get());
  auto slow = worst.Run(chain);
  ASSERT_TRUE(slow.ok());
  ASSERT_GT(slow->metrics.simulated_seconds,
            ProfileArchive::kRegressionThreshold *
                fast->metrics.simulated_seconds)
      << "worst-order unexpectedly competitive with dynamic";

  ASSERT_NE(slow->profile, nullptr);
  const std::string& note = slow->profile->regression_note;
  ASSERT_FALSE(note.empty());
  EXPECT_NE(note.find("best archived run"), std::string::npos) << note;
  EXPECT_NE(note.find("first divergent decision"), std::string::npos) << note;
  // Same fingerprint despite entirely different plans and strategies.
  EXPECT_EQ(slow->profile->fingerprint, fast->profile->fingerprint);

  auto explained = ExplainAnalyze(engine.get(), chain, *slow);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("-- regression --"), std::string::npos);
}

}  // namespace
}  // namespace dynopt
