// Risk-aware planning benchmark: what do spill-aware costing, q-error
// feedback and the cross-query error store buy on workloads built to
// punish spill-blind, feedback-free planning?
//
// Section A — spill flip. A two-table join whose build side fits the
// broadcast threshold but not the per-node join budget. Spill-blind
// costing broadcasts the build and pays a grace-join spill at every node;
// spill-aware costing prices those passes up front and flips to shuffle.
// The section also records the cost model's predicted spill volume next
// to ExecMetrics.spilled_bytes for the spill-blind plan (model/executor
// parity).
//
// Section B — misestimation. A four-table chain whose first table carries
// two perfectly correlated predicates (independence underestimates 10x)
// and whose middle join has a hot key both estimators miss. Without
// feedback the dynamic optimizer goes static after its single
// re-optimization point and broadcasts a pair it believes is ~100KB but
// is really megabytes (overflow penalty). With error feedback the
// observed q-error buys an extra re-optimization checkpoint, the pair is
// materialized with exact counts, and the tail of the plan avoids the
// oversized broadcast.
//
// Section C — cross-query memory. The same misestimated query run twice
// through the cost-based strategy with the ErrorStatsStore enabled: run 1
// plans blind, pays the penalty and records its q-error; run 2 starts
// with the stored prior, widens the misestimated intermediate past the
// broadcast threshold and plans the shuffle directly.
//
// Every comparison cell is verified (same rows, expected plan change,
// expected sim-seconds ordering) with DYNOPT_CHECK — the benchmark
// doubles as an acceptance test.
//
// Usage: bench_feedback [--out <path>]   Writes BENCH_feedback.json.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "common/query_context.h"
#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/dynamic_optimizer.h"
#include "opt/static_optimizer.h"
#include "opt/stats_view.h"
#include "storage/serde.h"

namespace dynopt {
namespace bench {
namespace {

struct Cell {
  std::string section;
  std::string config;
  std::string optimizer;
  std::string plan;
  double sim_seconds = 0;
  uint64_t spilled_bytes = 0;
  uint64_t error_reopt_triggers = 0;
  double max_q_error = 0;
  double predicted_spill_bytes = 0;   ///< Section A only.
  double predicted_cost_seconds = 0;  ///< Section A only.
  uint64_t rows = 0;
};

Cell MakeCell(const std::string& section, const std::string& config,
              const std::string& optimizer, const OptimizerRunResult& result) {
  Cell cell;
  cell.section = section;
  cell.config = config;
  cell.optimizer = optimizer;
  cell.plan = result.join_tree != nullptr ? result.join_tree->ToString() : "";
  cell.sim_seconds = result.metrics.simulated_seconds;
  cell.spilled_bytes = result.metrics.spilled_bytes;
  cell.error_reopt_triggers = result.metrics.error_reopt_triggers;
  cell.max_q_error = result.metrics.max_q_error;
  cell.rows = result.rows.size();
  AddRecord(MakeRecord("feedback/" + section + "/" + config, section, 0,
                       optimizer, result));
  return cell;
}

std::vector<Row> SortedRows(const OptimizerRunResult& result) {
  std::vector<Row> rows = result.rows;
  SortRows(&rows);
  return rows;
}

void AddTable(Engine* engine, const std::string& name, const Schema& schema,
              const std::vector<Row>& rows,
              const std::vector<std::string>& stats_columns) {
  auto t = std::make_shared<Table>(name, schema, engine->cluster().num_nodes);
  for (const Row& row : rows) DYNOPT_CHECK(t->AppendRow(row).ok());
  DYNOPT_CHECK(engine->catalog().RegisterTable(t).ok());
  DYNOPT_CHECK(engine->CollectBaseStats(name, stats_columns).ok());
}

// ---- Section A: spill-aware costing flips broadcast to shuffle ----------

std::vector<Cell> RunSpillSection() {
  constexpr uint64_t kBudget = 64 * 1024;
  Engine engine;
  engine.mutable_cluster().memory.join_memory_budget_bytes = kBudget;

  // Build side r: ~200KB — under the 256KB broadcast threshold, far over
  // the 64KB per-node budget when replicated. Probe side s: ~3MB.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 3000; ++i) {
      rows.push_back({Value(int64_t{i}), Value(std::string(48, 'r'))});
    }
    AddTable(&engine, "r",
             Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"k"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) {
      rows.push_back({Value(int64_t{i % 3000}), Value(std::string(80, 's'))});
    }
    AddTable(&engine, "s",
             Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"k"});
  }

  QuerySpec spec;
  spec.tables = {{"r", "r", false, false, {}}, {"s", "s", false, false, {}}};
  spec.joins = {{"r", "s", {{"r.k", "s.k"}}}};
  // r.pad is projected so column pruning cannot shrink the broadcast build
  // below the budget — the trap only exists at full width.
  spec.projections = {"r.k", "r.pad", "s.pad"};
  spec.NormalizeJoins();

  std::vector<Cell> cells;
  std::vector<Row> reference;
  for (bool aware : {false, true}) {
    engine.mutable_cluster().risk.spill_aware_costing = aware;
    QueryContext ctx(aware ? "spill-aware" : "spill-blind");
    StaticCostBasedOptimizer optimizer(&engine);
    optimizer.set_context(&ctx);
    auto result = optimizer.Run(spec);
    DYNOPT_CHECK(result.ok());
    if (!aware) {
      reference = SortedRows(result.value());
    } else {
      DYNOPT_CHECK(SortedRows(result.value()) == reference);
    }
    cells.push_back(MakeCell("spill", aware ? "spill-aware" : "spill-blind",
                             "cost-based", result.value()));
  }
  engine.mutable_cluster().risk.spill_aware_costing = false;

  // Model/executor parity on the plan both knobs agree on being the
  // broadcast trap: predict the spill-blind plan's spill volume from the
  // same estimates the planner saw.
  {
    StatsView view(&spec, &engine.stats(), &engine.catalog());
    CardinalityEstimator estimator(&view);
    JoinCostInputs in;
    in.build_rows = estimator.EstimateFilteredSize("r");
    in.build_bytes = estimator.EstimateFilteredBytes("r");
    in.probe_rows = estimator.EstimateFilteredSize("s");
    in.probe_bytes = estimator.EstimateFilteredBytes("s");
    in.out_rows = estimator.EstimateJoinCardinality(spec.joins[0]);
    in.out_bytes = in.out_rows * (in.build_bytes / in.build_rows +
                                  in.probe_bytes / in.probe_rows);
    in.memory_budget_bytes = kBudget;
    const JoinCostBreakdown predicted = EstimateJoinExecCostDetail(
        JoinMethod::kBroadcast, in, engine.cluster(), in.probe_bytes);
    cells[0].predicted_spill_bytes = predicted.spilled_bytes;
    cells[0].predicted_cost_seconds = predicted.cost;
    DYNOPT_CHECK(predicted.spilled_bytes > 0);
    DYNOPT_CHECK(cells[0].spilled_bytes > 0);
    const double ratio =
        predicted.spilled_bytes / static_cast<double>(cells[0].spilled_bytes);
    DYNOPT_CHECK(ratio > 1.0 / 8 && ratio < 8.0);
  }

  // The tentpole claim: different method, lower simulated cost, no spill.
  DYNOPT_CHECK(cells[0].plan != cells[1].plan);
  DYNOPT_CHECK(cells[1].sim_seconds < cells[0].sim_seconds);
  DYNOPT_CHECK(cells[1].spilled_bytes == 0);
  return cells;
}

// ---- Section B: q-error feedback buys an extra reopt checkpoint ---------

/// Four-table chain f-g-h-i. f carries two perfectly correlated
/// predicates (c1 == c2 always); g joins f on a unique key; g and h share
/// a hot value on the g2/h2 join (30% of each side), which the
/// ndv-quotient estimator misses by ~100x.
void BuildMisestimationTables(Engine* engine) {
  {
    std::vector<Row> rows;
    for (int i = 0; i < 6000; ++i) {
      rows.push_back({Value(int64_t{i % 600}), Value(int64_t{i % 10}),
                      Value(int64_t{i % 10}), Value(std::string(40, 'f'))});
    }
    AddTable(engine, "f",
             Schema({{"f_k", ValueType::kInt64},
                     {"c1", ValueType::kInt64},
                     {"c2", ValueType::kInt64},
                     {"pad", ValueType::kString}}),
             rows, {"f_k", "c1", "c2"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 600; ++i) {
      rows.push_back({Value(int64_t{i}),
                      Value(int64_t{i < 180 ? 7 : 1000 + i})});
    }
    AddTable(engine, "g",
             Schema({{"g_k", ValueType::kInt64}, {"g2", ValueType::kInt64}}),
             rows, {"g_k", "g2"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1500; ++i) {
      rows.push_back({Value(int64_t{i < 450 ? 7 : 100000 + i}),
                      Value(int64_t{i})});
    }
    AddTable(engine, "h",
             Schema({{"h2", ValueType::kInt64}, {"h_j", ValueType::kInt64}}),
             rows, {"h2", "h_j"});
  }
  {
    // Large enough that broadcasting the (misestimated) pair looks much
    // cheaper than shuffling i; unique keys keep the final output 1:1.
    std::vector<Row> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value(int64_t{i}), Value(std::string(48, 'i'))});
    }
    AddTable(engine, "i",
             Schema({{"i_j", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"i_j"});
  }
}

QuerySpec MisestimationQuery() {
  QuerySpec spec;
  spec.tables = {{"f", "f", false, true, {}},
                 {"g", "g", false, false, {}},
                 {"h", "h", false, false, {}},
                 {"i", "i", false, false, {}}};
  spec.predicates = {{"f", Eq(Col("f", "c1"), Lit(Value(int64_t{3})))},
                     {"f", Eq(Col("f", "c2"), Lit(Value(int64_t{3})))}};
  spec.joins = {{"f", "g", {{"f.f_k", "g.g_k"}}},
                {"g", "h", {{"g.g2", "h.h2"}}},
                {"h", "i", {{"h.h_j", "i.i_j"}}}};
  spec.projections = {"f.c1", "g.g2", "h.h_j", "i.i_j"};
  spec.NormalizeJoins();
  return spec;
}

std::vector<Cell> RunFeedbackSection() {
  Engine engine;
  BuildMisestimationTables(&engine);
  const QuerySpec spec = MisestimationQuery();

  std::vector<Cell> cells;
  std::vector<Row> reference;
  for (bool feedback : {false, true}) {
    engine.mutable_cluster().risk.error_feedback = feedback;
    QueryContext ctx(feedback ? "feedback-on" : "feedback-off");
    DynamicOptimizer optimizer(&engine);
    optimizer.set_context(&ctx);
    auto result = optimizer.Run(spec);
    DYNOPT_CHECK(result.ok());
    if (!feedback) {
      reference = SortedRows(result.value());
    } else {
      DYNOPT_CHECK(SortedRows(result.value()) == reference);
    }
    cells.push_back(MakeCell("feedback", feedback ? "feedback" : "no-feedback",
                             "dynamic", result.value()));
  }
  engine.mutable_cluster().risk.error_feedback = false;

  DYNOPT_CHECK(cells[0].error_reopt_triggers == 0);
  DYNOPT_CHECK(cells[1].error_reopt_triggers >= 1);
  DYNOPT_CHECK(cells[1].sim_seconds < cells[0].sim_seconds);
  return cells;
}

// ---- Section C: the error store calibrates the *next* query -------------

std::vector<Cell> RunErrorMemorySection(const std::string& store_path) {
  Engine engine;
  std::error_code ec;
  std::filesystem::remove(store_path, ec);  // Start with no prior.

  {
    std::vector<Row> rows;
    for (int i = 0; i < 6000; ++i) {
      rows.push_back({Value(int64_t{i % 600}), Value(int64_t{i % 10}),
                      Value(int64_t{i % 10}), Value(std::string(100, 'a'))});
    }
    AddTable(&engine, "a",
             Schema({{"a_k", ValueType::kInt64},
                     {"c1", ValueType::kInt64},
                     {"c2", ValueType::kInt64},
                     {"pad", ValueType::kString}}),
             rows, {"a_k", "c1", "c2"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 3000; ++i) {
      rows.push_back({Value(int64_t{i % 600}), Value(int64_t{i})});
    }
    AddTable(&engine, "b",
             Schema({{"b_k", ValueType::kInt64}, {"b_j", ValueType::kInt64}}),
             rows, {"b_k", "b_j"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value(int64_t{i % 3000}), Value(std::string(80, 'c'))});
    }
    AddTable(&engine, "c",
             Schema({{"c_j", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"c_j"});
  }

  QuerySpec spec;
  spec.tables = {{"a", "a", false, true, {}},
                 {"b", "b", false, false, {}},
                 {"c", "c", false, false, {}}};
  spec.predicates = {{"a", Eq(Col("a", "c1"), Lit(Value(int64_t{3})))},
                     {"a", Eq(Col("a", "c2"), Lit(Value(int64_t{3})))}};
  spec.joins = {{"a", "b", {{"a.a_k", "b.b_k"}}},
                {"b", "c", {{"b.b_j", "c.c_j"}}}};
  // a.pad keeps the a-b intermediate at full width (see Section A note).
  spec.projections = {"a.c1", "a.pad", "b.b_j", "c.c_j"};
  spec.NormalizeJoins();

  engine.mutable_cluster().risk.use_error_store = true;
  engine.mutable_cluster().risk.error_stats_path = store_path;

  std::vector<Cell> cells;
  std::vector<Row> reference;
  for (int run = 1; run <= 2; ++run) {
    QueryContext ctx("error-memory-run" + std::to_string(run));
    StaticCostBasedOptimizer optimizer(&engine);
    optimizer.set_context(&ctx);
    auto result = optimizer.Run(spec);
    DYNOPT_CHECK(result.ok());
    if (run == 1) {
      reference = SortedRows(result.value());
    } else {
      DYNOPT_CHECK(SortedRows(result.value()) == reference);
    }
    cells.push_back(MakeCell("error-memory", "run" + std::to_string(run),
                             "cost-based", result.value()));
  }
  engine.mutable_cluster().risk.use_error_store = false;
  engine.mutable_cluster().risk.error_stats_path.clear();

  // Run 1 misjudged the a-b intermediate and paid the oversized broadcast;
  // run 2 read the stored q-error, widened the intermediate past the
  // broadcast threshold and planned around it.
  DYNOPT_CHECK(std::filesystem::exists(store_path));
  DYNOPT_CHECK(cells[0].max_q_error > 4.0);
  DYNOPT_CHECK(cells[0].plan != cells[1].plan);
  DYNOPT_CHECK(cells[1].sim_seconds < cells[0].sim_seconds);
  return cells;
}

// ---- JSON ---------------------------------------------------------------

void WriteCells(std::ostream& os, const char* key,
                const std::vector<Cell>& cells, bool trailing_comma) {
  os << "  \"" << key << "\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"config\": \"" << c.config
       << "\", \"optimizer\": \"" << c.optimizer
       << "\", \"sim_seconds\": " << c.sim_seconds
       << ", \"spilled_bytes\": " << c.spilled_bytes
       << ", \"error_reopt_triggers\": " << c.error_reopt_triggers
       << ", \"max_q_error\": " << c.max_q_error
       << ", \"predicted_spill_bytes\": " << c.predicted_spill_bytes
       << ", \"predicted_cost_seconds\": " << c.predicted_cost_seconds
       << ", \"rows\": " << c.rows << ", \"plan\": \"" << c.plan << "\"}";
  }
  os << "\n  ]" << (trailing_comma ? ",\n" : "\n");
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_feedback.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== bench_feedback: risk-aware planning ===\n");
  const std::vector<Cell> spill = RunSpillSection();
  const std::vector<Cell> feedback = RunFeedbackSection();
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "dynopt_bench_feedback_store")
          .string();
  const std::vector<Cell> memory = RunErrorMemorySection(store_path);
  std::error_code ec;
  std::filesystem::remove(store_path, ec);

  auto print = [](const char* section, const std::vector<Cell>& cells) {
    for (const Cell& c : cells) {
      std::printf("%-13s %-12s sim=%9.3fs spilled=%9llu B reopts=%llu "
                  "max_q=%7.1f  %s\n",
                  section, c.config.c_str(), c.sim_seconds,
                  static_cast<unsigned long long>(c.spilled_bytes),
                  static_cast<unsigned long long>(c.error_reopt_triggers),
                  c.max_q_error, c.plan.c_str());
    }
  };
  print("spill", spill);
  print("feedback", feedback);
  print("error-memory", memory);

  std::ofstream json(out_path);
  json << "{\n  \"benchmark\": \"feedback\",\n";
  WriteCells(json, "spill_costing", spill, true);
  WriteCells(json, "error_feedback", feedback, true);
  WriteCells(json, "error_memory", memory, true);
  json << "  \"records\": " << RecordsToJson() << "\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::bench::Main(argc, argv); }
