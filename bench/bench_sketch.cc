// Predicate-transfer and sketch-planning benchmark: what do the Bloom
// sideways pushdown and the Fast-AGMS join estimates buy, and what do
// they cost?
//
// Section A — transfer. A star-ish workload whose probe sides carry many
// rows that can never find a build partner. With predicate transfer off
// the full probe side enters the shuffle; with it on, the build side's
// key filter prunes those rows before Repartition. The same A/B runs on
// TPC-H Q9, one of the paper's evaluation queries, where the filtered
// part/orders intermediates prune most of lineitem. Each cell reports
// shuffled bytes, the filter bytes shipped and the probe bytes pruned.
//
// Section B — chain. The seven strategies on bench_feedback's four-table
// misestimation chain (correlated predicates + hot key). sketch-dynamic
// re-optimizes from AGMS estimates at every materialization checkpoint,
// so it must not lose to the best of the existing dynamic strategies.
//
// Every comparison cell is verified (same rows, pruning actually
// happened, expected sim-seconds ordering) with DYNOPT_CHECK — the
// benchmark doubles as an acceptance test.
//
// Usage: bench_sketch [--out <path>]   Writes BENCH_sketch.json.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "storage/serde.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace bench {
namespace {

struct Cell {
  std::string section;
  std::string config;
  std::string optimizer;
  std::string plan;
  double sim_seconds = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t pt_filter_bytes = 0;
  uint64_t pt_pruned_rows = 0;
  uint64_t pt_pruned_bytes = 0;
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
  cell.bytes_shuffled = result.metrics.bytes_shuffled;
  cell.pt_filter_bytes = result.metrics.pt_filter_bytes;
  cell.pt_pruned_rows = result.metrics.pt_pruned_rows;
  cell.pt_pruned_bytes = result.metrics.pt_pruned_bytes;
  cell.rows = result.rows.size();

  AddRecord(MakeRecord("sketch/" + section + "/" + config, section, 0,
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

// ---- Section A: predicate transfer prunes the shuffle -------------------

/// Three tables d-e-w. d's filter keeps keys ≡ 3 (mod 10), so 90% of e's
/// probe rows can never find a partner; d.pad is projected so the
/// filtered build stays over the broadcast threshold and every join is a
/// hash shuffle (predicate transfer only applies there).
void BuildTransferTables(Engine* engine) {
  {
    std::vector<Row> rows;
    for (int i = 0; i < 30000; ++i) {
      rows.push_back({Value(int64_t{i}), Value(int64_t{i % 10}),
                      Value(std::string(100, 'd'))});
    }
    AddTable(engine, "d",
             Schema({{"d_k", ValueType::kInt64},
                     {"cat", ValueType::kInt64},
                     {"pad", ValueType::kString}}),
             rows, {"d_k", "cat"});
  }
  {
    // e.d_k spans [0, 20000): after d's filter only keys ≡ 3 (mod 10)
    // survive, so 90% of e is shuffled for nothing without transfer.
    std::vector<Row> rows;
    for (int i = 0; i < 40000; ++i) {
      rows.push_back({Value(int64_t{i % 20000}), Value(int64_t{i}),
                      Value(std::string(64, 'e'))});
    }
    AddTable(engine, "e",
             Schema({{"d_k", ValueType::kInt64},
                     {"e_j", ValueType::kInt64},
                     {"pad", ValueType::kString}}),
             rows, {"d_k", "e_j"});
  }
  {
    std::vector<Row> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value(int64_t{i}), Value(std::string(48, 'w'))});
    }
    AddTable(engine, "w",
             Schema({{"w_j", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"w_j"});
  }
}

QuerySpec TransferQuery() {
  QuerySpec spec;
  spec.tables = {{"d", "d", false, true, {}},
                 {"e", "e", false, false, {}},
                 {"w", "w", false, false, {}}};
  spec.predicates = {{"d", Eq(Col("d", "cat"), Lit(Value(int64_t{3})))}};
  spec.joins = {{"d", "e", {{"d.d_k", "e.d_k"}}},
                {"e", "w", {{"e.e_j", "w.w_j"}}}};
  spec.projections = {"d.cat", "d.pad", "e.e_j", "w.w_j"};
  spec.NormalizeJoins();
  return spec;
}

std::vector<Cell> RunTransferSection() {
  Engine engine;
  BuildTransferTables(&engine);
  const QuerySpec spec = TransferQuery();

  std::vector<Cell> cells;
  std::vector<Row> reference;
  for (bool transfer : {false, true}) {
    engine.mutable_cluster().sketch.enable_predicate_transfer = transfer;
    DynamicOptimizer optimizer(&engine);
    auto result = optimizer.Run(spec);
    DYNOPT_CHECK(result.ok());
    if (!transfer) {
      reference = SortedRows(result.value());
    } else {
      // Bloom filters have no false negatives: the result is identical.
      DYNOPT_CHECK(SortedRows(result.value()) == reference);
    }
    cells.push_back(MakeCell("transfer", transfer ? "pt-on" : "pt-off",
                             "dynamic", result.value()));
  }
  engine.mutable_cluster().sketch.enable_predicate_transfer = false;

  DYNOPT_CHECK(cells[0].pt_pruned_bytes == 0);
  DYNOPT_CHECK(cells[0].pt_filter_bytes == 0);
  DYNOPT_CHECK(cells[1].pt_pruned_rows > 0);
  DYNOPT_CHECK(cells[1].pt_pruned_bytes > 0);
  // The shuffle shrank by more than the filters cost to ship.
  DYNOPT_CHECK(cells[1].bytes_shuffled < cells[0].bytes_shuffled);
  DYNOPT_CHECK(cells[1].bytes_shuffled + cells[1].pt_filter_bytes <
               cells[0].bytes_shuffled);
  return cells;
}

std::vector<Cell> RunTransferQ9Section() {
  // A paper evaluation query: TPC-H Q9 at bench sf, where the filtered
  // part and orders intermediates prune most of lineitem's shuffle.
  Engine engine;
  TpchOptions tpch;
  tpch.sf = GeneratorSfForPaperSf(10);
  DYNOPT_CHECK(LoadTpch(&engine, tpch).ok());
  auto query = TpchQ9(&engine);
  DYNOPT_CHECK(query.ok());

  std::vector<Cell> cells;
  std::vector<Row> reference;
  for (bool transfer : {false, true}) {
    engine.mutable_cluster().sketch.enable_predicate_transfer = transfer;
    DynamicOptimizer optimizer(&engine);
    auto result = optimizer.Run(query.value());
    DYNOPT_CHECK(result.ok());
    if (!transfer) {
      reference = SortedRows(result.value());
    } else {
      DYNOPT_CHECK(SortedRows(result.value()) == reference);
    }
    cells.push_back(MakeCell("transfer-q9", transfer ? "pt-on" : "pt-off",
                             "dynamic", result.value()));
  }

  DYNOPT_CHECK(cells[1].pt_pruned_rows > 0);
  DYNOPT_CHECK(cells[1].pt_pruned_bytes > 0);
  DYNOPT_CHECK(cells[1].bytes_shuffled < cells[0].bytes_shuffled);
  return cells;
}

// ---- Section B: sketch-dynamic on the misestimation chain ---------------

/// bench_feedback's Section-B tables: f carries two perfectly correlated
/// predicates (independence underestimates 10x), the g2/h2 join shares a
/// hot value on 30% of each side (the ndv quotient misses ~100x), and
/// wide i punishes a misplanned tail.
void BuildChainTables(Engine* engine) {
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
    std::vector<Row> rows;
    for (int i = 0; i < 20000; ++i) {
      rows.push_back({Value(int64_t{i}), Value(std::string(48, 'i'))});
    }
    AddTable(engine, "i",
             Schema({{"i_j", ValueType::kInt64}, {"pad", ValueType::kString}}),
             rows, {"i_j"});
  }
}

QuerySpec ChainQuery() {
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

std::vector<Cell> RunChainSection() {
  Engine engine;
  BuildChainTables(&engine);
  const QuerySpec spec = ChainQuery();

  std::vector<Cell> cells;
  std::vector<Row> reference;
  std::shared_ptr<const JoinTree> hint;
  for (const char* name : kOptimizers) {
    std::unique_ptr<Optimizer> optimizer;
    if (std::strcmp(name, "dynamic") == 0) {
      optimizer = std::make_unique<DynamicOptimizer>(&engine);
    } else if (std::strcmp(name, "best-order") == 0) {
      DYNOPT_CHECK(hint != nullptr);  // dynamic runs first.
      optimizer = std::make_unique<BestOrderOptimizer>(&engine, hint);
    } else if (std::strcmp(name, "cost-based") == 0) {
      optimizer = std::make_unique<StaticCostBasedOptimizer>(&engine);
    } else if (std::strcmp(name, "pilot-run") == 0) {
      optimizer = std::make_unique<PilotRunOptimizer>(&engine);
    } else if (std::strcmp(name, "ingres-like") == 0) {
      optimizer = std::make_unique<IngresLikeOptimizer>(&engine);
    } else if (std::strcmp(name, "worst-order") == 0) {
      optimizer = std::make_unique<WorstOrderOptimizer>(&engine);
    } else {
      DYNOPT_CHECK(std::strcmp(name, "sketch-dynamic") == 0);
      optimizer = std::make_unique<SketchDynamicOptimizer>(&engine);
    }
    auto result = optimizer->Run(spec);
    DYNOPT_CHECK(result.ok());
    if (cells.empty()) {
      reference = SortedRows(result.value());
      hint = result->join_tree;
    } else {
      DYNOPT_CHECK(SortedRows(result.value()) == reference);
    }
    cells.push_back(MakeCell("chain", name, name, result.value()));
  }

  // The acceptance claim: re-planning from AGMS estimates at each
  // checkpoint is at least as good as the best existing dynamic strategy
  // on a chain built to fool the formula-based estimators.
  double best_dynamic = -1;
  double sketch = -1;
  for (const Cell& c : cells) {
    if (c.optimizer == "dynamic" || c.optimizer == "ingres-like" ||
        c.optimizer == "pilot-run") {
      if (best_dynamic < 0 || c.sim_seconds < best_dynamic) {
        best_dynamic = c.sim_seconds;
      }
    }
    if (c.optimizer == "sketch-dynamic") sketch = c.sim_seconds;
  }
  DYNOPT_CHECK(best_dynamic > 0 && sketch > 0);
  DYNOPT_CHECK(sketch <= best_dynamic);
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
       << ", \"bytes_shuffled\": " << c.bytes_shuffled
       << ", \"pt_filter_bytes\": " << c.pt_filter_bytes
       << ", \"pt_pruned_rows\": " << c.pt_pruned_rows
       << ", \"pt_pruned_bytes\": " << c.pt_pruned_bytes
       << ", \"rows\": " << c.rows << ", \"plan\": \"" << c.plan << "\"}";
  }
  os << "\n  ]" << (trailing_comma ? ",\n" : "\n");
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_sketch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== bench_sketch: predicate transfer + sketch planning ===\n");
  const std::vector<Cell> transfer = RunTransferSection();
  const std::vector<Cell> transfer_q9 = RunTransferQ9Section();
  const std::vector<Cell> chain = RunChainSection();

  auto print = [](const char* section, const std::vector<Cell>& cells) {
    for (const Cell& c : cells) {
      std::printf("%-12s %-14s sim=%9.3fs shuffled=%9llu B filter=%6llu B "
                  "pruned=%7llu rows / %9llu B  %s\n",
                  section, c.config.c_str(), c.sim_seconds,
                  static_cast<unsigned long long>(c.bytes_shuffled),
                  static_cast<unsigned long long>(c.pt_filter_bytes),
                  static_cast<unsigned long long>(c.pt_pruned_rows),
                  static_cast<unsigned long long>(c.pt_pruned_bytes),
                  c.plan.c_str());
    }
  };
  print("transfer", transfer);
  print("transfer-q9", transfer_q9);
  print("chain", chain);

  std::ofstream json(out_path);
  json << "{\n  \"benchmark\": \"sketch\",\n";
  WriteCells(json, "transfer", transfer, true);
  WriteCells(json, "transfer_q9", transfer_q9, true);
  WriteCells(json, "chain", chain, true);
  json << "  \"records\": " << RecordsToJson() << "\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::bench::Main(argc, argv); }
