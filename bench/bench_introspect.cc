// Introspection-plane benchmark: what does the live sys.* / profile
// archive cost, and what does the regression detector buy?
//
// Section A — overhead. TPC-H Q9 run with introspection off and on.
// Simulated seconds must be bit-identical (the plane observes, it never
// participates); the cell reports the wall-clock delta, i.e. the real
// price of fingerprinting + critical-path extraction + archiving.
//
// Section B — sys scans. `SELECT * FROM sys.metrics` / sys.queries through
// the SQL front end: metered at exactly zero simulated seconds, with the
// wall cost of materializing the snapshot reported.
//
// Section C — archive bound. 4x archive_capacity distinct queries; the
// ring must hold exactly capacity entries and its ApproxBytes stays
// bounded — the archive cannot grow with workload size.
//
// Section D — regression demo. The same 3-table query under dynamic
// (small-first) and then worst-order (builds the exploding intermediate
// first): the slow run must be flagged against the archived fast one, and
// the note must name the first diverging decision.
//
// Every claim is enforced with DYNOPT_CHECK — the benchmark doubles as an
// acceptance test.
//
// Usage: bench_introspect [--out <path>]   Writes BENCH_introspect.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "common/random.h"
#include "opt/dynamic_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/profile_archive.h"
#include "sql/binder.h"
#include "sys/system_tables.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace bench {
namespace {

struct Cell {
  std::string section;
  std::string config;
  double sim_seconds = 0;
  double wall_seconds = 0;
  uint64_t rows = 0;
  uint64_t archived = 0;
  uint64_t archive_bytes = 0;
  std::string note;
};

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AddIntrospectRecord(const Cell& c) {
  Record record;
  record.figure = "introspect/" + c.section + "/" + c.config;
  record.query = c.section;
  record.metrics.simulated_seconds = c.sim_seconds;
  record.wall_seconds = c.wall_seconds;
  record.rows = c.rows;
  record.plan = c.note;
  AddRecord(std::move(record));
}

// ---- Section A: the plane observes, it never participates ---------------

std::vector<Cell> RunOverheadSection() {
  std::vector<Cell> cells;
  double sim_off = -1;
  for (bool on : {false, true}) {
    Engine engine;
    TpchOptions tpch;
    tpch.sf = 0.2;
    DYNOPT_CHECK(LoadTpch(&engine, tpch).ok());
    if (on) {
      EnableIntrospection(&engine);
      // Tracing feeds the critical-path extractor; it never touches
      // ExecMetrics, so the identical-sim check below still holds.
      Tracer::Global().Enable();
    }
    auto query = TpchQ9(&engine);
    DYNOPT_CHECK(query.ok());

    Cell cell;
    cell.section = "overhead";
    cell.config = on ? "introspection-on" : "introspection-off";
    const double start = WallNow();
    constexpr int kRuns = 5;
    for (int i = 0; i < kRuns; ++i) {
      DynamicOptimizer optimizer(&engine);
      auto result = optimizer.Run(query.value());
      DYNOPT_CHECK(result.ok());
      cell.sim_seconds = result->metrics.simulated_seconds;
      cell.rows = result->rows.size();
    }
    cell.wall_seconds = (WallNow() - start) / kRuns;
    if (!on) {
      sim_off = cell.sim_seconds;
    } else {
      // Identical metering with the plane armed.
      DYNOPT_CHECK(cell.sim_seconds == sim_off);
      ProfileArchive* archive = EngineProfileArchive(&engine);
      DYNOPT_CHECK(archive != nullptr && archive->NumArchived() == kRuns);
      cell.archived = archive->NumArchived();
      cell.archive_bytes = archive->ApproxBytes();
      cell.note = archive->Snapshot().back().critical_path;
      DYNOPT_CHECK(!cell.note.empty());  // Traced run => dominant chain.
      Tracer::Global().Disable();
    }
    cells.push_back(cell);
    AddIntrospectRecord(cell);
  }
  return cells;
}

// ---- Section B: sys.* scans are free in simulated time ------------------

std::vector<Cell> RunSysScanSection() {
  Engine engine;
  TpchOptions tpch;
  tpch.sf = 0.2;
  DYNOPT_CHECK(LoadTpch(&engine, tpch).ok());
  EnableIntrospection(&engine);
  // Something to introspect: a couple of completed queries.
  auto query = TpchQ9(&engine);
  DYNOPT_CHECK(query.ok());
  for (int i = 0; i < 2; ++i) {
    DynamicOptimizer optimizer(&engine);
    DYNOPT_CHECK(optimizer.Run(query.value()).ok());
  }

  std::vector<Cell> cells;
  for (const char* table : {"sys.metrics", "sys.queries", "sys.decisions"}) {
    auto spec = ParseAndBind(std::string("SELECT * FROM ") + table,
                             engine.catalog());
    DYNOPT_CHECK(spec.ok());
    Cell cell;
    cell.section = "sys-scan";
    cell.config = table;
    const double start = WallNow();
    DynamicOptimizer optimizer(&engine);
    auto result = optimizer.Run(spec.value());
    cell.wall_seconds = WallNow() - start;
    DYNOPT_CHECK(result.ok());
    DYNOPT_CHECK(result->metrics.simulated_seconds == 0.0);
    DYNOPT_CHECK(!result->rows.empty());
    cell.sim_seconds = result->metrics.simulated_seconds;
    cell.rows = result->rows.size();
    cells.push_back(cell);
    AddIntrospectRecord(cell);
  }
  return cells;
}

// ---- Sections C and D: archive bound + regression demo ------------------

void LoadSkewTables(Engine* engine) {
  Rng rng(7);
  auto load = [&](const std::string& name, int rows) {
    auto t = std::make_shared<Table>(
        name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
        engine->cluster().num_nodes);
    DYNOPT_CHECK(t->SetPartitionKey({"k"}).ok());
    for (int i = 0; i < rows; ++i) {
      const Row row = {Value(rng.NextInt64(0, 99)), Value(rng.NextInt64(0, 9))};
      DYNOPT_CHECK(t->AppendRow(row).ok());
    }
    DYNOPT_CHECK(engine->catalog().RegisterTable(t).ok());
    DYNOPT_CHECK(engine->CollectBaseStats(name, {"k", "v"}).ok());
  };
  load("s", 10);
  load("b", 1000);
  load("c", 1000);
}

std::vector<Cell> RunArchiveBoundSection() {
  Engine engine;
  engine.mutable_cluster().introspection.enabled = true;
  engine.mutable_cluster().introspection.archive_capacity = 16;
  InstallSystemTables(&engine);
  LoadSkewTables(&engine);

  const size_t capacity = engine.cluster().introspection.archive_capacity;
  for (int i = 0; i < static_cast<int>(capacity) * 4; ++i) {
    QuerySpec spec;
    spec.tables = {{"b", "b", false, false, {}}};
    spec.projections = {"b.v"};
    spec.limit = i + 1;  // Distinct shape per run => distinct fingerprint.
    DynamicOptimizer optimizer(&engine);
    DYNOPT_CHECK(optimizer.Run(spec).ok());
  }
  ProfileArchive* archive = EngineProfileArchive(&engine);
  DYNOPT_CHECK(archive != nullptr);
  DYNOPT_CHECK(archive->NumArchived() == capacity);

  Cell cell;
  cell.section = "archive-bound";
  cell.config = "capacity-" + std::to_string(capacity);
  cell.rows = capacity * 4;
  cell.archived = archive->NumArchived();
  cell.archive_bytes = archive->ApproxBytes();
  AddIntrospectRecord(cell);
  return {cell};
}

std::vector<Cell> RunRegressionSection() {
  Engine engine;
  engine.mutable_cluster().introspection.enabled = true;
  InstallSystemTables(&engine);
  LoadSkewTables(&engine);

  QuerySpec chain;
  chain.tables = {{"s", "s", false, false, {}},
                  {"b", "b", false, false, {}},
                  {"c", "c", false, false, {}}};
  chain.joins = {{"s", "b", {{"s.k", "b.k"}}}, {"b", "c", {{"b.k", "c.k"}}}};
  chain.projections = {"s.v", "b.v", "c.v"};
  chain.NormalizeJoins();

  std::vector<Cell> cells;
  DynamicOptimizer dynamic(&engine);
  auto fast = dynamic.Run(chain);
  DYNOPT_CHECK(fast.ok());
  Cell fast_cell;
  fast_cell.section = "regression";
  fast_cell.config = "dynamic-baseline";
  fast_cell.sim_seconds = fast->metrics.simulated_seconds;
  fast_cell.rows = fast->rows.size();
  cells.push_back(fast_cell);
  AddIntrospectRecord(fast_cell);

  WorstOrderOptimizer worst(&engine);
  auto slow = worst.Run(chain);
  DYNOPT_CHECK(slow.ok());
  DYNOPT_CHECK(slow->profile != nullptr);
  const std::string& note = slow->profile->regression_note;
  DYNOPT_CHECK(!note.empty());
  DYNOPT_CHECK(note.find("first divergent decision") != std::string::npos);
  Cell slow_cell;
  slow_cell.section = "regression";
  slow_cell.config = "worst-order-regressed";
  slow_cell.sim_seconds = slow->metrics.simulated_seconds;
  slow_cell.rows = slow->rows.size();
  slow_cell.note = note;
  cells.push_back(slow_cell);
  AddIntrospectRecord(slow_cell);
  return cells;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void WriteCells(std::ostream& os, const std::string& key,
                const std::vector<Cell>& cells, bool trailing_comma) {
  os << "  \"" << key << "\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    os << (i > 0 ? ",\n" : "") << "    {\"section\": \"" << c.section
       << "\", \"config\": \"" << c.config
       << "\", \"sim_seconds\": " << c.sim_seconds
       << ", \"wall_seconds\": " << c.wall_seconds << ", \"rows\": " << c.rows
       << ", \"archived\": " << c.archived
       << ", \"archive_bytes\": " << c.archive_bytes << ", \"note\": \""
       << JsonEscape(c.note) << "\"}";
  }
  os << "\n  ]" << (trailing_comma ? ",\n" : "\n");
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_introspect.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== bench_introspect: sys.* catalog + profile archive ===\n");
  const std::vector<Cell> overhead = RunOverheadSection();
  const std::vector<Cell> sys_scan = RunSysScanSection();
  const std::vector<Cell> archive = RunArchiveBoundSection();
  const std::vector<Cell> regression = RunRegressionSection();

  auto print = [](const std::vector<Cell>& cells) {
    for (const Cell& c : cells) {
      std::printf("%-14s %-24s sim=%9.3fs wall=%8.4fs rows=%7llu "
                  "archived=%3llu (%llu B) %s\n",
                  c.section.c_str(), c.config.c_str(), c.sim_seconds,
                  c.wall_seconds, static_cast<unsigned long long>(c.rows),
                  static_cast<unsigned long long>(c.archived),
                  static_cast<unsigned long long>(c.archive_bytes),
                  c.note.c_str());
    }
  };
  print(overhead);
  print(sys_scan);
  print(archive);
  print(regression);

  std::ofstream json(out_path);
  json << "{\n  \"benchmark\": \"introspect\",\n";
  WriteCells(json, "overhead", overhead, true);
  WriteCells(json, "sys_scan", sys_scan, true);
  WriteCells(json, "archive_bound", archive, true);
  WriteCells(json, "regression", regression, true);
  json << "  \"records\": " << RecordsToJson() << "\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::bench::Main(argc, argv); }
