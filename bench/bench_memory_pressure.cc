// Memory-governance benchmark: what does running under a per-node join
// memory budget cost each of the six optimization strategies?
//
// Section A — budget sweep. For Q17 and Q9, the per-node join memory
// budget is swept from unlimited down to a few KB (the simulator's 256KB
// broadcast threshold stands for ~256MB of per-node join memory, so the
// smaller steps model heavily oversubscribed nodes). Joins whose build
// side exceeds the budget take the grace hash join path: both sides are
// hash-partitioned to checksummed spill files and joined recursively, and
// the extra disk passes are metered into simulated seconds. Every run's
// result set is verified against the unlimited-budget baseline — a single
// query must always complete by degrading, never with kResourceExhausted.
//
// Section B — concurrent admission. A batch of queries is pushed through
// the AdmissionController with fewer slots than queries, recording each
// query's queue wait and verifying results are unaffected by concurrency.
//
// Usage: bench_memory_pressure [--sf <paper_sf>] [--out <path>]
// Writes BENCH_memory.json.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "common/query_context.h"
#include "opt/dynamic_optimizer.h"
#include "opt/strategies.h"
#include "storage/serde.h"

namespace dynopt {
namespace bench {
namespace {

const char* const kMemoryQueries[] = {"q17", "q9"};

/// Unlimited first (the baseline), then halving steps through the 256KB
/// stand-in default down to budgets small enough to force spilling even at
/// bench scale (per-partition build sides shrink with the generator sf).
const uint64_t kBudgets[] = {0,         256 * 1024, 128 * 1024, 64 * 1024,
                             32 * 1024, 8 * 1024,   2 * 1024};

struct Reference {
  std::vector<std::string> columns;
  std::vector<Row> sorted_rows;
  std::shared_ptr<const JoinTree> tree;
};

void VerifyRows(const OptimizerRunResult& result, const Reference& reference,
                const std::string& context) {
  std::vector<Row> rows = result.rows;
  SortRows(&rows);
  if (rows != reference.sorted_rows || result.columns != reference.columns) {
    std::fprintf(stderr, "FATAL: %s diverged from unlimited-budget "
                 "reference\n", context.c_str());
    std::abort();
  }
}

struct BudgetSweepRow {
  std::string query;
  std::string optimizer;
  uint64_t budget_bytes = 0;
  double sim_seconds = 0;
  double spill_overhead_seconds = 0;  ///< vs the unlimited baseline.
  uint64_t spilled_bytes = 0;
  uint64_t spill_partitions = 0;
  uint64_t peak_memory_bytes = 0;
};

struct AdmissionRow {
  std::string query;
  int query_index = 0;
  int max_concurrent = 0;
  double queue_wait_seconds = 0;
  double sim_seconds = 0;
};

int Main(int argc, char** argv) {
  int paper_sf = 10;
  std::string out_path = "BENCH_memory.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sf") == 0 && i + 1 < argc) {
      paper_sf = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--sf <paper_sf>] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/false);
  std::printf(
      "=== bench_memory_pressure: paper_sf=%d (generator sf %.2f) ===\n",
      paper_sf, GeneratorSfForPaperSf(paper_sf));

  // ---- Section A: budget sweep ------------------------------------------
  std::vector<BudgetSweepRow> sweep_rows;
  uint64_t total_spilled = 0;
  for (const char* query_name : kMemoryQueries) {
    auto query_or = GetQuery(engine, query_name);
    DYNOPT_CHECK(query_or.ok());
    const QuerySpec query = query_or.value();

    // Unlimited-budget reference from the dynamic strategy; also supplies
    // the best-order hint.
    engine->mutable_cluster().memory.join_memory_budget_bytes = 0;
    Reference ref;
    {
      DynamicOptimizer dynamic(engine);
      auto result = dynamic.Run(query);
      DYNOPT_CHECK(result.ok());
      ref.columns = result->columns;
      ref.sorted_rows = result->rows;
      SortRows(&ref.sorted_rows);
      ref.tree = result->join_tree;
    }

    std::printf("\n-- %s: per-node join budget sweep --\n", query_name);
    // Baselines per strategy at unlimited budget, then the governed runs.
    double baseline_sim[6] = {0};
    for (uint64_t budget : kBudgets) {
      engine->mutable_cluster().memory.join_memory_budget_bytes = budget;
      for (size_t o = 0; o < 6; ++o) {
        const std::string name = kOptimizers[o];
        QueryContext ctx(std::string(query_name) + "/" + name);
        auto optimizer =
            MakeOptimizer(engine, name, PlannerOptions(), ref.tree).value();
        optimizer->set_context(&ctx);
        auto result = optimizer->Run(query);
        DYNOPT_CHECK(result.ok());  // Degrade via spill, never refuse.
        VerifyRows(result.value(), ref,
                   name + " " + query_name + " budget=" +
                       std::to_string(budget));
        if (budget == 0) baseline_sim[o] = result->metrics.simulated_seconds;

        BudgetSweepRow row;
        row.query = query_name;
        row.optimizer = name;
        row.budget_bytes = budget;
        row.sim_seconds = result->metrics.simulated_seconds;
        row.spill_overhead_seconds =
            result->metrics.simulated_seconds - baseline_sim[o];
        row.spilled_bytes = result->metrics.spilled_bytes;
        row.spill_partitions = result->metrics.spill_partitions;
        row.peak_memory_bytes = result->metrics.peak_memory_bytes;
        total_spilled += row.spilled_bytes;
        std::printf("%-12s budget=%-8llu sim=%9.3fs  overhead=%8.3fs  "
                    "spilled=%9llu B in %4llu parts  peak=%8llu B\n",
                    name.c_str(),
                    static_cast<unsigned long long>(budget),
                    row.sim_seconds, row.spill_overhead_seconds,
                    static_cast<unsigned long long>(row.spilled_bytes),
                    static_cast<unsigned long long>(row.spill_partitions),
                    static_cast<unsigned long long>(row.peak_memory_bytes));

        // No spill file may outlive its query.
        DYNOPT_CHECK(CountFilesWithPrefix(engine->cluster().spill_directory,
                                          ctx.SpillFilePrefix()) == 0);

        AddRecord(MakeRecord("memory@" + std::to_string(budget), query_name,
                             paper_sf, name, *result));
      }
    }
  }
  engine->mutable_cluster().memory.join_memory_budget_bytes = 0;
  DYNOPT_CHECK(total_spilled > 0);  // The sweep must have engaged the path.

  // Collect sweep rows back out of the records (keeps one source of truth).
  for (const Record& r : Records()) {
    if (r.figure.rfind("memory@", 0) != 0) continue;
    BudgetSweepRow row;
    row.query = r.query;
    row.optimizer = r.optimizer;
    row.budget_bytes = std::strtoull(r.figure.c_str() + 7, nullptr, 10);
    row.sim_seconds = r.metrics.simulated_seconds;
    row.spilled_bytes = r.metrics.spilled_bytes;
    row.spill_partitions = r.metrics.spill_partitions;
    row.peak_memory_bytes = r.metrics.peak_memory_bytes;
    sweep_rows.push_back(std::move(row));
  }

  // ---- Section B: concurrent admission ----------------------------------
  constexpr int kConcurrentQueries = 8;
  constexpr int kSlots = 2;
  engine->mutable_cluster().admission.max_concurrent_queries = kSlots;
  engine->mutable_cluster().admission.max_queue_depth = kConcurrentQueries;
  engine->mutable_cluster().admission.queue_timeout_seconds = 600.0;
  engine->mutable_cluster().memory.engine_budget_bytes = 256ull << 20;
  engine->mutable_cluster().memory.query_reservation_bytes = 8ull << 20;
  engine->RearmAdmission();

  std::printf("\n-- admission: %d queries through %d slots --\n",
              kConcurrentQueries, kSlots);
  Reference q17_ref;
  {
    auto query_or = GetQuery(engine, "q17");
    DYNOPT_CHECK(query_or.ok());
    DynamicOptimizer dynamic(engine);
    auto result = dynamic.Run(query_or.value());
    DYNOPT_CHECK(result.ok());
    q17_ref.columns = result->columns;
    q17_ref.sorted_rows = result->rows;
    SortRows(&q17_ref.sorted_rows);
    q17_ref.tree = result->join_tree;
  }
  std::vector<AdmissionRow> admission_rows(kConcurrentQueries);
  {
    std::vector<std::thread> threads;
    threads.reserve(kConcurrentQueries);
    for (int q = 0; q < kConcurrentQueries; ++q) {
      threads.emplace_back([&, q]() {
        auto query_or = GetQuery(engine, "q17");
        DYNOPT_CHECK(query_or.ok());
        QueryContext ctx("admitted-" + std::to_string(q));
        auto ticket = engine->admission().Admit(&ctx);
        DYNOPT_CHECK(ticket.ok());
        DynamicOptimizer optimizer(engine);
        optimizer.set_context(&ctx);
        auto result = optimizer.Run(query_or.value());
        DYNOPT_CHECK(result.ok());
        VerifyRows(result.value(), q17_ref,
                   "admitted query " + std::to_string(q));
        AdmissionRow& row = admission_rows[static_cast<size_t>(q)];
        row.query = "q17";
        row.query_index = q;
        row.max_concurrent = kSlots;
        row.queue_wait_seconds = ctx.queue_wait_seconds;
        row.sim_seconds = result->metrics.simulated_seconds;
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const AdmissionRow& row : admission_rows) {
    std::printf("query %d: queue_wait=%.4fs sim=%.3fs\n", row.query_index,
                row.queue_wait_seconds, row.sim_seconds);
  }

  // ---- JSON -------------------------------------------------------------
  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"memory_pressure\",\n"
       << "  \"paper_sf\": " << paper_sf << ",\n"
       << "  \"generator_sf\": " << GeneratorSfForPaperSf(paper_sf) << ",\n"
       << "  \"budget_sweep\": [";
  for (size_t i = 0; i < sweep_rows.size(); ++i) {
    const BudgetSweepRow& r = sweep_rows[i];
    json << (i == 0 ? "\n" : ",\n") << "    {\"query\": \"" << r.query
         << "\", \"optimizer\": \"" << r.optimizer
         << "\", \"budget_bytes\": " << r.budget_bytes
         << ", \"sim_seconds\": " << r.sim_seconds
         << ", \"spilled_bytes\": " << r.spilled_bytes
         << ", \"spill_partitions\": " << r.spill_partitions
         << ", \"peak_memory_bytes\": " << r.peak_memory_bytes << "}";
  }
  json << "\n  ],\n  \"admission\": [";
  for (size_t i = 0; i < admission_rows.size(); ++i) {
    const AdmissionRow& r = admission_rows[i];
    json << (i == 0 ? "\n" : ",\n") << "    {\"query\": \"" << r.query
         << "\", \"query_index\": " << r.query_index
         << ", \"max_concurrent\": " << r.max_concurrent
         << ", \"queue_wait_seconds\": " << r.queue_wait_seconds
         << ", \"sim_seconds\": " << r.sim_seconds << "}";
  }
  json << "\n  ],\n  \"records\": " << RecordsToJson() << "\n}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::bench::Main(argc, argv); }
