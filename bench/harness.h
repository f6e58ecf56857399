#ifndef DYNOPT_BENCH_HARNESS_H_
#define DYNOPT_BENCH_HARNESS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "opt/join_tree.h"
#include "opt/optimizer.h"
#include "plan/query_spec.h"

namespace dynopt {
namespace bench {

/// Paper scale factor (10 / 100 / 1000) -> generator sf. The generators
/// substitute ~1000 real rows per generated row (see ClusterConfig), so
/// these stay laptop-sized while preserving the ratios between tables.
double GeneratorSfForPaperSf(int paper_sf);

/// The four evaluation queries.
inline const char* const kQueries[] = {"q17", "q50", "q8", "q9"};

/// The six strategies of Figure 7 (worst-order is dropped in Figure 8)
/// plus the sketch-driven dynamic strategy. Benches that hardcode the
/// paper's six index only the first 6 entries.
inline const char* const kOptimizers[] = {"dynamic",     "best-order",
                                          "cost-based",  "pilot-run",
                                          "ingres-like", "worst-order",
                                          "sketch-dynamic"};

/// Lazily built, cached engine per (paper_sf, with_indexes): loads both
/// workloads and (optionally) the Figure-8 secondary indexes.
Engine* GetEngine(int paper_sf, bool with_indexes);

/// Binds one of the four queries against the engine.
Result<QuerySpec> GetQuery(Engine* engine, const std::string& query);

/// Runs `optimizer_name` on `query`. best-order consults an internal cache
/// of the dynamic optimizer's discovered plan for (query, paper_sf,
/// enable_inlj), running the dynamic optimizer first if needed.
Result<OptimizerRunResult> RunStrategy(Engine* engine, int paper_sf,
                                       const std::string& optimizer_name,
                                       const std::string& query,
                                       bool enable_inlj);

/// One measurement, accumulated for the end-of-run paper-style table.
struct Record {
  std::string figure;
  std::string query;
  int paper_sf = 0;
  std::string optimizer;
  /// The run's counters; RecordsToJson writes one key per ExecMetrics
  /// field.
  ExecMetrics metrics;
  double wall_seconds = 0;
  // Log2-bucketed histogram of rounded per-decision q-errors: bucket 0 =
  // [1,2), bucket i = [2^i, 2^(i+1)), last bucket open-ended. All zero
  // when no profile was attached to the run.
  std::vector<uint64_t> q_error_log2 = std::vector<uint64_t>(16, 0);
  uint64_t rows = 0;
  std::string plan;
};

/// The record of one run: the given identity plus the run's metrics, wall
/// seconds, row count, join tree and (from its profile) the per-decision
/// q-error histogram.
Record MakeRecord(std::string figure, std::string query, int paper_sf,
                  std::string optimizer, const OptimizerRunResult& result);

void AddRecord(Record record);
const std::vector<Record>& Records();

/// All accumulated records as a JSON array (one object per record).
std::string RecordsToJson();

/// Writes RecordsToJson() wrapped in {"records": [...]} to `path`.
/// Returns false when the file cannot be written.
bool WriteRecordsJson(const std::string& path);

/// Prints records of `figure` grouped like the paper's figures: one block
/// per scale factor, queries as rows, strategies as columns.
void PrintFigureTable(const std::string& figure);

}  // namespace bench
}  // namespace dynopt

#endif  // DYNOPT_BENCH_HARNESS_H_
