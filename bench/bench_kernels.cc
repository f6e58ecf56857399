// Wall-clock benchmark of the executor's data-movement kernels on a
// shuffle-heavy multi-join pipeline: the TPC-H Q9 hash-join chain (orders ⋈
// lineitem ⋈ part ⋈ supplier ⋈ partsupp ⋈ nation, with Q9's UDF filters on
// orders and part), every join executed as shuffle-both-sides + local hash
// join at the cluster's node count.
//
// Two implementations run on identical inputs:
//  - seed:     the sequential row-at-a-time reference kernels
//              (tests/support/reference_kernels.h — the original executor's
//              shuffle and std::unordered_map hash join, also the tests'
//              oracle);
//  - columnar: the executor's batch kernels (JobExecutor::Repartition /
//              LocalHashJoin over exec/vector_kernels.h) — per-column
//              hash/gather/probe loops over ColumnBatches.
//
// Plus a filter-kernel microbenchmark (VecPredicate::EvalBools vs a
// row-at-a-time Bind + EvalBool loop), a hash-kernel microbenchmark
// (HashKeyColumns vs HashRowKey per row) and a columnar batch-size sweep
// (64/256/1024/4096).
//
// The report (stdout + BENCH_kernels.json) breaks wall time down per
// kernel class (shuffle / build / probe) so every future perf PR has a
// machine-readable trajectory. Simulated seconds are asserted identical
// between the implementations — the perf work must not move the paper's
// cost model.
//
// Usage: bench_kernels [--sf <paper_sf>] [--iters <n>] [--out <path>]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/logging.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/vector_kernels.h"
#include "plan/expr.h"
#include "support/dataset.h"
#include "support/reference_kernels.h"

namespace dynopt {
namespace bench {
namespace {

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// One join step of the chain: shuffle keys are resolved by column name
/// against whatever the current intermediate's schema is.
struct JoinStep {
  std::vector<std::string> build_cols;
  std::vector<std::string> probe_cols;
};

std::vector<int> MustResolve(const Dataset& data,
                             const std::vector<std::string>& names) {
  std::vector<int> indices;
  for (const auto& name : names) {
    int idx = data.ColumnIndex(name);
    DYNOPT_CHECK(idx >= 0);
    indices.push_back(idx);
  }
  return indices;
}

struct PipelineResult {
  ExecMetrics metrics;   // Simulated + per-class wall metering.
  double total_wall = 0; // End-to-end wall seconds for the join chain.
  uint64_t rows_out = 0;
  Dataset output;
};

/// Runs the five-join chain through the seed kernels over copies of the
/// inputs. `build_sides[s]` and the running intermediate are consumed;
/// inputs stay reusable.
PipelineResult RunPipeline(const ClusterConfig& cluster,
                           const std::vector<Dataset>& build_inputs,
                           const Dataset& probe_input,
                           const std::vector<JoinStep>& steps,
                           bool keep_output) {
  // Copies happen before the timer: the benchmark measures the kernels,
  // not std::vector deep copies.
  std::vector<Dataset> builds = build_inputs;
  Dataset current = probe_input;

  PipelineResult result;
  const auto start = WallClock::now();
  for (size_t s = 0; s < steps.size(); ++s) {
    std::vector<int> build_keys = MustResolve(builds[s], steps[s].build_cols);
    std::vector<int> probe_keys = MustResolve(current, steps[s].probe_cols);
    Dataset build_parts = reference::Repartition(
        std::move(builds[s]), build_keys, cluster, &result.metrics);
    Dataset probe_parts = reference::Repartition(
        std::move(current), probe_keys, cluster, &result.metrics);
    current = reference::LocalHashJoin(build_parts, probe_parts, build_keys,
                                       probe_keys, cluster, &result.metrics);
  }
  result.total_wall = SecondsSince(start);
  result.rows_out = current.NumRows();
  if (keep_output) result.output = std::move(current);
  return result;
}

/// Batch variant of RunPipeline: identical chain, identical metering,
/// batches flowing between the executor's kernels. Inputs are converted before the
/// timer (in production the scan produces batches directly); only the
/// kernels are timed.
PipelineResult RunPipelineColumnar(JobExecutor* executor,
                                   const std::vector<Dataset>& build_inputs,
                                   const Dataset& probe_input,
                                   const std::vector<JoinStep>& steps,
                                   size_t batch_size, bool keep_output) {
  std::vector<ColumnarDataset> builds;
  builds.reserve(build_inputs.size());
  for (const Dataset& b : build_inputs) {
    builds.push_back(FromDataset(b, batch_size));
  }
  ColumnarDataset current = FromDataset(probe_input, batch_size);

  PipelineResult result;
  const auto start = WallClock::now();
  for (size_t s = 0; s < steps.size(); ++s) {
    std::vector<int> build_keys;
    for (const auto& name : steps[s].build_cols) {
      int idx = builds[s].ColumnIndex(name);
      DYNOPT_CHECK(idx >= 0);
      build_keys.push_back(idx);
    }
    std::vector<int> probe_keys;
    for (const auto& name : steps[s].probe_cols) {
      int idx = current.ColumnIndex(name);
      DYNOPT_CHECK(idx >= 0);
      probe_keys.push_back(idx);
    }
    // Injection is never armed here, so the kernels cannot fail.
    auto build_or = executor->Repartition(std::move(builds[s]), build_keys,
                                          &result.metrics);
    DYNOPT_CHECK(build_or.ok());
    ShuffleResult build_parts = std::move(build_or).value();
    auto probe_or = executor->Repartition(std::move(current), probe_keys,
                                          &result.metrics);
    DYNOPT_CHECK(probe_or.ok());
    ShuffleResult probe_parts = std::move(probe_or).value();
    auto join_or = executor->LocalHashJoin(std::move(build_parts),
                                           probe_parts, build_keys, probe_keys,
                                           &result.metrics);
    DYNOPT_CHECK(join_or.ok());
    current = std::move(join_or).value();
  }
  result.total_wall = SecondsSince(start);
  result.rows_out = current.NumRows();
  if (keep_output) result.output = ToDataset(std::move(current));
  return result;
}

Dataset MustExec(JobExecutor* executor, std::unique_ptr<PlanNode> plan) {
  auto result = executor->Execute(*plan, {});
  DYNOPT_CHECK(result.ok());
  return ToDataset(std::move(result->data));
}

/// Filter-kernel microbenchmark: the same predicate evaluated row-at-a-time
/// (Bind + EvalBool, the oracle's filter loop) and column-at-a-time
/// (VecPredicate::EvalBools). Returns {row_seconds, columnar_seconds} as
/// best-of-iters; both sides must select the same rows.
std::pair<double, double> BenchFilterKernels(const Dataset& data,
                                             size_t batch_size, int iters) {
  // l_partkey BETWEEN 100 AND 5000 AND l_suppkey >= 50: numeric
  // column-vs-constant comparisons, the filter kernel's bread and butter.
  ExprPtr pred = And({Between(Col("l", "l_partkey"), Lit(Value(100)),
                              Lit(Value(5000))),
                      Cmp(CompareOp::kGe, Col("l", "l_suppkey"),
                          Lit(Value(50)))});
  BindContext ctx;
  ctx.resolve_column = [&](const std::string& name) {
    return data.ColumnIndex(name);
  };
  auto bound_or = Bind(pred, ctx);
  DYNOPT_CHECK(bound_or.ok());
  BoundExprPtr bound = std::move(bound_or).value();
  ColumnarDataset columnar = FromDataset(data, batch_size);
  auto vec_or = VecPredicate::Compile(pred, columnar.columns, nullptr,
                                      nullptr);
  DYNOPT_CHECK(vec_or.ok());
  VecPredicate vec = std::move(vec_or).value();

  uint64_t row_selected = 0, col_selected = 0;
  double row_best = 1e300, col_best = 1e300;
  for (int it = 0; it < iters; ++it) {
    row_selected = 0;
    auto start = WallClock::now();
    for (const auto& part : data.partitions) {
      for (const Row& row : part) {
        if (bound->EvalBool(row)) ++row_selected;
      }
    }
    double s = SecondsSince(start);
    if (s < row_best) row_best = s;

    col_selected = 0;
    std::vector<uint8_t> keep;
    start = WallClock::now();
    for (const auto& part : columnar.partitions) {
      for (const ColumnBatch& b : part) {
        vec.EvalBools(b, &keep);
        for (size_t i = 0; i < b.num_rows; ++i) col_selected += keep[i];
      }
    }
    s = SecondsSince(start);
    if (s < col_best) col_best = s;
  }
  DYNOPT_CHECK(row_selected == col_selected);
  return {row_best, col_best};
}

/// Hash-kernel microbenchmark: the shuffle/build key hashing done
/// row-at-a-time (HashRowKey over each Row) and column-at-a-time
/// (HashKeyColumns over each ColumnBatch) on Q9's composite lineitem key.
/// Returns {row_seconds, columnar_seconds}; both sides must produce
/// identical hashes for every row (checked via an XOR accumulator).
std::pair<double, double> BenchHashKernels(const Dataset& data,
                                           size_t batch_size, int iters) {
  std::vector<int> keys = {data.ColumnIndex("l.l_partkey"),
                           data.ColumnIndex("l.l_suppkey")};
  DYNOPT_CHECK(keys[0] >= 0 && keys[1] >= 0);
  ColumnarDataset columnar = FromDataset(data, batch_size);
  uint64_t row_acc = 0, col_acc = 0;
  double row_best = 1e300, col_best = 1e300;
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> null_scratch;
  for (int it = 0; it < iters; ++it) {
    row_acc = 0;
    auto start = WallClock::now();
    for (const auto& part : data.partitions) {
      for (const Row& row : part) row_acc ^= HashRowKey(row, keys);
    }
    double s = SecondsSince(start);
    if (s < row_best) row_best = s;

    col_acc = 0;
    start = WallClock::now();
    for (const auto& part : columnar.partitions) {
      for (const ColumnBatch& b : part) {
        hashes.resize(b.num_rows);
        null_scratch.assign(b.num_rows, 0);
        HashKeyColumns(b, keys.data(), keys.size(), hashes.data(),
                       null_scratch.data());
        for (uint64_t h : hashes) col_acc ^= h;
      }
    }
    s = SecondsSince(start);
    if (s < col_best) col_best = s;
  }
  DYNOPT_CHECK(row_acc == col_acc);
  return {row_best, col_best};
}

struct Breakdown {
  double shuffle = 0, build = 0, probe = 0;
  double kernel_total = 0;  // shuffle + build + probe wall clocks.
  double end_to_end = 0;    // Wall time around the whole chain, including
                            // benchmark overhead (freeing intermediates).
};

Breakdown ToBreakdown(const PipelineResult& r) {
  Breakdown b;
  b.shuffle = r.metrics.wall_shuffle_seconds;
  b.build = r.metrics.wall_build_seconds;
  b.probe = r.metrics.wall_probe_seconds;
  b.kernel_total = b.shuffle + b.build + b.probe;
  b.end_to_end = r.total_wall;
  return b;
}

void PrintBreakdown(const char* name, const Breakdown& b) {
  std::printf("%-18s shuffle=%8.3fs  build=%8.3fs  probe=%8.3fs  "
              "kernels=%8.3fs  end_to_end=%8.3fs\n",
              name, b.shuffle, b.build, b.probe, b.kernel_total,
              b.end_to_end);
}

int Main(int argc, char** argv) {
  int paper_sf = 100;
  int iters = 12;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sf") == 0 && i + 1 < argc) {
      paper_sf = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sf <paper_sf>] [--iters <n>] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  Engine* engine = GetEngine(paper_sf, /*with_indexes=*/false);
  JobExecutor executor = engine->MakeExecutor();

  // Untimed input preparation: scans + Q9's filters.
  Dataset lineitem = MustExec(&executor, PlanNode::Scan("lineitem", "l"));
  Dataset orders = MustExec(
      &executor,
      PlanNode::Filter(PlanNode::Scan("orders", "o"),
                       Eq(Udf("myym", {Col("o", "o_orderdate")}),
                          Lit(Value(199603)))));
  Dataset part = MustExec(
      &executor, PlanNode::Filter(PlanNode::Scan("part", "p"),
                                  Eq(Udf("mysub", {Col("p", "p_brand")}),
                                     Lit(Value("#3")))));
  Dataset supplier = MustExec(&executor, PlanNode::Scan("supplier", "s"));
  Dataset partsupp = MustExec(&executor, PlanNode::Scan("partsupp", "ps"));
  Dataset nation = MustExec(&executor, PlanNode::Scan("nation", "n"));

  const uint64_t lineitem_rows = lineitem.NumRows();
  std::vector<Dataset> build_inputs;
  build_inputs.push_back(std::move(orders));
  build_inputs.push_back(std::move(part));
  build_inputs.push_back(std::move(supplier));
  build_inputs.push_back(std::move(partsupp));
  build_inputs.push_back(std::move(nation));
  const std::vector<JoinStep> steps = {
      {{"o.o_orderkey"}, {"l.l_orderkey"}},
      {{"p.p_partkey"}, {"l.l_partkey"}},
      {{"s.s_suppkey"}, {"l.l_suppkey"}},
      {{"ps.ps_partkey", "ps.ps_suppkey"}, {"l.l_partkey", "l.l_suppkey"}},
      {{"n.n_nationkey"}, {"s.s_nationkey"}},
  };

  const size_t default_batch = executor.cluster().exec.max_batch_size;

  // Correctness + cost-model guard: one warm-up run of each implementation
  // must produce identical partitions and identical simulated metering.
  PipelineResult seed_check = RunPipeline(executor.cluster(), build_inputs,
                                          lineitem, steps,
                                          /*keep_output=*/true);
  PipelineResult col_check = RunPipelineColumnar(&executor, build_inputs,
                                                 lineitem, steps,
                                                 default_batch,
                                                 /*keep_output=*/true);
  DYNOPT_CHECK(col_check.output.partitions == seed_check.output.partitions);
  DYNOPT_CHECK(col_check.metrics.simulated_seconds ==
               seed_check.metrics.simulated_seconds);
  DYNOPT_CHECK(col_check.metrics.bytes_shuffled ==
               seed_check.metrics.bytes_shuffled);
  DYNOPT_CHECK(col_check.metrics.tuples_processed ==
               seed_check.metrics.tuples_processed);

  // Timed runs: best-of-iters (by kernel time) per implementation,
  // interleaved so no side systematically benefits from warm caches.
  Breakdown seed_best, col_best;
  seed_best.kernel_total = col_best.kernel_total = 1e300;
  for (int it = 0; it < iters; ++it) {
    PipelineResult seed = RunPipeline(executor.cluster(), build_inputs,
                                      lineitem, steps, false);
    Breakdown sb = ToBreakdown(seed);
    if (sb.kernel_total < seed_best.kernel_total) seed_best = sb;
    PipelineResult col = RunPipelineColumnar(&executor, build_inputs,
                                             lineitem, steps, default_batch,
                                             false);
    Breakdown cb = ToBreakdown(col);
    if (cb.kernel_total < col_best.kernel_total) col_best = cb;
  }

  // Batch-size sweep: the columnar chain at 64/256/1024/4096-row batches
  // (simulated metering is invariant; only wall time moves).
  const std::vector<size_t> sweep_sizes = {64, 256, 1024, 4096};
  std::vector<Breakdown> sweep_best(sweep_sizes.size());
  for (auto& b : sweep_best) b.kernel_total = 1e300;
  for (int it = 0; it < std::max(1, iters / 2); ++it) {
    for (size_t i = 0; i < sweep_sizes.size(); ++i) {
      engine->mutable_cluster().exec.max_batch_size = sweep_sizes[i];
      JobExecutor sweep_exec = engine->MakeExecutor();
      PipelineResult col = RunPipelineColumnar(&sweep_exec, build_inputs,
                                               lineitem, steps,
                                               sweep_sizes[i], false);
      DYNOPT_CHECK(col.metrics.simulated_seconds ==
                   seed_check.metrics.simulated_seconds);
      Breakdown cb = ToBreakdown(col);
      if (cb.kernel_total < sweep_best[i].kernel_total) sweep_best[i] = cb;
    }
  }
  engine->mutable_cluster().exec.max_batch_size = default_batch;

  // Filter kernel: row Bind+EvalBool loop vs VecPredicate::EvalBools.
  auto [filter_row_s, filter_col_s] =
      BenchFilterKernels(lineitem, default_batch, iters);
  // Hash kernel: per-row HashRowKey vs per-column HashKeyColumns.
  auto [hash_row_s, hash_col_s] =
      BenchHashKernels(lineitem, default_batch, iters);

  const double speedup_total = seed_best.kernel_total / col_best.kernel_total;
  const double speedup_e2e = seed_best.end_to_end / col_best.end_to_end;
  const double filter_speedup = filter_row_s / filter_col_s;
  const double hash_speedup = hash_row_s / hash_col_s;
  std::printf("\n=== bench_kernels: TPC-H Q9 hash-join chain ===\n");
  std::printf("paper_sf=%d  generator_sf=%.2f  nodes=%zu  pool_threads=%zu  "
              "iters=%d\n",
              paper_sf, GeneratorSfForPaperSf(paper_sf),
              executor.cluster().num_nodes, engine->pool().num_threads(),
              iters);
  std::printf("lineitem_rows=%llu  output_rows=%llu  sim_seconds=%.3f "
              "(identical for both)\n\n",
              static_cast<unsigned long long>(lineitem_rows),
              static_cast<unsigned long long>(col_check.rows_out),
              col_check.metrics.simulated_seconds);
  PrintBreakdown("seed kernels", seed_best);
  PrintBreakdown("columnar kernels", col_best);
  std::printf("\ncolumnar vs seed speedup: shuffle=%.2fx build=%.2fx "
              "probe=%.2fx TOTAL=%.2fx (end_to_end=%.2fx)\n",
              seed_best.shuffle / col_best.shuffle,
              seed_best.build / col_best.build,
              seed_best.probe / col_best.probe, speedup_total, speedup_e2e);
  std::printf("filter kernel: row=%.4fs columnar=%.4fs speedup=%.2fx\n",
              filter_row_s, filter_col_s, filter_speedup);
  std::printf("hash kernel:   row=%.4fs columnar=%.4fs speedup=%.2fx\n",
              hash_row_s, hash_col_s, hash_speedup);
  std::printf("\nbatch-size sweep (columnar kernels):\n");
  for (size_t i = 0; i < sweep_sizes.size(); ++i) {
    std::printf("  batch=%-5zu shuffle=%7.3fs build=%7.3fs probe=%7.3fs "
                "kernels=%7.3fs\n",
                sweep_sizes[i], sweep_best[i].shuffle, sweep_best[i].build,
                sweep_best[i].probe, sweep_best[i].kernel_total);
  }

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"benchmark\": \"kernels\",\n"
       << "  \"pipeline\": \"tpch_q9_hash_join_chain\",\n"
       << "  \"paper_sf\": " << paper_sf << ",\n"
       << "  \"generator_sf\": " << GeneratorSfForPaperSf(paper_sf) << ",\n"
       << "  \"iterations\": " << iters << ",\n"
       << "  \"num_nodes\": " << executor.cluster().num_nodes << ",\n"
       << "  \"pool_threads\": " << engine->pool().num_threads() << ",\n"
       << "  \"lineitem_rows\": " << lineitem_rows << ",\n"
       << "  \"output_rows\": " << col_check.rows_out << ",\n"
       << "  \"simulated_seconds\": " << col_check.metrics.simulated_seconds
       << ",\n"
       << "  \"seed_kernels\": {\"shuffle_s\": " << seed_best.shuffle
       << ", \"build_s\": " << seed_best.build
       << ", \"probe_s\": " << seed_best.probe
       << ", \"kernel_total_s\": " << seed_best.kernel_total
       << ", \"end_to_end_s\": " << seed_best.end_to_end << "},\n"
       << "  \"columnar_kernels\": {\"shuffle_s\": " << col_best.shuffle
       << ", \"build_s\": " << col_best.build
       << ", \"probe_s\": " << col_best.probe
       << ", \"kernel_total_s\": " << col_best.kernel_total
       << ", \"end_to_end_s\": " << col_best.end_to_end
       << ", \"batch_size\": " << default_batch << "},\n"
       << "  \"speedup\": {\"shuffle\": " << seed_best.shuffle / col_best.shuffle
       << ", \"build\": " << seed_best.build / col_best.build
       << ", \"probe\": " << seed_best.probe / col_best.probe
       << ", \"total\": " << speedup_total
       << ", \"end_to_end\": " << speedup_e2e << "},\n"
       << "  \"filter_kernel\": {\"row_s\": " << filter_row_s
       << ", \"columnar_s\": " << filter_col_s
       << ", \"speedup\": " << filter_speedup << "},\n"
       << "  \"hash_kernel\": {\"row_s\": " << hash_row_s
       << ", \"columnar_s\": " << hash_col_s
       << ", \"speedup\": " << hash_speedup << "},\n"
       << "  \"batch_size_sweep\": [";
  for (size_t i = 0; i < sweep_sizes.size(); ++i) {
    json << (i == 0 ? "\n" : ",\n")
         << "    {\"batch_size\": " << sweep_sizes[i]
         << ", \"shuffle_s\": " << sweep_best[i].shuffle
         << ", \"build_s\": " << sweep_best[i].build
         << ", \"probe_s\": " << sweep_best[i].probe
         << ", \"kernel_total_s\": " << sweep_best[i].kernel_total << "}";
  }
  json << "\n  ]\n"
       << "}\n";
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dynopt

int main(int argc, char** argv) { return dynopt::bench::Main(argc, argv); }
