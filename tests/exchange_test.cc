// Property tests for the batch shuffle exchange and the flat hash-join
// kernel: against the sequential row-at-a-time reference implementation
// (tests/support/reference_kernels.h, the original executor's kernels) the
// executor's kernels must produce identical rows in identical order and
// identical metering — bytes_shuffled, tuples_processed and bit-identical
// simulated_seconds — across uniform, skewed (Zipf), NULL-key,
// composite-key and empty-partition inputs, on one-, three- and
// default-worker pools. The shuffle only routes rows (per-destination
// selection lists over the source batches); the join gathers the build
// side flat and probes through the routes. Plus ThreadPool stress tests for
// the nested / concurrent ParallelFor the exchange relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "common/random.h"
#include "common/row_kernels.h"
#include "common/thread_pool.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "opt/optimizer.h"
#include "support/dataset.h"
#include "support/reference_kernels.h"

namespace dynopt {
namespace {

/// Unwraps a kernel result. Fault injection is never armed in these tests,
/// so the Result-returning kernels cannot fail.
template <typename T>
T MustOk(Result<T> result) {
  DYNOPT_CHECK(result.ok());
  return std::move(result).value();
}

/// Sorted copy of all rows, for multiset comparison.
std::vector<Row> SortedRows(const Dataset& data) {
  std::vector<Row> rows = data.GatherRows();
  SortRows(&rows);
  return rows;
}

struct DatasetSpec {
  size_t num_partitions = 7;  // Deliberately != num_nodes by default.
  size_t rows = 500;
  int64_t key_domain = 40;
  double zipf_skew = 0.0;      // > 0 samples keys from a Zipf distribution.
  double null_fraction = 0.0;  // Probability of a NULL key slot.
  size_t empty_every = 0;      // Leave every k-th partition empty.
  uint64_t seed = 1;
};

/// Random 3-column dataset {k, k2, payload} spread round-robin over
/// partitions (with optional forced-empty partitions).
Dataset MakeDataset(const DatasetSpec& spec) {
  Dataset data({"k", "k2", "payload"}, spec.num_partitions,
               {ColumnKind::kInt64, ColumnKind::kInt64, ColumnKind::kString});
  Rng rng(spec.seed);
  ZipfDistribution zipf(static_cast<size_t>(spec.key_domain),
                        spec.zipf_skew > 0 ? spec.zipf_skew : 0.0);
  size_t p = 0;
  for (size_t i = 0; i < spec.rows; ++i) {
    while (spec.empty_every != 0 && p % spec.empty_every == 0 &&
           spec.num_partitions > 1) {
      p = (p + 1) % spec.num_partitions;
    }
    Row row;
    if (spec.null_fraction > 0 && rng.NextDouble() < spec.null_fraction) {
      row.push_back(Value::Null());
    } else if (spec.zipf_skew > 0) {
      row.push_back(Value(static_cast<int64_t>(zipf.Sample(rng))));
    } else {
      row.push_back(Value(rng.NextInt64(0, spec.key_domain - 1)));
    }
    row.push_back(Value(rng.NextInt64(0, 5)));
    row.push_back(Value("r" + std::to_string(i)));
    data.partitions[p].push_back(std::move(row));
    p = (p + 1) % spec.num_partitions;
  }
  return data;
}

Dataset CopyDataset(const Dataset& data) { return data; }

/// Kernel input: `data` as batches small enough that every partition spans
/// several of them.
ColumnarDataset Batches(const Dataset& data) { return FromDataset(data, 16); }

/// Kernel output as rows, with the batches' row_sizes annotation.
Dataset Rows(const ColumnarDataset& data) {
  return ToDataset(ColumnarDataset(data));
}

/// A shuffle's partitions as rows: each destination's routed rows gathered
/// in route order.
Dataset Rows(const ShuffleResult& shuffled) {
  ColumnarDataset data(shuffled.source.columns, shuffled.num_partitions);
  const std::vector<std::vector<BatchView>> views = shuffled.Views();
  for (size_t d = 0; d < views.size(); ++d) {
    if (!views[d].empty()) data.partitions[d].push_back(GatherViews(views[d]));
  }
  return ToDataset(std::move(data));
}

class ExchangeTest : public ::testing::Test {
 protected:
  ExchangeTest() : engine_(std::make_unique<Engine>()) {}

  JobExecutor MakeExecutor() { return engine_->MakeExecutor(); }
  const ClusterConfig& cluster() { return engine_->cluster(); }

  std::unique_ptr<Engine> engine_;
};

/// One full pipeline comparison: shuffle both sides + local hash join, with
/// the executor's kernels (hashes threaded through) vs the sequential
/// reference. Checks exact per-partition row sequences and all metering.
void ExpectPipelineParityWith(JobExecutor executor,
                              const ClusterConfig& cluster,
                              const Dataset& build_in, const Dataset& probe_in,
                              const std::vector<int>& build_keys,
                              const std::vector<int>& probe_keys) {
  ExecMetrics par_metrics;
  ShuffleResult build_parts = MustOk(
      executor.Repartition(Batches(build_in), build_keys, &par_metrics));
  ShuffleResult probe_parts = MustOk(
      executor.Repartition(Batches(probe_in), probe_keys, &par_metrics));
  const Dataset par_build = Rows(build_parts);
  const Dataset par_probe = Rows(probe_parts);
  const std::vector<std::vector<BatchView>> build_views = build_parts.Views();
  std::vector<std::vector<uint64_t>> build_hashes(build_views.size());
  for (size_t p = 0; p < build_views.size(); ++p) {
    for (const BatchView& view : build_views[p]) {
      build_hashes[p].insert(build_hashes[p].end(), view.hashes,
                             view.hashes + view.num_rows);
    }
  }
  const Dataset par_out = Rows(MustOk(executor.LocalHashJoin(
      std::move(build_parts), probe_parts, build_keys, probe_keys,
      &par_metrics)));

  ExecMetrics ref_metrics;
  Dataset ref_build = reference::Repartition(CopyDataset(build_in),
                                             build_keys, cluster, &ref_metrics);
  Dataset ref_probe = reference::Repartition(CopyDataset(probe_in),
                                             probe_keys, cluster, &ref_metrics);
  Dataset ref_out =
      reference::LocalHashJoin(ref_build, ref_probe, build_keys, probe_keys,
                               cluster, &ref_metrics);

  // The shuffle must route the same rows to the same partitions in the
  // same order (sources ascending, rows in batch order), and the routes'
  // hashes must match a fresh HashRowKey.
  ASSERT_EQ(par_build.partitions.size(), ref_build.partitions.size());
  for (size_t p = 0; p < ref_build.partitions.size(); ++p) {
    EXPECT_EQ(par_build.partitions[p], ref_build.partitions[p])
        << "build shuffle partition " << p;
    ASSERT_EQ(build_hashes[p].size(), par_build.partitions[p].size());
    for (size_t i = 0; i < build_hashes[p].size(); ++i) {
      EXPECT_EQ(build_hashes[p][i],
                HashRowKey(par_build.partitions[p][i], build_keys));
    }
  }
  for (size_t p = 0; p < ref_probe.partitions.size(); ++p) {
    EXPECT_EQ(par_probe.partitions[p], ref_probe.partitions[p])
        << "probe shuffle partition " << p;
  }

  // Size annotations: the shuffle gathers per-row sizes with its rows and
  // the join derives its output's sizes from the parents'; every
  // annotation must equal a fresh RowSizeBytes of the annotated row (the
  // network metering is summed from these).
  for (const Dataset* annotated : {&par_build, &par_probe, &par_out}) {
    ASSERT_TRUE(annotated->HasRowSizes());
    for (size_t p = 0; p < annotated->partitions.size(); ++p) {
      for (size_t i = 0; i < annotated->partitions[p].size(); ++i) {
        EXPECT_EQ(annotated->row_sizes[p][i],
                  RowSizeBytes(annotated->partitions[p][i]))
            << "row size annotation, partition " << p << " row " << i;
      }
    }
  }

  // Join output: exact same row sequence per partition (stronger than the
  // multiset property) and, for documentation, the multiset too.
  ASSERT_EQ(par_out.partitions.size(), ref_out.partitions.size());
  for (size_t p = 0; p < ref_out.partitions.size(); ++p) {
    EXPECT_EQ(par_out.partitions[p], ref_out.partitions[p])
        << "join output partition " << p;
  }
  EXPECT_EQ(SortedRows(par_out), SortedRows(ref_out));

  // Cost-model parity: identical bytes and bit-identical simulated time.
  EXPECT_EQ(par_metrics.bytes_shuffled, ref_metrics.bytes_shuffled);
  EXPECT_EQ(par_metrics.tuples_processed, ref_metrics.tuples_processed);
  EXPECT_EQ(par_metrics.simulated_seconds, ref_metrics.simulated_seconds);
  EXPECT_EQ(par_metrics.bytes_broadcast, ref_metrics.bytes_broadcast);
}

/// Runs the parity check on the engine's own pool, a single-worker pool
/// and an explicit three-worker pool, so the result cannot depend on how
/// the routing and join tasks are spread over workers, whatever the host's
/// core count.
void ExpectPipelineParity(Engine* engine, const Dataset& build_in,
                          const Dataset& probe_in,
                          const std::vector<int>& build_keys,
                          const std::vector<int>& probe_keys) {
  ExpectPipelineParityWith(engine->MakeExecutor(), engine->cluster(),
                           build_in, probe_in, build_keys, probe_keys);
  for (size_t workers : {1u, 3u}) {
    ThreadPool pool(workers);
    ExpectPipelineParityWith(
        JobExecutor(&engine->catalog(), &engine->stats(), &engine->udfs(),
                    engine->cluster(), &pool, &engine->metrics_registry()),
        engine->cluster(), build_in, probe_in, build_keys, probe_keys);
  }
}

/// (rows_build, rows_probe, key_domain, zipf_skew, null_fraction,
///  empty_every, composite_keys)
using ParityParam = std::tuple<int, int, int, double, double, int, bool>;

class ExchangeParityTest : public ExchangeTest,
                           public ::testing::WithParamInterface<ParityParam> {
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExchangeParityTest,
    ::testing::Values(
        // Uniform keys, moderate size.
        std::make_tuple(400, 900, 50, 0.0, 0.0, 0, false),
        // Heavy Zipf skew: hot keys hammer one destination partition.
        std::make_tuple(600, 600, 100, 1.3, 0.0, 0, false),
        std::make_tuple(500, 500, 30, 2.0, 0.0, 0, false),
        // NULL join keys on both sides.
        std::make_tuple(300, 300, 20, 0.0, 0.25, 0, false),
        // Skew + NULLs together.
        std::make_tuple(400, 400, 25, 1.1, 0.1, 0, false),
        // Empty partitions on the inputs.
        std::make_tuple(200, 200, 15, 0.0, 0.0, 2, false),
        // Composite (two-column) join keys.
        std::make_tuple(300, 500, 10, 0.0, 0.0, 0, true),
        // Composite keys with NULLs and skew.
        std::make_tuple(300, 300, 8, 0.9, 0.15, 0, true),
        // Tiny inputs.
        std::make_tuple(3, 5, 2, 0.0, 0.0, 0, false),
        // One side empty.
        std::make_tuple(0, 200, 10, 0.0, 0.0, 0, false),
        std::make_tuple(200, 0, 10, 0.0, 0.0, 0, false)));

TEST_P(ExchangeParityTest, MatchesSequentialReference) {
  auto [brows, prows, domain, skew, nulls, empty_every, composite] =
      GetParam();
  DatasetSpec bspec;
  bspec.rows = static_cast<size_t>(brows);
  bspec.key_domain = domain;
  bspec.zipf_skew = skew;
  bspec.null_fraction = nulls;
  bspec.empty_every = static_cast<size_t>(empty_every);
  bspec.seed = 7;
  DatasetSpec pspec = bspec;
  pspec.rows = static_cast<size_t>(prows);
  pspec.num_partitions = 9;
  pspec.seed = 8;
  Dataset build = MakeDataset(bspec);
  Dataset probe = MakeDataset(pspec);
  std::vector<int> keys = composite ? std::vector<int>{0, 1}
                                    : std::vector<int>{0};
  ExpectPipelineParity(engine_.get(), build, probe, keys, keys);
}

TEST_F(ExchangeTest, CoPartitionedInputShufflesNoBytes) {
  // When the input already has num_nodes partitions and each row hashes to
  // its own partition, the exchange must meter zero network bytes — the
  // planner's co-partitioned fast path depends on this.
  const size_t n = cluster().num_nodes;
  DatasetSpec spec;
  spec.num_partitions = n;
  spec.rows = 300;
  Dataset data = MakeDataset(spec);
  // Pre-place every row on its hash destination.
  Dataset placed(data.columns, n, data.kinds);
  std::vector<int> keys = {0};
  for (auto& part : data.partitions) {
    for (Row& row : part) {
      size_t dest = static_cast<size_t>(HashRowKey(row, keys) % n);
      placed.partitions[dest].push_back(std::move(row));
    }
  }
  JobExecutor executor = MakeExecutor();
  ExecMetrics metrics;
  ShuffleResult shuffled =
      MustOk(executor.Repartition(Batches(placed), keys, &metrics));
  EXPECT_EQ(metrics.bytes_shuffled, 0u);
  EXPECT_EQ(Rows(shuffled).NumRows(), 300u);
}

TEST_F(ExchangeTest, AllRowsOneKeyLandInOnePartition) {
  // Worst-case skew: a single key value. Every row must end up in exactly
  // one destination partition, identically to the reference.
  DatasetSpec spec;
  spec.rows = 400;
  spec.key_domain = 1;
  Dataset data = MakeDataset(spec);
  std::vector<int> keys = {0};
  JobExecutor executor = MakeExecutor();
  ExecMetrics par_metrics, ref_metrics;
  ShuffleResult shuffled =
      MustOk(executor.Repartition(Batches(data), keys, &par_metrics));
  const Dataset par = Rows(shuffled);
  Dataset ref = reference::Repartition(CopyDataset(data), keys, cluster(),
                                       &ref_metrics);
  size_t non_empty = 0;
  for (size_t p = 0; p < par.partitions.size(); ++p) {
    EXPECT_EQ(par.partitions[p], ref.partitions[p]);
    if (!par.partitions[p].empty()) ++non_empty;
  }
  EXPECT_EQ(non_empty, 1u);
  EXPECT_EQ(par_metrics.simulated_seconds, ref_metrics.simulated_seconds);
}

TEST_F(ExchangeTest, BroadcastStyleJoinWithoutPrecomputedHashes) {
  // LocalHashJoin must also be correct on sides that were not shuffled:
  // their keys are hashed at join time, as a broadcast's are.
  DatasetSpec bspec;
  bspec.rows = 150;
  bspec.num_partitions = 4;
  bspec.seed = 21;
  DatasetSpec pspec = bspec;
  pspec.rows = 400;
  pspec.seed = 22;
  Dataset build = MakeDataset(bspec);
  Dataset probe = MakeDataset(pspec);
  // Align partition counts (LocalHashJoin joins partition-wise).
  std::vector<int> keys = {0};
  JobExecutor executor = MakeExecutor();
  ExecMetrics par_metrics, ref_metrics;
  Dataset par_out = Rows(MustOk(executor.LocalHashJoin(
      Batches(build), Batches(probe), keys, keys, &par_metrics)));
  Dataset ref_out = reference::LocalHashJoin(build, probe, keys, keys,
                                             cluster(), &ref_metrics);
  for (size_t p = 0; p < ref_out.partitions.size(); ++p) {
    EXPECT_EQ(par_out.partitions[p], ref_out.partitions[p]);
  }
  EXPECT_EQ(par_metrics.simulated_seconds, ref_metrics.simulated_seconds);
}

TEST_F(ExchangeTest, OnePartitionBuildIsReadByEveryProbePartition) {
  // A build side with one partition is a broadcast: every probe partition
  // joins against it, and the metering charges its rows to every node —
  // identical to the reference joining n physical copies.
  DatasetSpec bspec;
  bspec.rows = 120;
  bspec.num_partitions = 1;
  bspec.null_fraction = 0.1;
  bspec.seed = 31;
  DatasetSpec pspec;
  pspec.rows = 500;
  pspec.num_partitions = 4;
  pspec.null_fraction = 0.1;
  pspec.seed = 32;
  Dataset build = MakeDataset(bspec);
  Dataset probe = MakeDataset(pspec);
  Dataset replicated(build.columns, pspec.num_partitions, build.kinds);
  for (auto& part : replicated.partitions) part = build.partitions[0];
  std::vector<int> keys = {0};
  JobExecutor executor = MakeExecutor();
  ExecMetrics par_metrics, ref_metrics;
  Dataset par_out = Rows(MustOk(executor.LocalHashJoin(
      Batches(build), Batches(probe), keys, keys, &par_metrics)));
  Dataset ref_out = reference::LocalHashJoin(replicated, probe, keys, keys,
                                             cluster(), &ref_metrics);
  ASSERT_EQ(par_out.partitions.size(), ref_out.partitions.size());
  for (size_t p = 0; p < ref_out.partitions.size(); ++p) {
    EXPECT_EQ(par_out.partitions[p], ref_out.partitions[p]);
  }
  EXPECT_GT(par_out.NumRows(), 0u);
  EXPECT_EQ(par_metrics.tuples_processed, ref_metrics.tuples_processed);
  EXPECT_EQ(par_metrics.simulated_seconds, ref_metrics.simulated_seconds);
}

TEST_F(ExchangeTest, MismatchedPartitionCountsAreInvalidArgument) {
  // A build side must have one partition per probe partition, or one
  // shared by all of them; anything else is an error, not an abort.
  DatasetSpec bspec;
  bspec.rows = 60;
  bspec.num_partitions = 3;
  DatasetSpec pspec = bspec;
  pspec.num_partitions = 4;
  pspec.seed = 2;
  std::vector<int> keys = {0};
  JobExecutor executor = MakeExecutor();
  ExecMetrics metrics;
  auto joined = executor.LocalHashJoin(Batches(MakeDataset(bspec)),
                                       Batches(MakeDataset(pspec)), keys, keys,
                                       &metrics);
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(joined.status().message().find("3 build and 4 probe"),
            std::string::npos)
      << joined.status().ToString();
  EXPECT_EQ(MeteringDiff(metrics, ExecMetrics()), "");
}

TEST_F(ExchangeTest, DuplicateKeysEmitAllMatchesInBuildOrder)
{
  // Several build rows share one key: every (build, probe) pair must be
  // emitted, in ascending build-row order — the flat table's reverse
  // insertion preserves the reference emission order.
  Dataset build({"k", "tag"}, 1, {ColumnKind::kInt64, ColumnKind::kString});
  Dataset probe({"k", "tag"}, 1, {ColumnKind::kInt64, ColumnKind::kString});
  for (int i = 0; i < 5; ++i) {
    build.partitions[0].push_back({Value(7), Value("b" + std::to_string(i))});
  }
  probe.partitions[0].push_back({Value(7), Value("p0")});
  probe.partitions[0].push_back({Value(7), Value("p1")});
  std::vector<int> keys = {0};
  JobExecutor executor = MakeExecutor();
  ExecMetrics par_metrics, ref_metrics;
  Dataset par_out = Rows(MustOk(executor.LocalHashJoin(
      Batches(build), Batches(probe), keys, keys, &par_metrics)));
  Dataset ref_out = reference::LocalHashJoin(build, probe, keys, keys,
                                             cluster(), &ref_metrics);
  ASSERT_EQ(par_out.NumRows(), 10u);
  EXPECT_EQ(par_out.partitions[0], ref_out.partitions[0]);
  // Per probe row, matches come out in build insertion order b0..b4.
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(par_out.partitions[0][static_cast<size_t>(j * 5 + i)][1],
                Value("b" + std::to_string(i)));
    }
  }
}

TEST_F(ExchangeTest, AnnotatedInputShuffleMetersIdentically) {
  // The shuffle meters network bytes from the batches' row_sizes
  // annotation instead of re-walking payloads — the resulting bytes and
  // simulated seconds must be bit-identical to the reference (which always
  // recomputes), on one- and three-worker pools.
  Dataset input = MakeDataset({.num_partitions = 7, .rows = 400,
                               .key_domain = 23, .null_fraction = 0.1});
  std::vector<int> keys = {0};
  ExecMetrics ref_metrics;
  Dataset ref = reference::Repartition(CopyDataset(input), keys, cluster(),
                                       &ref_metrics);
  for (size_t workers : {1u, 3u}) {
    ThreadPool pool(workers);
    JobExecutor executor(&engine_->catalog(), &engine_->stats(),
                         &engine_->udfs(), engine_->cluster(), &pool,
                         &engine_->metrics_registry());
    ExecMetrics par_metrics;
    ShuffleResult parts =
        MustOk(executor.Repartition(Batches(input), keys, &par_metrics));
    const Dataset rows = Rows(parts);
    for (size_t p = 0; p < ref.partitions.size(); ++p) {
      EXPECT_EQ(rows.partitions[p], ref.partitions[p]);
    }
    EXPECT_EQ(par_metrics.bytes_shuffled, ref_metrics.bytes_shuffled);
    EXPECT_EQ(par_metrics.simulated_seconds, ref_metrics.simulated_seconds);
    for (size_t p = 0; p < rows.partitions.size(); ++p) {
      for (size_t i = 0; i < rows.partitions[p].size(); ++i) {
        EXPECT_EQ(rows.row_sizes[p][i], RowSizeBytes(rows.partitions[p][i]));
      }
    }
  }
}

TEST(FastModTest, MatchesHardwareModulo) {
  // The shuffle routes every row with FastMod instead of a hardware divide;
  // sweep it against the plain operator over adversarial and random inputs.
  Rng rng(0x5eedULL);
  std::vector<uint64_t> divisors = {1, 2, 3, 5, 7, 10, 16, 31, 100, 1023,
                                    (1ULL << 32) - 1, (1ULL << 32) + 1,
                                    ~uint64_t{0} / 3, ~uint64_t{0}};
  std::vector<uint64_t> edge_values = {0, 1, 2, (1ULL << 32) - 1, 1ULL << 32,
                                       ~uint64_t{0} - 1, ~uint64_t{0}};
  for (uint64_t n : divisors) {
    FastMod mod(n);
    for (uint64_t h : edge_values) {
      ASSERT_EQ(mod(h), h % n) << "n=" << n << " h=" << h;
    }
    for (int i = 0; i < 10000; ++i) {
      const uint64_t h = rng.Next();
      ASSERT_EQ(mod(h), h % n) << "n=" << n << " h=" << h;
    }
  }
}

// --- ThreadPool stress: the exchange relies on ParallelFor being safe
// --- under nesting and concurrent callers.

TEST(ThreadPoolStressTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolStressTest, DeeplyNestedParallelFor) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) {
      pool.ParallelFor(4, [&](size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolStressTest, ConcurrentCallersCoverAllIndices) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr size_t kN = 2000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
    for (auto& a : h) a.store(0);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      pool.ParallelFor(kN, [&hits, c](size_t i) {
        hits[static_cast<size_t>(c)][i].fetch_add(1);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) {
    for (const auto& a : h) EXPECT_EQ(a.load(), 1);
  }
}

TEST(ThreadPoolStressTest, ConcurrentNestedMix) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < 5; ++r) {
        pool.ParallelFor(16, [&](size_t) {
          pool.ParallelFor(3, [&](size_t) { count.fetch_add(1); });
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(count.load(), 4 * 5 * 16 * 3);
}

TEST(ThreadPoolStressTest, RepartitionFromWithinPool) {
  // An executor kernel invoked from inside a pool task (as a nested job
  // would) must complete — this exercises ParallelFor's caller
  // participation through the real exchange code path.
  Engine engine;
  // Executors are made up front: MakeExecutor lazily builds the engine's
  // retry budget, so concurrent first calls would race on it.
  std::vector<JobExecutor> executors;
  for (int i = 0; i < 3; ++i) executors.push_back(engine.MakeExecutor());
  std::atomic<int> done{0};
  engine.pool().ParallelFor(3, [&](size_t seed) {
    DatasetSpec spec;
    spec.rows = 200;
    spec.seed = 100 + seed;
    Dataset data = MakeDataset(spec);
    ExecMetrics metrics;
    ShuffleResult out =
        MustOk(executors[seed].Repartition(Batches(data), {0}, &metrics));
    if (Rows(out).NumRows() == 200) done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 3);
}

}  // namespace
}  // namespace dynopt
