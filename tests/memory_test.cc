// Memory governance:
//  - MemoryTracker hierarchy semantics (soft-fail TryReserve with rollback,
//    unchecked over-subscription, saturating release, peak watermark);
//  - grace hash join: a per-node join budget forces a spill to disk, the
//    result is identical to the in-memory join, spill files are reclaimed;
//  - metering identity: with no budget configured, attaching a QueryContext
//    must not change the simulated cost by a single bit.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "common/hash.h"
#include "common/memory_tracker.h"
#include "common/query_context.h"
#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/optimizer.h"
#include "opt/static_optimizer.h"
#include "storage/serde.h"

namespace dynopt {
namespace {

TEST(MemoryTrackerTest, BudgetEnforcedAndReleased) {
  MemoryTracker t(100);
  EXPECT_TRUE(t.TryReserve(60));
  EXPECT_EQ(t.used(), 60u);
  EXPECT_EQ(t.available(), 40u);
  EXPECT_FALSE(t.TryReserve(50));
  EXPECT_EQ(t.used(), 60u);  // Failed reserve leaves nothing behind.
  t.Release(60);
  EXPECT_TRUE(t.TryReserve(100));
  EXPECT_EQ(t.available(), 0u);
}

TEST(MemoryTrackerTest, ZeroBudgetIsUnlimited) {
  MemoryTracker t(0);
  EXPECT_TRUE(t.TryReserve(uint64_t{1} << 50));
  EXPECT_EQ(t.available(), ~uint64_t{0});
}

TEST(MemoryTrackerTest, HierarchyPropagatesAndRollsBack) {
  MemoryTracker engine(100, nullptr, "engine");
  MemoryTracker q1(0, &engine, "q1");
  MemoryTracker q2(0, &engine, "q2");
  EXPECT_TRUE(q1.TryReserve(80));
  EXPECT_EQ(engine.used(), 80u);
  // q2 is unlimited locally but the engine budget refuses; q2 must stay
  // untouched (local reservation rolled back).
  EXPECT_FALSE(q2.TryReserve(30));
  EXPECT_EQ(q2.used(), 0u);
  EXPECT_EQ(engine.used(), 80u);
  q1.Release(80);
  EXPECT_TRUE(q2.TryReserve(30));
  EXPECT_EQ(engine.used(), 30u);
}

TEST(MemoryTrackerTest, UncheckedOversubscriptionIsVisible) {
  MemoryTracker t(10);
  t.ReserveUnchecked(25);
  EXPECT_EQ(t.used(), 25u);    // Over budget, on purpose, and visible.
  EXPECT_EQ(t.available(), 0u);
  EXPECT_FALSE(t.TryReserve(1));
  t.Release(25);
  EXPECT_EQ(t.used(), 0u);
}

TEST(MemoryTrackerTest, PeakWatermarkAndSaturatingRelease) {
  MemoryTracker t(0);
  t.ReserveUnchecked(40);
  t.Release(10);
  t.ReserveUnchecked(5);
  EXPECT_EQ(t.used(), 35u);
  EXPECT_EQ(t.peak(), 40u);
  t.Release(1000);  // Mismatched release clamps at zero, never wraps.
  EXPECT_EQ(t.used(), 0u);
  EXPECT_EQ(t.peak(), 40u);
  t.ResetPeak();
  EXPECT_EQ(t.peak(), 0u);
}

TEST(MemoryTrackerTest, DestructorReturnsLeftoverToParent) {
  MemoryTracker engine(0, nullptr, "engine");
  {
    MemoryTracker q(0, &engine, "q");
    q.ReserveUnchecked(64);
    EXPECT_EQ(engine.used(), 64u);
  }
  EXPECT_EQ(engine.used(), 0u);
}

TEST(MemoryReservationTest, RaiiReleasesOnScopeExit) {
  MemoryTracker t(100);
  {
    MemoryReservation r(&t);
    EXPECT_TRUE(r.TryGrow(70));
    EXPECT_FALSE(r.TryGrow(70));
    EXPECT_EQ(r.bytes(), 70u);
    EXPECT_EQ(t.used(), 70u);
  }
  EXPECT_EQ(t.used(), 0u);
}

TEST(MemoryReservationTest, NullTrackerIsVacuouslyGranted) {
  MemoryReservation r(nullptr);
  EXPECT_TRUE(r.TryGrow(uint64_t{1} << 60));
  r.GrowUnchecked(123);
  EXPECT_EQ(r.bytes(), 0u);
}

/// Fixture for spill tests: two unpartitioned tables joined on `k`, with a
/// dedicated spill directory so leftover files are detectable.
class GraceJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spill_dir_ = ::testing::TempDir() + "dynopt_spill_test";
    std::filesystem::create_directories(spill_dir_);
    engine_ = std::make_unique<Engine>();
    engine_->mutable_cluster().spill_directory = spill_dir_;
    Rng rng(23);
    auto make = [&](const std::string& name, int rows, int domain) {
      auto t = std::make_shared<Table>(
          name,
          Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
          engine_->cluster().num_nodes);
      for (int i = 0; i < rows; ++i) {
        t->AppendRow({Value(rng.NextInt64(0, domain - 1)),
                      Value("payload_" + std::to_string(i % 53))});
      }
      ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
    };
    make("b", 4000, 700);
    make("p", 8000, 700);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  Result<JobResult> RunJoin(uint64_t join_budget, QueryContext* ctx,
                            int fanout = 32) {
    engine_->mutable_cluster().memory.join_memory_budget_bytes = join_budget;
    engine_->mutable_cluster().memory.max_spill_fanout = fanout;
    auto plan = PlanNode::Join(JoinMethod::kHashShuffle,
                               PlanNode::Scan("b", "b"),
                               PlanNode::Scan("p", "p"), {{"b.k", "p.k"}});
    JobExecutor executor = engine_->MakeExecutor(ctx);
    return executor.Execute(*plan, {});
  }

  /// Registers `name`: an int64 key `k` over [0, 300), and payloads `s`
  /// (string) and `d` (double) that are each NULL on about 95% of rows.
  void MakeSparseTable(const std::string& name, int rows, uint64_t seed) {
    auto t = std::make_shared<Table>(name,
                                     Schema({{"k", ValueType::kInt64},
                                             {"s", ValueType::kString},
                                             {"d", ValueType::kDouble}}),
                                     engine_->cluster().num_nodes);
    Rng rng(seed);
    for (int i = 0; i < rows; ++i) {
      const Row row = {Value(rng.NextInt64(0, 299)),
                       rng.NextBool(0.95) ? Value::Null()
                                          : Value("s" + std::to_string(i % 13)),
                       rng.NextBool(0.95) ? Value::Null() : Value(i * 0.5)};
      ASSERT_TRUE(t->AppendRow(row).ok());
    }
    ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
  }

  std::string spill_dir_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(GraceJoinTest, SpilledJoinMatchesInMemoryJoin) {
  auto unlimited = RunJoin(0, nullptr);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_EQ(unlimited->metrics.spilled_bytes, 0u);

  QueryContext ctx("spilled");
  auto spilled = RunJoin(16 * 1024, &ctx);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_GT(spilled->metrics.spilled_bytes, 0u);
  EXPECT_GT(spilled->metrics.spill_partitions, 0u);
  EXPECT_GT(spilled->metrics.peak_memory_bytes, 0u);
  // Spilling costs simulated disk time; it must never be free.
  EXPECT_GT(spilled->metrics.simulated_seconds,
            unlimited->metrics.simulated_seconds);

  std::vector<Row> a = unlimited->data.GatherRows();
  std::vector<Row> b = spilled->data.GatherRows();
  SortRows(&a);
  SortRows(&b);
  EXPECT_EQ(a, b);

  // Every spill run was read back and deleted.
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

TEST_F(GraceJoinTest, TinyBudgetForcesRecursionAndStillMatches) {
  auto unlimited = RunJoin(0, nullptr);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();

  // A 1KB budget with fanout 2 cannot fit any partition after one split,
  // so the join recurses several levels before leafing out.
  QueryContext ctx("recursive");
  auto spilled = RunJoin(1024, &ctx, /*fanout=*/2);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_GT(spilled->metrics.spill_partitions, 1u);

  std::vector<Row> a = unlimited->data.GatherRows();
  std::vector<Row> b = spilled->data.GatherRows();
  SortRows(&a);
  SortRows(&b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

TEST_F(GraceJoinTest, ProjectedSpilledJoinGathersOnlyTheKeptColumns) {
  // Projects folded into a spilling join narrow the output of every
  // grace-join sub-partition: the rows are the unprojected join's, narrowed,
  // in the same order, sized from their kept values; spilling is unchanged
  // and each Project adds one pass over the output.
  engine_->mutable_cluster().memory.join_memory_budget_bytes = 16 * 1024;
  auto join = [] {
    return PlanNode::Join(JoinMethod::kHashShuffle, PlanNode::Scan("b", "b"),
                          PlanNode::Scan("p", "p"), {{"b.k", "p.k"}});
  };
  QueryContext whole_ctx("whole");
  QueryContext projected_ctx("projected");
  auto whole = engine_->MakeExecutor(&whole_ctx).Execute(*join(), {});
  auto projected = engine_->MakeExecutor(&projected_ctx)
                       .Execute(*PlanNode::Project(
                                    PlanNode::Project(
                                        join(), {"p.pad", "b.k", "p.k"}),
                                    {"b.k", "p.pad", "b.k"}),
                                {});
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_GT(projected->metrics.spill_partitions, 0u);
  // whole: b.k, b.pad, p.k, p.pad.
  std::vector<Row> expected;
  for (const Row& row : whole->data.GatherRows()) {
    expected.push_back({row[0], row[3], row[0]});
  }
  EXPECT_EQ(projected->data.GatherRows(), expected);
  for (const auto& part : projected->data.partitions) {
    for (const ColumnBatch& b : part) {
      for (size_t i = 0; i < b.num_rows; ++i) {
        EXPECT_EQ(b.row_sizes[i], RowSizeBytes(b.RowAt(i)));
      }
    }
  }
  uint64_t max_rows = 0;
  for (size_t p = 0; p < whole->data.partitions.size(); ++p) {
    max_rows = std::max(max_rows, whole->data.PartitionRows(p));
  }
  const double project_seconds = static_cast<double>(max_rows) *
                                 engine_->cluster().cpu_seconds_per_tuple;
  ExecMetrics expected_metrics = whole->metrics;
  expected_metrics.simulated_seconds += project_seconds;
  expected_metrics.simulated_seconds += project_seconds;
  EXPECT_EQ(MeteringDiff(expected_metrics, projected->metrics), "");
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

/// Asserts that every column of every non-empty batch of `batches` has the
/// kind `kinds` lists for it, and that string columns carry a dictionary.
void ExpectColumnKinds(const std::vector<ColumnBatch>& batches,
                       const std::vector<ColumnKind>& kinds) {
  for (const ColumnBatch& b : batches) {
    if (b.num_rows == 0) continue;
    ASSERT_EQ(b.columns.size(), kinds.size());
    for (size_t c = 0; c < kinds.size(); ++c) {
      EXPECT_EQ(b.columns[c].kind, kinds[c]) << "column " << c;
      if (kinds[c] == ColumnKind::kString) {
        EXPECT_NE(b.columns[c].dict, nullptr) << "column " << c;
      }
    }
  }
}

TEST_F(GraceJoinTest, SpilledNullPayloadsKeepTheirColumnKinds) {
  // Payloads NULL on ~95% of rows, a 4 KiB budget: many spill files hold a
  // sub-partition whose string or double payload is all NULL. Read back,
  // such a file must keep each column's kind, so every output batch has
  // the input columns' kinds and the rows match the in-memory join.
  MakeSparseTable("nb", 3000, 41);
  MakeSparseTable("np", 3000, 42);
  const std::vector<ColumnKind> side = {
      ColumnKind::kInt64, ColumnKind::kString, ColumnKind::kDouble};
  std::vector<ColumnKind> joined = side;
  joined.insert(joined.end(), side.begin(), side.end());
  for (JoinMethod method : {JoinMethod::kHashShuffle, JoinMethod::kBroadcast}) {
    SCOPED_TRACE(JoinMethodName(method));
    auto run = [&](uint64_t budget, QueryContext* ctx) {
      engine_->mutable_cluster().memory.join_memory_budget_bytes = budget;
      JobExecutor executor = engine_->MakeExecutor(ctx);
      return executor.Execute(
          *PlanNode::Join(method, PlanNode::Scan("nb", "b"),
                          PlanNode::Scan("np", "p"), {{"b.k", "p.k"}}),
          {});
    };
    auto unlimited = run(0, nullptr);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
    QueryContext ctx("sparse");
    auto spilled = run(4 * 1024, &ctx);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_GT(spilled->metrics.spill_partitions, 0u);

    std::vector<Row> a = unlimited->data.GatherRows();
    std::vector<Row> b = spilled->data.GatherRows();
    SortRows(&a);
    SortRows(&b);
    EXPECT_EQ(a, b);
    for (const auto& part : spilled->data.partitions) {
      ExpectColumnKinds(part, joined);
    }
    EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
  }
}

TEST_F(GraceJoinTest, MaterializedNullChunksKeepTheirColumnKinds) {
  // The materialize_to_disk round trip reads each partition back in
  // 4-row chunks; with a ~95%-NULL string payload many chunks hold only
  // NULL strings, and the temp table's runs must still be kString.
  MakeSparseTable("nb", 400, 43);
  engine_->mutable_cluster().materialize_to_disk = true;
  engine_->mutable_cluster().exec.max_batch_size = 4;
  JobExecutor executor = engine_->MakeExecutor();
  auto scan = executor.Execute(*PlanNode::Scan("nb", "b"), {});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  std::vector<std::vector<Row>> expected;
  for (size_t p = 0; p < scan->data.partitions.size(); ++p) {
    expected.emplace_back();
    for (const ColumnBatch& b : scan->data.partitions[p]) {
      for (size_t i = 0; i < b.num_rows; ++i) {
        expected[p].push_back(b.RowAt(i));
      }
    }
  }
  ExecMetrics metrics;
  auto sink = executor.Materialize(std::move(scan->data), "sparse", {}, false,
                                   &metrics, nullptr);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  auto table = engine_->catalog().GetTable(sink->table_name);
  ASSERT_TRUE(table.ok());
  size_t null_string_runs = 0;
  for (size_t p = 0; p < table.value()->num_partitions(); ++p) {
    const std::vector<ColumnBatch>& runs = table.value()->partition(p);
    ExpectColumnKinds(runs, {ColumnKind::kInt64, ColumnKind::kString,
                             ColumnKind::kDouble});
    for (const ColumnBatch& run : runs) {
      bool all_null = true;
      for (size_t i = 0; i < run.num_rows; ++i) {
        all_null = all_null && run.columns[1].IsNullAt(i);
      }
      if (all_null) ++null_string_runs;
    }
    EXPECT_EQ(table.value()->ReadRows(p), expected[p]) << "partition " << p;
  }
  EXPECT_GT(null_string_runs, 0u);  // The case under test occurred.
}

/// Order-sensitive fingerprint of a job's output: every value in
/// partition-then-row order, with each partition boundary mixed in.
uint64_t OrderFingerprint(const ColumnarDataset& data) {
  uint64_t h = 0;
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    h = HashCombine(h, p);
    for (const ColumnBatch& b : data.partitions[p]) {
      for (size_t i = 0; i < b.num_rows; ++i) {
        for (const ColumnVector& col : b.columns) {
          h = HashCombine(h, col.ValueAt(i).Hash());
        }
      }
    }
  }
  return h;
}

/// Exact metering and emission order of recursive grace joins (fanout 2,
/// a budget several splits below every build partition), for both join
/// methods that go through the spill path.
/// Registers the pinned tests' tables "sb" (600 rows) and "sp" (900 rows):
/// an int64 key `k` over [0, 150), NULL on every 17th row, and a string
/// payload.
void RegisterPinnedTables(Engine* engine) {
  Rng rng(31);
  for (const auto& [name, rows] : {std::pair{"sb", 600}, {"sp", 900}}) {
    auto t = std::make_shared<Table>(
        name, Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
        engine->cluster().num_nodes);
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(t->AppendRow({i % 17 == 0 ? Value::Null()
                                            : Value(rng.NextInt64(0, 149)),
                                Value("v" + std::to_string(i % 41))})
                      .ok());
    }
    ASSERT_TRUE(engine->catalog().RegisterTable(t).ok());
  }
}

/// Runs b ⋈ p on the pinned tables with `method` under a fresh
/// QueryContext.
Result<JobResult> RunPinnedJoin(Engine* engine, JoinMethod method) {
  QueryContext ctx("pinned");
  JobExecutor executor = engine->MakeExecutor(&ctx);
  return executor.Execute(
      *PlanNode::Join(method, PlanNode::Scan("sb", "b"),
                      PlanNode::Scan("sp", "p"), {{"b.k", "p.k"}}),
      {});
}

TEST_F(GraceJoinTest, PinnedRecursiveSpillMeteringAndOrder) {
  RegisterPinnedTables(engine_.get());
  engine_->mutable_cluster().memory.join_memory_budget_bytes = 256;
  engine_->mutable_cluster().memory.max_spill_fanout = 2;
  struct Pinned {
    JoinMethod method;
    double sim;
    uint64_t spilled_bytes;
    uint64_t spill_partitions;
    uint64_t tuples;
    uint64_t min_peak_memory;
    uint64_t max_peak_memory;
    uint64_t rows;
    uint64_t fingerprint;
  };
  const Pinned cases[] = {
      {JoinMethod::kHashShuffle, 0.42956400000000011, 177552, 167, 7603, 696,
       20598, 3192, 1643223946021974665ULL},
      {JoinMethod::kBroadcast, 1.3453740000000003, 901712, 300, 11179, 1811,
       205980, 3192, 8266236316227931581ULL},
  };
  for (const Pinned& want : cases) {
    auto result = RunPinnedJoin(engine_.get(), want.method);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ExecMetrics& m = result->metrics;
    EXPECT_EQ(m.simulated_seconds, want.sim) << JoinMethodName(want.method);
    EXPECT_EQ(m.spilled_bytes, want.spilled_bytes);
    EXPECT_EQ(m.spill_partitions, want.spill_partitions);
    EXPECT_EQ(m.tuples_processed, want.tuples);
    // Spilling partitions reserve their leaf joins concurrently, so the
    // peak depends on how leaves of different nodes overlap in time: at
    // least the resident partitions plus the largest leaf, at most what the
    // in-memory join reserves (PinnedInMemoryJoinMeteringAndOrder).
    EXPECT_GE(m.peak_memory_bytes, want.min_peak_memory);
    EXPECT_LE(m.peak_memory_bytes, want.max_peak_memory);
    EXPECT_EQ(result->data.NumRows(), want.rows);
    EXPECT_EQ(OrderFingerprint(result->data), want.fingerprint);
    EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
  }
}

/// Exact metering and emission order of the in-memory joins (budget 0) on
/// the same tables, under a QueryContext, with batches small enough that
/// both sides of every join span many of them.
TEST_F(GraceJoinTest, PinnedInMemoryJoinMeteringAndOrder) {
  RegisterPinnedTables(engine_.get());
  engine_->mutable_cluster().memory.join_memory_budget_bytes = 0;
  engine_->mutable_cluster().exec.max_batch_size = 16;
  struct Pinned {
    JoinMethod method;
    double sim;
    uint64_t tuples;
    uint64_t bytes_shuffled;
    uint64_t bytes_broadcast;
    uint64_t peak_memory;
    uint64_t rows;
    uint64_t fingerprint;
  };
  const Pinned cases[] = {
      {JoinMethod::kHashShuffle, 0.14832400000000001, 7692, 45911, 0, 20598,
       3192, 2445090669073753291ULL},
      {JoinMethod::kBroadcast, 0.28751400000000005, 11592, 0, 205980, 205980,
       3192, 888902924682170047ULL},
  };
  for (const Pinned& want : cases) {
    auto result = RunPinnedJoin(engine_.get(), want.method);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ExecMetrics& m = result->metrics;
    EXPECT_EQ(m.simulated_seconds, want.sim) << JoinMethodName(want.method);
    EXPECT_EQ(m.tuples_processed, want.tuples);
    EXPECT_EQ(m.bytes_shuffled, want.bytes_shuffled);
    EXPECT_EQ(m.bytes_broadcast, want.bytes_broadcast);
    EXPECT_EQ(m.peak_memory_bytes, want.peak_memory);
    EXPECT_EQ(m.spilled_bytes, 0u);
    EXPECT_EQ(result->data.NumRows(), want.rows);
    EXPECT_EQ(OrderFingerprint(result->data), want.fingerprint);
  }
}

TEST_F(GraceJoinTest, DuplicateHeavyKeyDegradesToInMemory) {
  // All build rows share one key: partitioning can never shrink the run,
  // so recursion must bottom out at kMaxSpillRecursion and finish the
  // join in memory rather than looping forever.
  auto t = std::make_shared<Table>(
      "dup", Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
      engine_->cluster().num_nodes);
  for (int i = 0; i < 600; ++i) {
    t->AppendRow({Value(int64_t{7}), Value("x" + std::to_string(i % 31))});
  }
  ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());

  engine_->mutable_cluster().memory.join_memory_budget_bytes = 1024;
  engine_->mutable_cluster().memory.max_spill_fanout = 2;
  auto plan = PlanNode::Join(JoinMethod::kHashShuffle,
                             PlanNode::Scan("dup", "d"),
                             PlanNode::Scan("dup", "e"), {{"d.k", "e.k"}});
  QueryContext ctx("dup-key");
  JobExecutor executor = engine_->MakeExecutor(&ctx);
  auto result = executor.Execute(*plan, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->data.NumRows(), uint64_t{600} * 600);
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

TEST_F(GraceJoinTest, UngovernedContextDoesNotChangeMetering) {
  auto bare = RunJoin(0, nullptr);
  ASSERT_TRUE(bare.ok());

  QueryContext ctx("accounting-only");
  auto tracked = RunJoin(0, &ctx);
  ASSERT_TRUE(tracked.ok());

  // Bit-identical simulated cost; the context only adds accounting.
  EXPECT_EQ(bare->metrics.simulated_seconds,
            tracked->metrics.simulated_seconds);
  EXPECT_EQ(bare->metrics.bytes_shuffled, tracked->metrics.bytes_shuffled);
  EXPECT_EQ(tracked->metrics.spilled_bytes, 0u);
  EXPECT_GT(tracked->metrics.peak_memory_bytes, 0u);
  EXPECT_EQ(bare->metrics.peak_memory_bytes, 0u);
}

TEST_F(GraceJoinTest, OptimizerRunsUnderTightBudgetMatchUnlimited) {
  // End-to-end: the dynamic and static optimizers produce identical rows
  // with and without a budget that forces their joins through the spill
  // path (single query: spilling degrades, never refuses).
  for (const char* name : {"r", "s"}) {
    auto t = std::make_shared<Table>(
        name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
        engine_->cluster().num_nodes);
    Rng rng(name[0]);
    ASSERT_TRUE(t->SetPartitionKey({"k"}).ok());
    for (int i = 0; i < 2000; ++i) {
      t->AppendRow({Value(rng.NextInt64(0, 99)), Value(rng.NextInt64(0, 9))});
    }
    ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
    ASSERT_TRUE(engine_->CollectBaseStats(name, {"k", "v"}).ok());
  }
  QuerySpec spec;
  spec.tables = {{"r", "r", false, false, {}}, {"s", "s", false, false, {}}};
  spec.joins = {{"r", "s", {{"r.k", "s.k"}}}};
  spec.projections = {"r.v", "s.v"};
  spec.NormalizeJoins();

  engine_->mutable_cluster().memory.join_memory_budget_bytes = 0;
  DynamicOptimizer dyn_free(engine_.get());
  auto baseline = dyn_free.Run(spec);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  SortRows(&baseline->rows);

  engine_->mutable_cluster().memory.join_memory_budget_bytes = 4 * 1024;
  for (int which = 0; which < 2; ++which) {
    QueryContext ctx("tight");
    std::unique_ptr<Optimizer> opt;
    if (which == 0) {
      opt = std::make_unique<DynamicOptimizer>(engine_.get());
    } else {
      opt = std::make_unique<StaticCostBasedOptimizer>(engine_.get());
    }
    opt->set_context(&ctx);
    auto run = opt->Run(spec);
    ASSERT_TRUE(run.ok()) << opt->name() << ": " << run.status().ToString();
    SortRows(&run->rows);
    EXPECT_EQ(run->rows, baseline->rows) << opt->name();
    EXPECT_GT(run->metrics.spilled_bytes, 0u) << opt->name();
  }
  EXPECT_EQ(CountFilesWithPrefix(spill_dir_, "__spill_"), 0);
}

}  // namespace
}  // namespace dynopt
