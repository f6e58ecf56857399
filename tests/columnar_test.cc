#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "exec/batch.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "exec/vector_kernels.h"
#include "support/dataset.h"
#include "support/reference_kernels.h"

namespace dynopt {
namespace {

// Property tests for the batch engine: random datasets and plans run
// through the executor and through a row-at-a-time oracle (tests/support:
// Table::ReadRows, Bind + EvalBool, the sequential reference kernels) must
// produce identical rows in identical order, bit-identical simulated
// seconds and deterministic counters, and row_sizes annotations equal to
// RowSizeBytes. CI runs this binary under TSan (the batch kernels are
// partition-parallel) and under ASan+UBSan (the typed gathers and
// dictionary merges are pointer-heavy).

uint64_t TotalRowSizes(const Dataset& data) {
  uint64_t total = 0;
  for (const auto& part : data.row_sizes) {
    for (uint64_t s : part) total += s;
  }
  return total;
}

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.columns, b.columns);
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (size_t p = 0; p < a.partitions.size(); ++p) {
    ASSERT_EQ(a.partitions[p].size(), b.partitions[p].size())
        << "partition " << p;
    for (size_t i = 0; i < a.partitions[p].size(); ++i) {
      EXPECT_EQ(a.partitions[p][i], b.partitions[p][i])
          << "partition " << p << " row " << i;
    }
  }
}

/// Job outputs: identical rows in identical partitions and order, and
/// identical row_sizes annotations (batch boundaries may differ).
void ExpectDatasetsEqual(const ColumnarDataset& a, const ColumnarDataset& b) {
  Dataset ra = ToDataset(ColumnarDataset(a));
  Dataset rb = ToDataset(ColumnarDataset(b));
  ExpectDatasetsEqual(ra, rb);
  EXPECT_EQ(ra.row_sizes, rb.row_sizes);
}

void ExpectMetricsEqual(const ExecMetrics& a, const ExecMetrics& b) {
  // Bit-exact: the executor must charge exactly the same units of work in
  // exactly the same order as the oracle.
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.reopt_seconds, b.reopt_seconds);
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.bytes_scanned, b.bytes_scanned);
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
  EXPECT_EQ(a.bytes_broadcast, b.bytes_broadcast);
  EXPECT_EQ(a.bytes_intermediate_read, b.bytes_intermediate_read);
  EXPECT_EQ(a.index_lookups, b.index_lookups);
}

/// A random dataset of int64, double and string columns: an int64 key with
/// NULLs, a second int64 key, a double, and a string with a skewed
/// (dictionary-friendly) domain.
Dataset RandomDataset(uint64_t seed, size_t rows, size_t num_partitions,
                      int key_domain, double null_rate) {
  Dataset data({"t.k", "t.k2", "t.score", "t.name"}, num_partitions,
               {ColumnKind::kInt64, ColumnKind::kInt64, ColumnKind::kDouble,
                ColumnKind::kString});
  Rng rng(seed);
  ZipfDistribution zipf(16, 1.2);
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(rng.NextBool(null_rate)
                      ? Value::Null()
                      : Value(rng.NextInt64(0, key_domain - 1)));
    row.push_back(Value(rng.NextInt64(0, 4)));
    row.push_back(Value(rng.NextDouble() * 100.0));
    row.push_back(Value("name_" + std::to_string(zipf.Sample(rng))));
    data.partitions[rng.NextUint64(num_partitions)].push_back(std::move(row));
  }
  return data;
}

// --- Batch representation round-trip --------------------------------------

TEST(ColumnBatchTest, RoundTripPreservesRowsAndSizes) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Dataset data = RandomDataset(seed, 500, 4, 40, 0.15);
    for (size_t batch_size : {1u, 3u, 64u, 1024u}) {
      ColumnarDataset columnar = FromDataset(data, batch_size);
      EXPECT_EQ(columnar.NumRows(), data.NumRows());
      Dataset back = ToDataset(std::move(columnar));
      ExpectDatasetsEqual(data, back);
      ASSERT_TRUE(back.HasRowSizes());
      for (size_t p = 0; p < back.partitions.size(); ++p) {
        for (size_t i = 0; i < back.partitions[p].size(); ++i) {
          EXPECT_EQ(back.row_sizes[p][i],
                    RowSizeBytes(back.partitions[p][i]));
        }
      }
    }
  }
}

TEST(ColumnBatchTest, BatchHashAndSizeMatchRowKernels) {
  Dataset data = RandomDataset(7, 300, 1, 20, 0.2);
  ColumnarDataset columnar = FromDataset(data, 64);
  const std::vector<int> keys = {0, 3};
  size_t row_idx = 0;
  for (const ColumnBatch& b : columnar.partitions[0]) {
    std::vector<uint64_t> hashes(b.num_rows);
    std::vector<uint8_t> nulls(b.num_rows, 0);
    HashKeyColumns(b, keys.data(), keys.size(), hashes.data(), nulls.data());
    for (size_t i = 0; i < b.num_rows; ++i, ++row_idx) {
      const Row& row = data.partitions[0][row_idx];
      EXPECT_EQ(hashes[i], HashRowKey(row, keys));
      EXPECT_EQ(nulls[i] != 0, row[0].is_null() || row[3].is_null());
      uint64_t size = 8;
      for (const Value& v : row) size += v.SizeBytes();
      EXPECT_EQ(b.row_sizes[i], size);
    }
  }
  EXPECT_EQ(row_idx, data.partitions[0].size());
}

TEST(ColumnBatchTest, ColumnwiseStatsAndSketchesMatchRowCollection) {
  // Stored runs of a table with int64, double and string columns, including
  // NULLs; strings go through the dictionary's cached hashes.
  Dataset data = RandomDataset(9, 700, 1, 30, 0.2);
  Table t("t", Schema({{"k", ValueType::kInt64},
                       {"k2", ValueType::kInt64},
                       {"score", ValueType::kDouble},
                       {"name", ValueType::kString}}),
          1);
  for (const Row& row : data.partitions[0]) {
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  const std::vector<std::string> names = {"k", "score", "name"};
  const std::vector<int> slots = {0, 2, 3};
  TableStatsBuilder by_row(names, slots), by_column(names, slots);
  for (const Row& row : t.ReadRows(0)) by_row.AddRow(row);
  for (const ColumnBatch& run : t.partition(0)) {
    AddBatchToStats(run, &by_column);
  }
  const TableStats a = by_row.Finalize();
  const TableStats b = by_column.Finalize();
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  for (const std::string& name : names) {
    const ColumnStatsSnapshot& x = a.columns.at(name);
    const ColumnStatsSnapshot& y = b.columns.at(name);
    EXPECT_EQ(x.count, y.count) << name;
    EXPECT_EQ(x.null_count, y.null_count) << name;
    EXPECT_EQ(x.ndv, y.ndv) << name;
    EXPECT_EQ(x.min_value, y.min_value) << name;
    EXPECT_EQ(x.max_value, y.max_value) << name;
    EXPECT_EQ(x.histogram.boundaries(), y.histogram.boundaries()) << name;
  }

  SketchOptions opts;
  for (int col : {0, 2, 3}) {
    JoinKeySketch by_rows{BloomFilter(700, 10, 1), FastAgmsSketch(opts), 0, 0};
    JoinKeySketch by_cols{BloomFilter(700, 10, 1), FastAgmsSketch(opts), 0, 0};
    for (const Row& row : t.ReadRows(0)) {
      ++by_rows.rows;
      if (row[static_cast<size_t>(col)].is_null()) {
        ++by_rows.null_keys;
        continue;
      }
      const uint64_t h = HashRowKey(row, {col});
      by_rows.bloom.Insert(h);
      by_rows.agms.Update(h);
    }
    for (const ColumnBatch& run : t.partition(0)) {
      AddColumnToSketch(run, col, &by_cols);
    }
    EXPECT_EQ(by_rows.rows, by_cols.rows);
    EXPECT_EQ(by_rows.null_keys, by_cols.null_keys);
    EXPECT_EQ(by_rows.agms.JoinSizeEstimate(by_rows.agms),
              by_cols.agms.JoinSizeEstimate(by_cols.agms));
    EXPECT_EQ(by_rows.bloom.num_inserted(), by_cols.bloom.num_inserted());
  }
}

// Type and exact payload of a Value (doubles by their bits, so -0.0 and a
// NaN are told apart from 0.0).
std::string ExactValue(const Value& v) {
  if (v.type() == ValueType::kDouble) {
    const double d = v.AsDouble();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(d));
    return "DOUBLE:" + std::to_string(bits);
  }
  return std::string(ValueTypeName(v.type())) + ":" + v.ToString();
}

void ExpectSnapshotsIdentical(const ColumnStatsSnapshot& x,
                              const ColumnStatsSnapshot& y) {
  EXPECT_EQ(x.count, y.count);
  EXPECT_EQ(x.null_count, y.null_count);
  uint64_t xb, yb;
  std::memcpy(&xb, &x.ndv, sizeof(xb));
  std::memcpy(&yb, &y.ndv, sizeof(yb));
  EXPECT_EQ(xb, yb) << x.ndv << " vs " << y.ndv;
  EXPECT_EQ(ExactValue(x.min_value), ExactValue(y.min_value));
  EXPECT_EQ(ExactValue(x.max_value), ExactValue(y.max_value));
  EXPECT_EQ(x.histogram.count(), y.histogram.count());
  const std::vector<double>& xs = x.histogram.boundaries();
  const std::vector<double>& ys = y.histogram.boundaries();
  ASSERT_EQ(xs.size(), ys.size());
  EXPECT_EQ(std::memcmp(xs.data(), ys.data(), xs.size() * sizeof(double)), 0);
}

TEST(ColumnBatchTest, TypedStatsAddsMatchValueAddsAtScale) {
  // 60,000 rows per column — hundreds of compress periods — of every
  // column kind, with and without NULLs, fed in 1,000-row slices through
  // AddColumnToStats (the typed bulk adds) against Add(Value) per row.
  // The extreme int64s, +-2^53 and +-(2^53 + 1), round to the same double,
  // so only the first occurrence is the right min/max; a column of +0.0
  // and -0.0 ties everywhere; another double column mixes both zeros into
  // its range, and a third starts with a NaN (Value::Compare keeps a NaN
  // bound for good).
  constexpr size_t kRows = 60000;
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  Rng rng(23);
  auto dict = std::make_shared<StringDict>();
  for (int i = 0; i < 500; ++i) dict->Intern("s" + std::to_string(i * 7919));
  std::vector<std::pair<std::string, ColumnVector>> columns;
  for (bool nulls : {false, true}) {
    const std::string tag = nulls ? " with NULLs" : "";
    ColumnVector i64, f64, zeros, nan_first, b8, str;
    i64.kind = ColumnKind::kInt64;
    f64.kind = zeros.kind = nan_first.kind = ColumnKind::kDouble;
    b8.kind = ColumnKind::kBool;
    str.kind = ColumnKind::kString;
    str.dict = dict;
    for (size_t i = 0; i < kRows; ++i) {
      const int64_t small = rng.NextInt64(-1000000, 1000000);
      const int64_t huge = rng.NextBool(0.5) ? kTwo53 + rng.NextInt64(0, 1)
                                             : -kTwo53 - rng.NextInt64(0, 1);
      i64.i64.push_back(rng.NextBool(0.2) ? huge : small);
      const double zero = rng.NextBool(0.5) ? 0.0 : -0.0;
      zeros.f64.push_back(zero);
      f64.f64.push_back(rng.NextBool(0.3) ? zero
                                          : rng.NextDouble() * 1e4 - 5e3);
      nan_first.f64.push_back(i == 0 ? std::numeric_limits<double>::quiet_NaN()
                                     : rng.NextDouble() * 100);
      b8.b8.push_back(rng.NextBool(0.3) ? 1 : 0);
      str.codes.push_back(static_cast<uint32_t>(rng.NextUint64(dict->size())));
    }
    if (nulls) {
      SharedBuffer<uint8_t> validity;
      for (size_t i = 0; i < kRows; ++i) {
        validity.push_back(rng.NextBool(0.1) ? 0 : 1);
      }
      for (ColumnVector* c : {&i64, &f64, &zeros, &nan_first, &b8, &str}) {
        c->validity = validity;
      }
    }
    columns.emplace_back("int64" + tag, std::move(i64));
    columns.emplace_back("double" + tag, std::move(f64));
    columns.emplace_back("signed zeros" + tag, std::move(zeros));
    columns.emplace_back("nan-first double" + tag, std::move(nan_first));
    columns.emplace_back("bool" + tag, std::move(b8));
    columns.emplace_back("string" + tag, std::move(str));
  }
  // Pilot-run's path: an ascending selection of about 60% of the rows.
  std::vector<uint32_t> sel;
  for (uint32_t i = 0; i < kRows; ++i) {
    if (rng.NextBool(0.6)) sel.push_back(i);
  }
  constexpr size_t kSlice = 1000;
  auto feed_typed = [&](const ColumnVector& col, bool selected,
                        ColumnStatsBuilder* out) {
    const size_t n = selected ? sel.size() : kRows;
    for (size_t start = 0; start < n; start += kSlice) {
      const size_t m = std::min(kSlice, n - start);
      if (selected) {
        AddColumnToStats(col, sel.data() + start, m, out);
      } else {
        AddColumnToStats(col.Slice(start, m), nullptr, m, out);
      }
    }
  };
  auto feed_values = [&](const ColumnVector& col, bool selected,
                         ColumnStatsBuilder* out) {
    const size_t n = selected ? sel.size() : kRows;
    for (size_t k = 0; k < n; ++k) out->Add(col.ValueAt(selected ? sel[k] : k));
  };
  for (bool selected : {false, true}) {
    for (const auto& [name, col] : columns) {
      SCOPED_TRACE(name + (selected ? " (selection)" : ""));
      ColumnStatsBuilder typed, by_value;
      feed_typed(col, selected, &typed);
      feed_values(col, selected, &by_value);
      ExpectSnapshotsIdentical(typed.Finalize(), by_value.Finalize());
    }
    // One builder fed every column in turn, forwards and backwards, so the
    // running min/max meet bounds of other types (every number sorts
    // before every string).
    for (bool reversed : {false, true}) {
      SCOPED_TRACE(std::string("all columns") + (reversed ? " reversed" : ""));
      ColumnStatsBuilder typed, by_value;
      for (size_t c = 0; c < columns.size(); ++c) {
        const ColumnVector& col =
            columns[reversed ? columns.size() - 1 - c : c].second;
        feed_typed(col, selected, &typed);
        feed_values(col, selected, &by_value);
      }
      ExpectSnapshotsIdentical(typed.Finalize(), by_value.Finalize());
    }
  }
}

// --- Batch kernels vs row reference kernels -------------------------------

TEST(ColumnarKernelTest, ShuffleAndJoinMatchRowReferenceKernels) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Engine engine;
    const ClusterConfig& cluster = engine.cluster();
    Dataset build = RandomDataset(seed, 400, cluster.num_nodes, 25, 0.1);
    Dataset probe =
        RandomDataset(seed + 100, 600, cluster.num_nodes, 25, 0.1);
    const std::vector<int> keys = {0, 1};

    // Row reference pipeline (sequential, recomputes hashes everywhere).
    ExecMetrics row_metrics;
    Dataset row_build = reference::Repartition(Dataset(build), keys, cluster,
                                               &row_metrics);
    Dataset row_probe = reference::Repartition(Dataset(probe), keys, cluster,
                                               &row_metrics);
    Dataset row_joined = reference::LocalHashJoin(
        row_build, row_probe, keys, keys, cluster, &row_metrics);

    // Batch pipeline (parallel, hashes flow from shuffle into build and
    // probe).
    JobExecutor executor = engine.MakeExecutor();
    ExecMetrics col_metrics;
    auto cb = executor.Repartition(
        FromDataset(build, cluster.exec.max_batch_size), keys, &col_metrics);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    auto pb = executor.Repartition(
        FromDataset(probe, cluster.exec.max_batch_size), keys, &col_metrics);
    ASSERT_TRUE(pb.ok()) << pb.status().ToString();
    auto joined =
        executor.LocalHashJoin(std::move(*cb), *pb, keys, keys, &col_metrics);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    Dataset col_joined = ToDataset(std::move(*joined));

    ExpectDatasetsEqual(row_joined, col_joined);
    EXPECT_EQ(row_metrics.simulated_seconds, col_metrics.simulated_seconds);
    EXPECT_EQ(row_metrics.bytes_shuffled, col_metrics.bytes_shuffled);
    EXPECT_EQ(row_metrics.tuples_processed, col_metrics.tuples_processed);
    ASSERT_TRUE(col_joined.HasRowSizes());
    uint64_t annotated = TotalRowSizes(col_joined);
    uint64_t actual = 0;
    for (const auto& part : col_joined.partitions) {
      for (const Row& row : part) actual += RowSizeBytes(row);
    }
    EXPECT_EQ(annotated, actual);
  }
}

// --- Whole-query parity: executor vs row oracle ---------------------------

uint64_t MaxPartitionRows(const Dataset& data) {
  uint64_t mx = 0;
  for (const auto& part : data.partitions) {
    mx = std::max<uint64_t>(mx, part.size());
  }
  return mx;
}

/// Row-at-a-time oracle of a job over base-table scans, filters,
/// projections and shuffle/broadcast joins: scans read Table::ReadRows,
/// filters are Bind + EvalBool per row, joins run the sequential reference
/// kernels, and every operator charges its cost-model formula into
/// `metrics` in execution order — an independent derivation of the rows
/// and metering the executor must produce.
Result<Dataset> OracleRun(Engine* engine, const PlanNode& node,
                          const std::map<std::string, Value>& params,
                          ExecMetrics* metrics) {
  const ClusterConfig& cluster = engine->cluster();
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      if (node.is_intermediate) {
        return Status::Internal("oracle scans base tables only");
      }
      DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                              engine->catalog().GetTable(node.table));
      std::vector<std::string> columns;
      for (size_t i = 0; i < table->schema().num_fields(); ++i) {
        columns.push_back(node.alias + "." + table->schema().field(i).name);
      }
      Dataset out(columns, table->num_partitions());
      uint64_t max_bytes = 0;
      for (size_t p = 0; p < table->num_partitions(); ++p) {
        out.partitions[p] = table->ReadRows(p);
        uint64_t bytes = 0;
        for (const Row& row : out.partitions[p]) bytes += RowSizeBytes(row);
        max_bytes = std::max(max_bytes, bytes);
        metrics->bytes_scanned += bytes;
      }
      metrics->tuples_processed += out.NumRows();
      metrics->simulated_seconds +=
          static_cast<double>(max_bytes) * cluster.scan_seconds_per_byte +
          static_cast<double>(MaxPartitionRows(out)) *
              cluster.cpu_seconds_per_tuple;
      if (node.scan_columns.empty()) return out;
      // Projection pushdown: whole stored rows are read and charged, and
      // only the named columns leave the scan.
      std::vector<int> slots;
      for (const std::string& name : node.scan_columns) {
        slots.push_back(out.ColumnIndex(name));
        if (slots.back() < 0) {
          return Status::ExecutionError("scan column " + name +
                                        " not in table " + node.table);
        }
      }
      Dataset narrowed(node.scan_columns, out.partitions.size());
      for (size_t p = 0; p < out.partitions.size(); ++p) {
        for (const Row& row : out.partitions[p]) {
          Row kept;
          for (int s : slots) kept.push_back(row[static_cast<size_t>(s)]);
          narrowed.partitions[p].push_back(std::move(kept));
        }
      }
      return narrowed;
    }
    case PlanNode::Kind::kFilter: {
      DYNOPT_ASSIGN_OR_RETURN(
          Dataset input,
          OracleRun(engine, *node.children[0], params, metrics));
      BindContext ctx;
      ctx.resolve_column = [&input](const std::string& name) {
        return input.ColumnIndex(name);
      };
      ctx.params = &params;
      ctx.udfs = &engine->udfs();
      DYNOPT_ASSIGN_OR_RETURN(BoundExprPtr bound, Bind(node.predicate, ctx));
      Dataset out(input.columns, input.partitions.size());
      for (size_t p = 0; p < input.partitions.size(); ++p) {
        for (const Row& row : input.partitions[p]) {
          if (bound->EvalBool(row)) out.partitions[p].push_back(row);
        }
      }
      metrics->tuples_processed += input.NumRows();
      metrics->simulated_seconds +=
          static_cast<double>(MaxPartitionRows(input)) *
          cluster.cpu_seconds_per_tuple;
      return out;
    }
    case PlanNode::Kind::kProject: {
      DYNOPT_ASSIGN_OR_RETURN(
          Dataset input,
          OracleRun(engine, *node.children[0], params, metrics));
      std::vector<int> slots;
      for (const std::string& name : node.project_columns) {
        slots.push_back(input.ColumnIndex(name));
        if (slots.back() < 0) {
          return Status::ExecutionError("project column " + name +
                                        " not found in dataset");
        }
      }
      Dataset out(node.project_columns, input.partitions.size());
      for (size_t p = 0; p < input.partitions.size(); ++p) {
        for (const Row& row : input.partitions[p]) {
          Row projected;
          for (int s : slots) projected.push_back(row[static_cast<size_t>(s)]);
          out.partitions[p].push_back(std::move(projected));
        }
      }
      metrics->simulated_seconds +=
          static_cast<double>(MaxPartitionRows(input)) *
          cluster.cpu_seconds_per_tuple;
      return out;
    }
    case PlanNode::Kind::kJoin: {
      DYNOPT_ASSIGN_OR_RETURN(
          Dataset build,
          OracleRun(engine, *node.children[0], params, metrics));
      DYNOPT_ASSIGN_OR_RETURN(
          Dataset probe,
          OracleRun(engine, *node.children[1], params, metrics));
      std::vector<int> build_keys, probe_keys;
      for (const auto& [l, r] : node.keys) {
        build_keys.push_back(build.ColumnIndex(l));
        probe_keys.push_back(probe.ColumnIndex(r));
      }
      if (node.method == JoinMethod::kHashShuffle) {
        Dataset build_parts = reference::Repartition(
            std::move(build), build_keys, cluster, metrics);
        Dataset probe_parts = reference::Repartition(
            std::move(probe), probe_keys, cluster, metrics);
        return reference::LocalHashJoin(build_parts, probe_parts, build_keys,
                                        probe_keys, cluster, metrics);
      }
      // Broadcast: every probe node receives the whole build side; a build
      // side over the broadcast threshold pays the flat overflow penalty.
      const std::vector<Row> build_rows = build.GatherRows();
      uint64_t build_bytes = 0;
      for (const Row& row : build_rows) build_bytes += RowSizeBytes(row);
      const size_t n = probe.partitions.size();
      metrics->bytes_broadcast += build_bytes * n;
      metrics->simulated_seconds += static_cast<double>(build_bytes) *
                                    cluster.network_seconds_per_byte;
      if (build_bytes > cluster.broadcast_threshold_bytes) {
        metrics->simulated_seconds +=
            static_cast<double>(build_bytes -
                                cluster.broadcast_threshold_bytes) *
            kSpillPenaltyPasses *
            (cluster.disk_write_seconds_per_byte +
             cluster.disk_read_seconds_per_byte);
      }
      Dataset replicated(build.columns, n);
      for (size_t p = 0; p < n; ++p) replicated.partitions[p] = build_rows;
      return reference::LocalHashJoin(replicated, probe, build_keys,
                                      probe_keys, cluster, metrics);
    }
  }
  return Status::Internal("unknown plan node kind");
}

/// Fixture running plans through the executor and the row oracle and
/// asserting full parity. Tables get every kind of column plus NULL keys.
class ColumnarParityTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_ = std::make_unique<Engine>(); }

  void MakeTable(const std::string& name, int rows, int key_domain,
                 uint64_t seed, double null_rate = 0.1) {
    auto t = std::make_shared<Table>(
        name,
        Schema({{"k", ValueType::kInt64},
                {"k2", ValueType::kInt64},
                {"score", ValueType::kDouble},
                {"name", ValueType::kString}}),
        engine_->cluster().num_nodes);
    ASSERT_TRUE(t->SetPartitionKey({"k"}).ok());
    Rng rng(seed);
    ZipfDistribution zipf(32, 1.1);
    for (int i = 0; i < rows; ++i) {
      const Row row = {rng.NextBool(null_rate)
                           ? Value::Null()
                           : Value(rng.NextInt64(0, key_domain - 1)),
                       Value(rng.NextInt64(0, 5)),
                       Value(rng.NextDouble() * 10.0),
                       Value("s" + std::to_string(zipf.Sample(rng)))};
      ASSERT_TRUE(t->AppendRow(row).ok());
    }
    ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
  }

  /// Executes `plan` on the executor and on the oracle; asserts identical
  /// status, rows in partition order, row_sizes annotations, and metering;
  /// returns the executor's run.
  JobResult ExpectParity(const PlanNode& plan,
                         const std::map<std::string, Value>& params = {}) {
    JobExecutor executor = engine_->MakeExecutor();
    auto col = executor.Execute(plan, params);
    ExecMetrics oracle_metrics;
    auto oracle = OracleRun(engine_.get(), plan, params, &oracle_metrics);
    EXPECT_EQ(col.ok(), oracle.ok());
    if (!col.ok() || !oracle.ok()) {
      EXPECT_EQ(col.status().ToString(), oracle.status().ToString());
      return JobResult();
    }
    const Dataset rows = ToDataset(ColumnarDataset(col->data));
    ExpectDatasetsEqual(*oracle, rows);
    for (size_t p = 0; p < rows.partitions.size(); ++p) {
      for (size_t i = 0; i < rows.partitions[p].size(); ++i) {
        EXPECT_EQ(rows.row_sizes[p][i], RowSizeBytes(rows.partitions[p][i]));
      }
    }
    ExpectMetricsEqual(oracle_metrics, col->metrics);
    return std::move(*col);
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(ColumnarParityTest, FilterPredicateZoo) {
  MakeTable("t", 800, 50, 21);
  ASSERT_TRUE(engine_->udfs()
                  .Register("half",
                            [](const std::vector<Value>& args) {
                              if (args[0].is_null()) return Value::Null();
                              return Value(args[0].AsDouble() / 2.0);
                            })
                  .ok());
  std::vector<ExprPtr> predicates = {
      Eq(Col("a", "k"), Lit(Value(3))),
      Cmp(CompareOp::kLt, Col("a", "score"), Lit(Value(4.5))),
      // Cross-type numeric comparison (int64 column vs double literal).
      Cmp(CompareOp::kGe, Col("a", "k"), Lit(Value(10.5))),
      Between(Col("a", "k"), Lit(Value(5)), Lit(Value(20))),
      // String comparisons against constants (dictionary fast path).
      Eq(Col("a", "name"), Lit(Value(std::string("s0")))),
      Cmp(CompareOp::kGt, Col("a", "name"), Lit(Value(std::string("s2")))),
      // NULL-propagating leaves; only the filter reads NULL as false.
      Eq(Col("a", "k"), Lit(Value::Null())),
      // AND/OR/NOT trees over NULLable children.
      And({Cmp(CompareOp::kGe, Col("a", "k"), Lit(Value(10))),
           Or({Eq(Col("a", "k2"), Lit(Value(1))),
               Not(Eq(Col("a", "name"), Lit(Value(std::string("s1")))))})}),
      Not(Eq(Col("a", "k"), Lit(Value::Null()))),
      // Parameters and UDFs.
      Eq(Col("a", "k2"), Param("p")),
      Cmp(CompareOp::kLt, Udf("half", {Col("a", "score")}), Lit(Value(2.0))),
      // Column-vs-column comparison.
      Cmp(CompareOp::kLe, Col("a", "k2"), Col("a", "k")),
  };
  for (size_t i = 0; i < predicates.size(); ++i) {
    auto plan =
        PlanNode::Filter(PlanNode::Scan("t", "a"), predicates[i]);
    ExpectParity(*plan, {{"p", Value(2)}});
  }

  // Doubles at the edges of comparison: NaN (Value::Compare finds it equal
  // to everything), signed zeros, infinities, huge finite values, NULL and
  // both bounds. BETWEEN must agree with the oracle and with its own
  // expansion on every row.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto d = std::make_shared<Table>(
      "d", Schema({{"id", ValueType::kInt64}, {"x", ValueType::kDouble}}),
      engine_->cluster().num_nodes);
  ASSERT_TRUE(d->SetPartitionKey({"id"}).ok());
  const std::vector<Value> xs = {
      Value(nan),  Value(0.0),    Value(-0.0),   Value(inf),
      Value(-inf), Value(1e300),  Value(-1e300), Value::Null(),
      Value(1.0),  Value(2.0),    Value(1.5),    Value(2.5)};
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(
        d->AppendRow({Value(static_cast<int64_t>(i)), xs[i]}).ok());
  }
  ASSERT_TRUE(engine_->catalog().RegisterTable(d).ok());
  const ExprPtr x = Col("d", "x");
  auto between = [&](Value lo, Value hi) {
    return Between(x, Lit(std::move(lo)), Lit(std::move(hi)));
  };
  const std::vector<ExprPtr> edge_predicates = {
      between(Value(1), Value(2)),
      Not(between(Value(1), Value(2))),
      between(Value(1.0), Value(inf)),
      between(Value(-0.0), Value(0.0)),
      between(Value::Null(), Value(2)),
      between(Value(1), Value::Null()),
      Eq(between(Value(1), Value(2)), Lit(Value(true))),
      And({Cmp(CompareOp::kGe, x, Lit(Value(1))),
           Cmp(CompareOp::kLe, x, Lit(Value(2)))}),
      Cmp(CompareOp::kLt, x, Lit(Value(nan))),
      Eq(x, Lit(Value(-0.0))),
  };
  for (const ExprPtr& pred : edge_predicates) {
    SCOPED_TRACE(pred->ToString());
    ExpectParity(*PlanNode::Filter(PlanNode::Scan("d", "d"), pred));
  }

  // NOT/AND/OR nests over NULLs under Kleene logic, against ids written out
  // by hand, since the oracle evaluates with the same semantics. x > 2 is
  // TRUE for ids {3, 5, 11}, NULL for 7 and FALSE elsewhere (NaN compares
  // equal to everything).
  const ExprPtr is_null = Eq(x, Lit(Value::Null()));
  const ExprPtr gt2 = Cmp(CompareOp::kGt, x, Lit(Value(2)));
  const std::vector<std::pair<ExprPtr, std::vector<int64_t>>> kleene = {
      {Not(is_null), {}},
      {Not(Not(is_null)), {}},
      {Not(between(Value::Null(), Value(2))), {3, 5, 11}},
      {Not(between(Value(1), Value::Null())), {1, 2, 4, 6}},
      {Or({is_null, gt2}), {3, 5, 11}},
      {Not(Or({is_null, gt2})), {}},
      {Not(And({is_null, gt2})), {0, 1, 2, 4, 6, 8, 9, 10}},
      {And({Not(is_null), gt2}), {}},
      {Or({is_null, Not(Cmp(CompareOp::kLt, x, Lit(Value(1))))}),
       {0, 3, 5, 8, 9, 10, 11}},
      {Or({And({is_null, gt2}), Eq(x, Lit(Value(1.5)))}), {0, 10}},
  };
  for (const auto& [pred, want] : kleene) {
    SCOPED_TRACE(pred->ToString());
    JobResult result =
        ExpectParity(*PlanNode::Filter(PlanNode::Scan("d", "d"), pred));
    std::vector<int64_t> got;
    for (const Row& row : result.data.GatherRows()) {
      got.push_back(row[0].AsInt64());
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

TEST_F(ColumnarParityTest, FilterBindErrorsMatchBind) {
  MakeTable("t", 10, 5, 22);
  auto bad_col =
      PlanNode::Filter(PlanNode::Scan("t", "a"), Eq(Col("a", "nope"),
                                                    Lit(Value(1))));
  ExpectParity(*bad_col);
  auto bad_param =
      PlanNode::Filter(PlanNode::Scan("t", "a"), Eq(Col("a", "k"),
                                                    Param("missing")));
  ExpectParity(*bad_param);
  auto bad_udf = PlanNode::Filter(PlanNode::Scan("t", "a"),
                                  Eq(Udf("nope", {Col("a", "k")}),
                                     Lit(Value(1))));
  ExpectParity(*bad_udf);
}

TEST_F(ColumnarParityTest, ShuffleJoinRandomized) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    auto lhs = "lhs" + std::to_string(seed);
    auto rhs = "rhs" + std::to_string(seed);
    MakeTable(lhs, 700, 40, seed);
    MakeTable(rhs, 900, 40, seed + 1);
    // Join on k2 (not the partition key) to force real shuffle traffic;
    // composite key with NULLs on k.
    auto plan = PlanNode::Join(
        JoinMethod::kHashShuffle, PlanNode::Scan(lhs, "l"),
        PlanNode::Scan(rhs, "r"), {{"l.k", "r.k"}, {"l.k2", "r.k2"}});
    ExpectParity(*plan);
  }
}

TEST_F(ColumnarParityTest, BroadcastJoinIncludingOversized) {
  MakeTable("small", 150, 30, 41);
  MakeTable("big", 1200, 30, 42);
  auto plan = PlanNode::Join(JoinMethod::kBroadcast,
                             PlanNode::Scan("small", "l"),
                             PlanNode::Scan("big", "r"), {{"l.k", "r.k"}});
  JobResult result = ExpectParity(*plan);
  EXPECT_GT(result.metrics.bytes_broadcast, 0u);

  // Shrink the broadcast budget so the build side overflows: the flat
  // spill penalty must be charged exactly as the oracle's formula.
  engine_->mutable_cluster().broadcast_threshold_bytes = 512;
  ExpectParity(*plan);
}

TEST_F(ColumnarParityTest, MultiOperatorPipeline) {
  MakeTable("lhs", 600, 30, 51);
  MakeTable("rhs", 800, 30, 52);
  auto plan = PlanNode::Project(
      PlanNode::Join(
          JoinMethod::kHashShuffle,
          PlanNode::Filter(PlanNode::Scan("lhs", "l"),
                           Cmp(CompareOp::kGe, Col("l", "score"),
                               Lit(Value(2.0)))),
          PlanNode::Filter(PlanNode::Scan("rhs", "r"),
                           Between(Col("r", "k"), Lit(Value(2)),
                                   Lit(Value(25)))),
          {{"l.k2", "r.k2"}}),
      {"r.name", "l.score", "l.k"});
  ExpectParity(*plan);
}

TEST_F(ColumnarParityTest, EmptyInputsAndEmptyPartitions) {
  MakeTable("empty", 0, 10, 61);
  MakeTable("tiny", 3, 1000, 62, /*null_rate=*/0.0);
  MakeTable("t", 400, 20, 63);
  // Empty build side.
  ExpectParity(*PlanNode::Join(JoinMethod::kHashShuffle,
                               PlanNode::Scan("empty", "l"),
                               PlanNode::Scan("t", "r"),
                               {{"l.k", "r.k"}}));
  // Tiny build side: after shuffling by a 1000-value domain most of the 10
  // partitions are empty on the build side.
  ExpectParity(*PlanNode::Join(JoinMethod::kHashShuffle,
                               PlanNode::Scan("tiny", "l"),
                               PlanNode::Scan("t", "r"),
                               {{"l.k2", "r.k2"}}));
  // Empty probe side, broadcast method.
  ExpectParity(*PlanNode::Join(JoinMethod::kBroadcast,
                               PlanNode::Scan("t", "l"),
                               PlanNode::Scan("empty", "r"),
                               {{"l.k", "r.k"}}));
  // Filter that rejects everything.
  ExpectParity(*PlanNode::Filter(PlanNode::Scan("t", "a"),
                                 Eq(Col("a", "k"), Lit(Value(-1)))));
}

TEST_F(ColumnarParityTest, FusedLeafAndProjectedJoinShapes) {
  // Filter and Project run inside the scan's or the join's task; rows, row
  // sizes and metering must still match the operator-at-a-time oracle at
  // every batch size.
  MakeTable("lhs", 300, 30, 91);
  MakeTable("rhs", 400, 30, 92);
  std::vector<std::unique_ptr<PlanNode>> plans;
  // The dynamic optimizer's pushdown shape: a pruned scan, a filter on a
  // column only the predicate reads, then two Projects.
  plans.push_back(PlanNode::Project(
      PlanNode::Project(
          PlanNode::Filter(
              PlanNode::Scan("lhs", "l", false,
                             {"l.k", "l.score", "l.name", "l.k2"}),
              Cmp(CompareOp::kLt, Col("l", "score"), Lit(Value(6.0)))),
          {"l.name", "l.k", "l.k2"}),
      {"l.k2", "l.name"}));
  // A Project that narrows and reorders a scan's columns.
  plans.push_back(
      PlanNode::Project(PlanNode::Scan("lhs", "l"), {"l.name", "l.k"}));
  // A Filter that keeps every row (score is in [0, 10)), and one that
  // keeps none.
  plans.push_back(PlanNode::Filter(
      PlanNode::Scan("lhs", "l"),
      Cmp(CompareOp::kGe, Col("l", "score"), Lit(Value(0.0)))));
  plans.push_back(PlanNode::Filter(
      PlanNode::Scan("lhs", "l", false, {"l.score", "l.name"}),
      Cmp(CompareOp::kLt, Col("l", "score"), Lit(Value(0.0)))));
  // Project(Project(Join)): probe columns before build columns, and one
  // column repeated.
  plans.push_back(PlanNode::Project(
      PlanNode::Project(
          PlanNode::Join(
              JoinMethod::kHashShuffle,
              PlanNode::Filter(PlanNode::Scan("lhs", "l"),
                               Cmp(CompareOp::kGe, Col("l", "score"),
                                   Lit(Value(5.0)))),
              PlanNode::Scan("rhs", "r"), {{"l.k2", "r.k2"}}),
          {"r.name", "l.k", "r.score", "l.name", "l.k"}),
      {"l.k", "r.name", "l.k", "l.name"}));
  // A projected broadcast join.
  plans.push_back(PlanNode::Project(
      PlanNode::Join(JoinMethod::kBroadcast,
                     PlanNode::Filter(PlanNode::Scan("lhs", "l"),
                                      Eq(Col("l", "k2"), Lit(Value(1)))),
                     PlanNode::Scan("rhs", "r"), {{"l.k", "r.k"}}),
      {"r.k2", "l.score", "r.name"}));
  for (size_t batch_size : {1u, 3u, 1024u}) {
    engine_->mutable_cluster().exec.max_batch_size = batch_size;
    for (const auto& plan : plans) {
      SCOPED_TRACE("max_batch_size " + std::to_string(batch_size) + "\n" +
                   plan->ToString());
      ExpectParity(*plan);
    }
  }
  // A predicate on a column the scan's projection pushdown dropped fails
  // as Bind() would, and a Project of a dropped column as before.
  auto dropped = PlanNode::Filter(
      PlanNode::Scan("lhs", "l", false, {"l.k", "l.name"}),
      Cmp(CompareOp::kLt, Col("l", "score"), Lit(Value(6.0))));
  ExpectParity(*dropped);
  EXPECT_EQ(engine_->MakeExecutor().Execute(*dropped, {}).status().ToString(),
            "BindError: unresolved column l.score");
  auto projected_away = PlanNode::Filter(
      PlanNode::Project(PlanNode::Scan("lhs", "l"), {"l.k", "l.name"}),
      Cmp(CompareOp::kLt, Col("l", "score"), Lit(Value(6.0))));
  ExpectParity(*projected_away);
  ExpectParity(*PlanNode::Project(PlanNode::Scan("lhs", "l", false, {"l.k"}),
                                  {"l.k", "l.name"}));
}

TEST_F(ColumnarParityTest, SimulatedTimeInvariantUnderBatchSize) {
  MakeTable("lhs", 500, 25, 71);
  MakeTable("rhs", 700, 25, 72);
  auto plan = PlanNode::Join(
      JoinMethod::kHashShuffle,
      PlanNode::Filter(PlanNode::Scan("lhs", "l"),
                       Cmp(CompareOp::kLt, Col("l", "score"),
                           Lit(Value(8.0)))),
      PlanNode::Scan("rhs", "r"), {{"l.k2", "r.k2"}});
  JobResult baseline;
  bool first = true;
  for (size_t batch_size : {1u, 3u, 64u, 1024u, 4096u}) {
    engine_->mutable_cluster().exec.max_batch_size = batch_size;
    JobExecutor executor = engine_->MakeExecutor();
    auto result = executor.Execute(*plan, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (first) {
      baseline = std::move(*result);
      first = false;
      continue;
    }
    ExpectDatasetsEqual(baseline.data, result->data);
    ExpectMetricsEqual(baseline.metrics, result->metrics);
  }
}

TEST_F(ColumnarParityTest, ScanOutputInvariantUnderBatchSize) {
  MakeTable("t", 900, 40, 73);
  // A temp table too: its stored runs are a join's output batches.
  engine_->mutable_cluster().exec.max_batch_size = 50;
  auto join = engine_->MakeExecutor().Execute(
      *PlanNode::Join(JoinMethod::kHashShuffle, PlanNode::Scan("t", "l"),
                      PlanNode::Scan("t", "r"), {{"l.k2", "r.k2"}}),
      {});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ExecMetrics sink_metrics;
  auto sink = engine_->MakeExecutor().Materialize(
      std::move(join->data), "scan", {}, false, &sink_metrics);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();

  std::vector<std::unique_ptr<PlanNode>> plans;
  plans.push_back(PlanNode::Scan("t", "a"));
  plans.push_back(PlanNode::Scan("t", "a", false, {"a.name", "a.k"}));
  plans.push_back(PlanNode::Scan(sink->table_name, "", true));
  plans.push_back(PlanNode::Scan(sink->table_name, "", true,
                                 {"r.score", "l.name", "l.k"}));
  for (const auto& plan : plans) {
    JobResult baseline;
    bool first = true;
    for (size_t batch_size : {1u, 7u, 1024u, 4096u}) {
      engine_->mutable_cluster().exec.max_batch_size = batch_size;
      auto result = engine_->MakeExecutor().Execute(*plan, {});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const auto& part : result->data.partitions) {
        for (const ColumnBatch& b : part) {
          EXPECT_GT(b.num_rows, 0u);
          EXPECT_LE(b.num_rows, batch_size);
          ASSERT_EQ(b.row_sizes.size(), b.num_rows);
          for (size_t i = 0; i < b.num_rows; ++i) {
            EXPECT_EQ(b.row_sizes[i], RowSizeBytes(b.RowAt(i)));
          }
        }
      }
      if (first) {
        baseline = std::move(*result);
        first = false;
        continue;
      }
      ExpectDatasetsEqual(baseline.data, result->data);
      ExpectMetricsEqual(baseline.metrics, result->metrics);
    }
  }
}

// --- Shared column buffers: slices and scans borrow --------------------------

/// Address of row `row` of `col`'s payload.
const void* PayloadAt(const ColumnVector& col, size_t row) {
  switch (col.kind) {
    case ColumnKind::kInt64:
      return col.i64.data() + row;
    case ColumnKind::kDouble:
      return col.f64.data() + row;
    case ColumnKind::kBool:
      return col.b8.data() + row;
    case ColumnKind::kString:
      return col.codes.data() + row;
  }
  return nullptr;
}

/// True when `b`'s first payload address lies inside a payload of one of
/// `runs`' columns.
bool PointsIntoRuns(const ColumnVector& b, const std::vector<ColumnBatch>& runs) {
  const auto* p = static_cast<const char*>(PayloadAt(b, 0));
  for (const ColumnBatch& run : runs) {
    for (const ColumnVector& col : run.columns) {
      const auto* lo = static_cast<const char*>(PayloadAt(col, 0));
      const auto* hi = static_cast<const char*>(PayloadAt(col, col.size()));
      if (p >= lo && p < hi) return true;
    }
  }
  return false;
}

TEST(ColumnBatchTest, SliceBatchBorrowsItsSource) {
  Dataset data = RandomDataset(7, 200, 1, 20, 0.2);
  const ColumnBatch src = FromDataset(data, 200).partitions[0][0];
  ASSERT_EQ(src.num_rows, 200u);
  // Whole rows: every payload, validity mask and the row sizes point into
  // the source.
  const std::vector<int> all = {0, 1, 2, 3};
  const ColumnBatch whole = SliceBatch(src, 50, 30, all.data(), all.size());
  ASSERT_EQ(whole.num_rows, 30u);
  for (size_t c = 0; c < all.size(); ++c) {
    EXPECT_EQ(PayloadAt(whole.columns[c], 0), PayloadAt(src.columns[c], 50))
        << "column " << c;
    if (!src.columns[c].validity.empty()) {
      EXPECT_EQ(whole.columns[c].validity.data(),
                src.columns[c].validity.data() + 50);
    }
  }
  EXPECT_EQ(whole.row_sizes.data(), src.row_sizes.data() + 50);
  // A projection borrows its payloads but sizes its rows from the kept
  // values.
  const std::vector<int> keep = {3, 0, 3};
  const ColumnBatch projected =
      SliceBatch(src, 120, 40, keep.data(), keep.size());
  for (size_t k = 0; k < keep.size(); ++k) {
    EXPECT_EQ(PayloadAt(projected.columns[k], 0),
              PayloadAt(src.columns[static_cast<size_t>(keep[k])], 120));
  }
  ASSERT_EQ(projected.row_sizes.size(), 40u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(projected.row_sizes[i], RowSizeBytes(projected.RowAt(i)));
  }
}

TEST_F(ColumnarParityTest, UnfilteredLeafBorrowsStoredRuns) {
  MakeTable("t", 900, 40, 75);
  auto table = engine_->catalog().GetTable("t").value();
  constexpr size_t kBatch = 64;
  engine_->mutable_cluster().exec.max_batch_size = kBatch;
  // Whole rows, and a projection pushdown that narrows and reorders.
  const std::vector<int> all = {0, 1, 2, 3};
  const std::vector<int> pushed = {3, 0};
  for (const bool project : {false, true}) {
    SCOPED_TRACE(project ? "projected" : "whole rows");
    auto plan = project ? PlanNode::Scan("t", "a", false, {"a.name", "a.k"})
                        : PlanNode::Scan("t", "a");
    const std::vector<int>& slots = project ? pushed : all;
    auto result = engine_->MakeExecutor().Execute(*plan, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      const auto& out = result->data.partitions[p];
      size_t j = 0;
      for (const ColumnBatch& run : table->partition(p)) {
        for (size_t start = 0; start < run.num_rows; start += kBatch) {
          ASSERT_LT(j, out.size());
          const ColumnBatch& b = out[j++];
          for (size_t k = 0; k < slots.size(); ++k) {
            const ColumnVector& stored =
                run.columns[static_cast<size_t>(slots[k])];
            EXPECT_EQ(PayloadAt(b.columns[k], 0), PayloadAt(stored, start));
            if (!stored.validity.empty()) {
              EXPECT_EQ(b.columns[k].validity.data(),
                        stored.validity.data() + start);
            }
          }
          if (!project) {
            EXPECT_EQ(b.row_sizes.data(), run.row_sizes.data() + start);
          }
        }
      }
      EXPECT_EQ(j, out.size());
    }
  }
  // A filtered slice gathers its survivors into fresh buffers: with one
  // slice per stored run, no run keeps all of its ~90 rows.
  engine_->mutable_cluster().exec.max_batch_size = 4096;
  auto filtered = engine_->MakeExecutor().Execute(
      *PlanNode::Filter(PlanNode::Scan("t", "a"),
                        Cmp(CompareOp::kLt, Col("a", "score"),
                            Lit(Value(5.0)))),
      {});
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  size_t batches = 0;
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    for (const ColumnBatch& b : filtered->data.partitions[p]) {
      ++batches;
      for (const ColumnVector& col : b.columns) {
        EXPECT_FALSE(PointsIntoRuns(col, table->partition(p)));
      }
    }
  }
  EXPECT_GT(batches, 0u);
}

TEST_F(ColumnarParityTest, TempTableKeepsAndScanBorrowsMaterializedBatches) {
  MakeTable("t", 600, 30, 77);
  engine_->mutable_cluster().exec.max_batch_size = 50;
  auto join = engine_->MakeExecutor().Execute(
      *PlanNode::Join(JoinMethod::kHashShuffle, PlanNode::Scan("t", "l"),
                      PlanNode::Scan("t", "r"), {{"l.k2", "r.k2"}}),
      {});
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  // Each batch's buffers before the move: every column's payload and the
  // row sizes.
  std::vector<std::vector<std::vector<const void*>>> before;
  for (const auto& part : join->data.partitions) {
    before.emplace_back();
    for (const ColumnBatch& b : part) {
      std::vector<const void*> ptrs;
      for (const ColumnVector& col : b.columns) ptrs.push_back(PayloadAt(col, 0));
      ptrs.push_back(b.row_sizes.data());
      before.back().push_back(std::move(ptrs));
    }
  }
  ExecMetrics sink_metrics;
  auto sink = engine_->MakeExecutor().Materialize(
      std::move(join->data), "borrow", {}, false, &sink_metrics);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  auto temp = engine_->catalog().GetTable(sink->table_name).value();
  ASSERT_EQ(temp->num_partitions(), before.size());
  auto buffers = [](const ColumnBatch& b) {
    std::vector<const void*> ptrs;
    for (const ColumnVector& col : b.columns) ptrs.push_back(PayloadAt(col, 0));
    ptrs.push_back(b.row_sizes.data());
    return ptrs;
  };
  for (size_t p = 0; p < before.size(); ++p) {
    ASSERT_EQ(temp->partition(p).size(), before[p].size());
    for (size_t i = 0; i < before[p].size(); ++i) {
      EXPECT_EQ(buffers(temp->partition(p)[i]), before[p][i]);
    }
  }
  // Every stored run has at most max_batch_size rows, so the scan emits
  // each run whole, on the run's own buffers.
  auto scan = engine_->MakeExecutor().Execute(
      *PlanNode::Scan(sink->table_name, "", true), {});
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  size_t runs = 0;
  for (size_t p = 0; p < before.size(); ++p) {
    const auto& out = scan->data.partitions[p];
    ASSERT_EQ(out.size(), before[p].size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(buffers(out[i]), before[p][i]);
      ++runs;
    }
  }
  EXPECT_GT(runs, 0u);
}

// --- Satellite: column slots resolve once per operator --------------------

TEST_F(ColumnarParityTest, NameLookupsIndependentOfRowCount) {
  MakeTable("small_t", 50, 20, 81);
  MakeTable("large_t", 5000, 20, 82);
  auto make_plan = [](const std::string& table) {
    return PlanNode::Project(
        PlanNode::Join(JoinMethod::kHashShuffle,
                       PlanNode::Filter(PlanNode::Scan(table, "l"),
                                        Cmp(CompareOp::kGe, Col("l", "k"),
                                            Lit(Value(1)))),
                       PlanNode::Scan(table, "r"), {{"l.k2", "r.k2"}}),
        {"l.name", "r.score"});
  };
  auto lookups_for = [&](const std::string& table) {
    JobExecutor executor = engine_->MakeExecutor();
    const uint64_t before = ColumnNameLookupCount().load();
    auto result = executor.Execute(*make_plan(table), {});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ColumnNameLookupCount().load() - before;
  };
  const uint64_t small = lookups_for("small_t");
  const uint64_t large = lookups_for("large_t");
  // 100x the rows, same plan: every kernel resolves its column slots once
  // per operator, so the lookup count is a function of the plan alone.
  EXPECT_EQ(small, large);
  EXPECT_GT(small, 0u);
  EXPECT_LT(small, 100u);
}

// --- Satellite: config validation at parse time ---------------------------

TEST(ClusterConfigValidationTest, RejectsZeroBatchSize) {
  ClusterConfig config;
  config.exec.max_batch_size = 0;
  Status status = ValidateClusterConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("max_batch_size"), std::string::npos)
      << status.message();
}

TEST(ClusterConfigValidationTest, AcceptsDefaultsAndBatchSizeOne) {
  EXPECT_TRUE(ValidateClusterConfig(ClusterConfig()).ok());
  ClusterConfig config;
  config.exec.max_batch_size = 1;
  EXPECT_TRUE(ValidateClusterConfig(config).ok());
}

}  // namespace
}  // namespace dynopt
