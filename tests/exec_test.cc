#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>

#include "common/hash.h"
#include "common/random.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "opt/optimizer.h"

namespace dynopt {
namespace {

/// Reference nested-loop join over gathered rows, for oracle comparison.
std::vector<Row> NaiveJoin(const std::vector<Row>& left,
                           const std::vector<Row>& right,
                           const std::vector<int>& lkeys,
                           const std::vector<int>& rkeys) {
  std::vector<Row> out;
  for (const Row& l : left) {
    for (const Row& r : right) {
      bool match = true;
      for (size_t i = 0; i < lkeys.size(); ++i) {
        const Value& lv = l[static_cast<size_t>(lkeys[i])];
        const Value& rv = r[static_cast<size_t>(rkeys[i])];
        if (lv.is_null() || rv.is_null() || lv != rv) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Row joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      out.push_back(std::move(joined));
    }
  }
  return out;
}

/// Type and exact payload of a Value, doubles as hexfloat.
std::string ExactValueString(const Value& v) {
  std::ostringstream os;
  os << ValueTypeName(v.type()) << ':';
  if (v.type() == ValueType::kDouble) {
    os << std::hexfloat << v.AsDouble();
  } else {
    os << v.ToString();
  }
  return os.str();
}

/// Engine fixture with two joinable tables, configurable sizes and key
/// skew.
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_ = std::make_unique<Engine>(); }

  std::shared_ptr<Table> MakeTable(const std::string& name, int rows,
                                   int key_domain, uint64_t seed,
                                   double zipf_skew = 0.0) {
    auto t = std::make_shared<Table>(
        name,
        Schema({{"k", ValueType::kInt64},
                {"k2", ValueType::kInt64},
                {"payload", ValueType::kString}}),
        engine_->cluster().num_nodes);
    EXPECT_TRUE(t->SetPartitionKey({"k"}).ok());
    Rng rng(seed);
    ZipfDistribution zipf(static_cast<size_t>(key_domain),
                          zipf_skew > 0 ? zipf_skew : 0.0);
    for (int i = 0; i < rows; ++i) {
      int64_t k = zipf_skew > 0
                      ? static_cast<int64_t>(zipf.Sample(rng))
                      : rng.NextInt64(0, key_domain - 1);
      t->AppendRow({Value(k), Value(rng.NextInt64(0, 9)),
                    Value(name + "_" + std::to_string(i))});
    }
    EXPECT_TRUE(engine_->catalog().RegisterTable(t).ok());
    return t;
  }

  /// A table with a column of every kind: `i` (int64) is never NULL, `d`
  /// (double), `b` (bool) and `s` (string) are about 10 % NULL, and `z`
  /// (int64) is always NULL.
  void MakeKindTable(const std::string& name, int rows, uint64_t seed) {
    auto t = std::make_shared<Table>(name,
                                     Schema({{"i", ValueType::kInt64},
                                             {"d", ValueType::kDouble},
                                             {"b", ValueType::kBool},
                                             {"s", ValueType::kString},
                                             {"z", ValueType::kInt64}}),
                                     engine_->cluster().num_nodes);
    Rng rng(seed);
    auto sometimes_null = [&](Value v) {
      return rng.NextBool(0.1) ? Value::Null() : v;
    };
    for (int r = 0; r < rows; ++r) {
      EXPECT_TRUE(
          t->AppendRow(
               {Value(rng.NextInt64(-500, 500)),
                sometimes_null(Value(rng.NextDouble() * 100.0 - 50.0)),
                sometimes_null(Value(rng.NextBool(0.3))),
                sometimes_null(Value("s" + std::to_string(rng.NextUint64(300)))),
                Value::Null()})
              .ok());
    }
    EXPECT_TRUE(engine_->catalog().RegisterTable(t).ok());
  }

  Result<JobResult> Exec(const PlanNode& plan) {
    JobExecutor executor = engine_->MakeExecutor();
    return executor.Execute(plan, {});
  }

  std::unique_ptr<Engine> engine_;
};

// --- Scan / filter / project ----------------------------------------------------

TEST_F(ExecTest, ScanQualifiesAndProjects) {
  MakeTable("t", 100, 10, 1);
  auto plan = PlanNode::Scan("t", "a", false, {"a.payload", "a.k"});
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->data.columns,
            (std::vector<std::string>{"a.payload", "a.k"}));
  EXPECT_EQ(result->data.NumRows(), 100u);
  EXPECT_GT(result->metrics.bytes_scanned, 0u);
  EXPECT_GT(result->metrics.simulated_seconds, 0.0);
}

TEST_F(ExecTest, ScanUnknownColumnFails) {
  MakeTable("t", 10, 5, 1);
  auto plan = PlanNode::Scan("t", "a", false, {"a.missing"});
  EXPECT_EQ(Exec(*plan).status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecTest, ScanUnknownTableFails) {
  auto plan = PlanNode::Scan("nope", "a");
  EXPECT_EQ(Exec(*plan).status().code(), StatusCode::kNotFound);
}

TEST_F(ExecTest, FilterKeepsMatchingRows) {
  MakeTable("t", 1000, 10, 2);
  auto plan = PlanNode::Filter(PlanNode::Scan("t", "a"),
                               Eq(Col("a", "k"), Lit(Value(3))));
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok());
  for (const Row& row : result->data.GatherRows()) {
    EXPECT_EQ(row[0], Value(3));
  }
  EXPECT_GT(result->data.NumRows(), 0u);
  EXPECT_LT(result->data.NumRows(), 1000u);
}

TEST_F(ExecTest, ProjectReordersColumns) {
  MakeTable("t", 10, 5, 3);
  auto plan = PlanNode::Project(PlanNode::Scan("t", "a"),
                                {"a.payload", "a.k"});
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->data.columns,
            (std::vector<std::string>{"a.payload", "a.k"}));
  Row first = result->data.GatherRows()[0];
  EXPECT_EQ(first[0].type(), ValueType::kString);
  EXPECT_EQ(first[1].type(), ValueType::kInt64);
}

// --- Join correctness sweep -------------------------------------------------------

/// (left rows, right rows, key domain, num keys, skew) — hash and broadcast
/// must both match the naive oracle.
class JoinCorrectnessTest
    : public ExecTest,
      public ::testing::WithParamInterface<
          std::tuple<int, int, int, int, double>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinCorrectnessTest,
    ::testing::Values(std::make_tuple(50, 50, 10, 1, 0.0),
                      std::make_tuple(200, 1000, 30, 1, 0.0),
                      std::make_tuple(1000, 200, 30, 1, 0.0),
                      std::make_tuple(100, 100, 5, 2, 0.0),
                      std::make_tuple(500, 500, 20, 1, 1.2),
                      std::make_tuple(300, 700, 1, 1, 0.0),   // All match.
                      std::make_tuple(10, 10, 1000, 1, 0.0),  // Few match.
                      std::make_tuple(0, 100, 10, 1, 0.0),    // Empty side.
                      std::make_tuple(100, 0, 10, 1, 0.0)));

TEST_P(JoinCorrectnessTest, HashAndBroadcastMatchNaive) {
  auto [lrows, rrows, domain, nkeys, skew] = GetParam();
  auto lt = MakeTable("lhs", lrows, domain, 10, skew);
  auto rt = MakeTable("rhs", rrows, domain, 20, skew);

  std::vector<std::pair<std::string, std::string>> keys = {
      {"l.k", "r.k"}};
  std::vector<int> lkeys = {0}, rkeys = {0};
  if (nkeys == 2) {
    keys.emplace_back("l.k2", "r.k2");
    lkeys.push_back(1);
    rkeys.push_back(1);
  }

  // Oracle.
  ColumnarDataset lscan, rscan;
  {
    auto lres = Exec(*PlanNode::Scan("lhs", "l"));
    auto rres = Exec(*PlanNode::Scan("rhs", "r"));
    ASSERT_TRUE(lres.ok() && rres.ok());
    lscan = std::move(lres->data);
    rscan = std::move(rres->data);
  }
  std::vector<Row> expected =
      NaiveJoin(lscan.GatherRows(), rscan.GatherRows(), lkeys, rkeys);
  SortRows(&expected);

  for (JoinMethod method :
       {JoinMethod::kHashShuffle, JoinMethod::kBroadcast}) {
    auto plan = PlanNode::Join(method, PlanNode::Scan("lhs", "l"),
                               PlanNode::Scan("rhs", "r"), keys);
    auto result = Exec(*plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Row> actual = result->data.GatherRows();
    SortRows(&actual);
    EXPECT_EQ(actual, expected) << JoinMethodName(method);
  }
}

TEST_F(ExecTest, NullKeysNeverMatch) {
  auto t = std::make_shared<Table>(
      "nulls", Schema({{"k", ValueType::kInt64}}), 2);
  t->AppendRow({Value::Null()});
  t->AppendRow({Value(1)});
  ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
  auto plan = PlanNode::Join(JoinMethod::kHashShuffle,
                             PlanNode::Scan("nulls", "a"),
                             PlanNode::Scan("nulls", "b"), {{"a.k", "b.k"}});
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->data.NumRows(), 1u);  // Only 1=1; NULL=NULL excluded.
}

TEST_F(ExecTest, HashJoinMetersShuffle) {
  // Join on k2, which neither table is partitioned on, forcing real
  // re-partitioning traffic.
  MakeTable("lhs", 1000, 100, 30);
  MakeTable("rhs", 1000, 100, 31);
  auto plan = PlanNode::Join(JoinMethod::kHashShuffle,
                             PlanNode::Scan("lhs", "l"),
                             PlanNode::Scan("rhs", "r"), {{"l.k2", "r.k2"}});
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.bytes_shuffled, 0u);
  EXPECT_EQ(result->metrics.bytes_broadcast, 0u);
}

TEST_F(ExecTest, CoPartitionedHashJoinSkipsShuffle) {
  // Both tables are hash-partitioned on k; re-partitioning is unnecessary
  // and must be free, as in AsterixDB's key/foreign-key case.
  MakeTable("lhs", 1000, 100, 30);
  MakeTable("rhs", 1000, 100, 31);
  auto plan = PlanNode::Join(JoinMethod::kHashShuffle,
                             PlanNode::Scan("lhs", "l"),
                             PlanNode::Scan("rhs", "r"), {{"l.k", "r.k"}});
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.bytes_shuffled, 0u);
}

TEST_F(ExecTest, BroadcastJoinMetersBroadcast) {
  MakeTable("lhs", 100, 100, 32);
  MakeTable("rhs", 1000, 100, 33);
  auto plan = PlanNode::Join(JoinMethod::kBroadcast,
                             PlanNode::Scan("lhs", "l"),
                             PlanNode::Scan("rhs", "r"), {{"l.k", "r.k"}});
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.bytes_broadcast, 0u);
  EXPECT_EQ(result->metrics.bytes_shuffled, 0u);
}

TEST_F(ExecTest, OversizedBroadcastPaysSpillPenalty) {
  // Shrink the memory budget so the build side overflows.
  engine_->mutable_cluster().broadcast_threshold_bytes = 1024;
  MakeTable("lhs", 2000, 100, 34);
  MakeTable("rhs", 100, 100, 35);
  auto broadcast = PlanNode::Join(JoinMethod::kBroadcast,
                                  PlanNode::Scan("lhs", "l"),
                                  PlanNode::Scan("rhs", "r"),
                                  {{"l.k", "r.k"}});
  auto hash = PlanNode::Join(JoinMethod::kHashShuffle,
                             PlanNode::Scan("lhs", "l"),
                             PlanNode::Scan("rhs", "r"), {{"l.k", "r.k"}});
  auto b = Exec(*broadcast);
  auto h = Exec(*hash);
  ASSERT_TRUE(b.ok() && h.ok());
  EXPECT_GT(b->metrics.simulated_seconds,
            3.0 * h->metrics.simulated_seconds)
      << "an overflowing broadcast build must be punished";
}

// --- Indexed nested loop join -------------------------------------------------------

TEST_F(ExecTest, InljMatchesHashJoin) {
  auto inner = MakeTable("inner", 2000, 200, 40);
  ASSERT_TRUE(inner->CreateSecondaryIndex("k").ok());
  MakeTable("outer", 50, 200, 41);

  auto inlj = PlanNode::Join(JoinMethod::kIndexNestedLoop,
                             PlanNode::Scan("outer", "o"),
                             PlanNode::Scan("inner", "i"), {{"o.k", "i.k"}});
  auto hash = PlanNode::Join(JoinMethod::kHashShuffle,
                             PlanNode::Scan("outer", "o"),
                             PlanNode::Scan("inner", "i"), {{"o.k", "i.k"}});
  auto a = Exec(*inlj);
  auto b = Exec(*hash);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  std::vector<Row> ar = a->data.GatherRows(), br = b->data.GatherRows();
  SortRows(&ar);
  SortRows(&br);
  EXPECT_EQ(ar, br);
  EXPECT_GT(a->metrics.index_lookups, 0u);
  EXPECT_EQ(b->metrics.index_lookups, 0u);
}

/// Every output row in partition order, one "p<i>:" line per partition, so
/// a test can pin the exact emission order.
std::string RowsInPartitionOrder(const ColumnarDataset& data) {
  std::string out;
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    out += "p" + std::to_string(p) + ":";
    for (const ColumnBatch& b : data.partitions[p]) {
      for (size_t i = 0; i < b.num_rows; ++i) {
        out += " (";
        for (size_t c = 0; c < b.columns.size(); ++c) {
          if (c > 0) out += ",";
          out += b.columns[c].ValueAt(i).ToString();
        }
        out += ")";
      }
    }
    out += "\n";
  }
  return out;
}

TEST_F(ExecTest, InljPinnedMeteringAndOrder) {
  // Exact metering and emission order of an INLJ whose outer carries NULL
  // keys (skipped without a lookup) and whose inner scan is projected.
  auto inner = MakeTable("inner", 60, 12, 48);
  ASSERT_TRUE(inner->CreateSecondaryIndex("k").ok());
  auto outer = std::make_shared<Table>(
      "outer",
      Schema({{"k", ValueType::kInt64}, {"tag", ValueType::kString}}),
      engine_->cluster().num_nodes);
  for (int i = 0; i < 8; ++i) {
    outer->AppendRow({i % 3 == 1 ? Value::Null() : Value(int64_t{i + 3}),
                      Value("o" + std::to_string(i))});
  }
  ASSERT_TRUE(engine_->catalog().RegisterTable(outer).ok());
  auto plan = PlanNode::Join(
      JoinMethod::kIndexNestedLoop, PlanNode::Scan("outer", "o"),
      PlanNode::Scan("inner", "i", false, {"i.payload", "i.k2"}),
      {{"o.k", "i.k"}});
  auto result = Exec(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->data.columns,
            (std::vector<std::string>{"o.k", "o.tag", "i.payload", "i.k2"}));
  EXPECT_EQ(result->metrics.simulated_seconds, 0.010532199999999999);
  EXPECT_EQ(result->metrics.bytes_broadcast, 2510u);
  EXPECT_EQ(result->metrics.bytes_scanned, 1401u);
  // Five non-NULL outer keys, looked up on each of the ten nodes.
  EXPECT_EQ(result->metrics.index_lookups, 50u);
  EXPECT_EQ(result->metrics.tuples_processed, 8u);
  // Outer rows broadcast to every node and probe its local index; the
  // inner is partitioned on k, so each key's matches sit on one node, in
  // index (load) order.
  EXPECT_EQ(RowsInPartitionOrder(result->data),
            "p0:\n"
            "p1: (9,'o6','inner_12',0) (9,'o6','inner_14',8) "
            "(9,'o6','inner_15',4) (9,'o6','inner_21',9) "
            "(9,'o6','inner_27',3) (9,'o6','inner_28',0)\n"
            "p2:\np3:\np4:\np5:\np6:\n"
            "p7: (5,'o2','inner_22',9) (5,'o2','inner_31',0) "
            "(5,'o2','inner_33',0) (5,'o2','inner_41',5) "
            "(6,'o3','inner_0',1) (6,'o3','inner_1',8) "
            "(6,'o3','inner_45',9) (6,'o3','inner_55',4) "
            "(8,'o5','inner_34',9) (8,'o5','inner_35',3) "
            "(8,'o5','inner_43',8) (8,'o5','inner_53',2)\n"
            "p8: (3,'o0','inner_20',9) (3,'o0','inner_26',4) "
            "(3,'o0','inner_44',6) (3,'o0','inner_46',9) "
            "(3,'o0','inner_54',7) (3,'o0','inner_58',6)\n"
            "p9:\n");
}

TEST_F(ExecTest, ProjectedInljGathersOnlyTheKeptColumns) {
  // Two Projects over an INLJ fold into its output gather: inner columns
  // before outer ones, one column repeated. The rows are the unprojected
  // join's, narrowed, in the same order; each row is sized from its kept
  // values; and the metering is the join's plus one pass per Project.
  auto inner = MakeTable("inner", 300, 40, 49);
  ASSERT_TRUE(inner->CreateSecondaryIndex("k").ok());
  MakeTable("outer", 60, 40, 50);
  auto join = [] {
    return PlanNode::Join(
        JoinMethod::kIndexNestedLoop, PlanNode::Scan("outer", "o"),
        PlanNode::Scan("inner", "i", false, {"i.payload", "i.k2"}),
        {{"o.k", "i.k"}});
  };
  auto whole = Exec(*join());
  auto projected = Exec(*PlanNode::Project(
      PlanNode::Project(join(), {"i.k2", "o.payload", "i.payload", "o.k"}),
      {"o.k", "i.k2", "o.k", "i.payload"}));
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  // whole: o.k, o.k2, o.payload, i.payload, i.k2.
  ASSERT_EQ(whole->data.columns,
            (std::vector<std::string>{"o.k", "o.k2", "o.payload",
                                      "i.payload", "i.k2"}));
  EXPECT_EQ(projected->data.columns,
            (std::vector<std::string>{"o.k", "i.k2", "o.k", "i.payload"}));
  ASSERT_EQ(whole->data.partitions.size(),
            projected->data.partitions.size());
  for (size_t p = 0; p < whole->data.partitions.size(); ++p) {
    std::vector<Row> expected;
    for (const ColumnBatch& b : whole->data.partitions[p]) {
      for (size_t i = 0; i < b.num_rows; ++i) {
        const Row row = b.RowAt(i);
        expected.push_back({row[0], row[4], row[0], row[3]});
      }
    }
    std::vector<Row> actual;
    for (const ColumnBatch& b : projected->data.partitions[p]) {
      ASSERT_EQ(b.row_sizes.size(), b.num_rows);
      for (size_t i = 0; i < b.num_rows; ++i) {
        actual.push_back(b.RowAt(i));
        EXPECT_EQ(b.row_sizes[i], RowSizeBytes(actual.back()));
      }
    }
    EXPECT_EQ(actual, expected) << "partition " << p;
  }
  EXPECT_GT(projected->data.NumRows(), 0u);
  uint64_t max_rows = 0;
  for (size_t p = 0; p < whole->data.partitions.size(); ++p) {
    max_rows = std::max(max_rows, whole->data.PartitionRows(p));
  }
  const double project_seconds = static_cast<double>(max_rows) *
                                 engine_->cluster().cpu_seconds_per_tuple;
  ExecMetrics expected = whole->metrics;
  expected.simulated_seconds += project_seconds;
  expected.simulated_seconds += project_seconds;
  EXPECT_EQ(MeteringDiff(expected, projected->metrics), "");
}

TEST_F(ExecTest, FilterAboveAJoinIsInvalidArgument) {
  // Only a scan is filtered (possibly through other Filter and Project
  // nodes); no planner builds anything else, and the executor says so
  // instead of aborting.
  MakeTable("lhs", 50, 10, 51);
  MakeTable("rhs", 50, 10, 52);
  auto join = [] {
    return PlanNode::Join(JoinMethod::kHashShuffle, PlanNode::Scan("lhs", "l"),
                          PlanNode::Scan("rhs", "r"), {{"l.k", "r.k"}});
  };
  auto filtered = PlanNode::Filter(join(), Eq(Col("l", "k2"), Lit(Value(1))));
  auto through_project = PlanNode::Project(
      PlanNode::Filter(PlanNode::Project(join(), {"l.k", "l.k2"}),
                       Eq(Col("l", "k2"), Lit(Value(1)))),
      {"l.k"});
  for (const PlanNode* plan : {filtered.get(), through_project.get()}) {
    const Status status = Exec(*plan).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_NE(status.message().find("Filter"), std::string::npos)
        << status.ToString();
  }
}

TEST_F(ExecTest, InljRequiresIndex) {
  MakeTable("inner", 100, 10, 42);  // No index created.
  MakeTable("outer", 10, 10, 43);
  auto plan = PlanNode::Join(JoinMethod::kIndexNestedLoop,
                             PlanNode::Scan("outer", "o"),
                             PlanNode::Scan("inner", "i"), {{"o.k", "i.k"}});
  EXPECT_EQ(Exec(*plan).status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecTest, InljRequiresBaseScanInner) {
  auto inner = MakeTable("inner", 100, 10, 44);
  ASSERT_TRUE(inner->CreateSecondaryIndex("k").ok());
  MakeTable("outer", 10, 10, 45);
  auto filtered_inner = PlanNode::Filter(PlanNode::Scan("inner", "i"),
                                         Eq(Col("i", "k2"), Lit(Value(1))));
  auto plan = PlanNode::Join(JoinMethod::kIndexNestedLoop,
                             PlanNode::Scan("outer", "o"),
                             std::move(filtered_inner), {{"o.k", "i.k"}});
  EXPECT_EQ(Exec(*plan).status().code(), StatusCode::kExecutionError);
}

TEST_F(ExecTest, InljRejectsCompositeKeys) {
  auto inner = MakeTable("inner", 100, 10, 46);
  ASSERT_TRUE(inner->CreateSecondaryIndex("k").ok());
  MakeTable("outer", 10, 10, 47);
  auto plan = PlanNode::Join(
      JoinMethod::kIndexNestedLoop, PlanNode::Scan("outer", "o"),
      PlanNode::Scan("inner", "i"), {{"o.k", "i.k"}, {"o.k2", "i.k2"}});
  EXPECT_EQ(Exec(*plan).status().code(), StatusCode::kExecutionError);
}

// --- Materialization -------------------------------------------------------------

TEST_F(ExecTest, MaterializePreservesDataAndPartitions) {
  MakeTable("t", 500, 50, 50);
  auto scan = Exec(*PlanNode::Scan("t", "a"));
  ASSERT_TRUE(scan.ok());
  std::vector<uint64_t> partition_sizes;
  for (size_t p = 0; p < scan->data.partitions.size(); ++p) {
    partition_sizes.push_back(scan->data.PartitionRows(p));
  }
  std::vector<Row> original = scan->data.GatherRows();

  JobExecutor executor = engine_->MakeExecutor();
  ExecMetrics metrics;
  auto sink = executor.Materialize(std::move(scan->data), "test", {"a.k"},
                                   true, &metrics);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  EXPECT_TRUE(Catalog::IsTempName(sink->table_name));
  EXPECT_EQ(sink->stats.row_count, 500u);
  EXPECT_NEAR(sink->stats.Column("a.k")->ndv, 50.0, 2.0);
  EXPECT_GT(metrics.bytes_materialized, 0u);
  EXPECT_GT(metrics.reopt_seconds, 0.0);
  EXPECT_GT(metrics.stats_seconds, 0.0);
  EXPECT_EQ(metrics.num_reopt_points, 1);

  // Reader sees identical data in identical partitions.
  auto table = engine_->catalog().GetTable(sink->table_name);
  ASSERT_TRUE(table.ok());
  for (size_t p = 0; p < partition_sizes.size(); ++p) {
    EXPECT_EQ(table.value()->PartitionRows(p), partition_sizes[p]);
  }
  auto reread = Exec(*PlanNode::Scan(sink->table_name, "", true));
  ASSERT_TRUE(reread.ok());
  std::vector<Row> roundtrip = reread->data.GatherRows();
  SortRows(&original);
  SortRows(&roundtrip);
  EXPECT_EQ(original, roundtrip);
  EXPECT_GT(reread->metrics.bytes_intermediate_read, 0u);
  EXPECT_GT(reread->metrics.reopt_seconds, 0.0);
}

TEST_F(ExecTest, MaterializeThenScanKeepsOrderPlacementAndBytes) {
  MakeTable("t", 700, 40, 52);
  // A join output (many batches per partition, shared dictionaries), both
  // in memory and through the on-disk temp-file round trip.
  auto plan = [] {
    return PlanNode::Join(JoinMethod::kHashShuffle, PlanNode::Scan("t", "l"),
                          PlanNode::Scan("t", "r"), {{"l.k2", "r.k2"}});
  };
  for (bool to_disk : {false, true}) {
    engine_->mutable_cluster().materialize_to_disk = to_disk;
    engine_->mutable_cluster().exec.max_batch_size = 100;
    auto job = Exec(*plan());
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    const ColumnarDataset& out = job->data;
    const uint64_t out_bytes = out.TotalBytes();
    std::vector<std::vector<Row>> expected(out.partitions.size());
    for (size_t p = 0; p < out.partitions.size(); ++p) {
      for (const ColumnBatch& b : out.partitions[p]) {
        for (size_t i = 0; i < b.num_rows; ++i) {
          expected[p].push_back(b.RowAt(i));
        }
      }
    }

    JobExecutor executor = engine_->MakeExecutor();
    ExecMetrics metrics;
    auto sink = executor.Materialize(std::move(job->data), "order", {"l.k"},
                                     true, &metrics, nullptr);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    EXPECT_EQ(metrics.bytes_materialized, out_bytes);
    auto table = engine_->catalog().GetTable(sink->table_name);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table.value()->TotalBytes(), out_bytes);

    auto reread = Exec(*PlanNode::Scan(sink->table_name, "", true));
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    EXPECT_EQ(reread->metrics.bytes_intermediate_read, out_bytes);
    ASSERT_EQ(reread->data.partitions.size(), expected.size());
    for (size_t p = 0; p < expected.size(); ++p) {
      std::vector<Row> actual;
      for (const ColumnBatch& b : reread->data.partitions[p]) {
        for (size_t i = 0; i < b.num_rows; ++i) {
          actual.push_back(b.RowAt(i));
          EXPECT_EQ(b.row_sizes[i], RowSizeBytes(actual.back()));
        }
      }
      // Same rows, same order, same node.
      EXPECT_EQ(actual, expected[p]) << "partition " << p;
    }
  }
}

TEST_F(ExecTest, MaterializeWithoutStatsStillRecordsCardinality) {
  MakeTable("t", 200, 20, 51);
  auto scan = Exec(*PlanNode::Scan("t", "a"));
  ASSERT_TRUE(scan.ok());
  JobExecutor executor = engine_->MakeExecutor();
  ExecMetrics metrics;
  auto sink = executor.Materialize(std::move(scan->data), "nostats",
                                   {"a.k"}, false, &metrics);
  ASSERT_TRUE(sink.ok());
  EXPECT_EQ(sink->stats.row_count, 200u);
  EXPECT_TRUE(sink->stats.columns.empty());
  EXPECT_DOUBLE_EQ(metrics.stats_seconds, 0.0);
  // Row count is still registered with the stats framework.
  const TableStats* stats = engine_->stats().Get(sink->table_name);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 200u);
}

TEST_F(ExecTest, MaterializedStatsAreAQuantileBuildersWithoutHistogram) {
  MakeKindTable("kinds", 3000, 61);
  engine_->mutable_cluster().exec.max_batch_size = 128;
  const std::vector<std::string> columns = {"a.i", "a.d", "a.b", "a.s",
                                            "a.z"};
  // Stored runs as they are, and batches the filter gathered through its
  // selection.
  for (bool filtered : {false, true}) {
    std::unique_ptr<PlanNode> plan = PlanNode::Scan("kinds", "a");
    if (filtered) {
      plan = PlanNode::Filter(std::move(plan), Cmp(CompareOp::kGt,
                                                   Col("a", "i"),
                                                   Lit(Value(0))));
    }
    auto job = Exec(*plan);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    std::vector<int> slots;
    for (const std::string& c : columns) {
      slots.push_back(job->data.ColumnIndex(c));
    }
    TableStatsBuilder collecting(columns, slots);
    for (const auto& part : job->data.partitions) {
      for (const ColumnBatch& b : part) AddBatchToStats(b, &collecting);
    }
    const TableStats want = collecting.Finalize();
    const uint64_t rows = job->data.NumRows();
    const size_t parts = job->data.partitions.size();

    JobExecutor executor = engine_->MakeExecutor();
    ExecMetrics metrics;
    auto sink = executor.Materialize(std::move(job->data), "kinds", columns,
                                     true, &metrics);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    const TableStats* got = engine_->stats().Get(sink->table_name);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->row_count, rows);
    for (const std::string& c : columns) {
      SCOPED_TRACE(c + (filtered ? " filtered" : ""));
      const ColumnStatsSnapshot& w = want.columns.at(c);
      const ColumnStatsSnapshot* g = got->Column(c);
      ASSERT_NE(g, nullptr);
      EXPECT_EQ(g->count, w.count);
      EXPECT_EQ(g->null_count, w.null_count);
      EXPECT_EQ(g->ndv, w.ndv);
      EXPECT_EQ(ExactValueString(g->min_value), ExactValueString(w.min_value));
      EXPECT_EQ(ExactValueString(g->max_value), ExactValueString(w.max_value));
      EXPECT_TRUE(g->histogram.empty());
      EXPECT_EQ(w.histogram.empty(), c == "a.z");
    }
    // Simulated seconds still price GK + HLL per collected value.
    EXPECT_DOUBLE_EQ(metrics.stats_seconds,
                     static_cast<double>(rows * columns.size()) *
                         engine_->cluster().stats_seconds_per_value /
                         static_cast<double>(parts));
  }
}

TEST_F(ExecTest, SkippingQuantilesKeepsCountsBoundsAndNdvThroughASelection) {
  MakeKindTable("kinds", 2000, 63);
  auto table = engine_->catalog().GetTable("kinds");
  ASSERT_TRUE(table.ok());
  for (size_t c = 0; c < 5; ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    ColumnStatsBuilder collecting;
    ColumnStatsBuilder skipping(StatsOptions(), Quantiles::kSkip);
    for (size_t p = 0; p < table.value()->num_partitions(); ++p) {
      for (const ColumnBatch& run : table.value()->partition(p)) {
        std::vector<uint32_t> odd;
        for (uint32_t i = 1; i < run.num_rows; i += 2) odd.push_back(i);
        AddColumnToStats(run.columns[c], odd.data(), odd.size(), &collecting);
        AddColumnToStats(run.columns[c], odd.data(), odd.size(), &skipping);
      }
    }
    const ColumnStatsSnapshot w = collecting.Finalize();
    const ColumnStatsSnapshot g = skipping.Finalize();
    EXPECT_GT(w.count, 0u);
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.null_count, w.null_count);
    EXPECT_EQ(g.ndv, w.ndv);
    EXPECT_EQ(ExactValueString(g.min_value), ExactValueString(w.min_value));
    EXPECT_EQ(ExactValueString(g.max_value), ExactValueString(w.max_value));
    EXPECT_TRUE(g.histogram.empty());
  }
}

TEST_F(ExecTest, BaseStatsKeepTheirQuantilesBitForBit) {
  // CollectBaseStats still builds GK histograms: this fingerprint of its
  // output (doubles as hexfloat) is the one the engine produced before
  // re-optimization points stopped collecting quantiles.
  MakeKindTable("kinds", 5000, 62);
  ASSERT_TRUE(
      engine_->CollectBaseStats("kinds", {"i", "d", "b", "s", "z"}).ok());
  const TableStats* stats = engine_->stats().Get("kinds");
  ASSERT_NE(stats, nullptr);
  std::ostringstream os;
  os << std::hexfloat << stats->row_count << ' ' << stats->total_bytes;
  for (const auto& [name, c] : stats->columns) {
    os << '|' << name << ' ' << c.count << ' ' << c.null_count << ' '
       << c.ndv << ' ' << ExactValueString(c.min_value) << ' '
       << ExactValueString(c.max_value) << ' ' << c.histogram.count();
    for (double b : c.histogram.boundaries()) os << ' ' << b;
  }
  for (const char* name : {"i", "d", "b", "s"}) {
    EXPECT_EQ(stats->Column(name)->histogram.num_buckets(), 64) << name;
  }
  EXPECT_EQ(HashString(os.str()), 0x0f7b9b0e8e7d3e2fULL) << os.str();
}

// --- Metrics ----------------------------------------------------------------------

TEST(MetricsTest, AddAccumulates) {
  ExecMetrics a, b;
  a.tuples_processed = 10;
  a.simulated_seconds = 1.0;
  a.num_jobs = 1;
  b.tuples_processed = 5;
  b.simulated_seconds = 0.5;
  b.reopt_seconds = 0.1;
  b.rows_out = 42;
  b.num_jobs = 2;
  a.Add(b);
  EXPECT_EQ(a.tuples_processed, 15u);
  EXPECT_DOUBLE_EQ(a.simulated_seconds, 1.5);
  EXPECT_DOUBLE_EQ(a.reopt_seconds, 0.1);
  EXPECT_EQ(a.rows_out, 42u);  // Latest stage's output.
  EXPECT_EQ(a.num_jobs, 3);
  EXPECT_FALSE(a.ToString().empty());
}

// Iterates the one field list: every field prints in ToString(), merges
// in Add() per its declared rule, and takes part in MeteringDiff() exactly
// when it is deterministic.
TEST(MetricsTest, EveryFieldPrintsMergesAndComparesPerItsDeclaration) {
  ExecMetrics merged, other;
  VisitMetricFields(
      [](const MetricField&, auto& mine, auto& theirs) {
        mine = 5;
        theirs = 3;
      },
      merged, other);
  const ExecMetrics before = merged;
  merged.Add(other);
  const std::string text = " " + merged.ToString();
  VisitMetricFields(
      [&](const MetricField& field, auto value) {
        const std::string name = field.name;
        EXPECT_NE(text.find(" " + name + "="), std::string::npos) << name;
        using T = decltype(value);
        const T expected = field.merge == MetricMerge::kSum   ? T(8)
                           : field.merge == MetricMerge::kMax ? T(5)
                                                              : T(3);
        EXPECT_EQ(value, expected) << name;
      },
      merged);

  EXPECT_EQ(MeteringDiff(before, before), "");
  ExecMetrics probe = before;
  VisitMetricFields(
      [&](const MetricField& field, auto& value) {
        const auto original = value;
        value = 7;
        const std::string diff = MeteringDiff(before, probe);
        const std::string name = field.name;
        if (field.kind == MetricKind::kMetered) {
          EXPECT_EQ(diff, name + ": 5 != 7\n");
        } else {
          EXPECT_EQ(diff, "") << name;
        }
        value = original;
      },
      probe);
}

}  // namespace
}  // namespace dynopt
