#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/thread_pool.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dynopt {
namespace {

Schema TwoColumnSchema() {
  return Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
}

// --- Schema ------------------------------------------------------------------

TEST(SchemaTest, FieldLookup) {
  Schema schema = TwoColumnSchema();
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(schema.FieldIndex("id"), 0);
  EXPECT_EQ(schema.FieldIndex("name"), 1);
  EXPECT_EQ(schema.FieldIndex("missing"), -1);
  EXPECT_TRUE(schema.HasField("id"));
  EXPECT_FALSE(schema.HasField("ID"));  // Case sensitive.
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(TwoColumnSchema().ToString(), "(id INT64, name STRING)");
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, RoundRobinWithoutPartitionKey) {
  Table t("t", TwoColumnSchema(), 4);
  for (int i = 0; i < 8; ++i) t.AppendRow({Value(i), Value("r")});
  EXPECT_EQ(t.NumRows(), 8u);
  for (size_t p = 0; p < 4; ++p) EXPECT_EQ(t.PartitionRows(p), 2u);
}

TEST(TableTest, HashPartitioningIsDeterministicAndKeyLocal) {
  Table t("t", TwoColumnSchema(), 8);
  ASSERT_TRUE(t.SetPartitionKey({"id"}).ok());
  for (int i = 0; i < 1000; ++i) t.AppendRow({Value(i % 100), Value("x")});
  // All rows with equal key land in the same partition.
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    std::set<int64_t> keys;
    for (const Row& row : t.ReadRows(p)) keys.insert(row[0].AsInt64());
    for (int64_t k : keys) {
      for (size_t q = 0; q < t.num_partitions(); ++q) {
        if (q == p) continue;
        for (const Row& row : t.ReadRows(q)) {
          EXPECT_NE(row[0].AsInt64(), k)
              << "key " << k << " in partitions " << p << " and " << q;
        }
      }
    }
  }
}

TEST(TableTest, PartitionKeyMustExistAndPrecedeLoad) {
  Table t("t", TwoColumnSchema(), 2);
  EXPECT_EQ(t.SetPartitionKey({"nope"}).code(), StatusCode::kNotFound);
  t.AppendRow({Value(1), Value("x")});
  EXPECT_EQ(t.SetPartitionKey({"id"}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, TotalBytesGrowsWithData) {
  Table t("t", TwoColumnSchema(), 2);
  uint64_t before = t.TotalBytes();
  t.AppendRow({Value(1), Value("hello world, a longer string")});
  EXPECT_GT(t.TotalBytes(), before + 20);
}

// --- Columnar storage ----------------------------------------------------------

/// Every storage case in one schema: ints, doubles, bools and strings with
/// NULLs, an all-NULL column, and an int and a double column without
/// NULLs (no validity vector).
Schema ZooSchema() {
  return Schema({{"i", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"b", ValueType::kBool},
                 {"s", ValueType::kString},
                 {"none", ValueType::kInt64},
                 {"count", ValueType::kInt64},
                 {"scaled", ValueType::kDouble}});
}

std::vector<Row> ZooRows(int n) {
  std::vector<Row> rows;
  for (int r = 0; r < n; ++r) {
    Row row;
    row.push_back(r % 5 == 0 ? Value::Null() : Value(int64_t{r} * 1000003));
    row.push_back(r % 7 == 0 ? Value::Null() : Value(r * 0.25 - 3.0));
    row.push_back(r % 4 == 0 ? Value::Null() : Value(r % 3 == 0));
    row.push_back(r % 6 == 0 ? Value::Null()
                             : Value("str_" + std::to_string(r % 9)));
    row.push_back(Value::Null());
    row.push_back(Value(r));
    row.push_back(Value(r * 1.5));
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(ColumnarStorageTest, RowsReadBackExactlyAsAppended) {
  const size_t num_parts = 3;
  Table t("zoo", ZooSchema(), num_parts);
  const std::vector<Row> rows = ZooRows(40);
  for (const Row& row : rows) ASSERT_TRUE(t.AppendRow(row).ok());
  ASSERT_EQ(t.NumRows(), rows.size());

  for (size_t p = 0; p < num_parts; ++p) {
    // Round-robin placement: row r lives in partition r % 3.
    std::vector<Row> expected;
    for (size_t r = p; r < rows.size(); r += num_parts) {
      expected.push_back(rows[r]);
    }
    const std::vector<Row> actual = t.ReadRows(p);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i].size(), expected[i].size());
      for (size_t c = 0; c < actual[i].size(); ++c) {
        // Exact: same type tag and same value, NULLs included.
        EXPECT_EQ(actual[i][c].type(), expected[i][c].type())
            << "partition " << p << " row " << i << " column " << c;
        EXPECT_EQ(actual[i][c], expected[i][c]);
      }
      const auto [run, row] = t.LocateRow(p, i);
      EXPECT_EQ(run->RowAt(row), expected[i]);
    }
  }

  // Layout: every column has its field's kind, only columns holding a
  // NULL carry validity, and the string column shares one dictionary
  // across partitions.
  const ColumnBatch& run0 = t.partition(0).front();
  const ColumnBatch& run1 = t.partition(1).front();
  const ColumnKind kinds[] = {ColumnKind::kInt64,  ColumnKind::kDouble,
                              ColumnKind::kBool,   ColumnKind::kString,
                              ColumnKind::kInt64,  ColumnKind::kInt64,
                              ColumnKind::kDouble};
  for (size_t c = 0; c < 7; ++c) {
    EXPECT_EQ(run0.columns[c].kind, kinds[c]) << "column " << c;
    EXPECT_EQ(run0.columns[c].validity.empty(), c >= 5) << "column " << c;
  }
  EXPECT_EQ(run0.columns[3].dict.get(), run1.columns[3].dict.get());
  for (size_t i = 0; i < run0.num_rows; ++i) {
    EXPECT_TRUE(run0.columns[4].IsNullAt(i));
  }
}

TEST(ColumnarStorageTest, EmptyPartitions) {
  Table t("t", TwoColumnSchema(), 4);
  t.AppendRow({Value(1), Value("a")});
  t.AppendRow({Value(2), Value::Null()});
  for (size_t p = 2; p < 4; ++p) {
    EXPECT_TRUE(t.partition(p).empty());
    EXPECT_TRUE(t.ReadRows(p).empty());
    EXPECT_EQ(t.PartitionRows(p), 0u);
    EXPECT_EQ(t.PartitionBytes(p), 0u);
  }
  EXPECT_EQ(t.ReadRows(1), (std::vector<Row>{{Value(2), Value::Null()}}));

  Table empty("e", TwoColumnSchema(), 2);
  EXPECT_EQ(empty.NumRows(), 0u);
  EXPECT_EQ(empty.TotalBytes(), 0u);
  ASSERT_TRUE(empty.CreateSecondaryIndex("id").ok());
}

TEST(ColumnarStorageTest, ByteTotalsEqualSumOfRowSizes) {
  Table t("zoo", ZooSchema(), 4);
  ASSERT_TRUE(t.SetPartitionKey({"i"}).ok());
  for (const Row& row : ZooRows(200)) ASSERT_TRUE(t.AppendRow(row).ok());
  uint64_t total = 0;
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    uint64_t part = 0;
    for (const Row& row : t.ReadRows(p)) part += RowSizeBytes(row);
    EXPECT_EQ(t.PartitionBytes(p), part) << "partition " << p;
    // The per-row cache agrees row by row.
    for (const ColumnBatch& run : t.partition(p)) {
      for (size_t i = 0; i < run.num_rows; ++i) {
        EXPECT_EQ(run.row_sizes[i], RowSizeBytes(run.RowAt(i)));
      }
    }
    total += part;
  }
  EXPECT_EQ(t.TotalBytes(), total);
}

TEST(ColumnarStorageTest, RejectedRowsLeaveTheTableUnchanged) {
  Table t("people", TwoColumnSchema(), 3);
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  // NULL is valid in any column.
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null()}).ok());
  const uint64_t rows = t.NumRows();
  const uint64_t bytes = t.TotalBytes();
  std::vector<uint64_t> part_rows;
  std::vector<std::vector<Row>> contents;
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    part_rows.push_back(t.PartitionRows(p));
    contents.push_back(t.ReadRows(p));
  }
  auto expect_unchanged = [&]() {
    EXPECT_EQ(t.NumRows(), rows);
    EXPECT_EQ(t.TotalBytes(), bytes);
    for (size_t p = 0; p < t.num_partitions(); ++p) {
      EXPECT_EQ(t.PartitionRows(p), part_rows[p]) << "partition " << p;
      EXPECT_EQ(t.ReadRows(p), contents[p]) << "partition " << p;
    }
  };

  // A type mismatch names the table, the column and both types. The first
  // value is valid, so a rejected row must not leave it behind either.
  Status st = t.AppendRow({Value(2), Value(int64_t{7})});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("people.name"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("STRING"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("INT64"), std::string::npos) << st.message();
  expect_unchanged();
  st = t.AppendRow({Value(2.5), Value("b")});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("people.id"), std::string::npos)
      << st.message();
  expect_unchanged();

  // Arity mismatches, too many values and too few.
  st = t.AppendRow({Value(2), Value("b"), Value(3)});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("people"), std::string::npos) << st.message();
  expect_unchanged();
  EXPECT_EQ(t.AppendRow({Value(2)}).code(), StatusCode::kInvalidArgument);
  expect_unchanged();

  // The next valid row still appends, to the partition round-robin
  // placement gives it (rejected rows take no turn).
  ASSERT_TRUE(t.AppendRow({Value(3), Value("c")}).ok());
  EXPECT_EQ(t.NumRows(), rows + 1);
  EXPECT_EQ(t.ReadRows(2), (std::vector<Row>{{Value(3), Value("c")}}));
}

/// A batch holding `rows`, built through the same column append the load
/// path uses.
ColumnBatch BatchOf(const std::vector<Row>& rows) {
  ColumnBatch batch;
  batch.columns.resize(2);
  batch.columns[0].kind = ColumnKind::kInt64;
  batch.columns[1].kind = ColumnKind::kString;
  batch.columns[1].dict = std::make_shared<StringDict>();
  for (const Row& row : rows) {
    batch.columns[0].Append(row[0]);
    batch.columns[1].Append(row[1]);
    batch.row_sizes.push_back(RowSizeBytes(row));
  }
  batch.num_rows = rows.size();
  return batch;
}

TEST(ColumnarStorageTest, AppendBatchesPreservesPlacementAndOrder) {
  Table t("t", TwoColumnSchema(), 3);
  const std::vector<Row> first = {{Value(1), Value("a")},
                                  {Value(2), Value("b")}};
  const std::vector<Row> second = {{Value(3), Value::Null()}};
  std::vector<ColumnBatch> batches;
  batches.push_back(BatchOf(first));
  batches.push_back(ColumnBatch());  // Empty batches are dropped.
  batches.push_back(BatchOf(second));
  ASSERT_TRUE(t.AppendBatches(2, std::move(batches)).ok());
  EXPECT_EQ(t.partition(0).size(), 0u);
  EXPECT_EQ(t.partition(2).size(), 2u);
  EXPECT_EQ(t.PartitionRows(2), 3u);
  EXPECT_EQ(t.NumRows(), 3u);
  const std::vector<Row> all = {first[0], first[1], second[0]};
  EXPECT_EQ(t.ReadRows(2), all);
  // Row offsets run across run boundaries.
  for (size_t i = 0; i < all.size(); ++i) {
    const auto [run, row] = t.LocateRow(2, i);
    EXPECT_EQ(run, &t.partition(2)[i < 2 ? 0 : 1]);
    EXPECT_EQ(run->RowAt(row), all[i]);
  }
  uint64_t bytes = 0;
  for (const Row& row : all) bytes += RowSizeBytes(row);
  EXPECT_EQ(t.PartitionBytes(2), bytes);
  EXPECT_EQ(t.TotalBytes(), bytes);
}

TEST(ColumnarStorageTest, AppendBatchesRejectsMalformedBatches) {
  Table t("t", TwoColumnSchema(), 2);
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  const uint64_t rows = t.NumRows();
  const uint64_t bytes = t.TotalBytes();
  auto expect_unchanged = [&]() {
    EXPECT_EQ(t.NumRows(), rows);
    EXPECT_EQ(t.TotalBytes(), bytes);
    EXPECT_EQ(t.partition(0).size() + t.partition(1).size(), 1u);
  };
  const std::vector<Row> good = {{Value(2), Value("b")}};

  // A partition out of range.
  std::vector<ColumnBatch> batches;
  batches.push_back(BatchOf(good));
  EXPECT_EQ(t.AppendBatches(2, std::move(batches)).code(),
            StatusCode::kInvalidArgument);
  expect_unchanged();

  // A batch whose column count is not the schema's, after a good batch
  // that must not be moved in either.
  batches.clear();
  batches.push_back(BatchOf(good));
  batches.push_back(BatchOf(good));
  batches.back().columns.pop_back();
  EXPECT_EQ(t.AppendBatches(0, std::move(batches)).code(),
            StatusCode::kInvalidArgument);
  expect_unchanged();

  // A batch with fewer row sizes than rows.
  batches.clear();
  batches.push_back(BatchOf(good));
  batches.push_back(BatchOf({{Value(3), Value("c")}, {Value(4), Value("d")}}));
  batches.back().row_sizes.resize(1);
  EXPECT_EQ(t.AppendBatches(1, std::move(batches)).code(),
            StatusCode::kInvalidArgument);
  expect_unchanged();
}

// --- Shared column buffers -----------------------------------------------------

/// A column of each kind over the same 10 rows, every third one NULL.
std::vector<ColumnVector> ColumnsOfEveryKind() {
  std::vector<ColumnVector> cols(4);
  cols[0].kind = ColumnKind::kInt64;
  cols[1].kind = ColumnKind::kDouble;
  cols[2].kind = ColumnKind::kBool;
  cols[3].kind = ColumnKind::kString;
  cols[3].dict = std::make_shared<StringDict>();
  for (int i = 0; i < 10; ++i) {
    const bool null = i % 3 == 1;
    cols[0].Append(null ? Value::Null() : Value(int64_t{i}));
    cols[1].Append(null ? Value::Null() : Value(i * 0.5));
    cols[2].Append(null ? Value::Null() : Value(i % 2 == 0));
    cols[3].Append(null ? Value::Null() : Value("v" + std::to_string(i)));
  }
  return cols;
}

/// The payload pointer of `col`'s kind.
const void* PayloadData(const ColumnVector& col) {
  switch (col.kind) {
    case ColumnKind::kInt64:
      return col.i64.data();
    case ColumnKind::kDouble:
      return col.f64.data();
    case ColumnKind::kBool:
      return col.b8.data();
    case ColumnKind::kString:
      return col.codes.data();
  }
  return nullptr;
}

TEST(SharedBufferTest, SliceBorrowsPayloadAndValidityOfEveryKind) {
  for (const ColumnVector& col : ColumnsOfEveryKind()) {
    const ColumnVector slice = col.Slice(3, 5);
    ASSERT_EQ(slice.kind, col.kind);
    ASSERT_EQ(slice.size(), 5u);
    switch (col.kind) {
      case ColumnKind::kInt64:
        EXPECT_EQ(slice.i64.data(), col.i64.data() + 3);
        break;
      case ColumnKind::kDouble:
        EXPECT_EQ(slice.f64.data(), col.f64.data() + 3);
        break;
      case ColumnKind::kBool:
        EXPECT_EQ(slice.b8.data(), col.b8.data() + 3);
        break;
      case ColumnKind::kString:
        EXPECT_EQ(slice.codes.data(), col.codes.data() + 3);
        EXPECT_EQ(slice.dict, col.dict);
        break;
    }
    ASSERT_EQ(slice.validity.size(), 5u);
    EXPECT_EQ(slice.validity.data(), col.validity.data() + 3);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(slice.ValueAt(i), col.ValueAt(3 + i)) << "row " << i;
    }
  }
  // A batch's row sizes slice the same way.
  SharedBuffer<uint64_t> sizes;
  for (uint64_t i = 0; i < 10; ++i) sizes.push_back(9 + i);
  const SharedBuffer<uint64_t> tail = sizes.Slice(4, 6);
  EXPECT_EQ(tail.data(), sizes.data() + 4);
  EXPECT_EQ(tail[0], 13u);
}

TEST(SharedBufferTest, WritesCopyOnWrite) {
  for (const ColumnVector& source : ColumnsOfEveryKind()) {
    // A write to the slice leaves the source's values and buffer alone.
    ColumnVector col = source;
    const void* col_data = PayloadData(col);
    ColumnVector slice = col.Slice(2, 4);
    const void* slice_data = PayloadData(slice);
    slice.Append(Value::Null());
    slice.validity.mutable_data()[0] = 0;
    EXPECT_NE(PayloadData(slice), slice_data);
    EXPECT_EQ(slice.size(), 5u);
    EXPECT_TRUE(slice.IsNullAt(0));
    EXPECT_EQ(PayloadData(col), col_data);
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(col.ValueAt(i), source.ValueAt(i)) << "row " << i;
    }

    // A write to the source leaves an earlier slice alone.
    ColumnVector kept = col.Slice(0, 3);
    const void* kept_data = PayloadData(kept);
    col.validity.mutable_data()[0] = 0;
    col.Append(Value::Null());
    EXPECT_NE(PayloadData(col), col_data);
    EXPECT_EQ(PayloadData(kept), kept_data);
    EXPECT_EQ(kept.size(), 3u);
    for (size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept.ValueAt(i), source.ValueAt(i)) << "row " << i;
    }
    EXPECT_TRUE(col.IsNullAt(0));
  }
}

TEST(SharedBufferTest, UniqueBufferWritesInPlace) {
  SharedBuffer<int64_t> buf;
  buf.reserve(100);
  buf.push_back(1);
  const int64_t* data = buf.data();
  for (int64_t i = 2; i <= 100; ++i) buf.push_back(i);
  buf.resize(50);
  buf.resize(80, 7);
  buf.mutable_data()[0] = -1;
  EXPECT_EQ(buf.data(), data);
  EXPECT_EQ(buf[0], -1);
  EXPECT_EQ(buf[49], 50);
  EXPECT_EQ(buf[79], 7);
  // Once the only other holder is gone, the block is unique again.
  { SharedBuffer<int64_t> copy = buf; }
  buf.mutable_data()[1] = -2;
  EXPECT_EQ(buf.data(), data);
  EXPECT_EQ(buf[1], -2);
}

TEST(SharedBufferTest, ConcurrentSlicesAndPrivateWrites) {
  // Each task slices and reads one shared column while writing its own
  // copy: the reference counts and the copy-on-write check race here
  // (TSan runs this binary in CI).
  ColumnVector col;
  col.kind = ColumnKind::kInt64;
  for (int64_t i = 0; i < 4096; ++i) col.Append(Value(i));
  ThreadPool pool(4);
  constexpr size_t kTasks = 16;
  std::vector<int64_t> sums(kTasks, 0);
  pool.ParallelFor(kTasks, [&](size_t t) {
    const ColumnVector slice = col.Slice(t * 256, 256);
    ColumnVector mine = slice;
    int64_t* own = mine.i64.mutable_data();
    for (size_t i = 0; i < 256; ++i) own[i] = -own[i];
    int64_t sum = 0;
    for (size_t i = 0; i < 256; ++i) sum += slice.i64[i] + mine.i64[i];
    for (int64_t v : col.i64) sum += v;
    sums[t] = sum;
  });
  const int64_t total = 4095 * 4096 / 2;
  for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(sums[t], total) << t;
  for (int64_t i = 0; i < 4096; ++i) ASSERT_EQ(col.i64[i], i);
}

// --- Secondary index -----------------------------------------------------------

TEST(IndexTest, CreateAndLookup) {
  Table t("t", TwoColumnSchema(), 4);
  ASSERT_TRUE(t.SetPartitionKey({"id"}).ok());
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value(i), Value("name_" + std::to_string(i % 10))});
  }
  ASSERT_TRUE(t.CreateSecondaryIndex("name").ok());
  EXPECT_TRUE(t.HasSecondaryIndex("name"));
  EXPECT_FALSE(t.HasSecondaryIndex("id"));
  const SecondaryIndex* index = t.GetSecondaryIndex("name");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_entries(), 100u);

  // Every indexed offset must point at a row with the right key.
  size_t total_matches = 0;
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    const std::vector<uint32_t>* offsets =
        index->Lookup(p, Value("name_3"));
    if (offsets == nullptr) continue;
    for (uint32_t off : *offsets) {
      const auto [run, row] = t.LocateRow(p, off);
      EXPECT_EQ(run->columns[1].ValueAt(row), Value("name_3"));
      ++total_matches;
    }
  }
  EXPECT_EQ(total_matches, 10u);
}

TEST(IndexTest, LookupMissReturnsNull) {
  Table t("t", TwoColumnSchema(), 2);
  t.AppendRow({Value(1), Value("a")});
  ASSERT_TRUE(t.CreateSecondaryIndex("name").ok());
  const SecondaryIndex* index = t.GetSecondaryIndex("name");
  bool found = false;
  for (size_t p = 0; p < 2; ++p) {
    if (index->Lookup(p, Value("zzz")) != nullptr) found = true;
  }
  EXPECT_FALSE(found);
}

TEST(IndexTest, ErrorsOnBadColumnAndDuplicates) {
  Table t("t", TwoColumnSchema(), 2);
  EXPECT_EQ(t.CreateSecondaryIndex("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(t.CreateSecondaryIndex("id").ok());
  EXPECT_EQ(t.CreateSecondaryIndex("id").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.IndexedColumns(), std::vector<std::string>{"id"});
}

// --- Catalog -------------------------------------------------------------------

TEST(CatalogTest, RegisterGetDrop) {
  Catalog catalog;
  auto t = std::make_shared<Table>("users", TwoColumnSchema(), 2);
  ASSERT_TRUE(catalog.RegisterTable(t).ok());
  EXPECT_TRUE(catalog.HasTable("users"));
  auto got = catalog.GetTable("users");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().get(), t.get());
  EXPECT_EQ(catalog.RegisterTable(t).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.DropTable("users").ok());
  EXPECT_FALSE(catalog.HasTable("users"));
  EXPECT_EQ(catalog.DropTable("users").code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.GetTable("users").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, UniqueTempNames) {
  Catalog catalog;
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) names.insert(catalog.UniqueTempName("join"));
  EXPECT_EQ(names.size(), 100u);
  for (const auto& name : names) {
    EXPECT_TRUE(Catalog::IsTempName(name)) << name;
  }
  EXPECT_FALSE(Catalog::IsTempName("lineitem"));
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterTable(std::make_shared<Table>("b", TwoColumnSchema(), 1))
          .ok());
  ASSERT_TRUE(
      catalog.RegisterTable(std::make_shared<Table>("a", TwoColumnSchema(), 1))
          .ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace dynopt
