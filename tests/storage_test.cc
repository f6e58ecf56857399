#include <gtest/gtest.h>

#include <memory>
#include <set>

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
  t.AppendBatches(2, std::move(batches));
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
