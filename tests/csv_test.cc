#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "sql/binder.h"
#include "storage/csv.h"

namespace dynopt {
namespace {

std::string WriteTempCsv(const std::string& content) {
  static int counter = 0;
  std::string path =
      "/tmp/dynopt_csv_test_" + std::to_string(counter++) + ".csv";
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(CsvSplitTest, PlainCells) {
  EXPECT_EQ(SplitCsvLine("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCsvLine("a,,c", ','),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitCsvLine("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitCsvLine("a|b", '|'), (std::vector<std::string>{"a", "b"}));
}

TEST(CsvSplitTest, QuotedCells) {
  EXPECT_EQ(SplitCsvLine("\"a,b\",c", ','),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(SplitCsvLine("\"say \"\"hi\"\"\",x", ','),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvCellTest, Conversions) {
  CsvOptions options;
  EXPECT_EQ(ParseCsvCell("42", ValueType::kInt64, options).value(),
            Value(int64_t{42}));
  EXPECT_EQ(ParseCsvCell("-7", ValueType::kInt64, options).value(),
            Value(int64_t{-7}));
  EXPECT_EQ(ParseCsvCell("2.5", ValueType::kDouble, options).value(),
            Value(2.5));
  EXPECT_EQ(ParseCsvCell("true", ValueType::kBool, options).value(),
            Value(true));
  EXPECT_EQ(ParseCsvCell("hello", ValueType::kString, options).value(),
            Value("hello"));
  EXPECT_TRUE(
      ParseCsvCell("\\N", ValueType::kInt64, options).value().is_null());
  EXPECT_TRUE(ParseCsvCell("", ValueType::kInt64, options).value().is_null());
  // Empty string cells are empty strings, not NULL.
  EXPECT_EQ(ParseCsvCell("", ValueType::kString, options).value(), Value(""));
  EXPECT_FALSE(ParseCsvCell("4x2", ValueType::kInt64, options).ok());
  EXPECT_FALSE(ParseCsvCell("1.2.3", ValueType::kDouble, options).ok());
  EXPECT_FALSE(ParseCsvCell("maybe", ValueType::kBool, options).ok());

  // Numbers out of their type's range are errors, as the same SQL literals
  // are.
  for (const char* cell : {"99999999999999999999", "-99999999999999999999"}) {
    auto v = ParseCsvCell(cell, ValueType::kInt64, options);
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << cell;
    EXPECT_NE(v.status().message().find("out of range"), std::string::npos)
        << v.status().message();
  }
  for (const char* cell : {"1e999", "-1e999"}) {
    auto v = ParseCsvCell(cell, ValueType::kDouble, options);
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << cell;
    EXPECT_NE(v.status().message().find("out of range"), std::string::npos)
        << v.status().message();
  }
  // The extremes that fit keep their values, an underflow keeps its
  // rounded value, and an infinity spelled out stays accepted.
  EXPECT_EQ(ParseCsvCell("9223372036854775807", ValueType::kInt64, options)
                .value()
                .AsInt64(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseCsvCell("-9223372036854775808", ValueType::kInt64, options)
                .value()
                .AsInt64(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ParseCsvCell("1.7976931348623157e308", ValueType::kDouble, options)
                .value()
                .AsDouble(),
            std::numeric_limits<double>::max());
  EXPECT_EQ(
      ParseCsvCell("1e-999", ValueType::kDouble, options).value().AsDouble(),
      0.0);
  EXPECT_EQ(
      ParseCsvCell("4e-320", ValueType::kDouble, options).value().AsDouble(),
      4e-320);
  EXPECT_TRUE(std::isinf(
      ParseCsvCell("inf", ValueType::kDouble, options).value().AsDouble()));
}

TEST(CsvLoadTest, LoadsAndPartitions) {
  std::string path = WriteTempCsv(
      "id,name,score\n"
      "1,alice,9.5\n"
      "2,bob,\\N\n"
      "3,\"c,d\",7.0\n");
  Schema schema({{"id", ValueType::kInt64},
                 {"name", ValueType::kString},
                 {"score", ValueType::kDouble}});
  CsvOptions options;
  options.partition_key = {"id"};
  auto table = LoadCsvTable("people", schema, path, 4, options);
  std::remove(path.c_str());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->NumRows(), 3u);
  // Find bob's row and check the NULL.
  bool found_bob = false;
  for (size_t p = 0; p < (*table)->num_partitions(); ++p) {
    for (const Row& row : (*table)->ReadRows(p)) {
      if (row[1] == Value("bob")) {
        found_bob = true;
        EXPECT_TRUE(row[2].is_null());
      }
      if (row[0] == Value(3)) EXPECT_EQ(row[1], Value("c,d"));
    }
  }
  EXPECT_TRUE(found_bob);
}

TEST(CsvLoadTest, ErrorsAreSpecific) {
  Schema schema({{"id", ValueType::kInt64}});
  EXPECT_EQ(LoadCsvTable("t", schema, "/nonexistent.csv", 2).status().code(),
            StatusCode::kNotFound);

  std::string bad_arity = WriteTempCsv("id\n1,2\n");
  auto r1 = LoadCsvTable("t", schema, bad_arity, 2);
  std::remove(bad_arity.c_str());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  std::string bad_cell = WriteTempCsv("id\nnot_a_number\n");
  auto r2 = LoadCsvTable("t", schema, bad_cell, 2);
  std::remove(bad_cell.c_str());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  std::string big_cell = WriteTempCsv("id\n1\n99999999999999999999\n");
  auto r3 = LoadCsvTable("t", schema, big_cell, 2);
  std::remove(big_cell.c_str());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r3.status().message().find(big_cell + ":3: "), std::string::npos)
      << r3.status().message();
}

TEST(CsvLoadTest, ZeroPartitionsIsAnError) {
  std::string path = WriteTempCsv("id\n1\n");
  auto table =
      LoadCsvTable("t", Schema({{"id", ValueType::kInt64}}), path, 0);
  std::remove(path.c_str());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvLoadTest, NoHeaderAndCustomDelimiter) {
  std::string path = WriteTempCsv("1|x\n2|y\n");
  Schema schema({{"k", ValueType::kInt64}, {"v", ValueType::kString}});
  CsvOptions options;
  options.has_header = false;
  options.delimiter = '|';
  auto table = LoadCsvTable("t", schema, path, 2, options);
  std::remove(path.c_str());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->NumRows(), 2u);
}

TEST(CsvLoadTest, LoadedTableIsQueryable) {
  std::string users = WriteTempCsv(
      "id,country\n"
      "1,DE\n2,US\n3,DE\n4,FR\n");
  std::string orders = WriteTempCsv(
      "oid,user_id,amount\n"
      "10,1,5.0\n11,1,6.0\n12,2,7.0\n13,3,8.0\n");
  Engine engine;
  CsvOptions key_id;
  key_id.partition_key = {"id"};
  auto users_table = LoadCsvTable(
      "users",
      Schema({{"id", ValueType::kInt64}, {"country", ValueType::kString}}),
      users, engine.cluster().num_nodes, key_id);
  CsvOptions key_oid;
  key_oid.partition_key = {"oid"};
  auto orders_table = LoadCsvTable("orders",
                                   Schema({{"oid", ValueType::kInt64},
                                           {"user_id", ValueType::kInt64},
                                           {"amount", ValueType::kDouble}}),
                                   orders, engine.cluster().num_nodes,
                                   key_oid);
  std::remove(users.c_str());
  std::remove(orders.c_str());
  ASSERT_TRUE(users_table.ok() && orders_table.ok());
  ASSERT_TRUE(engine.catalog().RegisterTable(users_table.value()).ok());
  ASSERT_TRUE(engine.catalog().RegisterTable(orders_table.value()).ok());

  auto query = ParseAndBind(
      "SELECT u.country, SUM(o.amount) FROM users u, orders o "
      "WHERE u.id = o.user_id AND u.country = 'DE' GROUP BY u.country",
      engine.catalog());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  DynamicOptimizer optimizer(&engine);
  auto result = optimizer.Run(query.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value("DE"));
  EXPECT_EQ(result->rows[0][1], Value(19.0));  // 5+6+8.
}

}  // namespace
}  // namespace dynopt
