#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "exec/engine.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

// --- TPC-H generator ----------------------------------------------------------

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    TpchOptions options;
    options.sf = 0.5;
    ASSERT_TRUE(LoadTpch(engine_, options).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static std::shared_ptr<Table> Get(const std::string& name) {
    auto t = engine_->catalog().GetTable(name);
    EXPECT_TRUE(t.ok());
    return t.value();
  }

  static Engine* engine_;
};

Engine* TpchTest::engine_ = nullptr;

TEST_F(TpchTest, CardinalitySchedule) {
  TpchCardinalities c = ComputeTpchCardinalities(0.5);
  EXPECT_EQ(Get("region")->NumRows(), 5u);
  EXPECT_EQ(Get("nation")->NumRows(), 25u);
  EXPECT_EQ(Get("supplier")->NumRows(), c.supplier);
  EXPECT_EQ(Get("customer")->NumRows(), c.customer);
  EXPECT_EQ(Get("part")->NumRows(), c.part);
  EXPECT_EQ(Get("partsupp")->NumRows(), c.part * 4);
  EXPECT_EQ(Get("orders")->NumRows(), c.orders);
  // 1-7 lines per order.
  EXPECT_GE(Get("lineitem")->NumRows(), c.orders);
  EXPECT_LE(Get("lineitem")->NumRows(), c.orders * 7);
}

TEST_F(TpchTest, LineitemForeignKeysValid) {
  auto orders = Get("orders");
  auto part = Get("part");
  auto supplier = Get("supplier");
  auto lineitem = Get("lineitem");
  const int64_t max_order = static_cast<int64_t>(orders->NumRows());
  const int64_t max_part = static_cast<int64_t>(part->NumRows());
  const int64_t max_supp = static_cast<int64_t>(supplier->NumRows());
  for (size_t p = 0; p < lineitem->num_partitions(); ++p) {
    for (const Row& row : lineitem->ReadRows(p)) {
      EXPECT_LT(row[0].AsInt64(), max_order);  // l_orderkey.
      EXPECT_LT(row[2].AsInt64(), max_part);   // l_partkey.
      EXPECT_LT(row[3].AsInt64(), max_supp);   // l_suppkey.
    }
  }
}

TEST_F(TpchTest, LineitemPairsExistInPartsupp) {
  // Q9's composite join depends on every (l_partkey, l_suppkey) pair
  // existing in partsupp.
  auto partsupp = Get("partsupp");
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t p = 0; p < partsupp->num_partitions(); ++p) {
    for (const Row& row : partsupp->ReadRows(p)) {
      pairs.emplace(row[0].AsInt64(), row[1].AsInt64());
    }
  }
  auto lineitem = Get("lineitem");
  for (size_t p = 0; p < lineitem->num_partitions(); ++p) {
    for (const Row& row : lineitem->ReadRows(p)) {
      EXPECT_TRUE(pairs.count({row[2].AsInt64(), row[3].AsInt64()}) > 0)
          << "dangling (partkey, suppkey) = (" << row[2].AsInt64() << ", "
          << row[3].AsInt64() << ")";
    }
  }
}

TEST_F(TpchTest, BrandSkewPlanted) {
  // ~55% of parts carry brand '#3...' so mysub(p_brand) = '#3' is far off
  // the Selinger default of 0.1.
  auto part = Get("part");
  int brand3 = 0, total = 0;
  for (size_t p = 0; p < part->num_partitions(); ++p) {
    for (const Row& row : part->ReadRows(p)) {
      ++total;
      if (row[2].AsString().rfind("Brand#3", 0) == 0) ++brand3;
    }
  }
  EXPECT_NEAR(static_cast<double>(brand3) / total, 0.55, 0.05);
}

TEST_F(TpchTest, StatusDateCorrelationPlanted) {
  // P(F | old order) ~ 0.98, P(F | recent) ~ 0.02.
  auto orders = Get("orders");
  int old_f = 0, old_total = 0, new_f = 0, new_total = 0;
  for (size_t p = 0; p < orders->num_partitions(); ++p) {
    for (const Row& row : orders->ReadRows(p)) {
      bool old_order = row[2].AsInt64() < 19950401;
      bool finished = row[3].AsString() == "F";
      if (old_order) {
        ++old_total;
        old_f += finished;
      } else {
        ++new_total;
        new_f += finished;
      }
    }
  }
  EXPECT_GT(static_cast<double>(old_f) / old_total, 0.9);
  EXPECT_LT(static_cast<double>(new_f) / new_total, 0.1);
}

TEST_F(TpchTest, UdfsRegisteredAndCorrect) {
  const UdfFn* myyear = engine_->udfs().Lookup("myyear");
  const UdfFn* myym = engine_->udfs().Lookup("myym");
  const UdfFn* mysub = engine_->udfs().Lookup("mysub");
  ASSERT_NE(myyear, nullptr);
  ASSERT_NE(myym, nullptr);
  ASSERT_NE(mysub, nullptr);
  EXPECT_EQ((*myyear)({Value(int64_t{19960315})}), Value(int64_t{1996}));
  EXPECT_EQ((*myym)({Value(int64_t{19960315})}), Value(int64_t{199603}));
  EXPECT_EQ((*mysub)({Value("Brand#42")}), Value("#4"));
  EXPECT_EQ((*myyear)({Value::Null()}), Value::Null());
}

TEST_F(TpchTest, BaseStatsCollected) {
  const TableStats* stats = engine_->stats().Get("lineitem");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, Get("lineitem")->NumRows());
  ASSERT_TRUE(stats->HasColumn("l_orderkey"));
  EXPECT_NEAR(stats->Column("l_orderkey")->ndv,
              static_cast<double>(Get("orders")->NumRows()),
              0.1 * static_cast<double>(Get("orders")->NumRows()));
}

TEST_F(TpchTest, IndexesCreatedOnDemand) {
  ASSERT_TRUE(CreateTpchIndexes(engine_).ok());
  EXPECT_TRUE(Get("lineitem")->HasSecondaryIndex("l_partkey"));
  EXPECT_TRUE(Get("lineitem")->HasSecondaryIndex("l_suppkey"));
  // Idempotent.
  EXPECT_TRUE(CreateTpchIndexes(engine_).ok());
}

TEST_F(TpchTest, QueriesBindCleanly) {
  auto q8 = TpchQ8(engine_);
  ASSERT_TRUE(q8.ok()) << q8.status().ToString();
  EXPECT_EQ(q8->tables.size(), 8u);
  EXPECT_EQ(q8->joins.size(), 7u);
  auto q9 = TpchQ9(engine_);
  ASSERT_TRUE(q9.ok()) << q9.status().ToString();
  EXPECT_EQ(q9->tables.size(), 6u);
  // partsupp joins lineitem on a composite key.
  bool composite = false;
  for (const auto& edge : q9->joins) {
    if (edge.keys.size() == 2) composite = true;
  }
  EXPECT_TRUE(composite);
}

TEST(TpchDeterminismTest, SameSeedSameData) {
  Engine a, b;
  TpchOptions options;
  options.sf = 0.1;
  options.collect_base_stats = false;
  ASSERT_TRUE(LoadTpch(&a, options).ok());
  ASSERT_TRUE(LoadTpch(&b, options).ok());
  auto ta = a.catalog().GetTable("orders").value();
  auto tb = b.catalog().GetTable("orders").value();
  ASSERT_EQ(ta->NumRows(), tb->NumRows());
  for (size_t p = 0; p < ta->num_partitions(); ++p) {
    EXPECT_EQ(ta->ReadRows(p), tb->ReadRows(p));
  }
}

// --- TPC-DS generator -----------------------------------------------------------

class TpcdsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    TpcdsOptions options;
    options.sf = 0.5;
    ASSERT_TRUE(LoadTpcds(engine_, options).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }
  static std::shared_ptr<Table> Get(const std::string& name) {
    auto t = engine_->catalog().GetTable(name);
    EXPECT_TRUE(t.ok());
    return t.value();
  }
  static Engine* engine_;
};

Engine* TpcdsTest::engine_ = nullptr;

TEST_F(TpcdsTest, CardinalitySchedule) {
  TpcdsCardinalities c = ComputeTpcdsCardinalities(0.5);
  EXPECT_EQ(Get("date_dim")->NumRows(), c.date_dim);
  EXPECT_EQ(Get("store")->NumRows(), c.store);
  EXPECT_EQ(Get("item")->NumRows(), c.item);
  EXPECT_EQ(Get("store_sales")->NumRows(), c.store_sales);
  EXPECT_EQ(Get("catalog_sales")->NumRows(), c.catalog_sales);
  // Returns ~10% of sales.
  EXPECT_NEAR(static_cast<double>(Get("store_returns")->NumRows()),
              0.1 * c.store_sales, 0.02 * c.store_sales);
}

TEST_F(TpcdsTest, DateDimConsistent) {
  auto dd = Get("date_dim");
  for (size_t p = 0; p < dd->num_partitions(); ++p) {
    for (const Row& row : dd->ReadRows(p)) {
      int64_t date = row[1].AsInt64();
      EXPECT_EQ(row[2].AsInt64(), date / 10000);       // d_year.
      EXPECT_EQ(row[3].AsInt64(), (date / 100) % 100);  // d_moy.
      EXPECT_GE(row[3].AsInt64(), 1);
      EXPECT_LE(row[3].AsInt64(), 12);
    }
  }
}

TEST_F(TpcdsTest, ReturnsReferenceRealSales) {
  // Every (item, ticket, customer) triple in store_returns must exist in
  // store_sales — the 3-column fact-to-fact join of Q17/Q50.
  auto ss = Get("store_sales");
  std::set<std::tuple<int64_t, int64_t, int64_t>> sale_keys;
  for (size_t p = 0; p < ss->num_partitions(); ++p) {
    for (const Row& row : ss->ReadRows(p)) {
      sale_keys.emplace(row[1].AsInt64(), row[3].AsInt64(),
                        row[2].AsInt64());
    }
  }
  auto sr = Get("store_returns");
  for (size_t p = 0; p < sr->num_partitions(); ++p) {
    for (const Row& row : sr->ReadRows(p)) {
      EXPECT_TRUE(sale_keys.count({row[1].AsInt64(), row[3].AsInt64(),
                                   row[2].AsInt64()}) > 0);
    }
  }
}

TEST_F(TpcdsTest, ReturnSeasonConcentration) {
  // >= 45% of returns should land in months 8-10 (vs 25% uniform).
  auto sr = Get("store_returns");
  auto dd = Get("date_dim");
  std::map<int64_t, int64_t> moy_by_sk;
  for (size_t p = 0; p < dd->num_partitions(); ++p) {
    for (const Row& row : dd->ReadRows(p)) {
      moy_by_sk[row[0].AsInt64()] = row[3].AsInt64();
    }
  }
  int hot = 0, total = 0;
  for (size_t p = 0; p < sr->num_partitions(); ++p) {
    for (const Row& row : sr->ReadRows(p)) {
      int64_t moy = moy_by_sk.at(row[0].AsInt64());
      ++total;
      if (moy >= 8 && moy <= 10) ++hot;
    }
  }
  EXPECT_GT(static_cast<double>(hot) / total, 0.45);
}

TEST_F(TpcdsTest, CustomerSkewPlanted) {
  // The busiest customer must appear far more often than the uniform
  // expectation (Zipf skew).
  auto ss = Get("store_sales");
  std::map<int64_t, int> counts;
  uint64_t total = 0;
  for (size_t p = 0; p < ss->num_partitions(); ++p) {
    for (const Row& row : ss->ReadRows(p)) {
      ++counts[row[2].AsInt64()];
      ++total;
    }
  }
  int max_count = 0;
  for (const auto& [customer, count] : counts) {
    max_count = std::max(max_count, count);
  }
  double uniform_expectation =
      static_cast<double>(total) /
      static_cast<double>(ComputeTpcdsCardinalities(0.5).customers);
  EXPECT_GT(max_count, 10 * uniform_expectation);
}

TEST_F(TpcdsTest, QueriesBindCleanly) {
  auto q17 = TpcdsQ17(engine_);
  ASSERT_TRUE(q17.ok()) << q17.status().ToString();
  EXPECT_EQ(q17->tables.size(), 8u);
  // The ss-sr edge is a 3-column composite join.
  bool triple = false;
  for (const auto& edge : q17->joins) {
    if (edge.keys.size() == 3) triple = true;
  }
  EXPECT_TRUE(triple);
  auto q50 = TpcdsQ50(engine_, 9, 1999);
  ASSERT_TRUE(q50.ok()) << q50.status().ToString();
  EXPECT_EQ(q50->tables.size(), 5u);
  EXPECT_EQ(q50->params.at("moy"), Value(int64_t{9}));
}

TEST_F(TpcdsTest, IndexesCreated) {
  ASSERT_TRUE(CreateTpcdsIndexes(engine_).ok());
  EXPECT_TRUE(Get("store_sales")->HasSecondaryIndex("ss_sold_date_sk"));
  EXPECT_TRUE(Get("store_returns")->HasSecondaryIndex("sr_returned_date_sk"));
  EXPECT_TRUE(Get("catalog_sales")->HasSecondaryIndex("cs_sold_date_sk"));
}

}  // namespace
}  // namespace dynopt
