#include "workloads/tpcds.h"

#include <cmath>
#include <vector>

#include "common/random.h"
#include "sql/binder.h"
#include "storage/schema.h"

namespace dynopt {

namespace {

std::vector<std::string> AllColumns(const Table& table) {
  std::vector<std::string> cols;
  for (size_t i = 0; i < table.schema().num_fields(); ++i) {
    cols.push_back(table.schema().field(i).name);
  }
  return cols;
}

}  // namespace

TpcdsCardinalities ComputeTpcdsCardinalities(double sf) {
  TpcdsCardinalities c;
  c.store = static_cast<uint64_t>(std::llround(12 + 4 * sf));
  c.item = static_cast<uint64_t>(std::llround(1800 * sf));
  c.customers = static_cast<uint64_t>(std::llround(3000 * sf));
  c.store_sales = static_cast<uint64_t>(std::llround(28800 * sf));
  c.store_returns = c.store_sales / 10;
  c.catalog_sales = static_cast<uint64_t>(std::llround(14400 * sf));
  return c;
}

Status LoadTpcds(Engine* engine, const TpcdsOptions& options) {
  Catalog& catalog = engine->catalog();
  const size_t parts = engine->cluster().num_nodes;
  Rng rng(options.seed);
  TpcdsCardinalities n = ComputeTpcdsCardinalities(options.sf);

  // --- date_dim: one row per (360-day-year) day, 1998..2002 ----------------
  {
    auto t = std::make_shared<Table>(
        "date_dim",
        Schema({{"d_date_sk", ValueType::kInt64},
                {"d_date", ValueType::kInt64},
                {"d_year", ValueType::kInt64},
                {"d_moy", ValueType::kInt64}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"d_date_sk"}));
    for (uint64_t day = 0; day < n.date_dim; ++day) {
      int64_t year = 1998 + static_cast<int64_t>(day) / 360;
      int64_t rem = static_cast<int64_t>(day) % 360;
      int64_t moy = rem / 30 + 1;
      int64_t dom = rem % 30 + 1;
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(static_cast<int64_t>(2450000 + day)),
                        Value(year * 10000 + moy * 100 + dom), Value(year),
                        Value(moy)}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }
  auto date_sk = [&](uint64_t day) {
    return static_cast<int64_t>(2450000 + day % n.date_dim);
  };

  // --- store ----------------------------------------------------------------
  {
    auto t = std::make_shared<Table>(
        "store",
        Schema({{"s_store_sk", ValueType::kInt64},
                {"s_store_id", ValueType::kString},
                {"s_store_name", ValueType::kString}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"s_store_sk"}));
    for (uint64_t i = 0; i < n.store; ++i) {
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(static_cast<int64_t>(i)),
                        Value("STORE_" + std::to_string(i)),
                        Value("store_name_" + std::to_string(i))}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- item -------------------------------------------------------------
  {
    auto t = std::make_shared<Table>(
        "item",
        Schema({{"i_item_sk", ValueType::kInt64},
                {"i_item_id", ValueType::kString},
                {"i_item_desc", ValueType::kString},
                {"i_brand", ValueType::kString}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"i_item_sk"}));
    for (uint64_t i = 0; i < n.item; ++i) {
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(static_cast<int64_t>(i)),
                        Value("ITEM_" + std::to_string(i)),
                        Value("desc_" + std::to_string(i)),
                        Value("brand_" + std::to_string(i % 50))}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- store_sales: Zipf-skewed customers, ~2 lines per ticket -------------
  ZipfDistribution customer_dist(n.customers, options.customer_skew);
  struct SaleKey {
    int64_t item;
    int64_t ticket;
    int64_t customer;
    uint64_t sold_day;
  };
  std::vector<SaleKey> sales;
  sales.reserve(n.store_sales);
  {
    auto t = std::make_shared<Table>(
        "store_sales",
        Schema({{"ss_sold_date_sk", ValueType::kInt64},
                {"ss_item_sk", ValueType::kInt64},
                {"ss_customer_sk", ValueType::kInt64},
                {"ss_ticket_number", ValueType::kInt64},
                {"ss_store_sk", ValueType::kInt64},
                {"ss_quantity", ValueType::kInt64}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"ss_ticket_number"}));
    int64_t ticket = 0;
    int64_t ticket_customer = 0;
    uint64_t ticket_day = 0;
    int64_t lines_left = 0;
    for (uint64_t i = 0; i < n.store_sales; ++i) {
      if (lines_left == 0) {
        ++ticket;
        ticket_customer = static_cast<int64_t>(customer_dist.Sample(rng));
        ticket_day = rng.NextUint64(n.date_dim);
        lines_left = rng.NextInt64(1, 3);
      }
      --lines_left;
      int64_t item = rng.NextInt64(0, static_cast<int64_t>(n.item) - 1);
      sales.push_back(SaleKey{item, ticket, ticket_customer, ticket_day});
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(date_sk(ticket_day)), Value(item),
                        Value(ticket_customer), Value(ticket),
                        Value(rng.NextInt64(
                            0, static_cast<int64_t>(n.store) - 1)),
                        Value(rng.NextInt64(1, 100))}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- store_returns: ~10% of sales, matching (item, ticket, customer) -----
  std::vector<std::pair<int64_t, int64_t>> returned_pairs;  // (customer, item)
  {
    auto t = std::make_shared<Table>(
        "store_returns",
        Schema({{"sr_returned_date_sk", ValueType::kInt64},
                {"sr_item_sk", ValueType::kInt64},
                {"sr_customer_sk", ValueType::kInt64},
                {"sr_ticket_number", ValueType::kInt64},
                {"sr_return_quantity", ValueType::kInt64}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"sr_ticket_number"}));
    for (const SaleKey& sale : sales) {
      if (!rng.NextBool(0.1)) continue;
      // Returns concentrate in months 8-10 (holiday-return season, 60% of
      // returns): the parameterized d_moy filter of Q50 is therefore far
      // more selective than a blind optimizer's default suggests.
      uint64_t return_day;
      if (rng.NextBool(0.6)) {
        uint64_t year = (sale.sold_day / 360 + rng.NextUint64(2)) %
                        (n.date_dim / 360);
        return_day = year * 360 + 7 * 30 + rng.NextUint64(90);
      } else {
        return_day = sale.sold_day + rng.NextUint64(60) + 1;
      }
      if (return_day >= n.date_dim) return_day = n.date_dim - 1;
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(date_sk(return_day)), Value(sale.item),
                        Value(sale.customer), Value(sale.ticket),
                        Value(rng.NextInt64(1, 10))}));
      returned_pairs.emplace_back(sale.customer, sale.item);
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- catalog_sales: partially correlated with returns --------------------
  {
    auto t = std::make_shared<Table>(
        "catalog_sales",
        Schema({{"cs_sold_date_sk", ValueType::kInt64},
                {"cs_item_sk", ValueType::kInt64},
                {"cs_bill_customer_sk", ValueType::kInt64},
                {"cs_quantity", ValueType::kInt64}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(
        t->SetPartitionKey({"cs_item_sk", "cs_bill_customer_sk"}));
    for (uint64_t i = 0; i < n.catalog_sales; ++i) {
      int64_t customer, item;
      if (!returned_pairs.empty() && rng.NextBool(0.35)) {
        // Returned customers often re-order by catalog: these rows make the
        // sr-cs non-key join of Q17 productive and skewed.
        const auto& pair =
            returned_pairs[rng.NextUint64(returned_pairs.size())];
        customer = pair.first;
        item = pair.second;
      } else {
        customer = static_cast<int64_t>(customer_dist.Sample(rng));
        item = rng.NextInt64(0, static_cast<int64_t>(n.item) - 1);
      }
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(date_sk(rng.NextUint64(n.date_dim))), Value(item),
                        Value(customer), Value(rng.NextInt64(1, 100))}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  if (options.collect_base_stats) {
    for (const char* name : {"date_dim", "store", "item", "store_sales",
                             "store_returns", "catalog_sales"}) {
      DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                              catalog.GetTable(name));
      DYNOPT_RETURN_IF_ERROR(engine->CollectBaseStats(name, AllColumns(*t)));
    }
  }
  return Status::OK();
}

Status CreateTpcdsIndexes(Engine* engine) {
  struct IndexSpec {
    const char* table;
    const char* column;
  };
  const IndexSpec specs[] = {{"store_sales", "ss_sold_date_sk"},
                             {"store_returns", "sr_returned_date_sk"},
                             {"catalog_sales", "cs_sold_date_sk"}};
  for (const auto& spec : specs) {
    DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                            engine->catalog().GetTable(spec.table));
    Status st = t->CreateSecondaryIndex(spec.column);
    if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  }
  return Status::OK();
}

std::string TpcdsQ17Sql() {
  return R"(SELECT i.i_item_id, i.i_item_desc, s.s_store_id, s.s_store_name,
       COUNT(ss.ss_quantity), SUM(sr.sr_return_quantity),
       MAX(cs.cs_quantity)
FROM store_sales ss, store_returns sr, catalog_sales cs,
     date_dim d1, date_dim d2, date_dim d3, store s, item i
WHERE d1.d_moy = 4
  AND d1.d_year = 2001
  AND d1.d_date_sk = ss.ss_sold_date_sk
  AND i.i_item_sk = ss.ss_item_sk
  AND s.s_store_sk = ss.ss_store_sk
  AND ss.ss_customer_sk = sr.sr_customer_sk
  AND ss.ss_item_sk = sr.sr_item_sk
  AND ss.ss_ticket_number = sr.sr_ticket_number
  AND sr.sr_returned_date_sk = d2.d_date_sk
  AND d2.d_moy BETWEEN 4 AND 10
  AND d2.d_year = 2001
  AND sr.sr_customer_sk = cs.cs_bill_customer_sk
  AND sr.sr_item_sk = cs.cs_item_sk
  AND cs.cs_sold_date_sk = d3.d_date_sk
  AND d3.d_moy BETWEEN 4 AND 10
  AND d3.d_year = 2001
GROUP BY i.i_item_id, i.i_item_desc, s.s_store_id, s.s_store_name
ORDER BY i.i_item_id, i.i_item_desc, s.s_store_id, s.s_store_name
LIMIT 100)";
}

std::string TpcdsQ50Sql() {
  return R"(SELECT s.s_store_name, ss.ss_quantity
FROM store_sales ss, store_returns sr, date_dim d1, date_dim d2, store s
WHERE d1.d_moy = $moy
  AND d1.d_year = $year
  AND d1.d_date_sk = sr.sr_returned_date_sk
  AND ss.ss_customer_sk = sr.sr_customer_sk
  AND ss.ss_item_sk = sr.sr_item_sk
  AND ss.ss_ticket_number = sr.sr_ticket_number
  AND ss.ss_sold_date_sk = d2.d_date_sk
  AND ss.ss_store_sk = s.s_store_sk)";
}

Result<QuerySpec> TpcdsQ17(Engine* engine) {
  return ParseAndBind(TpcdsQ17Sql(), engine->catalog());
}

Result<QuerySpec> TpcdsQ50(Engine* engine, int64_t moy, int64_t year) {
  return ParseAndBind(TpcdsQ50Sql(), engine->catalog(),
                      {{"moy", Value(moy)}, {"year", Value(year)}});
}

}  // namespace dynopt
