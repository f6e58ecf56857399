#include "workloads/tpch.h"

#include <cmath>
#include <vector>

#include "common/random.h"
#include "sql/binder.h"
#include "storage/schema.h"

namespace dynopt {

namespace {

constexpr int64_t kDateLo = 19920101;

/// yyyymmdd arithmetic: day index (0-based from 1992-01-01, 30-day months,
/// 360-day years — a simplification that keeps year/month extraction exact).
int64_t DayToDate(int64_t day) {
  int64_t year = 1992 + day / 360;
  int64_t rem = day % 360;
  int64_t month = rem / 30 + 1;
  int64_t dom = rem % 30 + 1;
  return year * 10000 + month * 100 + dom;
}

const char* const kTypes[] = {
    "SMALL PLATED COPPER", "LARGE BRUSHED STEEL", "MEDIUM ANODIZED TIN",
    "SMALL POLISHED NICKEL", "LARGE PLATED BRASS", "MEDIUM BURNISHED COPPER",
    "PROMO PLATED STEEL", "ECONOMY ANODIZED BRASS", "STANDARD POLISHED TIN",
    "PROMO BURNISHED NICKEL", "SMALL ANODIZED STEEL", "LARGE POLISHED COPPER",
    "ECONOMY BRUSHED TIN", "STANDARD PLATED NICKEL", "MEDIUM POLISHED BRASS",
    "PROMO ANODIZED COPPER", "SMALL BURNISHED BRASS", "LARGE ANODIZED TIN",
    "ECONOMY POLISHED STEEL", "STANDARD BURNISHED COPPER"};
constexpr size_t kNumTypes = sizeof(kTypes) / sizeof(kTypes[0]);

const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                "MIDDLE EAST"};

const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "HOUSEHOLD", "MACHINERY"};

Status RegisterTpchUdfs(UdfRegistry* udfs) {
  // myyear(yyyymmdd) -> year. Opaque to every optimizer except the dynamic
  // one, which executes it early.
  Status st = udfs->Register("myyear", [](const std::vector<Value>& args) {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value(args[0].AsInt64() / 10000);
  });
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  // myym(yyyymmdd) -> yyyymm. A single equality on this UDF is highly
  // selective (~1/72 of six years of orders); a blind optimizer assumes
  // 1/10, so it believes the filtered orders too large to broadcast — the
  // exact missed-broadcast failure mode Section 3 of the paper calls out.
  st = udfs->Register("myym", [](const std::vector<Value>& args) {
    if (args.empty() || args[0].is_null()) return Value::Null();
    return Value(args[0].AsInt64() / 100);
  });
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  // mysub(brand) -> "#d": the '#' plus the first digit of the brand id.
  st = udfs->Register("mysub", [](const std::vector<Value>& args) {
    if (args.empty() || args[0].is_null()) return Value::Null();
    const std::string& s = args[0].AsString();
    size_t pos = s.find('#');
    if (pos == std::string::npos || pos + 1 >= s.size()) {
      return Value(std::string(""));
    }
    return Value(s.substr(pos, 2));
  });
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  return Status::OK();
}

std::vector<std::string> AllColumns(const Table& table) {
  std::vector<std::string> cols;
  for (size_t i = 0; i < table.schema().num_fields(); ++i) {
    cols.push_back(table.schema().field(i).name);
  }
  return cols;
}

}  // namespace

TpchCardinalities ComputeTpchCardinalities(double sf) {
  TpchCardinalities c;
  c.supplier = static_cast<uint64_t>(std::llround(100 * sf));
  c.customer = static_cast<uint64_t>(std::llround(1500 * sf));
  c.part = static_cast<uint64_t>(std::llround(2000 * sf));
  c.partsupp = c.part * 4;  // Four suppliers per part, per the TPC-H spec.
  c.orders = static_cast<uint64_t>(std::llround(15000 * sf));
  c.lineitem = 0;  // Determined by per-order line counts during generation.
  return c;
}

Status LoadTpch(Engine* engine, const TpchOptions& options) {
  DYNOPT_RETURN_IF_ERROR(RegisterTpchUdfs(&engine->udfs()));
  Catalog& catalog = engine->catalog();
  const size_t parts = engine->cluster().num_nodes;
  Rng rng(options.seed);
  TpchCardinalities n = ComputeTpchCardinalities(options.sf);

  // --- region -------------------------------------------------------------
  {
    auto t = std::make_shared<Table>(
        "region",
        Schema({{"r_regionkey", ValueType::kInt64},
                {"r_name", ValueType::kString}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"r_regionkey"}));
    for (int64_t i = 0; i < 5; ++i) {
      DYNOPT_RETURN_IF_ERROR(t->AppendRow({Value(i), Value(kRegions[i])}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- nation -------------------------------------------------------------
  {
    auto t = std::make_shared<Table>(
        "nation",
        Schema({{"n_nationkey", ValueType::kInt64},
                {"n_name", ValueType::kString},
                {"n_regionkey", ValueType::kInt64}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"n_nationkey"}));
    for (int64_t i = 0; i < 25; ++i) {
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(i), Value("NATION_" + std::to_string(i)),
                        Value(i % 5)}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- supplier -----------------------------------------------------------
  {
    auto t = std::make_shared<Table>(
        "supplier",
        Schema({{"s_suppkey", ValueType::kInt64},
                {"s_name", ValueType::kString},
                {"s_nationkey", ValueType::kInt64},
                {"s_acctbal", ValueType::kDouble}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"s_suppkey"}));
    for (uint64_t i = 0; i < n.supplier; ++i) {
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(static_cast<int64_t>(i)),
                        Value("Supplier#" + std::to_string(i)),
                        Value(rng.NextInt64(0, 24)),
                        Value(rng.NextDouble() * 10000.0)}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- customer -----------------------------------------------------------
  {
    auto t = std::make_shared<Table>(
        "customer",
        Schema({{"c_custkey", ValueType::kInt64},
                {"c_nationkey", ValueType::kInt64},
                {"c_mktsegment", ValueType::kString},
                {"c_acctbal", ValueType::kDouble}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"c_custkey"}));
    for (uint64_t i = 0; i < n.customer; ++i) {
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(static_cast<int64_t>(i)),
                        Value(rng.NextInt64(0, 24)),
                        Value(kSegments[rng.NextUint64(5)]),
                        Value(rng.NextDouble() * 10000.0)}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- part ---------------------------------------------------------------
  {
    auto t = std::make_shared<Table>(
        "part",
        Schema({{"p_partkey", ValueType::kInt64},
                {"p_name", ValueType::kString},
                {"p_brand", ValueType::kString},
                {"p_type", ValueType::kString},
                {"p_size", ValueType::kInt64}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"p_partkey"}));
    for (uint64_t i = 0; i < n.part; ++i) {
      // Brand#xy with x in 1..5, y in 1..5 — mysub() extracts "#x". The
      // first digit is heavily skewed toward 3 (55%), so the true
      // selectivity of Q9's mysub(p_brand) = '#3' is ~0.55 while a blind
      // optimizer assumes the Selinger default of 0.1.
      int64_t bx;
      if (rng.NextBool(0.55)) {
        bx = 3;
      } else {
        const int64_t others[] = {1, 2, 4, 5};
        bx = others[rng.NextUint64(4)];
      }
      int64_t by = rng.NextInt64(1, 5);
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(static_cast<int64_t>(i)),
                        Value("part_" + std::to_string(i)),
                        Value("Brand#" + std::to_string(bx) +
                              std::to_string(by)),
                        Value(kTypes[rng.NextUint64(kNumTypes)]),
                        Value(rng.NextInt64(1, 50))}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- partsupp: exactly 4 suppliers per part ------------------------------
  {
    auto t = std::make_shared<Table>(
        "partsupp",
        Schema({{"ps_partkey", ValueType::kInt64},
                {"ps_suppkey", ValueType::kInt64},
                {"ps_availqty", ValueType::kInt64},
                {"ps_supplycost", ValueType::kDouble}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"ps_partkey"}));
    for (uint64_t p = 0; p < n.part; ++p) {
      for (int s = 0; s < 4; ++s) {
        int64_t suppkey =
            static_cast<int64_t>((p + static_cast<uint64_t>(s) *
                                          (n.supplier / 4 + 1)) %
                                 n.supplier);
        DYNOPT_RETURN_IF_ERROR(
            t->AppendRow({Value(static_cast<int64_t>(p)), Value(suppkey),
                          Value(rng.NextInt64(1, 9999)),
                          Value(rng.NextDouble() * 1000.0)}));
      }
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- orders: o_orderstatus correlated with o_orderdate -------------------
  std::vector<int64_t> order_dates(n.orders);
  {
    auto t = std::make_shared<Table>(
        "orders",
        Schema({{"o_orderkey", ValueType::kInt64},
                {"o_custkey", ValueType::kInt64},
                {"o_orderdate", ValueType::kInt64},
                {"o_orderstatus", ValueType::kString},
                {"o_orderpriority", ValueType::kString},
                {"o_clerk", ValueType::kString},
                {"o_totalprice", ValueType::kDouble}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"o_orderkey"}));
    const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"};
    for (uint64_t i = 0; i < n.orders; ++i) {
      int64_t day = rng.NextInt64(0, 6 * 360 - 1);  // 1992-01-01..1997-12-30.
      int64_t date = DayToDate(day);
      order_dates[i] = date;
      // Correlation: orders before April 1995 are almost always finished
      // ('F'), later ones open ('O') — with 2% noise. The independence
      // assumption badly mis-estimates (date-range AND status) conjunctions
      // like Q8's (o_orderdate BETWEEN 1995..1996 AND o_orderstatus = 'F'):
      // true joint selectivity ~0.05, independence predicts ~0.17.
      bool old_order = date < 19950401;
      bool finished = rng.NextBool(old_order ? 0.98 : 0.02);
      DYNOPT_RETURN_IF_ERROR(
          t->AppendRow({Value(static_cast<int64_t>(i)),
                        Value(rng.NextInt64(
                            0, static_cast<int64_t>(n.customer) - 1)),
                        Value(date), Value(finished ? "F" : "O"),
                        Value(kPriorities[rng.NextUint64(5)]),
                        Value("Clerk#" + std::to_string(rng.NextInt64(0, 999))),
                        Value(rng.NextDouble() * 100000.0)}));
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  // --- lineitem: FK pairs into partsupp, 1-7 lines per order ---------------
  {
    auto t = std::make_shared<Table>(
        "lineitem",
        Schema({{"l_orderkey", ValueType::kInt64},
                {"l_linenumber", ValueType::kInt64},
                {"l_partkey", ValueType::kInt64},
                {"l_suppkey", ValueType::kInt64},
                {"l_quantity", ValueType::kInt64},
                {"l_extendedprice", ValueType::kDouble},
                {"l_shipdate", ValueType::kInt64}}),
        parts);
    DYNOPT_RETURN_IF_ERROR(t->SetPartitionKey({"l_orderkey"}));
    for (uint64_t o = 0; o < n.orders; ++o) {
      int64_t lines = rng.NextInt64(1, 7);
      for (int64_t ln = 0; ln < lines; ++ln) {
        int64_t partkey =
            rng.NextInt64(0, static_cast<int64_t>(n.part) - 1);
        // Pick one of the part's four suppliers so (l_partkey, l_suppkey)
        // exists in partsupp (Q9's composite join).
        int64_t slot = rng.NextInt64(0, 3);
        int64_t suppkey = static_cast<int64_t>(
            (static_cast<uint64_t>(partkey) +
             static_cast<uint64_t>(slot) * (n.supplier / 4 + 1)) %
            n.supplier);
        DYNOPT_RETURN_IF_ERROR(
            t->AppendRow({Value(static_cast<int64_t>(o)), Value(ln),
                          Value(partkey), Value(suppkey),
                          Value(rng.NextInt64(1, 50)),
                          Value(rng.NextDouble() * 10000.0),
                          Value(order_dates[o])}));
      }
    }
    DYNOPT_RETURN_IF_ERROR(catalog.RegisterTable(t));
  }

  if (options.collect_base_stats) {
    for (const char* name : {"region", "nation", "supplier", "customer",
                             "part", "partsupp", "orders", "lineitem"}) {
      DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                              catalog.GetTable(name));
      DYNOPT_RETURN_IF_ERROR(engine->CollectBaseStats(name, AllColumns(*t)));
    }
  }
  (void)kDateLo;
  return Status::OK();
}

Status CreateTpchIndexes(Engine* engine) {
  DYNOPT_ASSIGN_OR_RETURN(std::shared_ptr<Table> lineitem,
                          engine->catalog().GetTable("lineitem"));
  Status st = lineitem->CreateSecondaryIndex("l_partkey");
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  st = lineitem->CreateSecondaryIndex("l_suppkey");
  if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
  return Status::OK();
}

std::string TpchQ8Sql() {
  return R"(SELECT o.o_orderdate, l.l_extendedprice, n2.n_name
FROM part p, supplier s, lineitem l, orders o, customer c,
     nation n1, nation n2, region r
WHERE p.p_partkey = l.l_partkey
  AND s.s_suppkey = l.l_suppkey
  AND l.l_orderkey = o.o_orderkey
  AND o.o_custkey = c.c_custkey
  AND c.c_nationkey = n1.n_nationkey
  AND n1.n_regionkey = r.r_regionkey
  AND r.r_name = 'ASIA'
  AND s.s_nationkey = n2.n_nationkey
  AND o.o_orderdate BETWEEN 19950101 AND 19961231
  AND o.o_orderstatus = 'F'
  AND p.p_type = 'SMALL PLATED COPPER')";
}

std::string TpchQ9Sql() {
  return R"(SELECT n.n_name, l.l_extendedprice, l.l_quantity, ps.ps_supplycost
FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n
WHERE s.s_suppkey = l.l_suppkey
  AND ps.ps_suppkey = l.l_suppkey
  AND ps.ps_partkey = l.l_partkey
  AND p.p_partkey = l.l_partkey
  AND o.o_orderkey = l.l_orderkey
  AND myym(o.o_orderdate) = 199603
  AND s.s_nationkey = n.n_nationkey
  AND mysub(p.p_brand) = '#3')";
}

Result<QuerySpec> TpchQ8(Engine* engine) {
  return ParseAndBind(TpchQ8Sql(), engine->catalog());
}

Result<QuerySpec> TpchQ9(Engine* engine) {
  return ParseAndBind(TpchQ9Sql(), engine->catalog());
}

}  // namespace dynopt
