// Property test: randomized join queries over randomized synthetic tables
// (with correlated predicate pairs and group-by/order-by/limit clauses),
// checked against a naive in-memory oracle (filter + nested-loop joins +
// an independent re-implementation of the post-processing contract) and
// across all seven execution paths: dynamic re-optimization loop, static DP
// single job, greedy worst-order chain, best-order hinted job, pilot-run,
// INGRES-like loop, and the sketch-dynamic strategy with predicate
// transfer enabled. Environment knobs re-run the same corpus under other
// configurations: DYNOPT_JOIN_MEMORY_BUDGET forces hash joins through the
// grace spill path, DYNOPT_ENABLE_INLJ indexes every table's join columns
// and lets all seven strategies plan indexed nested loop joins.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"

namespace dynopt {
namespace {

/// Naive oracle: per-alias filters over gathered rows, then nested-loop
/// joins edge by edge, then projection. Returns nullopt on internal errors
/// (reported via ADD_FAILURE).
std::vector<Row> Oracle(Engine* engine, const QuerySpec& spec, bool* ok) {
  *ok = true;
  struct Piece {
    std::set<std::string> aliases;
    std::vector<std::string> columns;
    std::vector<Row> rows;
  };
  std::vector<Piece> pieces;
  for (const auto& ref : spec.tables) {
    auto table_or = engine->catalog().GetTable(ref.table);
    if (!table_or.ok()) {
      ADD_FAILURE() << table_or.status().ToString();
      *ok = false;
      return {};
    }
    auto table = table_or.value();
    Piece piece;
    piece.aliases = {ref.alias};
    for (size_t i = 0; i < table->schema().num_fields(); ++i) {
      piece.columns.push_back(ref.alias + "." + table->schema().field(i).name);
    }
    ExprPtr predicate = CombineConjuncts(spec.PredicatesFor(ref.alias));
    BoundExprPtr bound;
    if (predicate != nullptr) {
      BindContext ctx;
      ctx.resolve_column = [&piece](const std::string& name) {
        for (size_t i = 0; i < piece.columns.size(); ++i) {
          if (piece.columns[i] == name) return static_cast<int>(i);
        }
        return -1;
      };
      ctx.params = &spec.params;
      ctx.udfs = &engine->udfs();
      auto bound_or = Bind(predicate, ctx);
      if (!bound_or.ok()) {
        ADD_FAILURE() << bound_or.status().ToString();
        *ok = false;
        return {};
      }
      bound = std::move(bound_or).value();
    }
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      for (const Row& row : table->ReadRows(p)) {
        if (bound == nullptr || bound->EvalBool(row)) piece.rows.push_back(row);
      }
    }
    pieces.push_back(std::move(piece));
  }

  std::vector<JoinEdge> pending = spec.joins;
  while (!pending.empty()) {
    bool progressed = false;
    for (size_t e = 0; e < pending.size(); ++e) {
      const JoinEdge& edge = pending[e];
      int li = -1, ri = -1;
      for (size_t i = 0; i < pieces.size(); ++i) {
        if (pieces[i].aliases.count(edge.left_alias)) li = static_cast<int>(i);
        if (pieces[i].aliases.count(edge.right_alias)) ri = static_cast<int>(i);
      }
      if (li < 0 || ri < 0 || li == ri) continue;
      const Piece& l = pieces[static_cast<size_t>(li)];
      const Piece& r = pieces[static_cast<size_t>(ri)];
      std::vector<int> lkeys, rkeys;
      for (const auto& [lk, rk] : edge.keys) {
        for (size_t i = 0; i < l.columns.size(); ++i) {
          if (l.columns[i] == lk) lkeys.push_back(static_cast<int>(i));
        }
        for (size_t i = 0; i < r.columns.size(); ++i) {
          if (r.columns[i] == rk) rkeys.push_back(static_cast<int>(i));
        }
      }
      if (lkeys.size() != edge.keys.size() ||
          rkeys.size() != edge.keys.size()) {
        ADD_FAILURE() << "oracle could not resolve keys of "
                      << edge.ToString();
        *ok = false;
        return {};
      }
      Piece joined;
      joined.aliases = l.aliases;
      joined.aliases.insert(r.aliases.begin(), r.aliases.end());
      joined.columns = l.columns;
      joined.columns.insert(joined.columns.end(), r.columns.begin(),
                            r.columns.end());
      for (const Row& lr : l.rows) {
        for (const Row& rr : r.rows) {
          bool match = true;
          for (size_t i = 0; i < lkeys.size(); ++i) {
            const Value& lv = lr[static_cast<size_t>(lkeys[i])];
            const Value& rv = rr[static_cast<size_t>(rkeys[i])];
            if (lv.is_null() || rv.is_null() || lv != rv) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          Row row = lr;
          row.insert(row.end(), rr.begin(), rr.end());
          joined.rows.push_back(std::move(row));
        }
      }
      // Remove the two inputs (higher index first), append the join.
      pieces.erase(pieces.begin() + std::max(li, ri));
      pieces.erase(pieces.begin() + std::min(li, ri));
      pieces.push_back(std::move(joined));
      pending.erase(pending.begin() + static_cast<long>(e));
      progressed = true;
      break;
    }
    if (!progressed) {
      ADD_FAILURE() << "oracle stuck: disconnected edge set";
      *ok = false;
      return {};
    }
  }

  const Piece& final_piece = pieces[0];
  std::vector<int> slots;
  for (const auto& proj : spec.projections) {
    for (size_t i = 0; i < final_piece.columns.size(); ++i) {
      if (final_piece.columns[i] == proj) slots.push_back(static_cast<int>(i));
    }
  }
  std::vector<Row> out;
  out.reserve(final_piece.rows.size());
  for (const Row& row : final_piece.rows) {
    Row projected;
    for (int s : slots) projected.push_back(row[static_cast<size_t>(s)]);
    out.push_back(std::move(projected));
  }

  // Independent re-implementation of the post-processing contract
  // (GROUP BY / aggregates over the carried projections, the deterministic
  // total-order sort, LIMIT) so the oracle shares no code with
  // ApplyPostProcessing. Only the aggregate functions the generator emits
  // (COUNT, SUM, MIN, MAX) are supported.
  if (!spec.HasPostProcessing()) return out;
  std::vector<std::string> columns = spec.projections;
  auto slot_of = [&](const std::string& name) -> int {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  std::vector<std::string> out_columns = columns;
  if (!spec.aggregates.empty() || !spec.group_by.empty()) {
    std::vector<int> group_slots, agg_slots;
    for (const auto& col : spec.group_by) group_slots.push_back(slot_of(col));
    for (const auto& agg : spec.aggregates) {
      agg_slots.push_back(slot_of(agg.input));
    }
    for (int s : group_slots) {
      if (s < 0) {
        ADD_FAILURE() << "oracle could not resolve a GROUP BY column";
        *ok = false;
        return {};
      }
    }
    for (int s : agg_slots) {
      if (s < 0) {
        ADD_FAILURE() << "oracle could not resolve an aggregate input";
        *ok = false;
        return {};
      }
    }
    // Raw non-null input values per (group, aggregate); finished below.
    std::map<Row, std::vector<std::vector<Value>>> groups;
    for (const Row& row : out) {
      Row key;
      for (int s : group_slots) key.push_back(row[static_cast<size_t>(s)]);
      auto [it, inserted] = groups.try_emplace(
          std::move(key),
          std::vector<std::vector<Value>>(spec.aggregates.size()));
      for (size_t a = 0; a < agg_slots.size(); ++a) {
        const Value& v = row[static_cast<size_t>(agg_slots[a])];
        if (!v.is_null()) it->second[a].push_back(v);
      }
    }
    // SQL: an aggregate without GROUP BY yields exactly one row, even when
    // its input is empty (COUNT 0; SUM/MIN/MAX NULL — finished below).
    if (group_slots.empty() && groups.empty()) {
      groups.try_emplace(Row{}, std::vector<std::vector<Value>>(
                                    spec.aggregates.size()));
    }
    std::vector<Row> grouped;
    for (const auto& [key, values] : groups) {
      Row row = key;
      for (size_t a = 0; a < values.size(); ++a) {
        switch (spec.aggregates[a].fn) {
          case AggFn::kCount:
            row.push_back(Value(static_cast<int64_t>(values[a].size())));
            break;
          case AggFn::kSum: {
            int64_t sum = 0;
            for (const Value& v : values[a]) sum += v.AsInt64();
            row.push_back(values[a].empty() ? Value::Null() : Value(sum));
            break;
          }
          case AggFn::kMin:
          case AggFn::kMax: {
            Value best;
            for (const Value& v : values[a]) {
              if (best.is_null() || (spec.aggregates[a].fn == AggFn::kMin
                                         ? v < best
                                         : best < v)) {
                best = v;
              }
            }
            row.push_back(best);
            break;
          }
          case AggFn::kAvg:
            ADD_FAILURE() << "oracle does not implement AVG";
            *ok = false;
            return {};
        }
      }
      grouped.push_back(std::move(row));
    }
    out = std::move(grouped);
    out_columns = spec.OutputColumns();
  }
  if (!spec.order_by.empty() || spec.limit >= 0) {
    std::vector<std::pair<int, bool>> sort_keys;
    std::vector<bool> used(out_columns.size(), false);
    for (const auto& key : spec.order_by) {
      for (size_t i = 0; i < out_columns.size(); ++i) {
        if (out_columns[i] == key.column) {
          sort_keys.emplace_back(static_cast<int>(i), key.descending);
          used[i] = true;
        }
      }
    }
    for (size_t i = 0; i < out_columns.size(); ++i) {
      if (!used[i]) sort_keys.emplace_back(static_cast<int>(i), false);
    }
    std::sort(out.begin(), out.end(), [&](const Row& a, const Row& b) {
      for (const auto& [slot, desc] : sort_keys) {
        int c = a[static_cast<size_t>(slot)].Compare(
            b[static_cast<size_t>(slot)]);
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    });
  }
  if (spec.limit >= 0 && out.size() > static_cast<size_t>(spec.limit)) {
    out.resize(static_cast<size_t>(spec.limit));
  }
  return out;
}

struct Generated {
  std::unique_ptr<Engine> engine;
  QuerySpec query;
  /// Planner knobs for every strategy (INLJ on under DYNOPT_ENABLE_INLJ).
  PlannerOptions planner;
};

/// True when the corpus runs with indexed nested loop joins enabled.
bool InljEnabled() { return std::getenv("DYNOPT_ENABLE_INLJ") != nullptr; }

/// Random catalog: 3-5 tables, each non-root referencing a random earlier
/// table via an `fk` column; random predicates (ranges, UDFs, params).
Generated Generate(uint64_t seed) {
  Generated g;
  g.engine = std::make_unique<Engine>();
  // The small-budget ctest variant re-runs this whole corpus with every
  // hash join forced through the grace spill path; results must not change.
  if (const char* budget = std::getenv("DYNOPT_JOIN_MEMORY_BUDGET")) {
    g.engine->mutable_cluster().memory.join_memory_budget_bytes =
        std::strtoull(budget, nullptr, 10);
  }
  g.planner.enable_inlj = InljEnabled();
  Rng rng(seed);
  (void)g.engine->udfs().Register("p_even", [](const std::vector<Value>& a) {
    return Value(a[0].AsInt64() % 2 == 0);
  });

  // Shape first: table sizes and the join-tree parent of each table.
  const int num_tables = 3 + static_cast<int>(rng.NextUint64(3));
  std::vector<int64_t> table_rows;
  std::vector<int> parents;
  for (int t = 0; t < num_tables; ++t) {
    table_rows.push_back(rng.NextInt64(40, 600));
    parents.push_back(
        t == 0 ? 0 : static_cast<int>(rng.NextUint64(static_cast<uint64_t>(t))));
  }
  for (int t = 0; t < num_tables; ++t) {
    int64_t parent_rows = table_rows[static_cast<size_t>(parents[t])];
    std::string name = "t" + std::to_string(t);
    auto table = std::make_shared<Table>(
        name,
        Schema({{"id", ValueType::kInt64},
                {"fk", ValueType::kInt64},
                {"v", ValueType::kInt64},
                {"w", ValueType::kInt64},
                {"s", ValueType::kString}}),
        g.engine->cluster().num_nodes);
    (void)table->SetPartitionKey({"id"});
    for (int64_t i = 0; i < table_rows[static_cast<size_t>(t)]; ++i) {
      // `w` mirrors `v` exactly: a perfectly correlated pair, so conjuncts
      // over both have the true selectivity of one while the independence
      // assumption squares it.
      const int64_t v = rng.NextInt64(0, 99);
      table->AppendRow({Value(i), Value(rng.NextInt64(0, parent_rows - 1)),
                        Value(v), Value(v),
                        Value("s" + std::to_string(rng.NextInt64(0, 4)))});
    }
    if (InljEnabled()) {
      (void)table->CreateSecondaryIndex("id");
      (void)table->CreateSecondaryIndex("fk");
    }
    (void)g.engine->catalog().RegisterTable(table);
    (void)g.engine->CollectBaseStats(name, {"id", "fk", "v", "w", "s"});
  }

  for (int t = 0; t < num_tables; ++t) {
    TableRef ref;
    ref.table = "t" + std::to_string(t);
    ref.alias = "a" + std::to_string(t);
    g.query.tables.push_back(ref);
  }
  for (int t = 1; t < num_tables; ++t) {
    JoinEdge edge;
    edge.left_alias = "a" + std::to_string(t);
    edge.right_alias = "a" + std::to_string(parents[static_cast<size_t>(t)]);
    edge.keys = {{edge.left_alias + ".fk", edge.right_alias + ".id"}};
    g.query.joins.push_back(std::move(edge));
  }

  // Random predicates.
  Rng prng(seed * 7 + 1);
  for (int t = 0; t < num_tables; ++t) {
    std::string alias = "a" + std::to_string(t);
    double dice = prng.NextDouble();
    if (dice < 0.3) {
      g.query.predicates.push_back(
          {alias, Cmp(CompareOp::kLt, Col(alias, "v"),
                      Lit(Value(prng.NextInt64(20, 90))))});
    } else if (dice < 0.45) {
      g.query.predicates.push_back({alias, Udf("p_even", {Col(alias, "v")})});
      g.query.predicates.push_back(
          {alias, Between(Col(alias, "v"), Lit(Value(prng.NextInt64(0, 30))),
                          Lit(Value(prng.NextInt64(50, 99))))});
    } else if (dice < 0.6) {
      std::string pname = "p" + std::to_string(t);
      g.query.predicates.push_back(
          {alias, Cmp(CompareOp::kGe, Col(alias, "v"), Param(pname))});
      g.query.params[pname] = Value(prng.NextInt64(10, 60));
    } else if (dice < 0.75) {
      // Correlated conjunct pair over the mirrored columns: a guaranteed
      // multi-predicate push-down whose estimate is off by 1/selectivity.
      int64_t cut = prng.NextInt64(20, 90);
      g.query.predicates.push_back(
          {alias, Cmp(CompareOp::kLt, Col(alias, "v"), Lit(Value(cut)))});
      g.query.predicates.push_back(
          {alias, Cmp(CompareOp::kLt, Col(alias, "w"), Lit(Value(cut)))});
    }
  }

  // Projections: one column per table (mix of ids/values/strings).
  for (int t = 0; t < num_tables; ++t) {
    const char* const cols[] = {"id", "v", "s"};
    g.query.projections.push_back("a" + std::to_string(t) + "." +
                                  cols[prng.NextUint64(3)]);
  }

  // Post-processing: GROUP BY + aggregates over carried projections, or a
  // bare ORDER BY, each optionally topped by a LIMIT — so every strategy's
  // ApplyPostProcessing path is exercised against the oracle's independent
  // re-implementation.
  double post_dice = prng.NextDouble();
  if (post_dice < 0.35) {
    g.query.group_by.push_back(g.query.projections[0]);
    AggregateSpec cnt;
    cnt.fn = AggFn::kCount;
    cnt.input = g.query.projections.back();
    cnt.output_name = "cnt";
    g.query.aggregates.push_back(cnt);
    // An int SUM when an int column is carried; MIN of the last projection
    // otherwise (strings compare fine under MIN).
    std::string int_col;
    for (const auto& p : g.query.projections) {
      if (p.size() > 2 && (p.compare(p.size() - 2, 2, ".v") == 0 ||
                           p.compare(p.size() - 3, 3, ".id") == 0)) {
        int_col = p;
        break;
      }
    }
    AggregateSpec extra;
    if (!int_col.empty()) {
      extra.fn = AggFn::kSum;
      extra.input = int_col;
      extra.output_name = "total";
    } else {
      extra.fn = AggFn::kMin;
      extra.input = g.query.projections.back();
      extra.output_name = "lo";
    }
    g.query.aggregates.push_back(extra);
    if (prng.NextDouble() < 0.5) {
      g.query.order_by.push_back({"cnt", true});
    }
    if (prng.NextDouble() < 0.4) g.query.limit = prng.NextInt64(1, 5);
  } else if (post_dice < 0.6) {
    g.query.order_by.push_back(
        {g.query.projections[prng.NextUint64(
             static_cast<uint64_t>(g.query.projections.size()))],
         prng.NextDouble() < 0.5});
    if (prng.NextDouble() < 0.5) g.query.limit = prng.NextInt64(1, 20);
  }
  g.query.NormalizeJoins();
  return g;
}

/// Index lookups across every strategy run of AllPathsMatchOracle.
std::atomic<uint64_t> g_index_lookups{0};
std::atomic<int> g_oracle_runs{0};

/// Under DYNOPT_ENABLE_INLJ the corpus must actually exercise the INLJ:
/// fails the binary when oracle runs happened but none looked up an index,
/// so the coverage cannot vanish silently.
class InljCoverageCheck : public ::testing::Environment {
 public:
  void TearDown() override {
    if (InljEnabled() && g_oracle_runs.load() > 0) {
      EXPECT_GT(g_index_lookups.load(), 0u)
          << "DYNOPT_ENABLE_INLJ set, but no strategy ran an indexed nested "
             "loop join on any seed";
    }
  }
};

const auto* const kInljCoverage =
    ::testing::AddGlobalTestEnvironment(new InljCoverageCheck);

class RandomQueryTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

TEST_P(RandomQueryTest, AllPathsMatchOracle) {
  Generated g = Generate(GetParam());
  ASSERT_TRUE(g.query.Validate().ok()) << g.query.Validate().ToString()
                                       << "\n" << g.query.ToString();
  bool ok = false;
  std::vector<Row> expected = Oracle(g.engine.get(), g.query, &ok);
  ASSERT_TRUE(ok);
  SortRows(&expected);

  g_oracle_runs.fetch_add(1);
  DynamicOptimizerOptions dyn_options;
  dyn_options.planner = g.planner;
  DynamicOptimizer dynamic(g.engine.get(), dyn_options);
  auto dyn = dynamic.Run(g.query);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  SortRows(&dyn->rows);
  EXPECT_EQ(dyn->rows, expected) << "dynamic diverges from oracle, seed "
                                 << GetParam();
  g_index_lookups.fetch_add(dyn->metrics.index_lookups);

  StaticCostBasedOptimizer cost_based(g.engine.get(), g.planner);
  auto cb = cost_based.Run(g.query);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  SortRows(&cb->rows);
  EXPECT_EQ(cb->rows, expected) << "cost-based diverges, seed " << GetParam();
  g_index_lookups.fetch_add(cb->metrics.index_lookups);

  WorstOrderOptimizer worst(g.engine.get(), g.planner);
  auto wo = worst.Run(g.query);
  ASSERT_TRUE(wo.ok()) << wo.status().ToString();
  SortRows(&wo->rows);
  EXPECT_EQ(wo->rows, expected) << "worst-order diverges, seed " << GetParam();
  g_index_lookups.fetch_add(wo->metrics.index_lookups);

  IngresLikeOptimizer ingres(g.engine.get(), g.planner);
  auto ing = ingres.Run(g.query);
  ASSERT_TRUE(ing.ok()) << ing.status().ToString();
  SortRows(&ing->rows);
  EXPECT_EQ(ing->rows, expected) << "ingres-like diverges, seed "
                                 << GetParam();
  g_index_lookups.fetch_add(ing->metrics.index_lookups);

  // Best-order replays the join tree the dynamic run discovered as one
  // hinted pipelined job.
  ASSERT_NE(dyn->join_tree, nullptr);
  BestOrderOptimizer best(g.engine.get(), dyn->join_tree);
  auto bo = best.Run(g.query);
  ASSERT_TRUE(bo.ok()) << bo.status().ToString();
  SortRows(&bo->rows);
  EXPECT_EQ(bo->rows, expected) << "best-order diverges, seed " << GetParam();
  g_index_lookups.fetch_add(bo->metrics.index_lookups);

  PilotRunOptions pilot_options;
  pilot_options.planner = g.planner;
  PilotRunOptimizer pilot(g.engine.get(), pilot_options);
  auto pr = pilot.Run(g.query);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  SortRows(&pr->rows);
  EXPECT_EQ(pr->rows, expected) << "pilot-run diverges, seed " << GetParam();
  g_index_lookups.fetch_add(pr->metrics.index_lookups);

  // Seventh strategy, with executor-side predicate transfer switched on:
  // Bloom pruning must never drop a joining row (no false negatives), so
  // the result still matches the oracle bit for bit.
  g.engine->mutable_cluster().sketch.enable_predicate_transfer = true;
  SketchDynamicOptimizer sketchy(g.engine.get(), g.planner);
  auto sk = sketchy.Run(g.query);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  SortRows(&sk->rows);
  EXPECT_EQ(sk->rows, expected) << "sketch-dynamic diverges, seed "
                                << GetParam();
  g_index_lookups.fetch_add(sk->metrics.index_lookups);
}

TEST_P(RandomQueryTest, NoTempTableLeaks) {
  Generated g = Generate(GetParam());
  size_t before = g.engine->catalog().TableNames().size();
  DynamicOptimizer dynamic(g.engine.get());
  ASSERT_TRUE(dynamic.Run(g.query).ok());
  IngresLikeOptimizer ingres(g.engine.get());
  ASSERT_TRUE(ingres.Run(g.query).ok());
  SketchDynamicOptimizer sketchy(g.engine.get());
  ASSERT_TRUE(sketchy.Run(g.query).ok());
  EXPECT_EQ(g.engine->catalog().TableNames().size(), before);
  // Temp-table sketches must be reclaimed with their tables; only
  // base-table sketches (built once per engine) may remain registered.
  for (const std::string& key : g.engine->sketches().Keys()) {
    EXPECT_EQ(key.rfind("t", 0), 0u) << "leaked sketch " << key;
  }
}

}  // namespace
}  // namespace dynopt
