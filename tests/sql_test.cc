#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.h"
#include "exec/vector_kernels.h"
#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenizesKeywordsAndIdentifiers) {
  auto tokens = Tokenize("SELECT x FROM t WHERE y = 1");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // 8 tokens + End.
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[5].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[6].type, TokenType::kEq);
  EXPECT_EQ((*tokens)[7].type, TokenType::kIntLiteral);
  EXPECT_EQ((*tokens)[8].type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "FROM");
  EXPECT_EQ((*tokens)[2].text, "WHERE");
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("42 3.14 'hello world'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIntLiteral);
  EXPECT_EQ((*tokens)[1].type, TokenType::kDoubleLiteral);
  EXPECT_EQ((*tokens)[2].type, TokenType::kStringLiteral);
  EXPECT_EQ((*tokens)[2].text, "hello world");
}

TEST(LexerTest, Operators) {
  auto tokens = Tokenize("= != <> < <= > >=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kEq);
  EXPECT_EQ((*tokens)[1].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[2].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[3].type, TokenType::kLt);
  EXPECT_EQ((*tokens)[4].type, TokenType::kLe);
  EXPECT_EQ((*tokens)[5].type, TokenType::kGt);
  EXPECT_EQ((*tokens)[6].type, TokenType::kGe);
}

TEST(LexerTest, Params) {
  auto tokens = Tokenize("$year $m_1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kParam);
  EXPECT_EQ((*tokens)[0].text, "year");
  EXPECT_EQ((*tokens)[1].text, "m_1");
}

TEST(LexerTest, Errors) {
  EXPECT_EQ(Tokenize("'unterminated").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Tokenize("$ x").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Tokenize("a ! b").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Tokenize("a @ b").status().code(), StatusCode::kParseError);
}

// --- Parser -------------------------------------------------------------------

TEST(ParserTest, BasicSelect) {
  auto stmt = ParseSelect("SELECT a.x, b.y FROM t1 a, t2 AS b");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->select_list.size(), 2u);
  ASSERT_EQ(stmt->from.size(), 2u);
  EXPECT_EQ(stmt->from[0].table, "t1");
  EXPECT_EQ(stmt->from[0].alias, "a");
  EXPECT_EQ(stmt->from[1].alias, "b");
  EXPECT_EQ(stmt->where, nullptr);
}

TEST(ParserTest, AliasDefaultsToTableName) {
  auto stmt = ParseSelect("SELECT x FROM orders");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->from[0].alias, "orders");
}

TEST(ParserTest, WhereConjunction) {
  auto stmt = ParseSelect(
      "SELECT a.x FROM t a WHERE a.x = 1 AND a.y > 2 AND a.z <= 3.5");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(SplitConjuncts(stmt->where).size(), 3u);
}

TEST(ParserTest, BetweenBindsItsOwnAnd) {
  auto stmt = ParseSelect(
      "SELECT a.x FROM t a WHERE a.x BETWEEN 1 AND 9 AND a.y = 2");
  ASSERT_TRUE(stmt.ok());
  auto conjuncts = SplitConjuncts(stmt->where);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind(), ExprKind::kBetween);
}

TEST(ParserTest, UdfCallsAndParams) {
  auto stmt = ParseSelect(
      "SELECT a.x FROM t a WHERE myyear(a.d) = $y AND f(a.x, 2, 'z')");
  ASSERT_TRUE(stmt.ok());
  auto conjuncts = SplitConjuncts(stmt->where);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind(), ExprKind::kComparison);
  EXPECT_EQ(conjuncts[1]->kind(), ExprKind::kUdfCall);
}

TEST(ParserTest, ParenthesizedOr) {
  auto stmt = ParseSelect(
      "SELECT a.x FROM t a WHERE (a.x = 1 OR a.x = 2) AND a.y = 3");
  ASSERT_TRUE(stmt.ok());
  auto conjuncts = SplitConjuncts(stmt->where);
  ASSERT_EQ(conjuncts.size(), 2u);
  EXPECT_EQ(conjuncts[0]->kind(), ExprKind::kOr);
}

TEST(ParserTest, NotPredicate) {
  auto stmt = ParseSelect("SELECT a.x FROM t a WHERE NOT a.x = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind(), ExprKind::kNot);
}

TEST(ParserTest, LiteralKeywords) {
  auto stmt =
      ParseSelect("SELECT a.x FROM t a WHERE a.b = TRUE AND a.c != NULL");
  ASSERT_TRUE(stmt.ok());
}

TEST(ParserTest, Errors) {
  EXPECT_EQ(ParseSelect("FROM t").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT x").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT x FROM t WHERE").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT x FROM t extra garbage = 1").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParseSelect("SELECT x FROM t WHERE (a.x = 1").status().code(),
      StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT f(x) FROM t").status().code(),
            StatusCode::kParseError);  // Expressions in SELECT unsupported.
}

TEST(ParserTest, OutOfRangeIntegerLiteralIsParseError) {
  auto stmt = ParseSelect(
      "SELECT o.o_orderkey FROM orders o "
      "WHERE o.o_orderkey = 99999999999999999999999");
  EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
  EXPECT_NE(stmt.status().message().find("out of range"), std::string::npos);
  // The largest int64 still parses.
  EXPECT_TRUE(ParseSelect("SELECT a.x FROM t a WHERE a.x = 9223372036854775807")
                  .ok());
}

TEST(ParserTest, OutOfRangeLimitIsParseError) {
  EXPECT_EQ(ParseSelect("SELECT a.x FROM t a LIMIT 99999999999999999999999")
                .status()
                .code(),
            StatusCode::kParseError);
  auto ok = ParseSelect("SELECT a.x FROM t a LIMIT 5");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->limit, 5);
}

TEST(ParserTest, OutOfRangeDoubleLiteralIsParseError) {
  const std::string huge = "1" + std::string(400, '0') + ".5";
  EXPECT_EQ(ParseSelect("SELECT a.x FROM t a WHERE a.x < " + huge)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_TRUE(ParseSelect("SELECT a.x FROM t a WHERE a.x < 12.5").ok());
}

// --- Binder -------------------------------------------------------------------

// --- Nesting depth ------------------------------------------------------------

/// The parser's nesting limit (NOT, parentheses and UDF calls together).
constexpr int kDepthLimit = 1000;

enum class Nesting { kNot, kParen, kAlternating };

/// `t.x = 1` inside `levels` nesting levels: all NOT, all parentheses, or
/// alternating "NOT (" from the outside in.
std::string NestedPredicate(Nesting shape, int levels) {
  std::string open;
  std::string close;
  for (int i = 0; i < levels; ++i) {
    const bool is_not = shape == Nesting::kNot ||
                        (shape == Nesting::kAlternating && i % 2 == 0);
    if (is_not) {
      open += "NOT ";
    } else {
      open += "(";
      close += ")";
    }
  }
  return open + "t.x = 1" + close;
}

std::string NestedQuery(Nesting shape, int levels) {
  return "SELECT t.x, t.y FROM t WHERE " + NestedPredicate(shape, levels);
}

TEST(ParserDepthTest, NestingAtTheLimitParsesBindsAndRuns) {
  Engine engine;
  auto t = std::make_shared<Table>(
      "t", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}}),
      engine.cluster().num_nodes);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t->AppendRow({Value(int64_t{i % 4}), Value(int64_t{i})}).ok());
  }
  ASSERT_TRUE(engine.catalog().RegisterTable(t).ok());
  ASSERT_TRUE(engine.CollectBaseStats("t", {"x", "y"}).ok());
  auto flat = ParseAndBind("SELECT t.x, t.y FROM t WHERE t.x = 1",
                           engine.catalog());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  DynamicOptimizer dynamic(&engine);
  auto want = dynamic.Run(flat.value());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->rows.size(), 50u);

  // An even number of NOTs in every shape: each query means t.x = 1.
  for (Nesting shape : {Nesting::kNot, Nesting::kParen, Nesting::kAlternating}) {
    const std::string sql = NestedQuery(shape, kDepthLimit);
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

    // The vectorized filter compiles and evaluates the deep tree.
    auto pred = VecPredicate::Compile(stmt->where, {"t.x", "t.y"}, nullptr,
                                      nullptr);
    ASSERT_TRUE(pred.ok()) << pred.status().ToString();
    ColumnBatch batch;
    batch.num_rows = 4;
    batch.columns.resize(2);
    for (int64_t x : {0, 1, 2, 1}) batch.columns[0].i64.push_back(x);
    for (int64_t y : {5, 6, 7, 8}) batch.columns[1].i64.push_back(y);
    std::vector<uint8_t> keep;
    pred->EvalBools(batch, &keep);
    EXPECT_EQ(keep, (std::vector<uint8_t>{0, 1, 0, 1}));

    auto query = ParseAndBind(sql, engine.catalog());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto got = dynamic.Run(query.value());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->rows, want->rows);
    // The statement, the bound query and the compiled predicate are
    // destroyed here, each a tree kDepthLimit levels deep.
  }
}

TEST(ParserDepthTest, NestingPastTheLimitIsParseError) {
  for (Nesting shape : {Nesting::kNot, Nesting::kParen, Nesting::kAlternating}) {
    auto stmt = ParseSelect(NestedQuery(shape, kDepthLimit + 1));
    EXPECT_EQ(stmt.status().code(), StatusCode::kParseError);
    EXPECT_NE(stmt.status().message().find("nested deeper than 1000"),
              std::string::npos)
        << stmt.status().ToString();
  }
  // Far past the limit: rejected, not a stack overflow.
  EXPECT_EQ(ParseSelect(NestedQuery(Nesting::kParen, 100000)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect(NestedQuery(Nesting::kNot, 100000)).status().code(),
            StatusCode::kParseError);
  std::string calls;
  for (int i = 0; i < 100000; ++i) calls += "f(";
  calls += "t.x" + std::string(100000, ')');
  EXPECT_EQ(ParseSelect("SELECT t.x FROM t WHERE " + calls + " = 1")
                .status()
                .code(),
            StatusCode::kParseError);
}

// --- Three-valued logic ---------------------------------------------------------

TEST(ThreeValuedLogicTest, NotAndOrBetweenOverNullUnderEveryStrategy) {
  // NOT NULL is NULL, FALSE AND NULL is FALSE, TRUE OR NULL is TRUE, and a
  // filter keeps only TRUE rows. The expected key sets are written out by
  // hand: the row oracle evaluates predicates with the same code.
  Engine engine;
  TpchOptions tpch;
  tpch.sf = 0.01;
  ASSERT_TRUE(LoadTpch(&engine, tpch).ok());
  auto keys = [](int64_t lo, int64_t hi) {
    std::vector<int64_t> out;
    for (int64_t k = lo; k <= hi; ++k) out.push_back(k);
    return out;
  };
  const std::vector<std::pair<std::string, std::vector<int64_t>>> cases = {
      {"NOT (n_nationkey = NULL)", {}},
      {"NOT (n_nationkey BETWEEN NULL AND 2)", keys(3, 24)},
      {"NOT (n_nationkey BETWEEN 2 AND NULL)", keys(0, 1)},
      {"n_nationkey BETWEEN NULL AND 2", {}},
      {"n_nationkey = NULL OR n_nationkey < 3", keys(0, 2)},
      {"NOT (n_nationkey = NULL OR n_nationkey > 2)", {}},
      {"NOT (n_nationkey = NULL AND n_nationkey > 2)", keys(0, 2)},
      {"NOT (NOT (n_nationkey = NULL))", {}},
      {"NOT (n_nationkey < 3 AND (n_nationkey = NULL OR n_nationkey > 0))",
       keys(3, 24)},
  };
  for (const auto& [where, want] : cases) {
    SCOPED_TRACE(where);
    auto query = ParseAndBind(
        "SELECT n_nationkey FROM nation, region WHERE n_regionkey = "
        "r_regionkey AND (" + where + ")",
        engine.catalog());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    DynamicOptimizer dynamic(&engine);
    auto hint = dynamic.Run(query.value());
    ASSERT_TRUE(hint.ok()) << hint.status().ToString();
    BestOrderOptimizer best(&engine, hint->join_tree);
    StaticCostBasedOptimizer cost_based(&engine);
    PilotRunOptimizer pilot(&engine);
    IngresLikeOptimizer ingres(&engine);
    WorstOrderOptimizer worst(&engine);
    SketchDynamicOptimizer sketch(&engine);
    for (Optimizer* opt : std::vector<Optimizer*>{
             &dynamic, &best, &cost_based, &pilot, &ingres, &worst, &sketch}) {
      auto result = opt->Run(query.value());
      ASSERT_TRUE(result.ok()) << opt->name() << ": "
                               << result.status().ToString();
      std::vector<int64_t> got;
      for (const Row& row : result->rows) got.push_back(row[0].AsInt64());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << opt->name();
    }
  }
}

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto users = std::make_shared<Table>(
        "users",
        Schema({{"id", ValueType::kInt64}, {"country", ValueType::kString}}),
        2);
    auto orders = std::make_shared<Table>(
        "orders",
        Schema({{"oid", ValueType::kInt64},
                {"user_id", ValueType::kInt64},
                {"amount", ValueType::kDouble}}),
        2);
    auto items = std::make_shared<Table>(
        "items",
        Schema({{"iid", ValueType::kInt64}, {"oid", ValueType::kInt64}}), 2);
    ASSERT_TRUE(catalog_.RegisterTable(users).ok());
    ASSERT_TRUE(catalog_.RegisterTable(orders).ok());
    ASSERT_TRUE(catalog_.RegisterTable(items).ok());
  }

  Catalog catalog_;
};

TEST_F(BinderTest, ClassifiesJoinsAndPredicates) {
  auto spec = ParseAndBind(
      "SELECT u.country, o.amount FROM users u, orders o "
      "WHERE u.id = o.user_id AND o.amount > 10",
      catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->joins.size(), 1u);
  EXPECT_EQ(spec->joins[0].keys[0].first, "o.user_id");
  EXPECT_EQ(spec->joins[0].keys[0].second, "u.id");
  ASSERT_EQ(spec->predicates.size(), 1u);
  EXPECT_EQ(spec->predicates[0].alias, "o");
  EXPECT_EQ(spec->projections,
            (std::vector<std::string>{"u.country", "o.amount"}));
}

TEST_F(BinderTest, ResolvesUnqualifiedColumns) {
  auto spec = ParseAndBind(
      "SELECT country FROM users u, orders o WHERE id = user_id", catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->projections[0], "u.country");
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  // "oid" exists in both orders and items.
  auto spec = ParseAndBind(
      "SELECT oid FROM orders o, items i WHERE o.oid = i.oid", catalog_);
  EXPECT_EQ(spec.status().code(), StatusCode::kBindError);
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  EXPECT_EQ(ParseAndBind("SELECT x FROM nope", catalog_).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseAndBind("SELECT u.nope FROM users u", catalog_)
                .status()
                .code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, DuplicateAliasRejected) {
  EXPECT_EQ(ParseAndBind("SELECT u.id FROM users u, orders u", catalog_)
                .status()
                .code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, DisconnectedJoinGraphRejected) {
  auto spec =
      ParseAndBind("SELECT u.id FROM users u, orders o", catalog_);
  EXPECT_FALSE(spec.ok());  // Cross product: no join edge.
}

TEST_F(BinderTest, MultiAliasPredicateRejected) {
  auto spec = ParseAndBind(
      "SELECT u.id FROM users u, orders o "
      "WHERE u.id = o.user_id AND u.id > o.amount",
      catalog_);
  EXPECT_EQ(spec.status().code(), StatusCode::kBindError);
}

TEST_F(BinderTest, ParamsValidated) {
  auto missing = ParseAndBind(
      "SELECT u.id FROM users u WHERE u.id = $x", catalog_);
  EXPECT_EQ(missing.status().code(), StatusCode::kBindError);
  auto ok = ParseAndBind("SELECT u.id FROM users u WHERE u.id = $x",
                         catalog_, {{"x", Value(1)}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->params.at("x"), Value(1));
}

TEST_F(BinderTest, SelfJoinWithDistinctAliases) {
  auto spec = ParseAndBind(
      "SELECT a.id FROM users a, users b WHERE a.id = b.id", catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->joins.size(), 1u);
}

TEST_F(BinderTest, CompositeJoinKeysMerged) {
  auto spec = ParseAndBind(
      "SELECT o.amount FROM orders o, items i "
      "WHERE o.oid = i.oid AND o.user_id = i.iid",
      catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->joins.size(), 1u);  // NormalizeJoins merged the pair.
  EXPECT_EQ(spec->joins[0].keys.size(), 2u);
}

TEST_F(BinderTest, SameAliasEqualityIsPredicateNotJoin) {
  auto spec = ParseAndBind(
      "SELECT o.amount FROM orders o WHERE o.oid = o.user_id", catalog_);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->joins.empty());
  EXPECT_EQ(spec->predicates.size(), 1u);
}

TEST_F(BinderTest, BaseTablesRecorded) {
  auto spec = ParseAndBind(
      "SELECT u.id FROM users u, orders o WHERE u.id = o.user_id", catalog_);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->base_tables.at("u"), "users");
  EXPECT_EQ(spec->base_tables.at("o"), "orders");
}

}  // namespace
}  // namespace dynopt
