#include "sql/parser.h"

#include <charconv>
#include <system_error>

#include "sql/lexer.h"

namespace dynopt {

namespace {

/// Converts a numeric literal token with std::from_chars, which reports
/// overflow as an error code instead of throwing (std::stoll / std::stod
/// throw std::out_of_range). `what` names the literal in the message.
template <typename T>
Result<T> ParseNumber(const std::string& text, const char* what) {
  T v{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError(std::string(what) + " out of range: " + text);
  }
  return v;
}

/// Deepest nesting of NOT, parentheses and UDF calls an expression may
/// have. Each level costs a few stack frames in the recursive-descent
/// parser, and later passes (binder, evaluators, destruction) recurse over
/// the tree, so an unbounded depth would overflow the stack.
constexpr int kMaxExpressionDepth = 1000;

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseStatement() {
    SelectStatement stmt;
    DYNOPT_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    DYNOPT_ASSIGN_OR_RETURN(stmt.select_list, ParseSelectList());
    DYNOPT_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DYNOPT_ASSIGN_OR_RETURN(stmt.from, ParseFromList());
    if (MatchKeyword("WHERE")) {
      DYNOPT_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (MatchKeyword("GROUP")) {
      DYNOPT_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        DYNOPT_ASSIGN_OR_RETURN(ExprPtr col, ParseColumnRef());
        stmt.group_by.push_back(std::move(col));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("ORDER")) {
      DYNOPT_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        SelectStatement::OrderItem item;
        DYNOPT_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        if (MatchKeyword("DESC")) {
          item.descending = true;
        } else {
          MatchKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Status::ParseError("expected integer after LIMIT");
      }
      DYNOPT_ASSIGN_OR_RETURN(
          stmt.limit, ParseNumber<int64_t>(Advance().text, "LIMIT value"));
    }
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("trailing input after statement: '" +
                                Peek().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }
  bool Match(TokenType type) {
    if (Peek().type == type) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) {
      return Status::ParseError("expected " + kw + " near '" + Peek().text +
                                "' at offset " +
                                std::to_string(Peek().position));
    }
    return Status::OK();
  }
  Status Expect(TokenType type, const char* what) {
    if (!Match(type)) {
      return Status::ParseError(std::string("expected ") + what + " near '" +
                                Peek().text + "' at offset " +
                                std::to_string(Peek().position));
    }
    return Status::OK();
  }

  Result<ExprPtr> ParseColumnRef() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError("expected column name near '" + Peek().text +
                                "'");
    }
    std::string first = Advance().text;
    if (Match(TokenType::kDot)) {
      if (Peek().type != TokenType::kIdentifier) {
        return Status::ParseError("expected column name after '" + first +
                                  ".'");
      }
      std::string column = Advance().text;
      return Col(first, column);
    }
    return Col("", first);
  }

  bool PeekAggregateKeyword() const {
    if (Peek().type != TokenType::kKeyword) return false;
    const std::string& kw = Peek().text;
    return kw == "COUNT" || kw == "SUM" || kw == "MIN" || kw == "MAX" ||
           kw == "AVG";
  }

  Result<std::vector<SelectStatement::SelectItem>> ParseSelectList() {
    std::vector<SelectStatement::SelectItem> list;
    do {
      SelectStatement::SelectItem item;
      if (Peek().type == TokenType::kStar) {
        Advance();
        item.is_star = true;
        list.push_back(std::move(item));
        continue;
      }
      if (PeekAggregateKeyword()) {
        item.is_aggregate = true;
        item.agg_fn = Advance().text;
        DYNOPT_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        DYNOPT_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        DYNOPT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      } else {
        DYNOPT_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
      }
      list.push_back(std::move(item));
    } while (Match(TokenType::kComma));
    return list;
  }

  Result<std::vector<SelectStatement::FromItem>> ParseFromList() {
    std::vector<SelectStatement::FromItem> from;
    do {
      if (Peek().type != TokenType::kIdentifier) {
        return Status::ParseError("expected table name near '" + Peek().text +
                                  "'");
      }
      SelectStatement::FromItem item;
      item.table = Advance().text;
      // Dotted name ("sys.metrics"): the catalog name keeps the dot; the
      // default alias is the last segment so column references stay
      // single-dot ("metrics.name").
      std::string default_alias = item.table;
      if (Match(TokenType::kDot)) {
        if (Peek().type != TokenType::kIdentifier) {
          return Status::ParseError("expected name after '" + item.table +
                                    ".'");
        }
        default_alias = Advance().text;
        item.table += "." + default_alias;
      }
      MatchKeyword("AS");
      if (Peek().type == TokenType::kIdentifier) {
        item.alias = Advance().text;
      } else {
        item.alias = default_alias;
      }
      from.push_back(std::move(item));
    } while (Match(TokenType::kComma));
    return from;
  }

  Result<ExprPtr> ParseOr() {
    DYNOPT_ASSIGN_OR_RETURN(ExprPtr first, ParseAnd());
    std::vector<ExprPtr> children{std::move(first)};
    while (MatchKeyword("OR")) {
      DYNOPT_ASSIGN_OR_RETURN(ExprPtr next, ParseAnd());
      children.push_back(std::move(next));
    }
    return children.size() == 1 ? children[0] : Or(std::move(children));
  }

  Result<ExprPtr> ParseAnd() {
    DYNOPT_ASSIGN_OR_RETURN(ExprPtr first, ParseUnary());
    std::vector<ExprPtr> children{std::move(first)};
    while (MatchKeyword("AND")) {
      DYNOPT_ASSIGN_OR_RETURN(ExprPtr next, ParseUnary());
      children.push_back(std::move(next));
    }
    return children.size() == 1 ? children[0] : And(std::move(children));
  }

  /// Enters one more nesting level (a failed parse never leaves it).
  Status EnterNested() {
    if (++depth_ > kMaxExpressionDepth) {
      return Status::ParseError("expression nested deeper than " +
                                std::to_string(kMaxExpressionDepth) +
                                " levels at offset " +
                                std::to_string(Peek().position));
    }
    return Status::OK();
  }

  Result<ExprPtr> ParseUnary() {
    if (MatchKeyword("NOT")) {
      DYNOPT_RETURN_IF_ERROR(EnterNested());
      DYNOPT_ASSIGN_OR_RETURN(ExprPtr child, ParseUnary());
      --depth_;
      return Not(std::move(child));
    }
    if (Peek().type == TokenType::kLParen) {
      Advance();
      DYNOPT_RETURN_IF_ERROR(EnterNested());
      DYNOPT_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
      DYNOPT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      --depth_;
      return inner;
    }
    return ParsePredicate();
  }

  Result<ExprPtr> ParsePredicate() {
    DYNOPT_ASSIGN_OR_RETURN(ExprPtr left, ParseOperand());
    if (MatchKeyword("BETWEEN")) {
      DYNOPT_ASSIGN_OR_RETURN(ExprPtr lo, ParseOperand());
      DYNOPT_RETURN_IF_ERROR(ExpectKeyword("AND"));
      DYNOPT_ASSIGN_OR_RETURN(ExprPtr hi, ParseOperand());
      return Between(std::move(left), std::move(lo), std::move(hi));
    }
    CompareOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = CompareOp::kEq;
        break;
      case TokenType::kNe:
        op = CompareOp::kNe;
        break;
      case TokenType::kLt:
        op = CompareOp::kLt;
        break;
      case TokenType::kLe:
        op = CompareOp::kLe;
        break;
      case TokenType::kGt:
        op = CompareOp::kGt;
        break;
      case TokenType::kGe:
        op = CompareOp::kGe;
        break;
      default:
        // Bare boolean operand, e.g. a boolean-valued UDF call.
        return left;
    }
    Advance();
    DYNOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
    return Cmp(op, std::move(left), std::move(right));
  }

  Result<ExprPtr> ParseOperand() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kIntLiteral: {
        DYNOPT_ASSIGN_OR_RETURN(
            int64_t v, ParseNumber<int64_t>(Advance().text, "integer literal"));
        return Lit(Value(v));
      }
      case TokenType::kDoubleLiteral: {
        DYNOPT_ASSIGN_OR_RETURN(
            double v, ParseNumber<double>(Advance().text, "numeric literal"));
        return Lit(Value(v));
      }
      case TokenType::kStringLiteral:
        return Lit(Value(Advance().text));
      case TokenType::kParam:
        return Param(Advance().text);
      case TokenType::kKeyword: {
        if (tok.text == "TRUE") {
          Advance();
          return Lit(Value(true));
        }
        if (tok.text == "FALSE") {
          Advance();
          return Lit(Value(false));
        }
        if (tok.text == "NULL") {
          Advance();
          return Lit(Value::Null());
        }
        return Status::ParseError("unexpected keyword '" + tok.text +
                                  "' in expression");
      }
      case TokenType::kIdentifier: {
        // UDF call or column reference.
        if (Peek(1).type == TokenType::kLParen) {
          std::string name = Advance().text;
          Advance();  // '('
          DYNOPT_RETURN_IF_ERROR(EnterNested());
          std::vector<ExprPtr> args;
          if (Peek().type != TokenType::kRParen) {
            do {
              DYNOPT_ASSIGN_OR_RETURN(ExprPtr arg, ParseOperand());
              args.push_back(std::move(arg));
            } while (Match(TokenType::kComma));
          }
          DYNOPT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          --depth_;
          return Udf(std::move(name), std::move(args));
        }
        return ParseColumnRef();
      }
      default:
        return Status::ParseError("unexpected token '" + tok.text +
                                  "' in expression at offset " +
                                  std::to_string(tok.position));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< NOT / parenthesis / UDF-call levels entered.
};

}  // namespace

Result<SelectStatement> ParseSelect(const std::string& sql) {
  DYNOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace dynopt
