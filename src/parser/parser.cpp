#include "parser/parser.h"

#include <array>
#include <cstdint>
#include <utility>

#include "obs/trace.h"

namespace jst {
namespace {

// Per-id operator tables over kTokenTexts, built at compile time.
using IdTable = std::array<std::int8_t, kTokenTexts.size()>;

// Binary operator precedence (higher binds tighter; -1 = not a binary
// operator). Mirrors the ES spec's MultiplicativeExpression..
// RelationalExpression ladder; && / || / ?? are handled here too and
// distinguished into LogicalExpression nodes. `in`/`instanceof` share the
// equality tier (8 in spec) — the numbering differs from the spec's but
// preserves relative order, which is all the climbing loop relies on.
constexpr IdTable kBinaryPrecedence = []() consteval {
  IdTable table{};
  table.fill(-1);
  const std::pair<const char*, std::int8_t> operators[] = {
      {"??", 1},  {"||", 2},  {"&&", 3},  {"|", 4},   {"^", 5},
      {"&", 6},   {"==", 7},  {"!=", 7},  {"===", 7}, {"!==", 7},
      {"in", 7},  {"instanceof", 7},      {"<", 8},   {">", 8},
      {"<=", 8},  {">=", 8},  {"<<", 9},  {">>", 9},  {">>>", 9},
      {"+", 10},  {"-", 10},  {"*", 11},  {"/", 11},  {"%", 11},
      {"**", 12},
  };
  for (const auto& [text, precedence] : operators) {
    table[token_id(text)] = precedence;
  }
  return table;
}();

constexpr IdTable kIsAssignmentOperator = []() consteval {
  IdTable table{};
  for (const char* text :
       {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", ">>>=", "&=", "|=",
        "^=", "**=", "&&=", "||=", "?\?="}) {
    table[token_id(text)] = 1;
  }
  return table;
}();

bool is_logical_op(std::uint8_t id) {
  return id == token_id("&&") || id == token_id("||") || id == token_id("??");
}

}  // namespace

// RAII nesting-depth guard (see Parser::kMaxNestingDepth). The budget's
// configurable depth ceiling is checked first so it trips as a structured
// BudgetExceeded before the hard recursion guard's ParseError.
struct ParserDepthGuard {
  explicit ParserDepthGuard(Parser& parser) : parser_(parser) {
    ++parser_.nesting_depth_;
    if (parser_.budget_ != nullptr) {
      parser_.budget_->check_depth(
          static_cast<std::size_t>(parser_.nesting_depth_));
    }
    if (parser_.nesting_depth_ > Parser::kMaxNestingDepth) {
      parser_.fail("nesting depth exceeded");
    }
  }
  ~ParserDepthGuard() { --parser_.nesting_depth_; }
  Parser& parser_;
};

ParseResult parse_program(std::string_view source, Budget* budget,
                          support::Arena* arena, support::AtomTable* atoms) {
  // Pooled contract: the caller's arena is rewound for this script; any
  // previous ParseResult built in it is dead from here on. The pooled
  // atom table is cleared in the same breath — its views alias the arena.
  if (arena != nullptr) arena->reset();
  if (atoms != nullptr) atoms->clear();
  ParseResult result{arena != nullptr ? Ast(arena, atoms) : Ast(), {}};
  support::Arena& frontend_arena = result.ast.arena();
  // Copy the script into the arena so token/node views never dangle on
  // the caller's buffer (one memcpy; reclaimed by the pooled reset).
  const std::string_view stable_source = frontend_arena.alloc_string(source);

  if (budget != nullptr) budget->set_stage("lex");
  Lexer lexer(stable_source, frontend_arena, budget);
  TokenStream tokens;
  {
    JST_SPAN("lex");
    tokens = lexer.scan_all(&result.token_stats);
  }
  result.comment_count = lexer.comment_count();
  result.comment_bytes = lexer.comment_bytes();
  result.source_bytes = source.size();
  result.source_lines = lexer.line();

  JST_SPAN("parse");
  if (budget != nullptr) budget->set_stage("parse");
  result.ast.set_budget(budget);
  try {
    Parser parser(tokens, result.ast, budget);
    Node* root = parser.parse_program_body();
    result.ast.set_root(root);
    result.ast.finalize();
  } catch (...) {
    result.ast.set_budget(nullptr);
    throw;
  }
  // The Ast outlives the per-script budget; never let the pointer escape.
  result.ast.set_budget(nullptr);
  return result;
}

bool parses(std::string_view source) {
  try {
    parse_program(source);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

Parser::Parser(const TokenStream& tokens, Ast& ast, Budget* budget)
    : tokens_(tokens), ast_(ast), budget_(budget) {
  eof_.type = TokenType::kEndOfFile;
  eof_.line = tokens_.count == 0 ? 1 : tokens_.records[tokens_.count - 1].line;
}

const TokenRecord& Parser::advance() {
  if (at_end()) fail("unexpected end of input");
  return tokens_.records[index_++];
}

bool Parser::match_punct(PunctId punct) {
  if (!check_punct(punct)) return false;
  advance();
  return true;
}

bool Parser::match_keyword(KeywordId keyword) {
  if (!check_keyword(keyword)) return false;
  advance();
  return true;
}

void Parser::expect_punct(PunctId punct) {
  if (!match_punct(punct)) {
    fail("expected '" + std::string(kTokenTexts[punct.id]) + "' but found '" +
         std::string(value(current())) + "'");
  }
}

void Parser::expect_keyword(KeywordId keyword) {
  if (!match_keyword(keyword)) {
    fail("expected keyword '" + std::string(kTokenTexts[keyword.id]) + "'");
  }
}

void Parser::fail(const std::string& message) const {
  // The column is recomputed from the offset only here, on the error path.
  const TokenRecord& token = current();
  const std::size_t column = at_end() ? 0 : tokens_.column(token);
  throw ParseError("parse error: " + message, token.line, column);
}

void Parser::consume_semicolon() {
  if (match_punct(";")) return;
  // Automatic semicolon insertion: allowed before '}', at EOF, or when the
  // offending token sits on a new line.
  if (at_end() || check_punct("}") || current().newline_before) return;
  fail("expected ';' but found '" + std::string(value(current())) + "'");
}

bool Parser::is_arrow_ahead(std::size_t ahead) const {
  // peek(ahead) must be '('. Scan to the matching ')' and look for '=>'.
  std::size_t i = ahead;
  if (!check_punct("(", i)) return false;
  int depth = 0;
  while (index_ + i < tokens_.count) {
    switch (peek(i).id) {
      case token_id("("):
      case token_id("["):
      case token_id("{"):
        ++depth;
        break;
      case token_id(")"):
      case token_id("]"):
      case token_id("}"):
        --depth;
        if (depth == 0) return check_punct("=>", i + 1);
        break;
      default:
        break;
    }
    ++i;
  }
  return false;
}

Node* Parser::parse_program_body() {
  Node* program = ast_.make(NodeKind::kProgram);
  program->line = tokens_.count == 0 ? 1 : tokens_.records[0].line;
  while (!at_end()) {
    program->kids.push_back(parse_statement());
  }
  return program;
}

Node* Parser::parse_statement() {
  ParserDepthGuard depth_guard(*this);
  const TokenRecord& token = current();
  switch (token.id) {
    case token_id("{"):
      return parse_block();
    case token_id(";"): {
      Node* node = ast_.make(NodeKind::kEmptyStatement);
      node->line = token.line;
      advance();
      return node;
    }
    case token_id("var"):
    case token_id("const"): {
      Node* decl = parse_variable_declaration();
      consume_semicolon();
      return decl;
    }
    case token_id("if"): return parse_if();
    case token_id("for"): return parse_for();
    case token_id("while"): return parse_while();
    case token_id("do"): return parse_do_while();
    case token_id("switch"): return parse_switch();
    case token_id("try"): return parse_try();
    case token_id("return"): return parse_return();
    case token_id("throw"): return parse_throw();
    case token_id("break"): return parse_break_continue(true);
    case token_id("continue"): return parse_break_continue(false);
    case token_id("function"):
      advance();
      return parse_function(/*is_declaration=*/true, /*is_async=*/false);
    case token_id("class"): return parse_class(/*is_declaration=*/true);
    case token_id("debugger"): {
      Node* node = ast_.make(NodeKind::kDebuggerStatement);
      node->line = token.line;
      advance();
      consume_semicolon();
      return node;
    }
    case token_id("with"): return parse_with();
    default:
      break;
  }
  // Contextual keyword `let` — only a declaration when followed by a
  // binding form.
  if (check_identifier("let") &&
      (peek(1).type == TokenType::kIdentifier || check_punct("[", 1) ||
       check_punct("{", 1))) {
    Node* decl = parse_variable_declaration();
    consume_semicolon();
    return decl;
  }
  // `async function` declaration.
  if (check_identifier("async") && check_keyword("function", 1) &&
      !peek(1).newline_before) {
    advance();
    advance();
    return parse_function(/*is_declaration=*/true, /*is_async=*/true);
  }
  return parse_labeled_or_expression_statement();
}

Node* Parser::parse_block() {
  Node* block = ast_.make(NodeKind::kBlockStatement);
  block->line = current().line;
  expect_punct("{");
  while (!check_punct("}")) {
    if (at_end()) fail("unterminated block");
    block->kids.push_back(parse_statement());
  }
  expect_punct("}");
  return block;
}

Node* Parser::parse_variable_declaration() {
  Node* declaration = ast_.make(NodeKind::kVariableDeclaration);
  declaration->line = current().line;
  declaration->str_value = value(advance());  // var / let / const
  while (true) {
    Node* declarator = ast_.make(NodeKind::kVariableDeclarator);
    declarator->line = current().line;
    Node* target = parse_binding_target();
    Node* init = nullptr;
    if (match_punct("=")) init = parse_assignment();
    declarator->kids = {target, init};
    declaration->kids.push_back(declarator);
    if (!match_punct(",")) break;
  }
  return declaration;
}

Node* Parser::parse_if() {
  Node* node = ast_.make(NodeKind::kIfStatement);
  node->line = current().line;
  expect_keyword("if");
  expect_punct("(");
  Node* test = parse_expression();
  expect_punct(")");
  Node* consequent = parse_statement();
  Node* alternate = nullptr;
  if (match_keyword("else")) alternate = parse_statement();
  node->kids = {test, consequent, alternate};
  return node;
}

Node* Parser::parse_for() {
  const std::size_t line = current().line;
  expect_keyword("for");
  expect_punct("(");

  Node* init = nullptr;
  if (check_punct(";")) {
    advance();
  } else {
    const bool is_decl =
        check_keyword("var") || check_keyword("const") ||
        (check_identifier("let") &&
         (peek(1).type == TokenType::kIdentifier || check_punct("[", 1) ||
          check_punct("{", 1)));
    if (is_decl) {
      init = parse_variable_declaration();
    } else {
      init = parse_expression();
    }
    if (check_keyword("in") || check_identifier("of")) {
      const bool is_of = check_identifier("of");
      advance();
      Node* node = ast_.make(is_of ? NodeKind::kForOfStatement
                                   : NodeKind::kForInStatement);
      node->line = line;
      Node* right = parse_assignment();
      expect_punct(")");
      Node* body = parse_statement();
      node->kids = {init, right, body};
      return node;
    }
    // `for (a in b)` with an expression head: the `in` was consumed as a
    // binary operator by parse_expression; unfold it back.
    if (init != nullptr && init->kind == NodeKind::kBinaryExpression &&
        init->str_value == "in" && check_punct(")")) {
      Node* node = ast_.make(NodeKind::kForInStatement);
      node->line = line;
      advance();  // ')'
      Node* body = parse_statement();
      node->kids = {init->kids[0], init->kids[1], body};
      return node;
    }
    expect_punct(";");
  }

  Node* node = ast_.make(NodeKind::kForStatement);
  node->line = line;
  Node* test = nullptr;
  if (!check_punct(";")) test = parse_expression();
  expect_punct(";");
  Node* update = nullptr;
  if (!check_punct(")")) update = parse_expression();
  expect_punct(")");
  Node* body = parse_statement();
  node->kids = {init, test, update, body};
  return node;
}

Node* Parser::parse_while() {
  Node* node = ast_.make(NodeKind::kWhileStatement);
  node->line = current().line;
  expect_keyword("while");
  expect_punct("(");
  Node* test = parse_expression();
  expect_punct(")");
  Node* body = parse_statement();
  node->kids = {test, body};
  return node;
}

Node* Parser::parse_do_while() {
  Node* node = ast_.make(NodeKind::kDoWhileStatement);
  node->line = current().line;
  expect_keyword("do");
  Node* body = parse_statement();
  expect_keyword("while");
  expect_punct("(");
  Node* test = parse_expression();
  expect_punct(")");
  match_punct(";");  // optional
  node->kids = {body, test};
  return node;
}

Node* Parser::parse_switch() {
  Node* node = ast_.make(NodeKind::kSwitchStatement);
  node->line = current().line;
  expect_keyword("switch");
  expect_punct("(");
  node->kids.push_back(parse_expression());
  expect_punct(")");
  expect_punct("{");
  while (!check_punct("}")) {
    if (at_end()) fail("unterminated switch body");
    Node* switch_case = ast_.make(NodeKind::kSwitchCase);
    switch_case->line = current().line;
    Node* test = nullptr;
    if (match_keyword("case")) {
      test = parse_expression();
    } else {
      expect_keyword("default");
    }
    expect_punct(":");
    switch_case->kids.push_back(test);
    while (!check_punct("}") && !check_keyword("case") &&
           !check_keyword("default")) {
      if (at_end()) fail("unterminated switch case");
      switch_case->kids.push_back(parse_statement());
    }
    node->kids.push_back(switch_case);
  }
  expect_punct("}");
  return node;
}

Node* Parser::parse_try() {
  Node* node = ast_.make(NodeKind::kTryStatement);
  node->line = current().line;
  expect_keyword("try");
  Node* block = parse_block();
  Node* handler = nullptr;
  Node* finalizer = nullptr;
  if (match_keyword("catch")) {
    handler = ast_.make(NodeKind::kCatchClause);
    handler->line = current().line;
    Node* param = nullptr;
    if (match_punct("(")) {
      param = parse_binding_target();
      expect_punct(")");
    }
    Node* body = parse_block();
    handler->kids = {param, body};
  }
  if (match_keyword("finally")) finalizer = parse_block();
  if (handler == nullptr && finalizer == nullptr) {
    fail("try statement requires catch or finally");
  }
  node->kids = {block, handler, finalizer};
  return node;
}

Node* Parser::parse_return() {
  Node* node = ast_.make(NodeKind::kReturnStatement);
  node->line = current().line;
  expect_keyword("return");
  Node* argument = nullptr;
  if (!check_punct(";") && !check_punct("}") && !at_end() &&
      !current().newline_before) {
    argument = parse_expression();
  }
  consume_semicolon();
  node->kids = {argument};
  return node;
}

Node* Parser::parse_throw() {
  Node* node = ast_.make(NodeKind::kThrowStatement);
  node->line = current().line;
  expect_keyword("throw");
  if (current().newline_before) fail("newline after throw");
  node->kids = {parse_expression()};
  consume_semicolon();
  return node;
}

Node* Parser::parse_break_continue(bool is_break) {
  Node* node = ast_.make(is_break ? NodeKind::kBreakStatement
                                  : NodeKind::kContinueStatement);
  node->line = current().line;
  advance();
  Node* label = nullptr;
  if (current().type == TokenType::kIdentifier && !current().newline_before) {
    label = ast_.make_identifier(value(advance()));
  }
  consume_semicolon();
  node->kids = {label};
  return node;
}

Node* Parser::parse_labeled_or_expression_statement() {
  if (current().type == TokenType::kIdentifier && check_punct(":", 1)) {
    Node* node = ast_.make(NodeKind::kLabeledStatement);
    node->line = current().line;
    Node* label = ast_.make_identifier(value(advance()));
    label->line = node->line;
    advance();  // ':'
    Node* body = parse_statement();
    node->kids = {label, body};
    return node;
  }
  Node* node = ast_.make(NodeKind::kExpressionStatement);
  node->line = current().line;
  node->kids = {parse_expression()};
  consume_semicolon();
  return node;
}

Node* Parser::parse_with() {
  Node* node = ast_.make(NodeKind::kWithStatement);
  node->line = current().line;
  expect_keyword("with");
  expect_punct("(");
  Node* object = parse_expression();
  expect_punct(")");
  Node* body = parse_statement();
  node->kids = {object, body};
  return node;
}

Node* Parser::parse_function(bool is_declaration, bool is_async) {
  Node* node = ast_.make(is_declaration ? NodeKind::kFunctionDeclaration
                                        : NodeKind::kFunctionExpression);
  node->line = current().line;
  node->flag_c = is_async;
  if (match_punct("*")) node->flag_b = true;  // generator
  Node* id = nullptr;
  if (current().type == TokenType::kIdentifier) {
    id = ast_.make_identifier(value(advance()));
  } else if (is_declaration) {
    fail("function declaration requires a name");
  }
  node->kids = {id, nullptr};  // body filled below
  return parse_function_rest(node);
}

Node* Parser::parse_function_rest(Node* function_node) {
  ++function_depth_;
  std::vector<Node*> params = parse_params();
  Node* body = parse_block();
  --function_depth_;
  function_node->kids[1] = body;
  for (Node* param : params) function_node->kids.push_back(param);
  return function_node;
}

std::vector<Node*> Parser::parse_params() {
  expect_punct("(");
  std::vector<Node*> params;
  while (!check_punct(")")) {
    if (at_end()) fail("unterminated parameter list");
    if (match_punct("...")) {
      Node* rest = ast_.make(NodeKind::kRestElement);
      rest->line = current().line;
      rest->kids = {parse_binding_target()};
      params.push_back(rest);
    } else {
      params.push_back(parse_binding_element());
    }
    if (!match_punct(",")) break;
  }
  expect_punct(")");
  return params;
}

Node* Parser::parse_binding_element() {
  Node* target = parse_binding_target();
  if (match_punct("=")) {
    Node* pattern = ast_.make(NodeKind::kAssignmentPattern);
    pattern->line = target->line;
    pattern->kids = {target, parse_assignment()};
    return pattern;
  }
  return target;
}

Node* Parser::parse_binding_target() {
  if (check_punct("[")) {
    Node* pattern = ast_.make(NodeKind::kArrayPattern);
    pattern->line = current().line;
    advance();
    while (!check_punct("]")) {
      if (at_end()) fail("unterminated array pattern");
      if (check_punct(",")) {
        pattern->kids.push_back(nullptr);  // hole
        advance();
        continue;
      }
      if (match_punct("...")) {
        Node* rest = ast_.make(NodeKind::kRestElement);
        rest->kids = {parse_binding_target()};
        pattern->kids.push_back(rest);
      } else {
        pattern->kids.push_back(parse_binding_element());
      }
      if (!check_punct("]")) expect_punct(",");
    }
    expect_punct("]");
    return pattern;
  }
  if (check_punct("{")) {
    Node* pattern = ast_.make(NodeKind::kObjectPattern);
    pattern->line = current().line;
    advance();
    while (!check_punct("}")) {
      if (at_end()) fail("unterminated object pattern");
      if (match_punct("...")) {
        Node* rest = ast_.make(NodeKind::kRestElement);
        rest->kids = {parse_binding_target()};
        pattern->kids.push_back(rest);
      } else {
        Node* property = ast_.make(NodeKind::kProperty);
        property->line = current().line;
        property->str_value = "init";
        bool computed = false;
        Node* key = parse_property_key(&computed);
        property->flag_a = computed;
        Node* value = nullptr;
        if (match_punct(":")) {
          value = parse_binding_element();
        } else {
          // Shorthand {a} or {a = default}.
          property->flag_b = true;
          if (key->kind != NodeKind::kIdentifier) {
            fail("shorthand pattern property must be an identifier");
          }
          value = ast_.make_identifier(key->str_value);
          value->line = key->line;
          if (match_punct("=")) {
            Node* with_default = ast_.make(NodeKind::kAssignmentPattern);
            with_default->kids = {value, parse_assignment()};
            value = with_default;
          }
        }
        property->kids = {key, value};
        pattern->kids.push_back(property);
      }
      if (!check_punct("}")) expect_punct(",");
    }
    expect_punct("}");
    return pattern;
  }
  if (current().type == TokenType::kIdentifier ||
      check_keyword("yield")) {  // sloppy-mode binding names
    Node* id = ast_.make_identifier(value(advance()));
    return id;
  }
  fail("expected binding target");
}

Node* Parser::parse_class(bool is_declaration) {
  Node* node = ast_.make(is_declaration ? NodeKind::kClassDeclaration
                                        : NodeKind::kClassExpression);
  node->line = current().line;
  expect_keyword("class");
  Node* id = nullptr;
  if (current().type == TokenType::kIdentifier) {
    id = ast_.make_identifier(value(advance()));
  } else if (is_declaration) {
    fail("class declaration requires a name");
  }
  Node* super_class = nullptr;
  if (match_keyword("extends")) {
    super_class = parse_postfix();
  }
  Node* body = ast_.make(NodeKind::kClassBody);
  body->line = current().line;
  expect_punct("{");
  while (!check_punct("}")) {
    if (at_end()) fail("unterminated class body");
    if (match_punct(";")) continue;
    Node* method = ast_.make(NodeKind::kMethodDefinition);
    method->line = current().line;
    if (check_identifier("static") && !check_punct("(", 1) &&
        !check_punct("=", 1)) {
      advance();
      method->flag_b = true;
    }
    bool is_async = false;
    bool is_generator = false;
    // View-safe: every candidate value is a string literal (static) or a
    // token payload (arena lifetime), so the node can keep the view.
    std::string_view method_kind = "method";
    if (check_identifier("async") && !check_punct("(", 1) &&
        !peek(1).newline_before) {
      advance();
      is_async = true;
    }
    if (match_punct("*")) is_generator = true;
    if ((check_identifier("get") || check_identifier("set")) &&
        !check_punct("(", 1)) {
      method_kind = value(advance());
    }
    bool computed = false;
    Node* key = parse_property_key(&computed);
    method->flag_a = computed;
    if (method_kind == "method" && key->kind == NodeKind::kIdentifier &&
        key->str_value == "constructor" && !method->flag_b) {
      method_kind = "constructor";
    }
    method->str_value = method_kind;
    Node* function = ast_.make(NodeKind::kFunctionExpression);
    function->line = method->line;
    function->flag_b = is_generator;
    function->flag_c = is_async;
    function->kids = {nullptr, nullptr};
    parse_function_rest(function);
    method->kids = {key, function};
    body->kids.push_back(method);
  }
  expect_punct("}");
  node->kids = {id, super_class, body};
  return node;
}

Node* Parser::parse_expression() {
  Node* first = parse_assignment();
  if (!check_punct(",")) return first;
  Node* sequence = ast_.make(NodeKind::kSequenceExpression);
  sequence->line = first->line;
  sequence->kids.push_back(first);
  while (match_punct(",")) {
    sequence->kids.push_back(parse_assignment());
  }
  return sequence;
}

Node* Parser::parse_assignment() {
  ParserDepthGuard depth_guard(*this);
  // Arrow functions: ident => ... | (params) => ... | async forms.
  if (current().type == TokenType::kIdentifier && check_punct("=>", 1) &&
      !peek(1).newline_before) {
    Node* param = ast_.make_identifier(value(advance()));
    advance();  // '=>'
    return parse_arrow_tail({param}, /*is_async=*/false);
  }
  if (check_identifier("async") && !peek(1).newline_before) {
    if (peek(1).type == TokenType::kIdentifier && check_punct("=>", 2)) {
      advance();  // async
      Node* param = ast_.make_identifier(value(advance()));
      advance();  // '=>'
      return parse_arrow_tail({param}, /*is_async=*/true);
    }
    if (check_punct("(", 1) && is_arrow_ahead(1)) {
      advance();  // async
      std::vector<Node*> params = parse_params();
      expect_punct("=>");
      return parse_arrow_tail(std::move(params), /*is_async=*/true);
    }
  }
  if (check_punct("(") && is_arrow_ahead(0)) {
    std::vector<Node*> params = parse_params();
    expect_punct("=>");
    return parse_arrow_tail(std::move(params), /*is_async=*/false);
  }
  if (check_keyword("yield")) {
    Node* node = ast_.make(NodeKind::kYieldExpression);
    node->line = current().line;
    advance();
    if (match_punct("*")) node->flag_a = true;
    Node* argument = nullptr;
    if (!at_end() && !current().newline_before && !check_punct(")") &&
        !check_punct("]") && !check_punct("}") && !check_punct(",") &&
        !check_punct(";") && !check_punct(":")) {
      argument = parse_assignment();
    }
    node->kids = {argument};
    return node;
  }

  Node* left = parse_conditional();
  if (kIsAssignmentOperator[current().id] != 0) {
    Node* node = ast_.make(NodeKind::kAssignmentExpression);
    node->line = left->line;
    node->str_value = value(advance());
    Node* right = parse_assignment();
    node->kids = {left, right};
    return node;
  }
  return left;
}

Node* Parser::parse_arrow_tail(std::vector<Node*> params, bool is_async) {
  Node* node = ast_.make(NodeKind::kArrowFunctionExpression);
  node->line = current().line;
  node->flag_c = is_async;
  Node* body = nullptr;
  if (check_punct("{")) {
    ++function_depth_;
    body = parse_block();
    --function_depth_;
  } else {
    node->flag_a = true;  // expression body
    body = parse_assignment();
  }
  node->kids.push_back(body);
  for (Node* param : params) node->kids.push_back(param);
  return node;
}

Node* Parser::parse_conditional() {
  Node* test = parse_binary(0);
  if (!match_punct("?")) return test;
  Node* node = ast_.make(NodeKind::kConditionalExpression);
  node->line = test->line;
  Node* consequent = parse_assignment();
  expect_punct(":");
  Node* alternate = parse_assignment();
  node->kids = {test, consequent, alternate};
  return node;
}

Node* Parser::parse_binary(int min_precedence) {
  Node* left = parse_unary();
  while (true) {
    const int precedence = kBinaryPrecedence[current().id];
    if (precedence < 0 || precedence < min_precedence) break;
    const TokenRecord& op = advance();
    // '**' is right-associative; everything else left-associative.
    const int next_min =
        op.id == token_id("**") ? precedence : precedence + 1;
    Node* right = parse_binary(next_min);
    Node* node = ast_.make(is_logical_op(op.id)
                               ? NodeKind::kLogicalExpression
                               : NodeKind::kBinaryExpression);
    node->line = left->line;
    node->str_value = value(op);
    node->kids = {left, right};
    left = node;
  }
  return left;
}

Node* Parser::parse_unary() {
  ParserDepthGuard depth_guard(*this);
  const TokenRecord& token = current();
  switch (token.id) {
    case token_id("!"):
    case token_id("~"):
    case token_id("+"):
    case token_id("-"):
    case token_id("typeof"):
    case token_id("void"):
    case token_id("delete"): {
      Node* node = ast_.make(NodeKind::kUnaryExpression);
      node->line = token.line;
      node->str_value = value(advance());
      node->flag_a = true;  // prefix
      node->kids = {parse_unary()};
      return node;
    }
    case token_id("++"):
    case token_id("--"): {
      Node* node = ast_.make(NodeKind::kUpdateExpression);
      node->line = token.line;
      node->str_value = value(advance());
      node->flag_a = true;  // prefix
      node->kids = {parse_unary()};
      return node;
    }
    default:
      break;
  }
  if (check_identifier("await") && !peek(1).newline_before &&
      (peek(1).type == TokenType::kIdentifier ||
       peek(1).type == TokenType::kNumericLiteral ||
       peek(1).type == TokenType::kStringLiteral ||
       peek(1).type == TokenType::kTemplate ||
       peek(1).type == TokenType::kBooleanLiteral ||
       peek(1).type == TokenType::kNullLiteral ||
       check_punct("(", 1) || check_punct("[", 1) ||
       check_keyword("this", 1) || check_keyword("new", 1) ||
       check_keyword("function", 1) || check_keyword("typeof", 1) ||
       check_punct("!", 1))) {
    Node* node = ast_.make(NodeKind::kAwaitExpression);
    node->line = token.line;
    advance();
    node->kids = {parse_unary()};
    return node;
  }
  return parse_postfix();
}

Node* Parser::parse_postfix() {
  Node* base = check_keyword("new") ? parse_new() : parse_primary();
  Node* expression = parse_call_member(base, /*allow_call=*/true);
  if ((check_punct("++") || check_punct("--")) && !current().newline_before) {
    Node* node = ast_.make(NodeKind::kUpdateExpression);
    node->line = expression->line;
    node->str_value = value(advance());
    node->flag_a = false;  // postfix
    node->kids = {expression};
    return node;
  }
  return expression;
}

Node* Parser::parse_new() {
  const std::size_t line = current().line;
  expect_keyword("new");
  Node* callee = nullptr;
  if (check_keyword("new")) {
    callee = parse_new();
  } else {
    callee = parse_primary();
    callee = parse_call_member(callee, /*allow_call=*/false);
  }
  Node* node = ast_.make(NodeKind::kNewExpression);
  node->line = line;
  node->kids = {callee};
  if (match_punct("(")) {
    while (!check_punct(")")) {
      if (at_end()) fail("unterminated argument list");
      if (match_punct("...")) {
        Node* spread = ast_.make(NodeKind::kSpreadElement);
        spread->kids = {parse_assignment()};
        node->kids.push_back(spread);
      } else {
        node->kids.push_back(parse_assignment());
      }
      if (!match_punct(",")) break;
    }
    expect_punct(")");
  }
  return parse_call_member(node, /*allow_call=*/true);
}

Node* Parser::parse_call_member(Node* base, bool allow_call) {
  while (true) {
    if (match_punct(".")) {
      Node* node = ast_.make(NodeKind::kMemberExpression);
      node->line = base->line;
      const TokenRecord& name = current();
      if (name.type != TokenType::kIdentifier &&
          name.type != TokenType::kKeyword &&
          name.type != TokenType::kBooleanLiteral &&
          name.type != TokenType::kNullLiteral) {
        fail("expected property name after '.'");
      }
      Node* property = ast_.make_identifier(value(advance()));
      node->flag_a = false;  // dot notation
      node->kids = {base, property};
      base = node;
    } else if (match_punct("?.")) {
      // Optional chaining: model as a (non-optional) member/call — the
      // syntactic trace (MemberExpression/CallExpression) is what matters.
      if (check_punct("(")) {
        if (!allow_call) break;
        advance();
        Node* node = ast_.make(NodeKind::kCallExpression);
        node->line = base->line;
        node->kids = {base};
        while (!check_punct(")")) {
          if (at_end()) fail("unterminated argument list");
          if (match_punct("...")) {
            Node* spread = ast_.make(NodeKind::kSpreadElement);
            spread->kids = {parse_assignment()};
            node->kids.push_back(spread);
          } else {
            node->kids.push_back(parse_assignment());
          }
          if (!match_punct(",")) break;
        }
        expect_punct(")");
        base = node;
      } else if (check_punct("[")) {
        advance();
        Node* node = ast_.make(NodeKind::kMemberExpression);
        node->line = base->line;
        node->flag_a = true;
        Node* property = parse_expression();
        expect_punct("]");
        node->kids = {base, property};
        base = node;
      } else {
        Node* node = ast_.make(NodeKind::kMemberExpression);
        node->line = base->line;
        Node* property = ast_.make_identifier(value(advance()));
        node->kids = {base, property};
        base = node;
      }
    } else if (check_punct("[")) {
      advance();
      Node* node = ast_.make(NodeKind::kMemberExpression);
      node->line = base->line;
      node->flag_a = true;  // bracket (computed) notation
      Node* property = parse_expression();
      expect_punct("]");
      node->kids = {base, property};
      base = node;
    } else if (allow_call && check_punct("(")) {
      advance();
      Node* node = ast_.make(NodeKind::kCallExpression);
      node->line = base->line;
      node->kids = {base};
      while (!check_punct(")")) {
        if (at_end()) fail("unterminated argument list");
        if (match_punct("...")) {
          Node* spread = ast_.make(NodeKind::kSpreadElement);
          spread->kids = {parse_assignment()};
          node->kids.push_back(spread);
        } else {
          node->kids.push_back(parse_assignment());
        }
        if (!match_punct(",")) break;
      }
      expect_punct(")");
      base = node;
    } else if (current().type == TokenType::kTemplate) {
      // Tagged template.
      Node* node = ast_.make(NodeKind::kTaggedTemplateExpression);
      node->line = base->line;
      Node* quasi = parse_template_literal(advance());
      node->kids = {base, quasi};
      base = node;
    } else {
      break;
    }
  }
  return base;
}

Node* Parser::parse_template_literal(const TokenRecord& token) {
  Node* node = ast_.make(NodeKind::kTemplateLiteral);
  node->line = token.line;
  // Interleave quasis and parsed substitution expressions:
  // quasi0, expr0, quasi1, ..., quasiN.
  const TokenPayload& payload = tokens_.payload(token);
  for (std::size_t i = 0; i < payload.template_quasis.size(); ++i) {
    Node* quasi = ast_.make(NodeKind::kTemplateElement);
    quasi->line = token.line;
    quasi->str_value = payload.template_quasis[i];
    node->kids.push_back(quasi);
    if (i < payload.template_expressions.size()) {
      node->kids.push_back(
          parse_subexpression(payload.template_expressions[i]));
    }
  }
  return node;
}

Node* Parser::parse_subexpression(std::string_view source) {
  // `source` is a template-expression view with arena lifetime already
  // (slice of the stable source or arena-cooked), so the nested scanner
  // writes its records and cooks into the same arena without copying the
  // sub-source again. The record reserve is capped (see scan_all): nested
  // templates re-scan their enclosing text at every level.
  constexpr std::size_t kSubstitutionReserve = 16;
  Lexer lexer(source, ast_.arena(), budget_);
  Parser sub(lexer.scan_all(nullptr, kSubstitutionReserve), ast_, budget_);
  Node* expression = sub.parse_expression();
  if (!sub.at_end()) {
    fail("trailing tokens in template substitution");
  }
  return expression;
}

Node* Parser::parse_array_literal() {
  Node* node = ast_.make(NodeKind::kArrayExpression);
  node->line = current().line;
  expect_punct("[");
  while (!check_punct("]")) {
    if (at_end()) fail("unterminated array literal");
    if (check_punct(",")) {
      node->kids.push_back(nullptr);  // elision
      advance();
      continue;
    }
    if (match_punct("...")) {
      Node* spread = ast_.make(NodeKind::kSpreadElement);
      spread->line = current().line;
      spread->kids = {parse_assignment()};
      node->kids.push_back(spread);
    } else {
      node->kids.push_back(parse_assignment());
    }
    if (!check_punct("]")) expect_punct(",");
  }
  expect_punct("]");
  return node;
}

Node* Parser::parse_property_key(bool* computed) {
  *computed = false;
  const TokenRecord& token = current();
  if (check_punct("[")) {
    *computed = true;
    advance();
    Node* key = parse_assignment();
    expect_punct("]");
    return key;
  }
  if (token.type == TokenType::kStringLiteral) {
    Node* key = ast_.make_string(value(advance()));
    key->line = token.line;
    return key;
  }
  if (token.type == TokenType::kNumericLiteral) {
    Node* key = ast_.make_number(tokens_.payload(token).number);
    key->line = token.line;
    key->raw = tokens_.raw(token);
    advance();
    return key;
  }
  if (token.type == TokenType::kIdentifier ||
      token.type == TokenType::kKeyword ||
      token.type == TokenType::kBooleanLiteral ||
      token.type == TokenType::kNullLiteral) {
    Node* key = ast_.make_identifier(value(advance()));
    key->line = token.line;
    return key;
  }
  fail("expected property key");
}

Node* Parser::parse_object_property() {
  Node* property = ast_.make(NodeKind::kProperty);
  property->line = current().line;
  property->str_value = "init";

  // Getter/setter: get/set followed by a key (not ':'/'('/','/'}').
  if ((check_identifier("get") || check_identifier("set")) &&
      !check_punct(":", 1) && !check_punct("(", 1) && !check_punct(",", 1) &&
      !check_punct("}", 1) && !check_punct("=", 1)) {
    property->str_value = value(advance());
    bool computed = false;
    Node* key = parse_property_key(&computed);
    property->flag_a = computed;
    Node* function = ast_.make(NodeKind::kFunctionExpression);
    function->line = property->line;
    function->kids = {nullptr, nullptr};
    parse_function_rest(function);
    property->kids = {key, function};
    return property;
  }

  bool is_async = false;
  bool is_generator = false;
  if (check_identifier("async") && !check_punct(":", 1) &&
      !check_punct("(", 1) && !check_punct(",", 1) && !check_punct("}", 1) &&
      !peek(1).newline_before) {
    advance();
    is_async = true;
  }
  if (match_punct("*")) is_generator = true;

  bool computed = false;
  Node* key = parse_property_key(&computed);
  property->flag_a = computed;

  if (check_punct("(")) {
    // Method shorthand.
    Node* function = ast_.make(NodeKind::kFunctionExpression);
    function->line = property->line;
    function->flag_b = is_generator;
    function->flag_c = is_async;
    function->kids = {nullptr, nullptr};
    parse_function_rest(function);
    property->kids = {key, function};
    return property;
  }
  if (is_async || is_generator) fail("expected method body");

  if (match_punct(":")) {
    property->kids = {key, parse_assignment()};
    return property;
  }
  // Shorthand property {a} or {a = default} (the latter only valid in
  // patterns, accepted here for simplicity).
  if (key->kind != NodeKind::kIdentifier) fail("expected ':' after key");
  property->flag_b = true;
  Node* value = ast_.make_identifier(key->str_value);
  value->line = key->line;
  if (match_punct("=")) {
    Node* with_default = ast_.make(NodeKind::kAssignmentPattern);
    with_default->kids = {value, parse_assignment()};
    value = with_default;
  }
  property->kids = {key, value};
  return property;
}

Node* Parser::parse_object_literal() {
  Node* node = ast_.make(NodeKind::kObjectExpression);
  node->line = current().line;
  expect_punct("{");
  while (!check_punct("}")) {
    if (at_end()) fail("unterminated object literal");
    if (match_punct("...")) {
      Node* spread = ast_.make(NodeKind::kSpreadElement);
      spread->line = current().line;
      spread->kids = {parse_assignment()};
      node->kids.push_back(spread);
    } else {
      node->kids.push_back(parse_object_property());
    }
    if (!check_punct("}")) expect_punct(",");
  }
  expect_punct("}");
  return node;
}

Node* Parser::parse_primary() {
  const TokenRecord& token = current();
  switch (token.type) {
    case TokenType::kNumericLiteral: {
      Node* node = ast_.make_number(tokens_.payload(token).number);
      node->line = token.line;
      node->raw = tokens_.raw(token);
      advance();
      return node;
    }
    case TokenType::kStringLiteral: {
      Node* node = ast_.make_string(value(token));
      node->line = token.line;
      node->raw = tokens_.raw(token);
      advance();
      return node;
    }
    case TokenType::kBooleanLiteral: {
      Node* node = ast_.make_bool(token.id == token_id("true"));
      node->line = token.line;
      advance();
      return node;
    }
    case TokenType::kNullLiteral: {
      Node* node = ast_.make_null();
      node->line = token.line;
      advance();
      return node;
    }
    case TokenType::kRegularExpression: {
      const TokenPayload& payload = tokens_.payload(token);
      Node* node = ast_.make_regex(payload.value, payload.regex_flags);
      node->line = token.line;
      advance();
      return node;
    }
    case TokenType::kTemplate: {
      return parse_template_literal(advance());
    }
    case TokenType::kIdentifier: {
      Node* node = ast_.make_identifier(value(advance()));
      node->line = token.line;
      return node;
    }
    case TokenType::kKeyword: {
      switch (token.id) {
        case token_id("this"): {
          Node* node = ast_.make(NodeKind::kThisExpression);
          node->line = token.line;
          advance();
          return node;
        }
        case token_id("super"): {
          Node* node = ast_.make(NodeKind::kSuper);
          node->line = token.line;
          advance();
          return node;
        }
        case token_id("function"):
          advance();
          return parse_function(/*is_declaration=*/false, /*is_async=*/false);
        case token_id("class"):
          return parse_class(/*is_declaration=*/false);
        case token_id("new"):
          return parse_new();
        default:
          fail("unexpected keyword '" + std::string(value(token)) +
               "' in expression");
      }
    }
    case TokenType::kPunctuator: {
      switch (token.id) {
        case token_id("("): {
          advance();
          Node* expression = parse_expression();
          expect_punct(")");
          return expression;
        }
        case token_id("["):
          return parse_array_literal();
        case token_id("{"):
          return parse_object_literal();
        default:
          fail("unexpected token '" + std::string(value(token)) + "'");
      }
    }
    default:
      fail("unexpected token");
  }
}

}  // namespace jst
