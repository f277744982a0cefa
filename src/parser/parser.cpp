#include "parser/parser.h"

#include <array>
#include <cstdint>
#include <utility>

#include "ast/operators.h"
#include "obs/trace.h"

namespace jst {
namespace {

// Per-id operator tables over kTokenTexts, built at compile time.
using IdTable = std::array<std::int8_t, kTokenTexts.size()>;

// Binary operator precedence per id: the spec tier from ast/operators.h
// (the list codegen parenthesizes by), -1 = not a binary operator.
// `??`, `||` and `&&` climb here too and become LogicalExpression nodes.
constexpr IdTable kBinaryPrecedence = []() consteval {
  IdTable table{};
  table.fill(-1);
  for (const BinaryOperator& op : kBinaryOperators) {
    table[token_id(op.text)] = static_cast<std::int8_t>(op.tier);
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

// Tokens that may name a property after '.' or as an object/class key.
bool is_property_name(TokenType type) {
  return type == TokenType::kIdentifier || type == TokenType::kKeyword ||
         type == TokenType::kBooleanLiteral || type == TokenType::kNullLiteral;
}

bool is_binary_node(const Node* node) {
  return node != nullptr && (node->kind == NodeKind::kBinaryExpression ||
                             node->kind == NodeKind::kLogicalExpression);
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
    case token_id("let"):
      if (!is_let_declaration()) break;
      [[fallthrough]];
    case token_id("var"):
    case token_id("const"): {
      Node* decl = parse_variable_declaration();
      consume_semicolon();
      return decl;
    }
    case token_id("if"): return parse_if();
    case token_id("for"): return parse_for();
    case token_id("while"):
      return parse_while_or_with(NodeKind::kWhileStatement);
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
    case token_id("with"):
      return parse_while_or_with(NodeKind::kWithStatement);
    default:
      break;
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

// Contextual keyword `let`: a declaration only when a binding form follows.
bool Parser::is_let_declaration() const {
  return check_identifier("let") &&
         (peek(1).type == TokenType::kIdentifier || check_punct("[", 1) ||
          check_punct("{", 1));
}

// '(' Expression ')': the head of if/while/do-while/switch/with, and a
// parenthesized primary.
Node* Parser::parse_paren_expression() {
  expect_punct("(");
  Node* expression = parse_expression();
  expect_punct(")");
  return expression;
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
  Node* test = parse_paren_expression();
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
        check_keyword("var") || check_keyword("const") || is_let_declaration();
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
    // `for (k in o)` with an expression head: parse_expression read the
    // `in` as a binary operator, which leaves it at the bottom of the
    // head's left spine (`k in a < b` groups as `(k in a) < b`). Unfold
    // it: `k` is the target, and the head with the `in` node replaced by
    // its right operand is the object.
    Node** in_slot = &init;
    while (is_binary_node(*in_slot) && is_binary_node((*in_slot)->kids[0])) {
      in_slot = &(*in_slot)->kids[0];
    }
    if (is_binary_node(*in_slot) && (*in_slot)->str_value == "in" &&
        check_punct(")")) {
      Node* in_node = *in_slot;
      *in_slot = in_node->kids[1];
      Node* node = ast_.make(NodeKind::kForInStatement);
      node->line = line;
      advance();  // ')'
      Node* body = parse_statement();
      node->kids = {in_node->kids[0], init, body};
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

// `while (test) body` and `with (object) body` share one shape.
Node* Parser::parse_while_or_with(NodeKind kind) {
  Node* node = ast_.make(kind);
  node->line = current().line;
  advance();  // while / with
  Node* head = parse_paren_expression();
  node->kids = {head, parse_statement()};
  return node;
}

Node* Parser::parse_do_while() {
  Node* node = ast_.make(NodeKind::kDoWhileStatement);
  node->line = current().line;
  expect_keyword("do");
  Node* body = parse_statement();
  expect_keyword("while");
  Node* test = parse_paren_expression();
  match_punct(";");  // optional
  node->kids = {body, test};
  return node;
}

Node* Parser::parse_switch() {
  Node* node = ast_.make(NodeKind::kSwitchStatement);
  node->line = current().line;
  expect_keyword("switch");
  node->kids.push_back(parse_paren_expression());
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
    params.push_back(match_punct("...")
                         ? parse_ellipsis(NodeKind::kRestElement, true)
                         : parse_binding_element());
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
      pattern->kids.push_back(
          match_punct("...") ? parse_ellipsis(NodeKind::kRestElement, false)
                             : parse_binding_element());
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
        pattern->kids.push_back(parse_ellipsis(NodeKind::kRestElement, false));
      } else {
        Node* property = ast_.make(NodeKind::kProperty);
        property->line = current().line;
        property->str_value = "init";
        bool computed = false;
        Node* key = parse_property_key(&computed);
        property->flag_a = computed;
        if (match_punct(":")) {
          property->kids = {key, parse_binding_element()};
        } else {
          parse_shorthand_property(property, key,
                                   "shorthand pattern property must be an "
                                   "identifier");
        }
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
    body->kids.push_back(parse_method(method, key, is_generator, is_async));
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

// Precedence climbing over kBinaryPrecedence. `head` is one operand from
// parse_unary, so any operator inside it was parenthesized; every node
// this loop builds is a bare operand of the next operator.
Node* Parser::parse_binary(int min_precedence) {
  const bool head_parenthesized = check_punct("(");
  Node* const head = parse_unary();
  Node* left = head;
  while (true) {
    const int precedence = kBinaryPrecedence[current().id];
    if (precedence < 0 || precedence < min_precedence) break;
    const TokenRecord& op = advance();
    const bool coalesce = op.id == token_id("??");
    // The spec's CoalesceExpression takes BitwiseOR operands: `??` does
    // not mix with a bare `||` or `&&` on either side.
    if (left != head && left->kind == NodeKind::kLogicalExpression &&
        (left->str_value == "??") != coalesce) {
      fail("'?\?' cannot be mixed with '||' or '&&' without parentheses");
    }
    // `-a ** b` is ambiguous, so the spec rejects a bare unary base.
    if (op.id == token_id("**") && !head_parenthesized &&
        (head->kind == NodeKind::kUnaryExpression ||
         head->kind == NodeKind::kAwaitExpression)) {
      fail("unary operator before '**' needs parentheses");
    }
    // '**' is right-associative; everything else left-associative.
    const int next_min = op.id == token_id("**") ? precedence
                         : coalesce ? kBinaryPrecedence[token_id("|")]
                                    : precedence + 1;
    Node* right = parse_binary(next_min);
    Node* node = ast_.make(precedence <= kLastLogicalTier
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
    case token_id("delete"):
    case token_id("++"):
    case token_id("--"): {
      const bool is_update =
          token.id == token_id("++") || token.id == token_id("--");
      Node* node = ast_.make(is_update ? NodeKind::kUpdateExpression
                                       : NodeKind::kUnaryExpression);
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
  if (check_punct("(")) parse_arguments(node);
  return parse_call_member(node, /*allow_call=*/true);
}

// The operand after '...': a SpreadElement over an assignment expression or
// a RestElement over a binding target. `keep_line` records the line of the
// token after '...', as array/object-literal spreads and parameter rests
// do; argument spreads and pattern rests carry no line.
Node* Parser::parse_ellipsis(NodeKind kind, bool keep_line) {
  Node* node = ast_.make(kind);
  if (keep_line) node->line = current().line;
  node->kids = {kind == NodeKind::kSpreadElement ? parse_assignment()
                                                 : parse_binding_target()};
  return node;
}

// '(' arguments ')', appended to `call`'s kids.
void Parser::parse_arguments(Node* call) {
  expect_punct("(");
  while (!check_punct(")")) {
    if (at_end()) fail("unterminated argument list");
    call->kids.push_back(match_punct("...")
                             ? parse_ellipsis(NodeKind::kSpreadElement, false)
                             : parse_assignment());
    if (!match_punct(",")) break;
  }
  expect_punct(")");
}

Node* Parser::parse_call_member(Node* base, bool allow_call) {
  while (true) {
    // Optional chaining is modelled as a plain member/call: the syntactic
    // trace (MemberExpression/CallExpression) is what matters. `?.` is
    // followed by '(', '[' or a property name.
    const bool optional = match_punct("?.");
    Node* node = nullptr;
    if (check_punct("(")) {
      if (!allow_call) break;
      node = ast_.make(NodeKind::kCallExpression);
      node->kids = {base};
      parse_arguments(node);
    } else if (match_punct("[")) {
      node = ast_.make(NodeKind::kMemberExpression);
      node->flag_a = true;  // bracket (computed) notation
      node->kids = {base, parse_expression()};
      expect_punct("]");
    } else if (optional || match_punct(".")) {
      node = ast_.make(NodeKind::kMemberExpression);
      if (!is_property_name(current().type)) {
        fail(optional ? "expected property name after '?.'"
                      : "expected property name after '.'");
      }
      node->kids = {base, ast_.make_identifier(value(advance()))};
    } else if (current().type == TokenType::kTemplate) {
      node = ast_.make(NodeKind::kTaggedTemplateExpression);
      node->kids = {base, parse_template_literal(advance())};
    } else {
      break;
    }
    node->line = base->line;
    base = node;
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
    node->kids.push_back(match_punct("...")
                             ? parse_ellipsis(NodeKind::kSpreadElement, true)
                             : parse_assignment());
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
  if (is_property_name(token.type)) {
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
    return parse_method(property, key, /*is_generator=*/false,
                        /*is_async=*/false);
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

  if (check_punct("(")) {  // method shorthand
    return parse_method(property, key, is_generator, is_async);
  }
  if (is_async || is_generator) fail("expected method body");

  if (match_punct(":")) {
    property->kids = {key, parse_assignment()};
    return property;
  }
  // {a = default} is only valid in patterns; accepted here for simplicity.
  return parse_shorthand_property(property, key, "expected ':' after key");
}

// Shorthand property tail {a} or {a = default}, shared by object patterns
// and object literals; `error` is reported when the key is not a plain
// identifier (`{[a]}` is computed, property->flag_a).
Node* Parser::parse_shorthand_property(Node* property, Node* key,
                                       const char* error) {
  if (key->kind != NodeKind::kIdentifier || property->flag_a) fail(error);
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

// The FunctionExpression of a class method, accessor or method shorthand;
// `owner` (MethodDefinition or Property) gets kids {key, function}.
Node* Parser::parse_method(Node* owner, Node* key, bool is_generator,
                           bool is_async) {
  Node* function = ast_.make(NodeKind::kFunctionExpression);
  function->line = owner->line;
  function->flag_b = is_generator;
  function->flag_c = is_async;
  function->kids = {nullptr, nullptr};
  owner->kids = {key, parse_function_rest(function)};
  return owner;
}

Node* Parser::parse_object_literal() {
  Node* node = ast_.make(NodeKind::kObjectExpression);
  node->line = current().line;
  expect_punct("{");
  while (!check_punct("}")) {
    if (at_end()) fail("unterminated object literal");
    node->kids.push_back(match_punct("...")
                             ? parse_ellipsis(NodeKind::kSpreadElement, true)
                             : parse_object_property());
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
        case token_id("("):
          return parse_paren_expression();
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
