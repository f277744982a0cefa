// Recursive-descent JavaScript parser producing Esprima-style ASTs.
//
// Covers the ES2017 subset required by the paper's feature definitions and
// by all ten transformation techniques: every statement form (including
// with/labeled/debugger), var/let/const with destructuring, functions
// (declarations, expressions, arrows, async, generators), classes, template
// literals (including tagged), spread/rest, and the full expression grammar
// with correct precedence and automatic semicolon insertion.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ast/ast.h"
#include "lexer/lexer.h"
#include "support/arena.h"

namespace jst {

// Parse result: the AST plus lexical statistics needed by the feature
// extractor (comment volume is erased from the AST but matters for
// minification detection). The token stream itself is not kept: only the
// parser reads it, and TokenStats summarizes it for the features.
struct ParseResult {
  Ast ast;
  TokenStats token_stats;
  std::size_t comment_count = 0;
  std::size_t comment_bytes = 0;
  std::size_t source_bytes = 0;
  std::size_t source_lines = 0;
};

// Parses a full program. Throws ParseError on malformed input. A non-null
// `budget` is charged per token and per AST node and checked against its
// depth ceiling and deadline; a tripped ceiling throws BudgetExceeded
// (the budget pointer is detached from the returned Ast before returning).
//
// When `arena` is non-null the whole front end runs in it — it is reset()
// first (per-script pooling contract: at most one live ParseResult per
// pooled arena), the source is copied in so every token/node view has
// arena lifetime, and the Ast borrows it instead of owning one. The
// scanner writes the script's token records into the same arena, in one
// array sized from the source length (DESIGN.md §12). With a
// null arena the Ast owns a private arena and the result is fully
// self-contained. `atoms`, when non-null, is the pooled identifier atom
// table the parser interns into (cleared here, in lockstep with the
// arena reset, because the interned views alias the arena); null gives
// the Ast a private table.
ParseResult parse_program(std::string_view source, Budget* budget = nullptr,
                          support::Arena* arena = nullptr,
                          support::AtomTable* atoms = nullptr);

// Convenience: true if the source parses.
bool parses(std::string_view source);

class Parser {
 public:
  // `tokens` must stay alive for the parse (parse_program keeps it in the
  // arena). `budget`, when non-null, has its AST-depth ceiling checked on
  // every nesting step.
  Parser(const TokenStream& tokens, Ast& ast, Budget* budget = nullptr);

  Node* parse_program_body();

 private:
  // --- token stream ---
  // Token tests compare compile-time ids (lexer/token.h): check_punct("(")
  // is one byte compare against the record's id.
  const TokenRecord& peek(std::size_t ahead = 0) const {
    const std::size_t i = index_ + ahead;
    return i < tokens_.count ? tokens_.records[i] : eof_;
  }
  const TokenRecord& current() const { return peek(0); }
  bool at_end() const { return index_ >= tokens_.count; }
  const TokenRecord& advance();
  std::string_view value(const TokenRecord& token) const {
    return tokens_.value(token);
  }
  bool check_punct(PunctId punct, std::size_t ahead = 0) const {
    return peek(ahead).id == punct.id;
  }
  bool check_keyword(KeywordId keyword, std::size_t ahead = 0) const {
    return peek(ahead).id == keyword.id;
  }
  bool check_identifier(ContextualId word, std::size_t ahead = 0) const {
    return peek(ahead).id == word.id;
  }
  bool match_punct(PunctId punct);
  bool match_keyword(KeywordId keyword);
  void expect_punct(PunctId punct);
  void expect_keyword(KeywordId keyword);
  [[noreturn]] void fail(const std::string& message) const;
  void consume_semicolon();  // with automatic semicolon insertion

  // True if the '(' at `ahead` starts an arrow-function parameter list
  // (scans to the matching ')' and checks for '=>').
  bool is_arrow_ahead(std::size_t ahead) const;
  bool is_let_declaration() const;

  // --- statements ---
  Node* parse_statement();
  Node* parse_block();
  Node* parse_variable_declaration();  // current token: var/let/const
  Node* parse_paren_expression();  // '(' expression ')'
  Node* parse_if();
  Node* parse_for();
  Node* parse_while_or_with(NodeKind kind);
  Node* parse_do_while();
  Node* parse_switch();
  Node* parse_try();
  Node* parse_return();
  Node* parse_throw();
  Node* parse_break_continue(bool is_break);
  Node* parse_labeled_or_expression_statement();
  Node* parse_function(bool is_declaration, bool is_async);
  Node* parse_class(bool is_declaration);

  // --- expressions (precedence descent) ---
  Node* parse_expression();             // comma operator
  Node* parse_assignment();
  Node* parse_conditional();
  Node* parse_binary(int min_precedence);
  Node* parse_unary();
  Node* parse_postfix();
  Node* parse_call_member(Node* base, bool allow_call);
  void parse_arguments(Node* call);
  Node* parse_ellipsis(NodeKind kind, bool keep_line);  // after '...'
  Node* parse_new();
  Node* parse_primary();
  Node* parse_array_literal();
  Node* parse_object_literal();
  Node* parse_object_property();
  Node* parse_shorthand_property(Node* property, Node* key, const char* error);
  Node* parse_method(Node* owner, Node* key, bool is_generator, bool is_async);
  Node* parse_template_literal(const TokenRecord& token);
  Node* parse_arrow_tail(std::vector<Node*> params, bool is_async);
  // (params travel through a transient std::vector; they are copied into
  // the arena-backed kid list when attached to the function node.)
  Node* parse_property_key(bool* computed);
  Node* parse_function_rest(Node* function_node);  // params + body

  // --- binding patterns ---
  Node* parse_binding_target();   // Identifier | ArrayPattern | ObjectPattern
  Node* parse_binding_element();  // binding target with optional default
  std::vector<Node*> parse_params();

  // Reparses a sub-source (template substitution) into this arena.
  Node* parse_subexpression(std::string_view source);

  TokenStream tokens_;
  std::size_t index_ = 0;
  Ast& ast_;
  Budget* budget_ = nullptr;
  int function_depth_ = 0;
  // Returned past the end: no id, the last token's line, column 0.
  TokenRecord eof_;

  // Recursion guard: adversarial inputs (thousands of nested parentheses)
  // must yield a ParseError, never a stack overflow.
  static constexpr int kMaxNestingDepth = 700;
  int nesting_depth_ = 0;
  friend struct ParserDepthGuard;
};

}  // namespace jst
