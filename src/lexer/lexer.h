// JavaScript tokenizer.
//
// A hand-written scanner covering the ES2017 subset jstraced works with:
// identifiers (ASCII + $ + _ + \uXXXX escapes passed through), all numeric
// literal forms, single/double-quoted strings with escapes, template
// literals (scanned as one composite token with balanced ${...}
// substitution extraction), regular expression literals (disambiguated
// from division by previous-token context, as in Esprima's tokenizer),
// comments (line, block, and HTML-comment-like `<!--`), and the full
// punctuator set.
//
// The scanner is table-driven (DESIGN.md §16): Lexer::next() dispatches
// on a 256-entry character-class table (lexer/char_class.h) instead of a
// predicate ladder, and the long homogeneous runs obfuscated code is
// full of — identifier floods, escape-free string/template payloads,
// whitespace walls, comment bodies — are skipped by SWAR block scanners
// (lexer/scan.h) that only locate the next interesting byte. All
// classification, line/column bookkeeping, budget charging, and error
// reporting stay in the scalar code, so the token stream is the one a
// byte-at-a-time scan produces.
//
// The scanner writes 16-byte TokenRecords (lexer/token.h, DESIGN.md §12)
// into one array sized once per script (a token is at least one byte, so
// tokens <= source bytes) in the caller's Arena; the parser reads them by
// index. Payload views point into the caller's `source` buffer (which
// must stay alive and unmoved for as long as the tokens are used) or,
// when unescaping changed the text, into storage cooked into the same
// Arena. parse_program arranges for both lifetimes to coincide by copying
// the script into the arena first. Lexer::next() is a thin adapter that
// scans one record and widens it into a Token.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lexer/token.h"
#include "support/arena.h"
#include "support/budget.h"
#include "support/error.h"

namespace jst {

class Lexer {
 public:
  // `arena` receives the record array, the payload side table, and cooked
  // token payloads (escaped strings/identifiers, template spans);
  // `budget`, when non-null, is charged one token per scanned record (EOF
  // included) and polled for the wall-clock deadline every
  // Budget::kDeadlinePollStride tokens; a tripped ceiling throws
  // BudgetExceeded out of the scan. Sources are indexed by 32-bit
  // offsets: a source of 4 GiB or more throws ParseError.
  Lexer(std::string_view source, support::Arena& arena,
        Budget* budget = nullptr);

  // Scans the rest of the source into one TokenStream closed by the EOF
  // record. `stats`, when non-null, accumulates TokenStats while the
  // tokens are hot. The record array starts with room for
  // min(remaining bytes + 1, `reserve_limit`) records and doubles when
  // full. A token spans at least one byte, so a whole script (no limit)
  // gets one allocation that never regrows. Template substitutions pass a
  // small limit: their sub-source is mostly nested template text that
  // scans as one token, and reserving its full length at every nesting
  // level would grow the arena quadratically. Throws ParseError on
  // malformed input.
  TokenStream scan_all(TokenStats* stats = nullptr,
                       std::size_t reserve_limit = SIZE_MAX);

  // Adapter: scans the next token and returns its wide Token view;
  // returns kEndOfFile at the end. Throws ParseError on malformed input.
  Token next();

  // Tokenizes an entire source (excluding the EOF token) through next().
  // The returned tokens view into `source` and `arena`.
  static std::vector<Token> tokenize(std::string_view source,
                                     support::Arena& arena);

  // Number of comments skipped so far and their total byte size.
  std::size_t comment_count() const { return comment_count_; }
  std::size_t comment_bytes() const { return comment_bytes_; }

  std::size_t line() const { return line_; }

 private:
  char peek(std::size_t ahead = 0) const;
  bool eof(std::size_t ahead = 0) const;
  char advance();
  bool match(char expected);
  // Skips `count` bytes known to contain no '\n' (block-scanned runs):
  // one position and one column add instead of per-byte advance() calls.
  void skip_run(std::size_t count);
  [[noreturn]] void fail(const std::string& message) const;
  // View of source_[begin, end).
  std::string_view slice(std::size_t begin, std::size_t end) const;

  // Skips whitespace and comments; records whether a newline was crossed.
  void skip_trivia();

  // Scans one token into `record` (the EOF record at the end).
  void scan(TokenRecord& record);

  // Fills `record` for the token spanning [token_start_, pos_).
  void finish(TokenRecord& record, TokenType type, std::uint8_t id = 0);
  // Appends a side-table entry for `record` (which must be finished),
  // points the record at it, and returns it for the caller to fill.
  TokenPayload& attach_payload(TokenRecord& record);

  void scan_identifier_or_keyword(TokenRecord& record);
  void scan_number(TokenRecord& record);
  void scan_string(TokenRecord& record, char quote);
  void scan_template(TokenRecord& record);
  void scan_regex(TokenRecord& record);
  void scan_punctuator(TokenRecord& record);

  // True when a '/' in the current position starts a regex rather than a
  // division operator, judged from the previously scanned token.
  bool regex_allowed() const;

  std::string_view source_;
  support::Arena* arena_;
  support::ArenaVec<TokenPayload> payloads_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 0;
  bool newline_pending_ = false;
  // Start of the token being scanned (its column is kept here, not in
  // the record: TokenStats and the Token adapter read it while hot).
  std::size_t token_start_ = 0;
  std::size_t token_line_ = 1;
  std::size_t token_column_ = 0;
  // Previous-token context for regex disambiguation: only the type and
  // the fixed-spelling id matter.
  bool has_previous_ = false;
  TokenType previous_type_ = TokenType::kEndOfFile;
  std::uint8_t previous_id_ = 0;
  std::size_t comment_count_ = 0;
  std::size_t comment_bytes_ = 0;
  Budget* budget_ = nullptr;  // non-owning; nullptr = ungoverned
};

// True if `word` is a reserved keyword (not including null/true/false).
bool is_js_keyword(std::string_view word);

}  // namespace jst
