// Lexical tokens for the JavaScript tokenizer.
//
// Mirrors Esprima's token taxonomy so that downstream token-level features
// match the paper's abstraction (§III-A: "we also leverage Esprima to
// collect lexical units (i.e., tokens)").
//
// Two shapes of the same token (DESIGN.md §12):
//
//  * TokenRecord — what the scanner writes and the parser reads: 16 bytes
//    of offset, raw length, line, type, a fixed-spelling id (punctuator,
//    keyword, literal word or contextual word) and two flags. The rare
//    tokens whose cooked value is not derivable from the raw slice —
//    escaped strings/identifiers, numbers, regexes, templates — keep it
//    in a TokenPayload side table; the record then carries the payload's
//    index in place of its raw length. A TokenStream is the arena-resident
//    array of records plus that side table.
//  * Token — the wide, self-describing view (every cooked field spelled
//    out, 128 bytes) built on demand by the Lexer::next() adapter for
//    tests and benches. The parser never materializes one.
//
// Payload views point into the arena-stable copy of the source when the
// cooked value equals the raw slice (the overwhelmingly common case), and
// into arena-copied cooked storage only when unescaping changed the text.
// Either way the bytes live exactly as long as the Arena epoch the token
// was scanned under, so both shapes are trivially copyable and never own
// heap memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace jst {

enum class TokenType : std::uint8_t {
  kIdentifier,      // foo, let (contextual keywords stay identifiers)
  kKeyword,         // if, function, var, ...
  kBooleanLiteral,  // true / false
  kNullLiteral,     // null
  kNumericLiteral,  // 42, 0x2a, 3.14e-2, 0b101, 0o17
  kStringLiteral,   // 'a', "b"
  kTemplate,        // `text ${expr} text` (whole literal, one token)
  kRegularExpression,
  kPunctuator,      // { } ( ) + === => ...
  kEndOfFile,
};

std::string_view token_type_name(TokenType type);

// --- fixed spellings --------------------------------------------------------
//
// Every punctuator, keyword, literal word and contextual word has a small
// integer id: its index in kTokenTexts (0 = none). Ids are unique across
// the groups, so "is this token `(`" or "is this token the keyword `in`"
// is one byte compare, with no type check and no string compare.

inline constexpr std::array<std::string_view, 101> kTokenTexts = {
    "",
    // Punctuators [1, 58).
    "{", "}", "(", ")", "[", "]", ";", ",", ":", "~", ".", "...", "<", "<<",
    "<<=", "<=", ">", ">>", ">>>", ">>>=", ">>=", ">=", "=", "==", "===",
    "=>", "!", "!=", "!==", "+", "++", "+=", "-", "--", "-=", "*", "**",
    "**=", "*=", "/", "/=", "%", "%=", "&", "&&", "&&=", "&=", "|", "||",
    "||=", "|=", "^", "^=", "?", "??", "?\?=", "?.",
    // Keywords [58, 91) — the reserved words is_js_keyword() accepts.
    "do", "if", "in", "for", "new", "try", "var", "case", "else", "this",
    "void", "with", "break", "catch", "class", "const", "super", "throw",
    "while", "yield", "delete", "export", "import", "return", "switch",
    "typeof", "default", "extends", "finally", "continue", "debugger",
    "function", "instanceof",
    // Literal words [91, 94).
    "true", "false", "null",
    // Contextual words [94, 101): identifiers the parser tests by spelling.
    "let", "of", "async", "await", "get", "set", "static",
};

inline constexpr std::uint8_t kFirstKeywordId = 58;
inline constexpr std::uint8_t kFirstLiteralWordId = 91;
inline constexpr std::uint8_t kFirstContextualId = 94;

// Compile-time id of a fixed spelling. An unknown text is not a constant
// expression, so a misspelled id fails to compile.
consteval std::uint8_t token_id(std::string_view text) {
  for (std::size_t id = 1; id < kTokenTexts.size(); ++id) {
    if (kTokenTexts[id] == text) return static_cast<std::uint8_t>(id);
  }
  throw "unknown token text";
}

// A fixed spelling of one group, resolved to its id at compile time:
// Parser::check_punct("(") compiles to one byte compare, and a spelling
// outside the group (check_punct("if")) fails to compile.
template <std::size_t First, std::size_t Last>
struct SpellingId {
  consteval SpellingId(const char* text) : id(token_id(text)) {
    if (id < First || id >= Last) throw "spelling outside this token group";
  }
  std::uint8_t id;
};
using PunctId = SpellingId<1, kFirstKeywordId>;
using KeywordId = SpellingId<kFirstKeywordId, kFirstLiteralWordId>;
using ContextualId = SpellingId<kFirstContextualId, kTokenTexts.size()>;

// --- the compact record -----------------------------------------------------

struct TokenRecord {
  std::uint32_t offset = 0;  // byte offset of the first character
  // Raw length in bytes, or — when has_payload — the index of the
  // token's TokenPayload (which then holds the raw length).
  std::uint32_t extent = 0;
  std::uint32_t line = 1;    // 1-based
  TokenType type = TokenType::kEndOfFile;
  std::uint8_t id = 0;       // kTokenTexts index, 0 = none
  // True when a line terminator appears between the previous token and
  // this one (needed for automatic semicolon insertion).
  bool newline_before = false;
  bool has_payload = false;
};
static_assert(sizeof(TokenRecord) == 16, "token records stay 16 bytes");

// Side-table entry for a token whose cooked value is not its raw slice.
struct TokenPayload {
  // Cooked value: decoded string / identifier name, regex pattern
  // (without flags), or the raw text of numbers and templates.
  std::string_view value;
  std::string_view regex_flags;
  // For templates: source slices of each ${...} substitution expression,
  // and the cooked text chunks between them (size = substitutions + 1).
  std::span<const std::string_view> template_expressions;
  std::span<const std::string_view> template_quasis;
  double number = 0.0;  // numeric literals
  std::uint32_t raw_length = 0;
};

// Aggregates over the token stream, accumulated while scanning. The
// hand-picked feature block consumes these four numbers instead of
// re-walking the token stream at feature time.
struct TokenStats {
  std::size_t count = 0;        // tokens in the stream (no EOF)
  std::size_t punctuators = 0;
  // Max (column + raw length) over tokens — a max-line-length proxy.
  std::size_t max_line_length = 0;
  // Sum of raw token lengths, accumulated in stream order as a double —
  // the exact order/type the feature assembly historically used, so the
  // derived features are bit-identical.
  double raw_bytes = 0.0;
};

// A scanned source: `count` token records followed by the EOF record,
// all in the scanning arena, plus the payload side table. Offsets index
// `source` (the arena-stable text the scanner ran over).
struct TokenStream {
  std::string_view source;
  const TokenRecord* records = nullptr;
  std::size_t count = 0;  // tokens, EOF excluded
  const TokenPayload* payloads = nullptr;

  const TokenPayload& payload(const TokenRecord& token) const {
    return payloads[token.extent];
  }
  std::size_t raw_length(const TokenRecord& token) const {
    return token.has_payload ? payload(token).raw_length : token.extent;
  }
  std::string_view raw(const TokenRecord& token) const {
    return std::string_view(source.data() + token.offset, raw_length(token));
  }
  // The cooked value (Token::value of the same token).
  std::string_view value(const TokenRecord& token) const;
  // 0-based column, recomputed from the offset (error reporting only).
  std::size_t column(const TokenRecord& token) const;
};

// The wide token view built by the Lexer::next() adapter.
struct Token {
  TokenType type = TokenType::kEndOfFile;
  // Cooked value: identifier name, keyword text, decoded string value,
  // punctuator text, regex pattern (without flags), raw template text.
  std::string_view value;
  // Exact source slice.
  std::string_view raw;
  // For numeric literals.
  double number = 0.0;
  // For regular expressions.
  std::string_view regex_flags;
  // For templates: source slices of each ${...} substitution expression.
  std::span<const std::string_view> template_expressions;
  // Cooked text chunks between substitutions (size = substitutions + 1).
  std::span<const std::string_view> template_quasis;

  std::size_t offset = 0;  // byte offset of the first character
  std::size_t line = 1;    // 1-based
  std::size_t column = 0;  // 0-based
  // True when a line terminator appears between the previous token and this
  // one (needed for automatic semicolon insertion).
  bool newline_before = false;
};

}  // namespace jst
