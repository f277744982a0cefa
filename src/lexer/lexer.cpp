#include "lexer/lexer.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "lexer/char_class.h"
#include "lexer/scan.h"

namespace jst {
namespace {

using lex::CharClass;
using lex::kCharClass;

inline unsigned char uc(char c) { return static_cast<unsigned char>(c); }

unsigned hex_value(char c) {
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  return static_cast<unsigned>(c - 'A' + 10);
}

std::string_view view_of(const support::ArenaVec<char>& cooked) {
  return std::string_view(cooked.data(), cooked.size());
}

// Word ids bucketed by spelling length, built at compile time: a scanned
// name is compared only against the (at most nine) words of its length.
constexpr std::size_t kMaxWordLength = 10;
constexpr std::size_t kBucketWidth = 12;

struct WordBuckets {
  std::array<std::array<std::uint8_t, kBucketWidth>, kMaxWordLength + 1> ids{};
  std::array<std::uint8_t, kMaxWordLength + 1> sizes{};
};

constexpr WordBuckets build_word_buckets() {
  WordBuckets buckets;
  for (std::size_t id = kFirstKeywordId; id < kTokenTexts.size(); ++id) {
    const std::size_t length = kTokenTexts[id].size();
    if (length > kMaxWordLength || buckets.sizes[length] == kBucketWidth) {
      throw "word bucket overflow";
    }
    buckets.ids[length][buckets.sizes[length]++] =
        static_cast<std::uint8_t>(id);
  }
  return buckets;
}

constexpr WordBuckets kWordBuckets = build_word_buckets();

// Id of a scanned word (cooked identifier name): a keyword, literal word
// or contextual word id, or 0 for an ordinary identifier.
std::uint8_t word_id(std::string_view word) {
  if (word.size() > kMaxWordLength) return 0;
  const auto& bucket = kWordBuckets.ids[word.size()];
  for (std::size_t i = 0; i < kWordBuckets.sizes[word.size()]; ++i) {
    if (kTokenTexts[bucket[i]] == word) return bucket[i];
  }
  return 0;
}

}  // namespace

bool is_js_keyword(std::string_view w) {
  const std::uint8_t id = word_id(w);
  return id >= kFirstKeywordId && id < kFirstLiteralWordId;
}

Lexer::Lexer(std::string_view source, support::Arena& arena, Budget* budget)
    : source_(source), arena_(&arena), payloads_(arena), budget_(budget) {
  if (source.size() > std::numeric_limits<std::uint32_t>::max()) {
    fail("source too large (4 GiB or more)");
  }
}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < source_.size() ? source_[pos_ + ahead] : '\0';
}

bool Lexer::eof(std::size_t ahead) const {
  return pos_ + ahead >= source_.size();
}

char Lexer::advance() {
  const char c = source_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 0;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (eof() || peek() != expected) return false;
  advance();
  return true;
}

void Lexer::skip_run(std::size_t count) {
  pos_ += count;
  column_ += count;
}

void Lexer::fail(const std::string& message) const {
  throw ParseError(message, line_, column_);
}

std::string_view Lexer::slice(std::size_t begin, std::size_t end) const {
  return source_.substr(begin, end - begin);
}

void Lexer::skip_trivia() {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  while (pos_ < size) {
    const char c = data[pos_];
    switch (kCharClass[uc(c)]) {
      case CharClass::kWhitespace:
        // Inline whitespace run (never contains '\n').
        skip_run(lex::find_ws_end(data, size, pos_ + 1) - pos_);
        break;
      case CharClass::kNewline:
        newline_pending_ = true;
        advance();
        break;
      case CharClass::kSlash:
        if (peek(1) == '/') {
          // Line comment: everything up to (not including) the next
          // line terminator, counted toward comment volume.
          const std::size_t start = pos_;
          skip_run(lex::find_line_end(data, size, pos_ + 2) - pos_);
          ++comment_count_;
          comment_bytes_ += pos_ - start;
          break;
        }
        if (peek(1) == '*') {
          const std::size_t start = pos_;
          advance();
          advance();
          bool closed = false;
          while (pos_ < size) {
            // Skip the escape-free body to the next '*' or newline.
            skip_run(lex::find_block_comment_end(data, size, pos_) - pos_);
            if (pos_ >= size) break;
            if (data[pos_] == '\n') {
              newline_pending_ = true;
              advance();
              continue;
            }
            if (pos_ + 1 < size && data[pos_ + 1] == '/') {
              skip_run(2);
              closed = true;
              break;
            }
            skip_run(1);  // lone '*'
          }
          if (!closed) fail("unterminated block comment");
          ++comment_count_;
          comment_bytes_ += pos_ - start;
          break;
        }
        return;
      case CharClass::kPunct:
        if (c == '<' && peek(1) == '!' && peek(2) == '-' && peek(3) == '-') {
          // HTML-style open comment: skip to end of line (legacy web JS).
          const std::size_t start = pos_;
          skip_run(lex::find_line_end(data, size, pos_ + 4) - pos_);
          ++comment_count_;
          comment_bytes_ += pos_ - start;
          break;
        }
        return;
      default:
        return;
    }
  }
}

void Lexer::finish(TokenRecord& record, TokenType type, std::uint8_t id) {
  record.offset = static_cast<std::uint32_t>(token_start_);
  record.extent = static_cast<std::uint32_t>(pos_ - token_start_);
  record.line = static_cast<std::uint32_t>(token_line_);
  record.type = type;
  record.id = id;
  record.newline_before = newline_pending_;
  record.has_payload = false;
}

TokenPayload& Lexer::attach_payload(TokenRecord& record) {
  payloads_.push_back(TokenPayload{});
  TokenPayload& payload = payloads_.back();
  payload.raw_length = record.extent;
  record.extent = static_cast<std::uint32_t>(payloads_.size() - 1);
  record.has_payload = true;
  return payload;
}

bool Lexer::regex_allowed() const {
  if (!has_previous_) return true;
  switch (previous_type_) {
    case TokenType::kIdentifier:
    case TokenType::kNumericLiteral:
    case TokenType::kStringLiteral:
    case TokenType::kTemplate:
    case TokenType::kRegularExpression:
    case TokenType::kBooleanLiteral:
    case TokenType::kNullLiteral:
      return false;
    case TokenType::kKeyword:
      // `this` and `super` end an expression; everything else (return,
      // typeof, in, case, ...) is followed by an expression position.
      return previous_id_ != token_id("this") &&
             previous_id_ != token_id("super");
    case TokenType::kPunctuator:
      // After a closing bracket of an expression, '/' is division. After
      // ')' it is ambiguous (if/for/while conditions end with ')'), and
      // Esprima resolves this with parser feedback; our tokenizer-level
      // heuristic treats ')' and ']' as expression ends, '}' as a block
      // end (regex allowed), matching typical minified code.
      return previous_id_ != token_id(")") && previous_id_ != token_id("]") &&
             previous_id_ != token_id("++") && previous_id_ != token_id("--");
    default:
      return true;
  }
}

void Lexer::scan(TokenRecord& record) {
  if (budget_ != nullptr) budget_->charge_tokens();
  newline_pending_ = false;
  skip_trivia();
  token_start_ = pos_;
  token_line_ = line_;
  token_column_ = column_;
  if (eof()) {
    finish(record, TokenType::kEndOfFile);
    return;
  }

  // One table load + indexed jump routes the leading byte to its scanner.
  const char c = source_[pos_];
  switch (kCharClass[uc(c)]) {
    case CharClass::kIdStart:
    case CharClass::kBackslash:
      scan_identifier_or_keyword(record);
      break;
    case CharClass::kDigit:
      scan_number(record);
      break;
    case CharClass::kDot:
      if (lex::is_digit_byte(uc(peek(1)))) {
        scan_number(record);
      } else {
        scan_punctuator(record);
      }
      break;
    case CharClass::kQuote:
      scan_string(record, c);
      break;
    case CharClass::kBacktick:
      scan_template(record);
      break;
    case CharClass::kSlash:
      if (regex_allowed()) {
        scan_regex(record);
      } else {
        scan_punctuator(record);
      }
      break;
    default:
      scan_punctuator(record);
      break;
  }
  has_previous_ = true;
  previous_type_ = record.type;
  previous_id_ = record.id;
}

TokenStream Lexer::scan_all(TokenStats* stats, std::size_t reserve_limit) {
  std::size_t capacity = std::min(source_.size() - pos_ + 1,
                                  std::max<std::size_t>(reserve_limit, 1));
  TokenRecord* records = arena_->alloc_array<TokenRecord>(capacity);
  std::size_t count = 0;
  while (true) {
    if (count == capacity) {  // only under a reserve limit
      TokenRecord* grown = arena_->alloc_array<TokenRecord>(capacity * 2);
      std::copy(records, records + count, grown);
      records = grown;
      capacity *= 2;
    }
    TokenRecord& record = records[count];
    scan(record);
    if (record.type == TokenType::kEndOfFile) break;
    if (stats != nullptr) {
      const std::size_t raw_length = pos_ - token_start_;
      if (record.type == TokenType::kPunctuator) ++stats->punctuators;
      stats->raw_bytes += static_cast<double>(raw_length);
      stats->max_line_length =
          std::max(stats->max_line_length, token_column_ + raw_length);
    }
    ++count;
  }
  if (stats != nullptr) stats->count = count;
  return TokenStream{source_, records, count, payloads_.data()};
}

Token Lexer::next() {
  TokenRecord record;
  scan(record);
  // A record-less view: value/raw/payload read only the source and the
  // side table.
  const TokenStream view{source_, nullptr, 0, payloads_.data()};
  Token token;
  token.type = record.type;
  token.value = view.value(record);
  token.raw = view.raw(record);
  token.offset = record.offset;
  token.line = record.line;
  token.column = token_column_;
  token.newline_before = record.newline_before;
  if (record.has_payload) {
    const TokenPayload& payload = view.payload(record);
    token.number = payload.number;
    token.regex_flags = payload.regex_flags;
    token.template_expressions = payload.template_expressions;
    token.template_quasis = payload.template_quasis;
  }
  return token;
}

void Lexer::scan_identifier_or_keyword(TokenRecord& record) {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  const std::size_t start_offset = pos_;
  // Zero-copy fast path: the name is the source slice until a \uXXXX
  // escape makes the cooked name differ, at which point the prefix is
  // copied into the arena and cooking continues there. Identifier
  // continuation bytes (ASCII id-part plus >= 0x80 UTF-8 passthrough)
  // are consumed as block-scanned runs.
  support::ArenaVec<char> cooked(*arena_);
  bool dirty = false;
  while (true) {
    const std::size_t run_end = lex::find_id_end(data, size, pos_);
    if (dirty && run_end > pos_) cooked.append(data + pos_, run_end - pos_);
    skip_run(run_end - pos_);
    if (pos_ >= size || data[pos_] != '\\' || peek(1) != 'u') break;
    // \uXXXX identifier escape: decode the hex, keep the low byte as the
    // cooked character (sufficient for the ASCII identifiers we target).
    if (!dirty) {
      cooked.append(data + start_offset, pos_ - start_offset);
      dirty = true;
    }
    advance();
    advance();
    unsigned code = 0;
    if (peek() == '{') {
      advance();
      while (!eof() && peek() != '}') {
        if (!lex::is_hex_digit_byte(uc(peek()))) fail("bad unicode escape");
        code = code * 16 + hex_value(advance());
      }
      if (!match('}')) fail("unterminated unicode escape");
    } else {
      for (int i = 0; i < 4; ++i) {
        if (eof() || !lex::is_hex_digit_byte(uc(peek()))) {
          fail("bad unicode escape in identifier");
        }
        code = code * 16 + hex_value(advance());
      }
    }
    cooked.push_back(static_cast<char>(code & 0x7f));
  }
  if (pos_ == start_offset) {
    // A lone '\' not starting a \uXXXX escape: no progress was made; this
    // must be a hard error or the tokenizer would loop forever.
    fail("unexpected '\\'");
  }
  const std::string_view name =
      dirty ? view_of(cooked) : slice(start_offset, pos_);
  const std::uint8_t id = word_id(name);
  TokenType type = TokenType::kIdentifier;
  if (id >= kFirstKeywordId && id < kFirstLiteralWordId) {
    type = TokenType::kKeyword;
  } else if (id == token_id("true") || id == token_id("false")) {
    type = TokenType::kBooleanLiteral;
  } else if (id == token_id("null")) {
    type = TokenType::kNullLiteral;
  }
  finish(record, type, id);
  if (dirty) attach_payload(record).value = name;
}

void Lexer::scan_number(TokenRecord& record) {
  double value = 0.0;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    advance();
    advance();
    if (!lex::is_hex_digit_byte(uc(peek()))) fail("missing hex digits");
    while (!eof() && lex::is_hex_digit_byte(uc(peek()))) {
      value = value * 16 + hex_value(advance());
    }
  } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
    advance();
    advance();
    if (peek() != '0' && peek() != '1') fail("missing binary digits");
    while (peek() == '0' || peek() == '1') value = value * 2 + (advance() - '0');
  } else if (peek() == '0' && (peek(1) == 'o' || peek(1) == 'O')) {
    advance();
    advance();
    if (peek() < '0' || peek() > '7') fail("missing octal digits");
    while (peek() >= '0' && peek() <= '7') value = value * 8 + (advance() - '0');
  } else if (peek() == '0' && lex::is_digit_byte(uc(peek(1)))) {
    // Legacy octal (non-strict); fall back to decimal if 8/9 appear.
    // Short digit runs stay in the std::string SSO buffer (strtod needs a
    // NUL-terminated copy, the source slice is not).
    std::string digits;
    advance();
    while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    const bool octal = digits.find('8') == std::string::npos &&
                       digits.find('9') == std::string::npos;
    value = std::strtod(digits.c_str(), nullptr);
    if (octal) value = static_cast<double>(std::strtoll(digits.c_str(), nullptr, 8));
  } else {
    std::string digits;
    while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    if (peek() == '.') {
      digits.push_back(advance());
      while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    }
    if (peek() == 'e' || peek() == 'E') {
      digits.push_back(advance());
      if (peek() == '+' || peek() == '-') digits.push_back(advance());
      if (!lex::is_digit_byte(uc(peek()))) fail("missing exponent digits");
      while (lex::is_digit_byte(uc(peek()))) digits.push_back(advance());
    }
    value = std::strtod(digits.c_str(), nullptr);
  }
  if (lex::is_id_start_byte(uc(peek()))) {
    fail("identifier starts immediately after number");
  }

  finish(record, TokenType::kNumericLiteral);
  TokenPayload& payload = attach_payload(record);
  payload.value = slice(token_start_, pos_);
  payload.number = value;
}

void Lexer::scan_string(TokenRecord& record, char quote) {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  advance();  // opening quote
  // Zero-copy fast path: the cooked value equals the source slice between
  // the quotes until the first backslash; from there the prefix is copied
  // into the arena and escapes decode into the copy. The escape-free
  // payload spans between interesting bytes (quote, backslash, newline)
  // are block-scanned — for the common no-escape literal the scanner
  // finds the closing quote in one pass and the value stays a view.
  const std::size_t content_start = pos_;
  support::ArenaVec<char> cooked(*arena_);
  bool dirty = false;
  while (true) {
    const std::size_t stop = lex::find_string_end(data, size, pos_, quote);
    if (dirty && stop > pos_) cooked.append(data + pos_, stop - pos_);
    skip_run(stop - pos_);
    if (pos_ >= size) fail("unterminated string literal");
    const char c = advance();
    if (c == quote) break;
    if (c == '\n' || c == '\r') fail("newline in string literal");
    // c == '\\': decode one escape into the cooked copy.
    if (!dirty) {
      cooked.append(data + content_start, (pos_ - 1) - content_start);
      dirty = true;
    }
    if (eof()) fail("unterminated escape sequence");
    const char esc = advance();
    switch (esc) {
      case 'n': cooked.push_back('\n'); break;
      case 't': cooked.push_back('\t'); break;
      case 'r': cooked.push_back('\r'); break;
      case 'b': cooked.push_back('\b'); break;
      case 'f': cooked.push_back('\f'); break;
      case 'v': cooked.push_back('\v'); break;
      case '0':
        if (!lex::is_digit_byte(uc(peek()))) {
          cooked.push_back('\0');
          break;
        }
        [[fallthrough]];
      case '1': case '2': case '3': case '4':
      case '5': case '6': case '7': {
        // Legacy octal escape.
        unsigned code = static_cast<unsigned>(esc - '0');
        for (int i = 0; i < 2 && peek() >= '0' && peek() <= '7'; ++i) {
          code = code * 8 + static_cast<unsigned>(advance() - '0');
          if (code > 255) break;
        }
        cooked.push_back(static_cast<char>(code & 0xff));
        break;
      }
      case 'x': {
        unsigned code = 0;
        for (int i = 0; i < 2; ++i) {
          if (eof() || !lex::is_hex_digit_byte(uc(peek()))) {
            fail("bad hex escape");
          }
          code = code * 16 + hex_value(advance());
        }
        cooked.push_back(static_cast<char>(code));
        break;
      }
      case 'u': {
        unsigned code = 0;
        if (peek() == '{') {
          advance();
          while (!eof() && peek() != '}') {
            if (!lex::is_hex_digit_byte(uc(peek()))) {
              fail("bad unicode escape");
            }
            code = code * 16 + hex_value(advance());
          }
          if (!match('}')) fail("unterminated unicode escape");
        } else {
          for (int i = 0; i < 4; ++i) {
            if (eof() || !lex::is_hex_digit_byte(uc(peek()))) {
              fail("bad unicode escape");
            }
            code = code * 16 + hex_value(advance());
          }
        }
        // Encode as UTF-8.
        if (code < 0x80) {
          cooked.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          cooked.push_back(static_cast<char>(0xc0 | (code >> 6)));
          cooked.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
          cooked.push_back(static_cast<char>(0xe0 | (code >> 12)));
          cooked.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
          cooked.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        break;
      }
      case '\n':  // line continuation
        break;
      case '\r':
        if (peek() == '\n') advance();
        break;
      default:
        cooked.push_back(esc);
    }
  }
  // An escape-free value is the raw slice between the quotes, which
  // TokenStream::value derives; only a cooked value needs the side table.
  finish(record, TokenType::kStringLiteral);
  if (dirty) attach_payload(record).value = view_of(cooked);
}

void Lexer::scan_template(TokenRecord& record) {
  const char* data = source_.data();
  const std::size_t size = source_.size();
  advance();  // opening backtick

  // Quasis are always verbatim source slices (escapes are kept raw);
  // substitution expressions are slices too unless a comment inside was
  // skipped, which switches that expression to arena-cooked copying.
  // Quasi text between interesting bytes ('`', '\', '$', '\n') is
  // block-scanned; the balanced substitution scan stays scalar.
  support::ArenaVec<std::string_view> quasis(*arena_);
  support::ArenaVec<std::string_view> expressions(*arena_);
  std::size_t chunk_start = pos_;
  while (true) {
    skip_run(lex::find_template_end(data, size, pos_) - pos_);
    if (pos_ >= size) fail("unterminated template literal");
    const char c = advance();
    if (c == '`') {
      quasis.push_back(slice(chunk_start, pos_ - 1));
      break;
    }
    if (c == '\\') {
      if (eof()) fail("unterminated template escape");
      advance();
      continue;
    }
    if (c == '\n') continue;  // advance() already tracked the line
    if (c == '$' && peek() == '{') {
      quasis.push_back(slice(chunk_start, pos_ - 1));
      advance();  // '{'
      // Balanced scan of the substitution expression, skipping over nested
      // strings, templates, and comments so their braces do not count.
      const std::size_t expr_start = pos_;
      support::ArenaVec<char> cooked(*arena_);
      bool dirty = false;
      int depth = 1;
      while (depth > 0) {
        if (eof()) fail("unterminated template substitution");
        char e = advance();
        if (e == '{') {
          ++depth;
          if (dirty) cooked.push_back(e);
        } else if (e == '}') {
          --depth;
          if (depth > 0 && dirty) cooked.push_back(e);
        } else if (e == '"' || e == '\'') {
          if (dirty) cooked.push_back(e);
          while (true) {
            if (eof()) fail("unterminated string in template substitution");
            char s = advance();
            if (dirty) cooked.push_back(s);
            if (s == '\\') {
              if (eof()) fail("unterminated escape");
              const char esc = advance();
              if (dirty) cooked.push_back(esc);
            } else if (s == e) {
              break;
            }
          }
        } else if (e == '`') {
          // Nested template: balanced scan with its own substitution depth.
          if (dirty) cooked.push_back(e);
          int nested_subst = 0;
          while (true) {
            if (eof()) fail("unterminated nested template");
            char t = advance();
            if (dirty) cooked.push_back(t);
            if (t == '\\') {
              if (eof()) fail("unterminated escape");
              const char esc = advance();
              if (dirty) cooked.push_back(esc);
            } else if (t == '$' && peek() == '{') {
              const char brace = advance();
              if (dirty) cooked.push_back(brace);
              ++nested_subst;
            } else if (t == '}' && nested_subst > 0) {
              --nested_subst;
            } else if (t == '`' && nested_subst == 0) {
              break;
            }
          }
        } else if (e == '/' && peek() == '/') {
          // Comment bytes are dropped from the expression, so the cooked
          // text diverges from the slice here.
          if (!dirty) {
            cooked.append(data + expr_start, (pos_ - 1) - expr_start);
            dirty = true;
          }
          skip_run(lex::find_line_end(data, size, pos_) - pos_);
        } else if (e == '/' && peek() == '*') {
          if (!dirty) {
            cooked.append(data + expr_start, (pos_ - 1) - expr_start);
            dirty = true;
          }
          advance();
          while (!eof() && !(peek() == '*' && peek(1) == '/')) advance();
          if (!eof()) {
            advance();
            advance();
          }
        } else {
          if (dirty) cooked.push_back(e);
        }
      }
      expressions.push_back(dirty ? view_of(cooked)
                                  : slice(expr_start, pos_ - 1));
      chunk_start = pos_;
    }
    // A '$' not followed by '{' is plain quasi text: fall through and
    // let the next block scan resume after it.
  }

  finish(record, TokenType::kTemplate);
  TokenPayload& payload = attach_payload(record);
  payload.value = slice(token_start_, pos_);
  payload.template_expressions =
      std::span<const std::string_view>(expressions.data(), expressions.size());
  payload.template_quasis =
      std::span<const std::string_view>(quasis.data(), quasis.size());
}

void Lexer::scan_regex(TokenRecord& record) {
  advance();  // '/'
  // The pattern is always the verbatim slice between the delimiting
  // slashes (escapes are kept raw), so no cooking is ever needed.
  const std::size_t pattern_start = pos_;
  bool in_class = false;
  while (true) {
    if (eof()) fail("unterminated regular expression");
    char c = advance();
    if (lex::is_line_terminator_byte(uc(c))) {
      fail("newline in regular expression");
    }
    if (c == '\\') {
      if (eof()) fail("unterminated regex escape");
      advance();
      continue;
    }
    if (c == '[') in_class = true;
    if (c == ']') in_class = false;
    if (c == '/' && !in_class) break;
  }
  const std::string_view pattern = slice(pattern_start, pos_ - 1);
  const std::size_t flags_start = pos_;
  // Flags are ASCII id-part only (no >= 0x80 passthrough, unlike
  // identifier tails), so this stays a short scalar loop.
  while (!eof() && uc(peek()) < 0x80 && lex::is_id_part_byte(uc(peek()))) {
    advance();
  }

  finish(record, TokenType::kRegularExpression);
  TokenPayload& payload = attach_payload(record);
  payload.value = pattern;
  payload.regex_flags = slice(flags_start, pos_);
}

void Lexer::scan_punctuator(TokenRecord& record) {
  // Table-driven longest match: a switch on the first byte with ordered
  // follower checks replaces the historical linear scan over the 57-entry
  // punctuator list. The record carries the punctuator's id; its text
  // (kTokenTexts, static storage) outlives every arena.
  const auto emit = [&](std::uint8_t id) {
    skip_run(kTokenTexts[id].size());
    finish(record, TokenType::kPunctuator, id);
  };
  const char c1 = peek();
  const char c2 = peek(1);
  const char c3 = peek(2);
  switch (c1) {
    case '{': return emit(token_id("{"));
    case '}': return emit(token_id("}"));
    case '(': return emit(token_id("("));
    case ')': return emit(token_id(")"));
    case '[': return emit(token_id("["));
    case ']': return emit(token_id("]"));
    case ';': return emit(token_id(";"));
    case ',': return emit(token_id(","));
    case ':': return emit(token_id(":"));
    case '~': return emit(token_id("~"));
    case '.':
      if (c2 == '.' && c3 == '.') return emit(token_id("..."));
      return emit(token_id("."));
    case '<':
      if (c2 == '<') return emit(c3 == '=' ? token_id("<<=") : token_id("<<"));
      if (c2 == '=') return emit(token_id("<="));
      return emit(token_id("<"));
    case '>':
      if (c2 == '>') {
        if (c3 == '>') {
          return emit(peek(3) == '=' ? token_id(">>>=") : token_id(">>>"));
        }
        return emit(c3 == '=' ? token_id(">>=") : token_id(">>"));
      }
      if (c2 == '=') return emit(token_id(">="));
      return emit(token_id(">"));
    case '=':
      if (c2 == '=') return emit(c3 == '=' ? token_id("===") : token_id("=="));
      if (c2 == '>') return emit(token_id("=>"));
      return emit(token_id("="));
    case '!':
      if (c2 == '=') return emit(c3 == '=' ? token_id("!==") : token_id("!="));
      return emit(token_id("!"));
    case '+':
      if (c2 == '+') return emit(token_id("++"));
      if (c2 == '=') return emit(token_id("+="));
      return emit(token_id("+"));
    case '-':
      if (c2 == '-') return emit(token_id("--"));
      if (c2 == '=') return emit(token_id("-="));
      return emit(token_id("-"));
    case '*':
      if (c2 == '*') return emit(c3 == '=' ? token_id("**=") : token_id("**"));
      if (c2 == '=') return emit(token_id("*="));
      return emit(token_id("*"));
    case '/':
      if (c2 == '=') return emit(token_id("/="));
      return emit(token_id("/"));
    case '%':
      if (c2 == '=') return emit(token_id("%="));
      return emit(token_id("%"));
    case '&':
      if (c2 == '&') return emit(c3 == '=' ? token_id("&&=") : token_id("&&"));
      if (c2 == '=') return emit(token_id("&="));
      return emit(token_id("&"));
    case '|':
      if (c2 == '|') return emit(c3 == '=' ? token_id("||=") : token_id("||"));
      if (c2 == '=') return emit(token_id("|="));
      return emit(token_id("|"));
    case '^':
      if (c2 == '=') return emit(token_id("^="));
      return emit(token_id("^"));
    case '?':
      if (c2 == '?') return emit(c3 == '=' ? token_id("?\?=") : token_id("??"));
      if (c2 == '.') return emit(token_id("?."));
      return emit(token_id("?"));
    default:
      break;
  }
  fail(std::string("unexpected character '") + peek() + "'");
}

std::vector<Token> Lexer::tokenize(std::string_view source,
                                   support::Arena& arena) {
  Lexer lexer(source, arena);
  std::vector<Token> tokens;
  while (true) {
    Token token = lexer.next();
    if (token.type == TokenType::kEndOfFile) break;
    tokens.push_back(token);
  }
  return tokens;
}

}  // namespace jst
