// Differential lexer suite (DESIGN.md §16), in two layers.
//
// Scanner level: every lex::find_* block scanner is checked against a
// byte-at-a-time reference written here from the char_class predicates,
// for every byte value at every stop offset 0-16 after every start offset
// 0-16, in exactly-sized heap buffers whose lengths put the stop byte both
// in the 8-byte SWAR body and in the scalar tail.
//
// Lexer level: the complete observable result of lexing each hostile
// input below — every Token field, the TokenStats the parser derives,
// comment accounting, error positions, and budget trip points — is
// folded into FNV-1a digests pinned to constants captured from the
// scalar/SWAR/SSE2 scan-policy front end, where all three policies
// agreed. The suite carries the `robustness` label so the asan/ubsan
// presets run the unaligned 8-byte loads under the sanitizers, and it
// runs in the JST_THREADS 1/4 matrix alongside the other bit-identity
// gates.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lexer/char_class.h"
#include "lexer/lexer.h"
#include "lexer/scan.h"
#include "parser/parser.h"
#include "support/arena.h"
#include "support/budget.h"
#include "support/rng.h"

namespace jst {
namespace {

// --- scanner level ---------------------------------------------------------

struct ScannerCase {
  const char* name;
  std::function<std::size_t(const char*, std::size_t, std::size_t)> scan;
  // The reference stop set, one byte at a time.
  std::function<bool(unsigned char)> stops;
};

std::vector<ScannerCase> scanner_cases() {
  using lex::has_flag;
  using lex::is_id_part_byte;
  using lex::is_line_terminator_byte;
  return {
      {"find_id_end", lex::find_id_end,
       [](unsigned char c) { return !is_id_part_byte(c); }},
      {"find_ws_end", lex::find_ws_end,
       [](unsigned char c) { return !has_flag(c, lex::kFlagWhitespace); }},
      {"find_line_end", lex::find_line_end,
       [](unsigned char c) { return is_line_terminator_byte(c); }},
      {"find_string_end(\")",
       [](const char* data, std::size_t size, std::size_t from) {
         return lex::find_string_end(data, size, from, '"');
       },
       [](unsigned char c) {
         return c == '"' || c == '\\' || is_line_terminator_byte(c);
       }},
      {"find_string_end(')",
       [](const char* data, std::size_t size, std::size_t from) {
         return lex::find_string_end(data, size, from, '\'');
       },
       [](unsigned char c) {
         return c == '\'' || c == '\\' || is_line_terminator_byte(c);
       }},
      {"find_template_end", lex::find_template_end,
       [](unsigned char c) {
         return c == '`' || c == '\\' || c == '$' || c == '\n';
       }},
      {"find_block_comment_end", lex::find_block_comment_end,
       [](unsigned char c) { return c == '*' || c == '\n'; }},
  };
}

std::size_t reference_end(const ScannerCase& scanner, const char* data,
                          std::size_t size, std::size_t from) {
  while (from < size &&
         !scanner.stops(static_cast<unsigned char>(data[from]))) {
    ++from;
  }
  return from;
}

// An exactly-sized heap buffer (so asan flags any read past `size`): stop
// bytes before `from` (a scanner must not look behind its start), then a
// rotation through every continuation byte of the scanner.
std::unique_ptr<char[]> make_buffer(const ScannerCase& scanner,
                                    std::size_t size, std::size_t from,
                                    std::size_t rotate) {
  std::vector<char> stop;
  std::vector<char> cont;
  for (int b = 0; b < 256; ++b) {
    (scanner.stops(static_cast<unsigned char>(b)) ? stop : cont)
        .push_back(static_cast<char>(b));
  }
  auto buffer = std::make_unique<char[]>(size == 0 ? 1 : size);
  for (std::size_t i = 0; i < size; ++i) {
    buffer[i] = i < from ? stop.front() : cont[(i + rotate) % cont.size()];
  }
  return buffer;
}

}  // namespace

TEST(LexerDiff, ScannersMatchByteReference) {
  for (const ScannerCase& scanner : scanner_cases()) {
    int failures = 0;
    const auto check = [&](const char* data, std::size_t size,
                           std::size_t from, int byte) {
      const std::size_t expected = reference_end(scanner, data, size, from);
      const std::size_t actual = scanner.scan(data, size, from);
      if (actual != expected && ++failures <= 10) {
        ADD_FAILURE() << scanner.name << " byte=" << byte << " from=" << from
                      << " size=" << size << " expected=" << expected
                      << " actual=" << actual;
      }
    };
    for (std::size_t from = 0; from <= 16; ++from) {
      // Runs that reach the end of input (every length through three
      // words, so the tail takes every length 0-7).
      for (std::size_t length = 0; length <= 24; ++length) {
        const std::size_t size = from + length;
        const auto buffer = make_buffer(scanner, size, from, length);
        check(buffer.get(), size, from, -1);
      }
      // One probed byte at offset `k` from the start, `tail` bytes after.
      for (std::size_t k = 0; k <= 16; ++k) {
        for (std::size_t tail = 0; tail <= 8; ++tail) {
          const std::size_t size = from + k + 1 + tail;
          const auto buffer = make_buffer(scanner, size, from, k + tail);
          for (int b = 0; b < 256; ++b) {
            buffer[from + k] = static_cast<char>(b);
            check(buffer.get(), size, from, b);
          }
        }
      }
    }
    EXPECT_EQ(failures, 0) << scanner.name;
  }
}

namespace {

// --- lexer level -----------------------------------------------------------

// FNV-1a 64 over a sequence of fingerprints (each followed by a record
// separator, so boundaries count): cheap, dependency-free, and stable
// across platforms.
class Digest {
 public:
  void add(const std::string& fingerprint) {
    for (const char c : fingerprint) mix(static_cast<unsigned char>(c));
    mix(0x1e);
  }
  std::uint64_t value() const { return hash_; }

 private:
  void mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t hash_ = 1469598103934665603ull;
};

// The complete observable result of lexing one source: the full token
// stream (every field), comment accounting, the final line number, and —
// when the run failed or tripped a budget — the exact error. The suites
// fold these strings into pinned digests.
std::string lex_fingerprint(const std::string& source,
                            const ResourceLimits& limits = {}) {
  support::Arena arena;
  Budget budget(limits);
  Lexer lexer(source, arena, limits.any_enabled() ? &budget : nullptr);
  std::string out;
  out.reserve(source.size() * 2);
  const auto append_number = [&out](double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += buffer;
  };
  try {
    std::size_t token_index = 0;
    while (true) {
      const Token token = lexer.next();
      if (token.type == TokenType::kEndOfFile) break;
      out += token_type_name(token.type);
      out += ' ';
      append_number(static_cast<double>(token.offset));
      out += ':';
      append_number(static_cast<double>(token.line));
      out += ':';
      append_number(static_cast<double>(token.column));
      out += token.newline_before ? " nl " : " - ";
      out.append(token.value.data(), token.value.size());
      out += '\x1f';
      out.append(token.raw.data(), token.raw.size());
      out += '\x1f';
      if (token.type == TokenType::kNumericLiteral) {
        append_number(token.number);
      }
      if (token.type == TokenType::kRegularExpression) {
        out.append(token.regex_flags.data(), token.regex_flags.size());
      }
      for (const std::string_view quasi : token.template_quasis) {
        out += "q[";
        out.append(quasi.data(), quasi.size());
        out += ']';
      }
      for (const std::string_view expr : token.template_expressions) {
        out += "e[";
        out.append(expr.data(), expr.size());
        out += ']';
      }
      out += '\n';
      ++token_index;
    }
    out += "eof tokens=";
    append_number(static_cast<double>(token_index));
  } catch (const ParseError& error) {
    out += "parse_error ";
    out += error.what();
  } catch (const BudgetExceeded& error) {
    out += "budget_trip ";
    out += error.what();
  }
  out += " comments=";
  out += std::to_string(lexer.comment_count());
  out += '/';
  out += std::to_string(lexer.comment_bytes());
  out += " line=";
  out += std::to_string(lexer.line());
  return out;
}

// Full-frontend fingerprint: parse_program's TokenStats and AST shape
// (the downstream consumers of the token stream).
std::string parse_fingerprint(const std::string& source) {
  support::Arena arena;
  try {
    const ParseResult result = parse_program(source, nullptr, &arena);
    std::string out = "nodes=" + std::to_string(result.ast.node_count());
    out += " tokens=" + std::to_string(result.token_stats.count);
    out += " punct=" + std::to_string(result.token_stats.punctuators);
    out += " maxline=" + std::to_string(result.token_stats.max_line_length);
    char raw[64];
    std::snprintf(raw, sizeof(raw), " raw=%.17g",
                  result.token_stats.raw_bytes);
    out += raw;
    out += " comments=" + std::to_string(result.comment_count);
    out += "/" + std::to_string(result.comment_bytes);
    out += " lines=" + std::to_string(result.source_lines);
    return out;
  } catch (const ParseError& error) {
    return std::string("parse_error ") + error.what();
  }
}

// --- hostile input generators ----------------------------------------------

// JSFuck-style flood: the six-character alphabet, long unbroken runs of
// punctuators with interleaved identifier islands.
std::string jsfuck_flood(std::size_t length, std::uint64_t seed) {
  // Balanced fragments only, so the flood both lexes and parses.
  static const char* kFragments[] = {"+[]",   "+!![]", "+(+[])", "+[[]]",
                                     "+!+[]", "+(!![]+[])"};
  Rng rng(seed);
  std::string source = "var x = []";
  while (source.size() < length) {
    source += kFragments[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  }
  source += ";";
  return source;
}

// One string literal covering a size target (the 1 MB case) with escapes
// sprinkled at irregular offsets so the dirty-path run-appends exercise
// every word boundary phase.
std::string huge_string_literal(std::size_t payload, std::size_t escape_every,
                                char quote) {
  std::string source = "var s = ";
  source += quote;
  for (std::size_t i = 0; i < payload; ++i) {
    if (escape_every != 0 && i % escape_every == 0) {
      source += "\\x41";
    } else {
      source += static_cast<char>('a' + (i % 23));
    }
  }
  source += quote;
  source += ';';
  return source;
}

// Deeply nested template literals: `t0${`t1${...}u1`}u0`.
std::string deep_template(std::size_t depth) {
  std::string inner = "1";
  for (std::size_t i = 0; i < depth; ++i) {
    inner = "`t" + std::to_string(i % 10) + "${" + inner + "}u" +
            std::to_string(i % 10) + "`";
  }
  return "var t = " + inner + ";";
}

}  // namespace

// --- oracle constants ------------------------------------------------------
//
// Captured by running this suite with JST_PRINT_ORACLES=1 on the
// front end that still carried the scalar, SWAR and SSE2 scan policies;
// all three policies printed the same constants. A change to any
// constant is a behavior change in the lexer and needs a deliberate
// re-capture, not a drive-by edit.

constexpr std::uint64_t kLexJsFuckFloods = 0x6c2a23bb590adcc;
constexpr std::uint64_t kParseJsFuckFloods = 0xacc716967e9ea601;
constexpr std::uint64_t kLexMegabyteStrings = 0x2f6a0910578aeba;
constexpr std::uint64_t kParseMegabyteStrings = 0x4cecaed44d6d359b;
constexpr std::uint64_t kLexDeepTemplates = 0xbd80777b8a3efe7;
constexpr std::uint64_t kParseDeepTemplates = 0xbfae78fd1cabb5e3;
constexpr std::uint64_t kLexEveryByteInStrings = 0xd8e91f23e4f26b0;
constexpr std::uint64_t kLexEveryByteStandalone = 0x572c3206cb9af7ff;
constexpr std::uint64_t kLexWalls = 0x2b41d4952ae41a03;
constexpr std::uint64_t kParseWalls = 0xbfcf28567ed45c1;
constexpr std::uint64_t kLexEscapePhases = 0xb42bb3693e3957ee;
constexpr std::uint64_t kLexBudgetTrips = 0xcd316eeab3d7868e;
constexpr std::uint64_t kLexRandomized = 0x9d2511e6b68c5d7d;
constexpr std::uint64_t kParseRandomized = 0x14ef9907b65a920f;

namespace {

bool print_oracles() {
  static const bool kPrint = std::getenv("JST_PRINT_ORACLES") != nullptr;
  return kPrint;
}

void expect_oracle(const char* label, std::uint64_t expected,
                   std::uint64_t actual) {
  if (print_oracles()) {
    std::printf("constexpr std::uint64_t %s = 0x%llx;\n", label,
                static_cast<unsigned long long>(actual));
    return;
  }
  EXPECT_EQ(expected, actual) << label;
}

}  // namespace

// --- the suites -------------------------------------------------------------

TEST(LexerDiff, JsFuckFloods) {
  Digest lex;
  for (const std::size_t length : {64u, 4096u, 65536u}) {
    lex.add(lex_fingerprint(jsfuck_flood(length, 0xf00d + length)));
  }
  Digest parse;
  parse.add(parse_fingerprint(jsfuck_flood(4096, 0xf00d)));
  expect_oracle("kLexJsFuckFloods", kLexJsFuckFloods, lex.value());
  expect_oracle("kParseJsFuckFloods", kParseJsFuckFloods, parse.value());
}

TEST(LexerDiff, MegabyteStringLiterals) {
  // Escape-free (pure block-scan fast path), sparse escapes (dirty-path
  // run appends), dense escapes (short runs), both quote kinds.
  Digest lex;
  lex.add(lex_fingerprint(huge_string_literal(1 << 20, 0, '"')));
  lex.add(lex_fingerprint(huge_string_literal(1 << 20, 4097, '\'')));
  lex.add(lex_fingerprint(huge_string_literal(1 << 16, 3, '"')));
  Digest parse;
  parse.add(parse_fingerprint(huge_string_literal(1 << 18, 0, '"')));
  expect_oracle("kLexMegabyteStrings", kLexMegabyteStrings, lex.value());
  expect_oracle("kParseMegabyteStrings", kParseMegabyteStrings, parse.value());
}

TEST(LexerDiff, DeepTemplateNesting) {
  Digest lex;
  for (const std::size_t depth : {1u, 7u, 63u, 255u}) {
    lex.add(lex_fingerprint(deep_template(depth)));
  }
  Digest parse;
  parse.add(parse_fingerprint(deep_template(31)));
  expect_oracle("kLexDeepTemplates", kLexDeepTemplates, lex.value());
  expect_oracle("kParseDeepTemplates", kParseDeepTemplates, parse.value());
}

TEST(LexerDiff, EveryByteValueInStringPayloads) {
  // All 256 byte values inside a double-quoted literal, escaping only the
  // bytes the grammar cannot carry raw ('"', '\\', '\n', '\r'). Repeated
  // at shifted alignments so every value crosses word boundaries in
  // every lane position.
  std::string payload;
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    if (c == '"') {
      payload += "\\\"";
    } else if (c == '\\') {
      payload += "\\\\";
    } else if (c == '\n') {
      payload += "\\n";
    } else if (c == '\r') {
      payload += "\\r";
    } else {
      payload += c;
    }
  }
  Digest lex;
  for (std::size_t shift = 0; shift < 17; ++shift) {
    std::string source = "var b = \"";
    source += std::string(shift, '=');
    for (int repeat = 0; repeat < 4; ++repeat) source += payload;
    source += "\";";
    lex.add(lex_fingerprint(source));
  }
  expect_oracle("kLexEveryByteInStrings", kLexEveryByteInStrings,
                lex.value());
}

TEST(LexerDiff, EveryByteValueStandalone) {
  // Each byte value alone after a valid statement: the token-or-error
  // outcome (most high bytes are lexer errors — the error line and
  // column are pinned, too).
  Digest lex;
  for (int b = 1; b < 256; ++b) {
    std::string source = "var v = 1;\n";
    source += static_cast<char>(b);
    lex.add(lex_fingerprint(source));
  }
  expect_oracle("kLexEveryByteStandalone", kLexEveryByteStandalone,
                lex.value());
}

TEST(LexerDiff, IdentifierAndWhitespaceWalls) {
  // Identifier floods (ASCII and UTF-8 passthrough), whitespace walls
  // with '\r' islands, comment walls — the trivia block scanners.
  std::string identifiers = "var ";
  for (int i = 0; i < 5000; ++i) {
    identifiers += "_a$9";
  }
  identifiers += "\xc3\xa9\xe2\x82\xac = 1;";

  std::string whitespace = "var\t\t  \f\v w";
  whitespace += std::string(10000, ' ');
  whitespace += "\r\n\r  = \r1;";

  std::string comments = "// " + std::string(8000, 'x') + "\n";
  comments += "/* " + std::string(8000, '*') + " */ var c = 1;\n";
  comments += "<!-- html comment " + std::string(100, '-') + "\nc;";

  Digest lex;
  lex.add(lex_fingerprint(identifiers));
  lex.add(lex_fingerprint(whitespace));
  lex.add(lex_fingerprint(comments));
  Digest parse;
  parse.add(parse_fingerprint(comments));
  expect_oracle("kLexWalls", kLexWalls, lex.value());
  expect_oracle("kParseWalls", kParseWalls, parse.value());
}

TEST(LexerDiff, EscapePhasesAndUnterminatedErrors) {
  // Error positions must survive the block scanners: unterminated
  // strings/templates/comments/regexes, newline-in-string at every
  // alignment phase, lone backslashes.
  Digest lex;
  for (std::size_t pad = 0; pad < 20; ++pad) {
    const std::string fill(pad, 'p');
    lex.add(lex_fingerprint("var s = \"" + fill + "\nrest\";"));
    lex.add(lex_fingerprint("var s = \"" + fill));
    lex.add(lex_fingerprint("var t = `" + fill));
    lex.add(lex_fingerprint("/* " + fill));
    lex.add(lex_fingerprint("var r = /" + fill));
    lex.add(lex_fingerprint("var i = " + fill + "\\;"));
  }
  expect_oracle("kLexEscapePhases", kLexEscapePhases, lex.value());
}

TEST(LexerDiff, BudgetTripPointsIdentical) {
  // A tight token ceiling trips at a pinned token (same BudgetExceeded
  // message, same observed count) on sources whose token boundaries the
  // block scanners produce.
  ResourceLimits limits;
  limits.max_tokens = 100;
  ResourceLimits generous;
  generous.max_tokens = 1 << 20;
  Digest lex;
  lex.add(lex_fingerprint(jsfuck_flood(4096, 0xbead), limits));
  lex.add(lex_fingerprint(huge_string_literal(1 << 16, 5, '"'), limits));
  lex.add(lex_fingerprint(deep_template(63), generous));
  expect_oracle("kLexBudgetTrips", kLexBudgetTrips, lex.value());
}

TEST(LexerDiff, RandomizedMixedSources) {
  // Deterministic random soup over token kinds: 64 generated programs
  // (and a parsed sample).
  Rng rng(0x5eed);
  Digest lex;
  Digest parse;
  for (int round = 0; round < 64; ++round) {
    std::string source;
    const int pieces = 20 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < pieces; ++i) {
      switch (rng.uniform_int(0, 9)) {
        case 0: source += "var v" + std::to_string(i) + " = 1;"; break;
        case 1: source += "\"s" + std::string(
            static_cast<std::size_t>(rng.uniform_int(0, 40)), 's') + "\";";
          break;
        case 2: source += "`t${i" + std::to_string(i) + "}`;"; break;
        case 3: source += "// c" + std::string(
            static_cast<std::size_t>(rng.uniform_int(0, 30)), 'c') + "\n";
          break;
        case 4: source += "/* " + std::string(
            static_cast<std::size_t>(rng.uniform_int(0, 30)), 'b') + " */";
          break;
        case 5: source += "x = 0x" + std::to_string(rng.uniform_int(1, 9)) +
                          "f + .5e2;";
          break;
        case 6: source += "r = /[a-z\\]]+/gi;"; break;
        case 7: source += "o = {a: [1, 2], b: c ? d : e};"; break;
        case 8: source += std::string(
            static_cast<std::size_t>(rng.uniform_int(1, 12)), ' ');
          break;
        default: source += "f(a, b) >>> 2 !== 3;\n"; break;
      }
    }
    lex.add(lex_fingerprint(source));
    if (round % 8 == 0) parse.add(parse_fingerprint(source));
  }
  expect_oracle("kLexRandomized", kLexRandomized, lex.value());
  expect_oracle("kParseRandomized", kParseRandomized, parse.value());
}

}  // namespace jst
