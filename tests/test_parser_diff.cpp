// Differential parser suite: the observable result of parse_program —
// the ESTree JSON of the tree, every node's pre-order id, line and
// identifier atom, the atom table, TokenStats, comment accounting, and
// every ParseError message/line/column or BudgetTrip — is fingerprinted
// and pinned to oracle constants captured from the Token-array front
// end (one 128-byte Token per lexeme, string_view punctuator compares).
// The compact token stream (16-byte records, integer punctuator/keyword
// ids, payload side table; DESIGN.md §12) must reproduce every
// fingerprint bit for bit over JSFuck chains, 600-deep nesting, ASI edge
// cases, regex-vs-division contexts, escaped strings and identifiers,
// and templates with nested substitutions. The Lexer::next() adapter is
// pinned the same way, field by field. The suite carries the
// `robustness` label so the asan/ubsan presets run the record scanner
// and the pooled arena under the sanitizers, and it runs in the
// JST_THREADS 1/4 matrix alongside the other bit-identity gates.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "ast/ast_json.h"
#include "ast/walk.h"
#include "lexer/lexer.h"
#include "parser/parser.h"
#include "support/arena.h"
#include "support/atom.h"
#include "support/budget.h"
#include "support/rng.h"
#include "transform/transform.h"

namespace jst {
namespace {

// FNV-1a 64: cheap, dependency-free, and stable across platforms.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
}

void append_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

// Everything a consumer can observe about one parse_program call. With
// `arena`/`atoms` set the parse runs pooled, exactly as the serving
// front end does; `limits` attaches a Budget the way the pipeline does.
std::string parse_fingerprint_text(const std::string& source,
                                   const ResourceLimits& limits = {},
                                   support::Arena* arena = nullptr,
                                   support::AtomTable* atoms = nullptr) {
  Budget budget(limits);
  std::string out;
  try {
    const ParseResult result =
        parse_program(source, limits.any_enabled() ? &budget : nullptr,
                      arena, atoms);
    out = ast_to_json(result.ast.root());
    out += '\n';
    const support::AtomTable& table = result.ast.atoms();
    for_each_preorder(result.ast.root(), [&](const Node& node) {
      append_u64(out, node.id);
      out += ':';
      append_u64(out, node.line);
      if (node.atom != support::AtomTable::kNoAtom) {
        out += '@';
        append_u64(out, node.atom);
        const std::string_view name = table.name(node.atom);
        if (name != node.str_value) out += "!atom-mismatch";
      }
      out += ' ';
    });
    out += "\natoms=";
    append_u64(out, table.size());
    out += " nodes=";
    append_u64(out, result.ast.node_count());
    out += " tokens=";
    append_u64(out, result.token_stats.count);
    out += " punct=";
    append_u64(out, result.token_stats.punctuators);
    out += " maxline=";
    append_u64(out, result.token_stats.max_line_length);
    out += " raw=";
    append_double(out, result.token_stats.raw_bytes);
    out += " comments=";
    append_u64(out, result.comment_count);
    out += '/';
    append_u64(out, result.comment_bytes);
    out += " bytes=";
    append_u64(out, result.source_bytes);
    out += " lines=";
    append_u64(out, result.source_lines);
  } catch (const ParseError& error) {
    out = "parse_error ";
    out += error.what();
    out += " @";
    append_u64(out, error.line());
    out += ':';
    append_u64(out, error.column());
  } catch (const BudgetExceeded& error) {
    out = "budget_trip ";
    out += error.trip().stage;
    out += ' ';
    out += error.what();
  }
  return out;
}

std::uint64_t parse_fingerprint(const std::string& source,
                                const ResourceLimits& limits = {}) {
  return fnv1a(parse_fingerprint_text(source, limits));
}

// The Token adapter (Lexer::next): every field of every token, then the
// comment accounting and final line — or the exact lexing error.
std::string token_fingerprint_text(const std::string& source) {
  support::Arena arena;
  Lexer lexer(source, arena);
  std::string out;
  try {
    while (true) {
      const Token token = lexer.next();
      out += token_type_name(token.type);
      out += ' ';
      append_u64(out, token.offset);
      out += ':';
      append_u64(out, token.line);
      out += ':';
      append_u64(out, token.column);
      out += token.newline_before ? " nl " : " - ";
      out.append(token.value.data(), token.value.size());
      out += '\x1f';
      out.append(token.raw.data(), token.raw.size());
      out += '\x1f';
      if (token.type == TokenType::kNumericLiteral) {
        append_double(out, token.number);
      }
      out.append(token.regex_flags.data(), token.regex_flags.size());
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
      if (token.type == TokenType::kEndOfFile) break;
    }
  } catch (const ParseError& error) {
    out += "parse_error ";
    out += error.what();
  }
  out += " comments=";
  append_u64(out, lexer.comment_count());
  out += '/';
  append_u64(out, lexer.comment_bytes());
  out += " line=";
  append_u64(out, lexer.line());
  return out;
}

// Concatenated fingerprint of a list of sources (one constant per family).
std::uint64_t corpus_fingerprint(const std::vector<std::string>& sources,
                                 const ResourceLimits& limits = {}) {
  std::string all;
  for (const std::string& source : sources) {
    all += parse_fingerprint_text(source, limits);
    all += '\x1e';
  }
  return fnv1a(all);
}

std::uint64_t token_corpus_fingerprint(
    const std::vector<std::string>& sources) {
  std::string all;
  for (const std::string& source : sources) {
    all += token_fingerprint_text(source);
    all += '\x1e';
  }
  return fnv1a(all);
}

// --- input families -------------------------------------------------------

// JSFuck encodings of small programs (the six-character alphabet, one
// byte per token) plus hand-written coercion chains.
std::vector<std::string> jsfuck_sources() {
  return {
      transform::no_alnum_transform("alert(1);"),
      transform::no_alnum_transform(
          "var answer = 42; console.log(answer + 'x');"),
      "[][(![]+[])[+[]]+(![]+[])[!+[]+!+[]]+(![]+[])[+!+[]]+(!![]+[])[+[]]]",
      "+!+[]+!+[]+[+[]]+(!![]+[])[+!+[]]+(![]+[])[!+[]+!+[]+!+[]]",
      "(+[![]]+[])[+!+[]]+([![]]+[][[]])[+!+[]+[+[]]]",
  };
}

// 600-deep nesting of every bracketing production. Parenthesised and
// array nesting recurse twice per level (assignment + unary guards) and
// hit the parser's hard recursion guard; blocks recurse once per level
// and parse.
std::vector<std::string> deep_nesting_sources() {
  const auto nest = [](const char* open, const char* middle,
                       const char* close, int depth) {
    std::string source;
    for (int i = 0; i < depth; ++i) source += open;
    source += middle;
    for (int i = 0; i < depth; ++i) source += close;
    return source;
  };
  return {
      nest("(", "x", ")", 600),
      nest("[", "1", "]", 600),
      nest("{", "x;", "}", 600),
      nest("-", "x", "", 600),
      nest("f(", "0", ")", 300),
      nest("{a:", "1", "}", 300),
      nest("if (a) ", "b;", "", 600),
      "var x = " + nest("(", "1", ")", 200) + ";",
  };
}

// Automatic semicolon insertion and the newline-sensitive productions.
std::vector<std::string> asi_sources() {
  return {
      "a\nb\nc",
      "var a = 1\nvar b = 2\n",
      "return\nx",
      "function f() { return\n42 }",
      "a\n++b",
      "a++\nb",
      "x = y\n(z)",
      "i\n--\nj",
      "do x++; while (x < 3) y()",
      "throw\nnew Error()",
      "for (;;) { break\nlabel }",
      "l: while (1) { continue\nl }",
      "var a = async\nfunction f() {}",
      "let\nx = 1",
      "a = b\n/re/g.test(c)",
      "{ 1\n2 } 3",
      "var f = x\n=> x",
      "if (a) b\nelse c",
  };
}

// '/' after every kind of previous token: regex vs division.
std::vector<std::string> regex_division_sources() {
  return {
      "a / b / c",
      "x = /re/g.test(s)",
      "x = (a) / 2 / (b)",
      "x = arr[0] / 2",
      "x = this / 2",
      "if (a) /foo/.test(b)",
      "x = a++ / 2",
      "x = 'a' / 1; y = 2 / 1; z = `t` / 1",
      "x = true / 1; y = null / 1",
      "x = typeof /re/",
      "return /x/i",
      "}/re/",
      "x = {} / 1",
      "a = b ? /c/ : /d/gim",
      "x = /[/]\\//.source",
      "x /= 2; y = /=/",
      "x = /a/ / /b/",
  };
}

// Escaped strings and identifiers (cooked payloads differ from raw).
std::vector<std::string> escape_sources() {
  return {
      "var s = '\\x41\\u0042\\n\\t\\r\\b\\f\\v\\0';",
      "var s = \"\\u{1F600} \\u00e9 \\u0800\";",
      "var s = '\\101\\7\\08\\377';",
      "var s = 'line\\\ncontinued', t = \"cr\\\r\nlf\";",
      "var \\u0061bc = 1; \\u{62}cd = \\u0061bc;",
      "\\u0069f (x) y();",
      "var o = { '\\x6b': 1, \"\\u006b2\": 2 }; o['\\x6b'];",
      "var s = 'it\\'s', t = \"say \\\"hi\\\"\", u = '\\\\';",
      "var n = [0x1F, 0b101, 0o17, 017, 019, .5, 1e3, 2.5E-3, 0];",
      "var q = 'caf\xc3\xa9', \xc3\xa9t\xc3\xa9 = 1;",
  };
}

// Templates: nested substitutions, tagged forms, comments and strings
// with braces inside substitutions.
std::vector<std::string> template_sources() {
  return {
      "var t = `plain`;",
      "var t = `a${b}c${d + 1}e`;",
      "var t = `outer ${`inner ${x + `deep ${y}`}`} end`;",
      "var t = tag`hello ${name}!`;",
      "var t = `${ {a: 1}.a } ${'}'} ${\"{\"}`;",
      "var t = `x${a /* c } */ + b}y${c // }\n}z`;",
      "var t = `multi\nline ${\n  value\n} text`;",
      "var t = `esc \\` \\${not} $ {also not}`;",
      "var t = `${`${`${`${x}`}`}`}`;",
      "f`a``b`;",
      "var t = `${a}${b}${c}`;",
  };
}

// One malformed input per lexer/parser error path: message, line and
// column are all part of the contract.
std::vector<std::string> error_sources() {
  return {
      "var = ;",
      "function f() { if (a) {",
      "var s = 'unterminated",
      "var s = 'new\nline';",
      "/* never closed",
      "var r = /unterminated",
      "var r = /new\nline/;",
      "var t = `unterminated",
      "var t = `${unterminated`",
      "var n = 0x;",
      "var n = 3in x;",
      "var n = 1e;",
      "var a = \\u00zz;",
      "var a = \\q;",
      "var s = '\\xZZ';",
      "a #b",
      "function () {}",
      "class {}",
      "try {}",
      "x = (1,;",
      "({a b})",
      "for (var i = 0; i < 3 i++) {}",
      "\n\n   foo bar",
      "switch (x) { case 1: ",
      "x = {get a() {}, *b}",
      "var t = `${a b}`;",
      "var t = `ok ${1 +}`;",
      "new",
      "a.",
      "a ? b",
      "var [a, b",
      "var {a: }",
      "throw",
      "x = y\n@",
      "if (a) else b",
      "let [",
      "return )",
      "a => {",
      "x = 1 +",
      "var x = async () =>",
  };
}

// A fixture exercising every statement and expression form the parser
// handles.
const char* kGrammarFixture = R"js(
'use strict';
var a = 1, b, [c, , d = 2, ...e] = arr, {f, g: h, i = 3, ...j} = obj;
let k = a ?? b, l = a?.b?.[c]?.(d);
const m = (x, y = 1, ...z) => x + y, n = async x => await x, o = async (p) => p;
function* gen(q) { yield q; yield* other(); }
async function af() { await 1; for (const r of s) {} for (var t in u) {} }
class A extends (B || C) {
  constructor(v) { super(v); this.v = v; }
  static create() { return new A(1); }
  get value() { return this.v; }
  set value(w) { this.v = w; }
  async load() {}
  *items() {}
  ['comp' + 'uted']() {}
  static async *both() {}
}
var obj2 = { a, b: 2, [c]: 3, d() {}, get e() { return 1; }, set e(v) {},
             async f() {}, *g() {}, ...rest, 'str': 4, 5: 6, if: 7, null: 8 };
label: for (var i = 0; i < 10; i++) { if (i) continue label; else break label; }
while (a) { a--; } do { b++; } while (b < 3);
switch (a) { case 1: case 2: b(); break; default: c(); }
try { risky(); } catch (err) { handle(err); } finally { done(); }
try { x(); } catch { y(); }
with (obj) { prop = 1; }
debugger;
x = a ? b : c ? d : e;
x = a || b && c | d ^ e & f == g != h === i !== j < k > l <= m >= n;
x = a << b >> c >>> d + e - f * g / h % i ** j ** k;
x = a instanceof B, y = 'k' in o, z = typeof a, w = void 0, v = delete o.p;
x += 1; x -= 1; x *= 2; x /= 2; x %= 3; x <<= 1; x >>= 1; x >>>= 1;
x &= 1; x |= 1; x ^= 1; x **= 2; x &&= y; x ||= y; x ??= y;
x = !a, y = ~b, z = -c, w = +d, v = ++e, u = f--;
x = new Foo, y = new Foo(1, ...args), z = new new Bar()(), w = new a.b.C();
x = [1, , 3, ...more]; y = (1, 2, 3); z = function named() {}; q = class {};
x = this.a[b](c)(d).e`tpl`;
x = /re/g; y = null; z = true; w = false; v = 1.5e3; u = 0xff;
if (a) b(); else if (c) d(); else { e(); }
for (;;) break;
for (let [k, v] of map) {}
for (x in y);
;
(function iife() {})();
(() => {})();
var yield = 1;
var let_ = let => let;
)js";

// The regular corpus plus one transformed variant per technique: the
// same shapes the detectors train and serve on.
std::vector<std::string> technique_sources() {
  analysis::CorpusSpec spec;
  spec.regular_count = 12;
  spec.seed = 1312;
  std::vector<std::string> corpus = analysis::generate_regular_corpus(spec);
  Rng rng(77);
  std::size_t base = 0;
  for (const transform::Technique technique : transform::all_techniques()) {
    corpus.push_back(
        analysis::make_transformed_sample(corpus[base % 12], technique, rng)
            .source);
    ++base;
  }
  return corpus;
}

// --- oracle constants ---------------------------------------------------
//
// Captured from the Token-array front end (the parent of the compact
// token stream) by running this suite with JST_PRINT_ORACLES=1. A change
// to any constant is a behavior change in the front end and needs a
// deliberate re-capture, not a drive-by edit.

constexpr std::uint64_t kOracleJsFuck = 0xb3d86a422323e746;
constexpr std::uint64_t kOracleDeepNesting = 0x51745dc47c319ee2;
constexpr std::uint64_t kOracleDeepNestingGoverned = 0x40db222afb84aefe;
constexpr std::uint64_t kOracleAsi = 0xa938e89e3b8ddc22;
constexpr std::uint64_t kOracleRegexDivision = 0x7490de5e62f60a55;
constexpr std::uint64_t kOracleEscapes = 0xc6c3429bbc53b834;
constexpr std::uint64_t kOracleTemplates = 0x6cf90a5e1f49492f;
constexpr std::uint64_t kOracleErrors = 0x3f7d4511ecdb18e1;
constexpr std::uint64_t kOracleGrammar = 0x27c339331bf85bb9;
constexpr std::uint64_t kOracleTechniques = 0x90939972848efc9;
constexpr std::uint64_t kOracleTokenBudget = 0x95fba84c9e0de1eb;
constexpr std::uint64_t kOracleTokensAdapter = 0xbf5bd584a0baf5dc;

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

// --- tests --------------------------------------------------------------

TEST(ParserDiff, JsFuckChainsMatchOracle) {
  expect_oracle("kOracleJsFuck", kOracleJsFuck,
                corpus_fingerprint(jsfuck_sources()));
}

TEST(ParserDiff, DeepNestingMatchesOracle) {
  expect_oracle("kOracleDeepNesting", kOracleDeepNesting,
                corpus_fingerprint(deep_nesting_sources()));
}

// The production depth ceiling (512) sits below the hard recursion
// guard, so the same inputs trip as structured budget errors.
TEST(ParserDiff, DeepNestingGovernedMatchesOracle) {
  expect_oracle("kOracleDeepNestingGoverned", kOracleDeepNestingGoverned,
                corpus_fingerprint(deep_nesting_sources(),
                                   ResourceLimits::production()));
}

TEST(ParserDiff, AsiEdgeCasesMatchOracle) {
  expect_oracle("kOracleAsi", kOracleAsi, corpus_fingerprint(asi_sources()));
}

TEST(ParserDiff, RegexDivisionContextsMatchOracle) {
  expect_oracle("kOracleRegexDivision", kOracleRegexDivision,
                corpus_fingerprint(regex_division_sources()));
}

TEST(ParserDiff, EscapedStringsAndIdentifiersMatchOracle) {
  expect_oracle("kOracleEscapes", kOracleEscapes,
                corpus_fingerprint(escape_sources()));
}

TEST(ParserDiff, NestedTemplatesMatchOracle) {
  expect_oracle("kOracleTemplates", kOracleTemplates,
                corpus_fingerprint(template_sources()));
}

TEST(ParserDiff, EveryErrorPositionMatchesOracle) {
  expect_oracle("kOracleErrors", kOracleErrors,
                corpus_fingerprint(error_sources()));
}

TEST(ParserDiff, GrammarFixtureMatchesOracle) {
  expect_oracle("kOracleGrammar", kOracleGrammar,
                parse_fingerprint(kGrammarFixture));
}

TEST(ParserDiff, TechniqueCorpusMatchesOracle) {
  expect_oracle("kOracleTechniques", kOracleTechniques,
                corpus_fingerprint(technique_sources()));
}

// Token charging (template substitutions are lexed by a nested scanner
// that charges the same budget) trips at the same token in the same
// stage.
TEST(ParserDiff, TokenBudgetTripMatchesOracle) {
  ResourceLimits limits;
  limits.max_tokens = 40;
  std::vector<std::string> sources = template_sources();
  sources.push_back(jsfuck_sources().front());
  sources.push_back(kGrammarFixture);
  expect_oracle("kOracleTokenBudget", kOracleTokenBudget,
                corpus_fingerprint(sources, limits));
}

// The Token adapter over the record scanner: every field of every token
// for every family above.
TEST(ParserDiff, TokenAdapterMatchesOracle) {
  std::vector<std::string> sources;
  for (auto family : {asi_sources(), regex_division_sources(),
                      escape_sources(), template_sources(), error_sources(),
                      jsfuck_sources()}) {
    sources.insert(sources.end(), family.begin(), family.end());
  }
  sources.push_back(kGrammarFixture);
  expect_oracle("kOracleTokensAdapter", kOracleTokensAdapter,
                token_corpus_fingerprint(sources));
}

// One pooled arena + atom table reused across every family must
// reproduce the owned-arena fingerprint for every script — twice, so
// capacity grown by the big scripts is replayed over the small ones.
TEST(ParserDiff, PooledParseIsObservationallyIdentical) {
  std::vector<std::string> corpus;
  for (auto family : {jsfuck_sources(), deep_nesting_sources(),
                      asi_sources(), escape_sources(), template_sources(),
                      error_sources()}) {
    corpus.insert(corpus.end(), family.begin(), family.end());
  }
  corpus.push_back(kGrammarFixture);
  std::vector<std::string> owned;
  owned.reserve(corpus.size());
  for (const std::string& source : corpus) {
    owned.push_back(parse_fingerprint_text(source));
  }
  support::Arena arena;
  support::AtomTable atoms;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(owned[i],
                parse_fingerprint_text(corpus[i], {}, &arena, &atoms))
          << "script " << i << " round " << round;
    }
  }
}

}  // namespace
}  // namespace jst
