// Arena-backed parse front end (support/arena.h + lexer/parser/ast):
//
//  * Golden bit-identity: batch outcomes over the seed corpus match a
//    fixture captured on the pre-arena front end, at thread widths 1 and
//    4, governed and ungoverned. The fixture is timing-stripped NDJSON —
//    everything semantic (status, features, predictions, diagnostics)
//    must be byte-identical.
//  * Pooling correctness: a pooled-arena parse equals an owned-arena
//    parse; arena reuse leaves no stale payloads; node addresses are
//    stable across finalize(); clone() into a fresh Ast deep-copies
//    string payloads (survives the source arena's reset).
//  * Allocation-free steady state: after warm-up, repeated pooled parses
//    grow neither the arena's peak nor its capacity, and the
//    jst_arena_* metrics report reuse.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "analysis/wild.h"
#include "ast/ast_json.h"
#include "ast/walk.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "support/rng.h"
#include "transform/transform.h"
#include "strip_timing.h"

namespace jst {
namespace {

// Same corpus as test_compiled: 16 deterministic regular scripts plus one
// transformed variant per technique.
std::vector<std::string> seed_corpus() {
  analysis::CorpusSpec spec;
  spec.regular_count = 16;
  spec.seed = 424242;
  std::vector<std::string> corpus = analysis::generate_regular_corpus(spec);
  Rng rng(99);
  std::size_t base = 0;
  for (const transform::Technique technique : transform::all_techniques()) {
    corpus.push_back(
        analysis::make_transformed_sample(corpus[base % 16], technique, rng)
            .source);
    ++base;
  }
  return corpus;
}

// Same options as test_compiled's shared analyzer (and the fixture
// capture tool): small but fully exercised forests.
const analysis::TransformationAnalyzer& shared_analyzer() {
  static analysis::TransformationAnalyzer* analyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 32;
    options.per_technique_count = 6;
    options.detector.forest.tree_count = 6;
    options.detector.features.ngram.hash_dim = 64;
    options.seed = 20260806;
    auto* built = new analysis::TransformationAnalyzer(options);
    built->train();
    return built;
  }();
  return *analyzer;
}

std::vector<std::string> golden_lines() {
  std::ifstream in(std::string(JST_TEST_DATA_DIR) +
                   "/frontend_golden.ndjson");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void expect_batch_matches_golden(std::size_t threads, bool governed) {
  const std::vector<std::string> golden = golden_lines();
  ASSERT_FALSE(golden.empty()) << "fixture missing";
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::BatchOptions options;
  options.threads = threads;
  if (governed) options.limits = ResourceLimits::production();
  const analysis::BatchResponse result = service.analyze_batch(
      analysis::make_source_requests(seed_corpus()), options);
  ASSERT_EQ(result.responses.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(strip_timing(result.responses[i].outcome.to_json()), golden[i])
        << "script " << i << " threads=" << threads
        << " governed=" << governed;
  }
}

// --- golden bit-identity ---------------------------------------------------

TEST(FrontendGolden, BatchBitIdenticalSerial) {
  expect_batch_matches_golden(1, false);
}

TEST(FrontendGolden, BatchBitIdenticalFourThreads) {
  expect_batch_matches_golden(4, false);
}

TEST(FrontendGolden, BatchBitIdenticalGoverned) {
  expect_batch_matches_golden(1, true);
  expect_batch_matches_golden(4, true);
}

// --- pooled-arena parsing --------------------------------------------------

TEST(FrontendArena, PooledParseEqualsOwnedParse) {
  const std::vector<std::string> corpus = seed_corpus();
  support::Arena pool;
  for (const std::string& source : corpus) {
    const ParseResult owned = parse_program(source);
    const ParseResult pooled = parse_program(source, nullptr, &pool);
    EXPECT_EQ(ast_to_json(owned.ast.root()), ast_to_json(pooled.ast.root()));
    EXPECT_EQ(owned.token_stats.count, pooled.token_stats.count);
    EXPECT_EQ(owned.token_stats.raw_bytes, pooled.token_stats.raw_bytes);
    EXPECT_EQ(owned.comment_count, pooled.comment_count);
    EXPECT_EQ(owned.ast.node_count(), pooled.ast.node_count());
  }
}

TEST(FrontendArena, ReuseLeavesNoStalePayloads) {
  // Parse a script full of distinctive escaped payloads (cooked strings
  // live in the arena), then reuse the pool for different scripts; every
  // later parse must equal its owned-arena reference exactly.
  const std::string poison =
      "var a = \"\\x41\\u0042poison\\n\", b = `head${1 + 2}tail`;";
  const std::vector<std::string> corpus = seed_corpus();
  support::Arena pool;
  (void)parse_program(poison, nullptr, &pool);
  for (const std::string& source : corpus) {
    const ParseResult pooled = parse_program(source, nullptr, &pool);
    const ParseResult owned = parse_program(source);
    EXPECT_EQ(ast_to_json(pooled.ast.root()), ast_to_json(owned.ast.root()));
  }
  EXPECT_EQ(pool.epoch(), corpus.size() + 1);  // one reset per parse
}

TEST(FrontendArena, NodeAddressesStableAcrossFinalize) {
  support::Arena pool;
  ParseResult parsed = parse_program(
      "function f(a, b) { if (a) { return a + b; } return [a, b, a * b]; }",
      nullptr, &pool);
  std::vector<const Node*> before;
  walk_preorder(parsed.ast.root(),
                [&before](Node& node) { before.push_back(&node); });
  const std::size_t count = parsed.ast.finalize();  // re-finalize in place
  std::vector<const Node*> after;
  walk_preorder(parsed.ast.root(),
                [&after](Node& node) { after.push_back(&node); });
  EXPECT_EQ(count, before.size());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "node " << i << " moved";
    EXPECT_EQ(after[i]->id, static_cast<std::uint32_t>(i));
  }
}

TEST(FrontendArena, CloneIntoFreshArenaDeepCopiesPayloads) {
  support::Arena pool;
  const std::string source =
      "var greeting = \"\\x68ello \\u0077orld\"; var re = /a\\d+b/gi;";
  ParseResult parsed = parse_program(source, nullptr, &pool);
  const std::string reference = ast_to_json(parsed.ast.root());

  Ast fresh;  // owns a private arena
  Node* copy = fresh.clone(parsed.ast.root());
  fresh.set_root(copy);
  fresh.finalize();

  // Clobber the source arena: reset and fill it with a different script.
  // If clone() had shared payload views, the copy would now read bytes
  // from the replacement parse.
  (void)parse_program("var unrelated = 123456789; function g() {}", nullptr,
                      &pool);
  EXPECT_EQ(ast_to_json(fresh.root()), reference);
}

// The compact token stream (DESIGN.md §12): a JSFuck flood is one byte
// per token, so the arena pays a 16-byte record per source byte plus the
// AST — not a doubling array of 128-byte Tokens with every abandoned copy
// left behind (~474 B per source byte before the records).
TEST(FrontendArena, JsFuckFloodPeakBytesPerSourceByte) {
  std::string program;
  for (int i = 0; i < 12; ++i) {
    program += "var item" + std::to_string(i) + " = compute(" +
               std::to_string(i) + ", 'label');\n";
  }
  transform::NoAlnumOptions options;
  options.max_source_bytes = program.size();
  const std::string flood = transform::no_alnum_transform(program, options);
  ASSERT_GE(flood.size(), 250u * 1024u);

  support::Arena pool;
  support::AtomTable atoms;
  for (int round = 0; round < 2; ++round) {  // cold, then warm pooled arena
    const ParseResult parsed = parse_program(flood, nullptr, &pool, &atoms);
    EXPECT_EQ(parsed.token_stats.count, flood.size());
  }
  const double per_byte = static_cast<double>(pool.peak_bytes()) /
                          static_cast<double>(flood.size());
  EXPECT_LE(per_byte, 120.0) << "peak " << pool.peak_bytes() << " B for "
                             << flood.size() << " source bytes";
}

// Nested templates re-scan their enclosing text at every level (each
// substitution is lexed on its own), so a record reserve of the full
// sub-source per level would grow the arena quadratically in the nesting
// depth. Four times the depth must give about four times the arena peak
// (the quadratic reserve gave about eleven).
TEST(FrontendArena, NestedTemplateArenaGrowsLinearly) {
  const auto nested = [](int depth) {
    std::string source;
    for (int i = 0; i < depth; ++i) source += "`${";
    source += "x";
    for (int i = 0; i < depth; ++i) source += "}`";
    return source;
  };
  const auto peak = [](const std::string& source) {
    support::Arena arena;
    (void)parse_program(source, nullptr, &arena);
    return static_cast<double>(arena.peak_bytes());
  };
  const double shallow = peak(nested(100));
  const double deep = peak(nested(400));
  EXPECT_LT(deep / shallow, 6.0) << shallow << " B at depth 100, " << deep
                                 << " B at depth 400";
}

// One scratch per thread: single requests and batch lanes served on the
// same thread parse into the same pooled arena (each script resets it
// once), so a pool thread pins one arena, not one per entry point.
TEST(FrontendArena, ThreadServingBothEntryPointsOwnsOneArena) {
  const analysis::AnalyzerService service(shared_analyzer());
  const std::vector<std::string> corpus = seed_corpus();
  const support::Arena& arena = analysis::thread_script_scratch().arena;
  const std::uint64_t epoch = arena.epoch();

  (void)service.analyze(analysis::AnalyzeRequest::for_source(corpus[0]));
  EXPECT_EQ(arena.epoch(), epoch + 1);

  analysis::BatchOptions options;
  options.threads = 1;  // a serial batch runs its lane on this thread
  const std::vector<std::string> batch = {corpus[1], corpus[2]};
  (void)service.analyze_batch(analysis::make_source_requests(batch), options);
  EXPECT_EQ(arena.epoch(), epoch + 3);
}

// --- allocation-free steady state ------------------------------------------

TEST(FrontendArena, SteadyStateStopsGrowingAndReportsReuse) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const std::vector<std::string> corpus = seed_corpus();
  obs::Counter& reuses =
      obs::MetricsRegistry::global().counter("jst_arena_reuse_total");
  obs::Gauge& peak =
      obs::MetricsRegistry::global().gauge("jst_arena_peak_bytes");
  const std::uint64_t reuses_before = reuses.value();

  analysis::ScriptScratch scratch;
  // Warm-up pass: the pooled arena grows to the corpus high-water mark.
  for (const std::string& source : corpus) {
    (void)analyzer.analyze_outcome(source, ResourceLimits{}, scratch);
  }
  const std::size_t warm_peak = scratch.arena.peak_bytes();
  const std::size_t warm_capacity = scratch.arena.capacity_bytes();
  EXPECT_GT(warm_peak, 0u);

  // Steady state: two more passes reuse the warmed chunks — no growth in
  // either the per-script peak or the chunk capacity means the front end
  // performed no heap allocation for any of these scripts.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& source : corpus) {
      (void)analyzer.analyze_outcome(source, ResourceLimits{}, scratch);
    }
  }
  EXPECT_EQ(scratch.arena.peak_bytes(), warm_peak);
  EXPECT_EQ(scratch.arena.capacity_bytes(), warm_capacity);

  // Every script after the first reused the pooled arena, and the reuse
  // counter and peak gauge observed it.
  EXPECT_GE(reuses.value() - reuses_before, 3 * corpus.size() - 1);
  EXPECT_GE(peak.value(), static_cast<double>(warm_peak));
}

TEST(FrontendArena, ArenaMetricsExportedAtZero) {
  // Zero-export guarantee (same as jst_budget_* / jst_scratch_*): the
  // series exist in every export, even before any reuse happened.
  const std::string prometheus =
      obs::MetricsRegistry::global().to_prometheus();
  EXPECT_NE(prometheus.find("jst_arena_reuse_total"), std::string::npos);
  EXPECT_NE(prometheus.find("jst_arena_peak_bytes"), std::string::npos);
  EXPECT_NE(prometheus.find("jst_scratch_reuse_total"), std::string::npos);
  EXPECT_NE(prometheus.find("jst_scratch_peak_bytes"), std::string::npos);
}

}  // namespace
}  // namespace jst
