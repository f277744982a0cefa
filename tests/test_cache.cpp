// Content-addressed result cache (DESIGN.md §15): key derivation, the
// two-tier ResultCache, the cache-aware AnalyzerService request path,
// and the wire v3 cache fields.
//
//  * Bit-identity: a cache hit returns byte-identical outcomes to
//    recomputation (round-trip through the record format included), for
//    serial and four-wide batches, cache on or off.
//  * Key isolation: model fingerprint and limits fingerprint partition
//    the key space — the same source under different governance or a
//    different model never aliases.
//  * Durability: the disk tier survives restart and memory eviction; a
//    torn tail truncates back to the last good record; a foreign header
//    discards the file instead of reinterpreting it.
//  * Staleness rules: budget/deadline/degraded outcomes are never
//    stored; refresh recomputes and overwrites (last record wins).
//  * Wire v3: cache_mode round-trips, stays off the wire when default,
//    is rejected under a pinned v1/v2, and v2 lines parse identically.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/longitudinal.h"
#include "analysis/pipeline.h"
#include "analysis/result_cache.h"
#include "analysis/service.h"
#include "analysis/wild.h"
#include "analysis/wire.h"
#include "support/json_reader.h"
#include "support/rng.h"
#include "transform/transform.h"
#include "strip_timing.h"

namespace jst {
namespace {

// Same corpus as test_frontend/test_server: 16 deterministic regular
// scripts plus one transformed variant per technique — all distinct
// bytes, so batch-level cache accounting is exact.
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

// A second trained model with a different seed: same API, different
// fingerprint — the model axis of the key space.
const analysis::TransformationAnalyzer& other_analyzer() {
  static analysis::TransformationAnalyzer* analyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 32;
    options.per_technique_count = 6;
    options.detector.forest.tree_count = 6;
    options.detector.features.ngram.hash_dim = 64;
    options.seed = 777;
    auto* built = new analysis::TransformationAnalyzer(options);
    built->train();
    return built;
  }();
  return *analyzer;
}

// RAII scratch directory for disk-tier tests.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/jst_cache_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (path.empty()) return;
    const std::string record = path + "/results.ndjson";
    ::unlink(record.c_str());
    ::rmdir(path.c_str());
  }
  std::string path;
};

analysis::ScriptOutcome analyze_outcome_of(const std::string& source) {
  const analysis::AnalyzerService service(shared_analyzer());
  return service.analyze(analysis::AnalyzeRequest::for_source(source)).outcome;
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return all;
}

// --- key derivation --------------------------------------------------------

TEST(LimitsFingerprint, DistinguishesEveryCeiling) {
  const std::string base = analysis::limits_fingerprint(ResourceLimits{});
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base.find_first_not_of("0123456789abcdef"), std::string::npos);

  ResourceLimits variants[6];
  variants[0].max_source_bytes = 1024;
  variants[1].max_tokens = 1024;
  variants[2].max_ast_nodes = 1024;
  variants[3].max_ast_depth = 1024;
  variants[4].max_dataflow_edges = 1024;
  variants[5].deadline_ms = 1024.0;
  std::vector<std::string> fingerprints = {base};
  for (const ResourceLimits& limits : variants) {
    const std::string fingerprint = analysis::limits_fingerprint(limits);
    for (const std::string& prior : fingerprints) {
      EXPECT_NE(fingerprint, prior);
    }
    fingerprints.push_back(fingerprint);
  }
  // Deterministic: same limits, same fingerprint.
  EXPECT_EQ(analysis::limits_fingerprint(ResourceLimits::production()),
            analysis::limits_fingerprint(ResourceLimits::production()));
}

TEST(CacheKey, ComposesContentModelLimitsAndWireVersion) {
  const std::string content = analysis::content_hash("var x = 1;");
  const std::string key =
      analysis::ResultCache::make_key(content, "00ff00ff00ff00ff",
                                      ResourceLimits::production());
  EXPECT_NE(key.find(content), std::string::npos);
  EXPECT_NE(key.find("00ff00ff00ff00ff"), std::string::npos);
  EXPECT_NE(key.find(analysis::limits_fingerprint(
                ResourceLimits::production())),
            std::string::npos);
  EXPECT_NE(key.find("|v" + std::to_string(
                analysis::wire::kWireFormatVersion)),
            std::string::npos);
  // Any component change changes the key.
  EXPECT_NE(key, analysis::ResultCache::make_key(
                     analysis::content_hash("var x = 2;"),
                     "00ff00ff00ff00ff", ResourceLimits::production()));
  EXPECT_NE(key, analysis::ResultCache::make_key(content, "deadbeefdeadbeef",
                                                 ResourceLimits::production()));
  EXPECT_NE(key, analysis::ResultCache::make_key(content, "00ff00ff00ff00ff",
                                                 ResourceLimits{}));
}

// --- record round-trip -----------------------------------------------------

TEST(OutcomeRoundTrip, ParseReproducesWireBytesExactly) {
  // The cache's bit-identity rests on this invariant: for every outcome
  // shape the pipeline produces (ok, parse error, ineligible-size,
  // ineligible-ast), deserializing the kFull wire JSON and re-serializing
  // reproduces the original bytes.
  std::vector<std::string> sources = seed_corpus();
  sources.push_back("var = ;;; {{{");                              // parse error
  sources.push_back("var tiny = 1;");                              // < 512 bytes
  sources.push_back("var filler = \"" + std::string(600, 'a') + "\";");  // no AST
  for (const std::string& source : sources) {
    const analysis::ScriptOutcome outcome = analyze_outcome_of(source);
    const std::string json = analysis::wire::script_outcome_json(outcome);
    std::string error;
    const std::optional<support::JsonValue> document =
        support::parse_json(json, &error);
    ASSERT_TRUE(document.has_value()) << error;
    const std::optional<analysis::ScriptOutcome> parsed =
        analysis::parse_script_outcome(*document);
    ASSERT_TRUE(parsed.has_value()) << json;
    EXPECT_EQ(analysis::wire::script_outcome_json(*parsed), json);
  }
}

TEST(OutcomeRoundTrip, RejectsStructuralDamage) {
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var ok = 1;"
      " function f(a) { return a + ok; } f(1);");
  const std::string json = analysis::wire::script_outcome_json(outcome);
  std::string error;
  // Unknown status string.
  std::string bad = json;
  bad.replace(bad.find("\"status\":\"") + 10, 2, "zz");
  const auto damaged = support::parse_json(bad, &error);
  ASSERT_TRUE(damaged.has_value());
  EXPECT_FALSE(analysis::parse_script_outcome(*damaged).has_value());
  // Not an object at all.
  const auto scalar = support::parse_json("42", &error);
  ASSERT_TRUE(scalar.has_value());
  EXPECT_FALSE(analysis::parse_script_outcome(*scalar).has_value());
}

// --- ResultCache unit behavior --------------------------------------------

TEST(ResultCache, HitMissAndStoreCounters) {
  analysis::ResultCache cache({});
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const std::string key = "k1|m|l|v3";
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.store(key, outcome);
  const std::optional<analysis::ScriptOutcome> hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit),
            analysis::wire::script_outcome_json(outcome));
  cache.note_bypass();
  const analysis::ResultCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.stores, 1u);
  EXPECT_EQ(counters.bypasses, 1u);
  EXPECT_EQ(counters.entries, 1u);
  EXPECT_GT(counters.bytes, 0u);
}

TEST(ResultCache, NeverStoresUnsettledOutcomes) {
  analysis::ResultCache cache({});
  analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const analysis::ScriptStatus unsettled[] = {
      analysis::ScriptStatus::kBudgetTokens,
      analysis::ScriptStatus::kBudgetAstNodes,
      analysis::ScriptStatus::kBudgetDepth,
      analysis::ScriptStatus::kBudgetDataflow,
      analysis::ScriptStatus::kDeadlineExceeded,
      analysis::ScriptStatus::kDegraded,
  };
  std::size_t i = 0;
  for (const analysis::ScriptStatus status : unsettled) {
    outcome.status = status;
    EXPECT_FALSE(analysis::ResultCache::cacheable(outcome));
    const std::string key = "unsettled-" + std::to_string(i++);
    cache.store(key, outcome);
    EXPECT_FALSE(cache.contains(key));
  }
  EXPECT_EQ(cache.counters().stores, 0u);
  // The settled statuses are cacheable.
  outcome.status = analysis::ScriptStatus::kOk;
  EXPECT_TRUE(analysis::ResultCache::cacheable(outcome));
  outcome.status = analysis::ScriptStatus::kParseError;
  EXPECT_TRUE(analysis::ResultCache::cacheable(outcome));
}

TEST(ResultCache, LruEvictsByByteBudgetOldestFirst) {
  analysis::ResultCache::Config config;
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  const std::size_t one_entry_bytes =
      analysis::wire::script_outcome_json(outcome).size() + 64;
  config.max_bytes = one_entry_bytes * 3;  // room for ~3 entries
  analysis::ResultCache cache(config);
  for (int i = 0; i < 8; ++i) {
    cache.store("key-" + std::to_string(i), outcome);
  }
  const analysis::ResultCache::Counters counters = cache.counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LT(counters.entries, 8u);
  EXPECT_LE(counters.bytes, config.max_bytes);
  // Newest still resident; oldest gone (memory-only cache: gone = gone).
  EXPECT_TRUE(cache.contains("key-7"));
  EXPECT_FALSE(cache.contains("key-0"));
}

// --- disk tier -------------------------------------------------------------

TEST(ResultCacheDisk, SurvivesRestartBitIdentically) {
  TempDir dir;
  const analysis::ScriptOutcome outcome =
      analyze_outcome_of("var persisted = 42;");
  const std::string json = analysis::wire::script_outcome_json(outcome);
  {
    analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
    ASSERT_TRUE(cache.load_error().empty()) << cache.load_error();
    cache.store("persist-key", outcome);
  }
  analysis::ResultCache reopened({dir.path, std::size_t{64} << 20});
  EXPECT_TRUE(reopened.load_error().empty()) << reopened.load_error();
  EXPECT_EQ(reopened.counters().disk_records, 1u);
  const std::optional<analysis::ScriptOutcome> hit =
      reopened.lookup("persist-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit), json);
}

TEST(ResultCacheDisk, MemoryEvictionFallsBackToDisk) {
  TempDir dir;
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  analysis::ResultCache::Config config;
  config.dir = dir.path;
  config.max_bytes =
      (analysis::wire::script_outcome_json(outcome).size() + 64) * 2;
  analysis::ResultCache cache(config);
  for (int i = 0; i < 6; ++i) {
    cache.store("spill-" + std::to_string(i), outcome);
  }
  ASSERT_GT(cache.counters().evictions, 0u);
  // Evicted from memory, but the disk tier still resolves it — and the
  // lookup counts as a hit, then promotes back into memory.
  const std::uint64_t hits_before = cache.counters().hits;
  const std::optional<analysis::ScriptOutcome> hit = cache.lookup("spill-0");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.counters().hits, hits_before + 1);
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit),
            analysis::wire::script_outcome_json(outcome));
}

TEST(ResultCacheDisk, LastRecordWinsOnReload) {
  TempDir dir;
  const analysis::ScriptOutcome first = analyze_outcome_of("var a = 1;");
  const analysis::ScriptOutcome second =
      analyze_outcome_of("var bbbb = 2; function g(x) { return x; } g(2);");
  ASSERT_NE(analysis::wire::script_outcome_json(first),
            analysis::wire::script_outcome_json(second));
  {
    analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
    cache.store("dup-key", first);
    cache.store("dup-key", second);  // refresh path: append, not rewrite
  }
  analysis::ResultCache reopened({dir.path, std::size_t{64} << 20});
  EXPECT_EQ(reopened.counters().disk_records, 1u);  // one live key
  const std::optional<analysis::ScriptOutcome> hit =
      reopened.lookup("dup-key");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(analysis::wire::script_outcome_json(*hit),
            analysis::wire::script_outcome_json(second));
}

TEST(ResultCacheDisk, TornTailTruncatesToLastGoodRecord) {
  TempDir dir;
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  std::string record_path;
  std::size_t good_size = 0;
  {
    analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
    for (int i = 0; i < 3; ++i) {
      cache.store("good-" + std::to_string(i), outcome);
    }
    record_path = cache.path();
  }
  good_size = file_contents(record_path).size();
  {
    // Simulate a crash mid-append: a torn, unterminated record tail.
    std::ofstream out(record_path, std::ios::app | std::ios::binary);
    out << "{\"key\":\"torn-key\",\"outcome\":{\"status\":\"ok";
  }
  analysis::ResultCache recovered({dir.path, std::size_t{64} << 20});
  // The torn record is diagnosed and truncated away; the good prefix
  // survives intact.
  EXPECT_FALSE(recovered.load_error().empty());
  EXPECT_EQ(recovered.counters().disk_records, 3u);
  EXPECT_FALSE(recovered.contains("torn-key"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(recovered.contains("good-" + std::to_string(i)));
  }
  EXPECT_EQ(file_contents(record_path).size(), good_size);
  // And the truncated file appends cleanly again.
  recovered.store("after-recovery", outcome);
  analysis::ResultCache again({dir.path, std::size_t{64} << 20});
  EXPECT_TRUE(again.load_error().empty()) << again.load_error();
  EXPECT_EQ(again.counters().disk_records, 4u);
}

TEST(ResultCacheDisk, ForeignHeaderDiscardsFile) {
  TempDir dir;
  const std::string record_path = dir.path + "/results.ndjson";
  {
    std::ofstream out(record_path, std::ios::binary);
    out << "{\"magic\":\"jstcache\",\"version\":999,\"wire\":999}\n"
        << "{\"key\":\"old-schema\",\"outcome\":{}}\n";
  }
  analysis::ResultCache cache({dir.path, std::size_t{64} << 20});
  EXPECT_FALSE(cache.load_error().empty());
  EXPECT_EQ(cache.counters().disk_records, 0u);
  EXPECT_FALSE(cache.contains("old-schema"));
  // The file was re-headered for the current schema and is usable.
  const analysis::ScriptOutcome outcome = analyze_outcome_of("var a = 1;");
  cache.store("fresh", outcome);
  analysis::ResultCache reopened({dir.path, std::size_t{64} << 20});
  EXPECT_TRUE(reopened.load_error().empty()) << reopened.load_error();
  EXPECT_TRUE(reopened.contains("fresh"));
}

// --- cache-aware service path ---------------------------------------------

TEST(ServiceCache, SecondPassHitsAreByteIdentical) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(seed_corpus());

  analysis::BatchOptions serial;
  serial.threads = 1;
  const analysis::BatchResponse cold = service.analyze_batch(requests, serial);
  const analysis::ResultCache::Counters after_cold = cache.counters();
  EXPECT_EQ(after_cold.misses, requests.size());
  EXPECT_EQ(after_cold.hits, 0u);

  const analysis::BatchResponse warm = service.analyze_batch(requests, serial);
  const analysis::ResultCache::Counters after_warm = cache.counters();
  // The acceptance gate: hit count equals the repeat count.
  EXPECT_EQ(after_warm.hits, requests.size());
  EXPECT_EQ(after_warm.misses, after_cold.misses);

  ASSERT_EQ(cold.responses.size(), warm.responses.size());
  for (std::size_t i = 0; i < cold.responses.size(); ++i) {
    EXPECT_EQ(cold.responses[i].cache, analysis::CacheState::kMiss) << i;
    EXPECT_EQ(warm.responses[i].cache, analysis::CacheState::kHit) << i;
    // A hit returns the stored outcome — original timings included, so
    // the bytes match without stripping.
    EXPECT_EQ(warm.responses[i].outcome.to_json(),
              cold.responses[i].outcome.to_json())
        << "script " << i;
  }
  // Batch stats over hits tally statuses exactly like the cold pass.
  EXPECT_EQ(warm.stats.ok, cold.stats.ok);
  EXPECT_EQ(warm.stats.parse_errors, cold.stats.parse_errors);
  EXPECT_EQ(warm.stats.total, cold.stats.total);
}

// A hit's stored timings describe the analysis that filled the entry, so
// BatchStats counts it in cache_hits, keeps it out of the stage sums, and
// samples its served cost (the lookup) for the percentiles.
TEST(ServiceCache, WarmBatchStatsCountHitsAtLookupCost) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(seed_corpus());
  analysis::BatchOptions serial;
  serial.threads = 1;
  const analysis::BatchResponse cold = service.analyze_batch(requests, serial);
  const analysis::BatchResponse warm = service.analyze_batch(requests, serial);

  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_GT(cold.stats.total_script_ms, 0.0);
  EXPECT_GT(cold.stats.stage_ms_sum(), 0.0);

  EXPECT_EQ(warm.stats.cache_hits, requests.size());
  EXPECT_EQ(warm.stats.total, requests.size());
  EXPECT_EQ(warm.stats.static_analysis_ms, 0.0);
  EXPECT_EQ(warm.stats.features_ms, 0.0);
  EXPECT_EQ(warm.stats.inference_ms, 0.0);
  EXPECT_EQ(warm.stats.total_script_ms, 0.0);
  EXPECT_LE(warm.stats.p50_script_ms, cold.stats.p50_script_ms);
  // The field is appended last, after every pre-existing one.
  const std::string json = warm.stats.to_json();
  const std::string tail =
      "\"cache_hits\":" + std::to_string(requests.size()) + "}";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.substr(json.size() - tail.size()), tail) << json;
}

void expect_cache_on_off_bit_identical(std::size_t threads) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService cached(shared_analyzer(), &cache);
  const analysis::AnalyzerService plain(shared_analyzer());
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(seed_corpus());
  analysis::BatchOptions options;
  options.threads = threads;

  const analysis::BatchResponse off = plain.analyze_batch(requests, options);
  const analysis::BatchResponse miss = cached.analyze_batch(requests, options);
  const analysis::BatchResponse hit = cached.analyze_batch(requests, options);
  ASSERT_EQ(off.responses.size(), miss.responses.size());
  ASSERT_EQ(off.responses.size(), hit.responses.size());
  for (std::size_t i = 0; i < off.responses.size(); ++i) {
    const std::string baseline = strip_timing(off.responses[i].outcome.to_json());
    EXPECT_EQ(strip_timing(miss.responses[i].outcome.to_json()), baseline)
        << "miss path, script " << i << " threads=" << threads;
    EXPECT_EQ(strip_timing(hit.responses[i].outcome.to_json()), baseline)
        << "hit path, script " << i << " threads=" << threads;
    EXPECT_EQ(off.responses[i].cache, analysis::CacheState::kNone);
  }
}

TEST(ServiceCache, CacheOnOffBitIdenticalSerial) {
  expect_cache_on_off_bit_identical(1);
}

TEST(ServiceCache, CacheOnOffBitIdenticalFourThreads) {
  expect_cache_on_off_bit_identical(4);
}

TEST(ServiceCache, ModelFingerprintIsolatesEntries) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService a(shared_analyzer(), &cache);
  const analysis::AnalyzerService b(other_analyzer(), &cache);
  ASSERT_FALSE(a.model_fingerprint().empty());
  ASSERT_FALSE(b.model_fingerprint().empty());
  EXPECT_NE(a.model_fingerprint(), b.model_fingerprint());

  const analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0]);
  EXPECT_EQ(a.analyze(request).cache, analysis::CacheState::kMiss);
  // Same source, same shared cache — but a different model fingerprint,
  // so service b must not see service a's entry.
  EXPECT_EQ(b.analyze(request).cache, analysis::CacheState::kMiss);
  EXPECT_EQ(a.analyze(request).cache, analysis::CacheState::kHit);
  EXPECT_EQ(b.analyze(request).cache, analysis::CacheState::kHit);
  EXPECT_EQ(cache.counters().stores, 2u);
}

TEST(ServiceCache, LimitsFingerprintIsolatesEntries) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  const std::string source = seed_corpus()[0];

  analysis::AnalyzeRequest ungoverned =
      analysis::AnalyzeRequest::for_source(source);
  analysis::AnalyzeRequest governed =
      analysis::AnalyzeRequest::for_source(source);
  ResourceLimits tiny;
  tiny.max_source_bytes = 16;
  governed.limits = tiny;

  const analysis::AnalyzeResponse free_run = service.analyze(ungoverned);
  EXPECT_EQ(free_run.cache, analysis::CacheState::kMiss);
  EXPECT_EQ(free_run.outcome.status, analysis::ScriptStatus::kOk);
  // Different limits → different key → a miss, and a different outcome.
  const analysis::AnalyzeResponse clipped = service.analyze(governed);
  EXPECT_EQ(clipped.cache, analysis::CacheState::kMiss);
  EXPECT_EQ(clipped.outcome.status, analysis::ScriptStatus::kIneligibleSize);
  // Each key replays its own outcome.
  EXPECT_EQ(service.analyze(ungoverned).outcome.status,
            analysis::ScriptStatus::kOk);
  const analysis::AnalyzeResponse clipped_again = service.analyze(governed);
  EXPECT_EQ(clipped_again.cache, analysis::CacheState::kHit);
  EXPECT_EQ(clipped_again.outcome.status,
            analysis::ScriptStatus::kIneligibleSize);
}

TEST(ServiceCache, BypassAndRefreshSemantics) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  const std::string source = seed_corpus()[1];

  analysis::AnalyzeRequest bypass =
      analysis::AnalyzeRequest::for_source(source);
  bypass.cache_mode = CacheMode::kBypass;
  const analysis::AnalyzeResponse bypassed = service.analyze(bypass);
  EXPECT_EQ(bypassed.cache, analysis::CacheState::kBypass);
  EXPECT_EQ(cache.counters().bypasses, 1u);
  EXPECT_EQ(cache.counters().stores, 0u);  // bypass never stores

  analysis::AnalyzeRequest refresh =
      analysis::AnalyzeRequest::for_source(source);
  refresh.cache_mode = CacheMode::kRefresh;
  // Refresh over an absent entry is a miss that stores.
  EXPECT_EQ(service.analyze(refresh).cache, analysis::CacheState::kMiss);
  EXPECT_EQ(cache.counters().stores, 1u);
  // Refresh over an existing entry recomputes and overwrites.
  EXPECT_EQ(service.analyze(refresh).cache, analysis::CacheState::kStale);
  EXPECT_EQ(cache.counters().stores, 2u);
  // The entry is live for default-mode readers.
  EXPECT_EQ(service.analyze(analysis::AnalyzeRequest::for_source(source)).cache,
            analysis::CacheState::kHit);
}

TEST(ServiceCache, UnsettledOutcomesAreNeverServedFromCache) {
  analysis::ResultCache cache({});
  const analysis::AnalyzerService service(shared_analyzer(), &cache);
  // Large enough to pass the size-eligibility gate, so the 1e-9 deadline
  // is what trips — as kDeadlineExceeded or kDegraded depending on which
  // checkpoint notices first. Either way the outcome is unsettled.
  std::string source = "var total = 0;\n";
  for (int i = 0; i < 40; ++i) {
    source += "function f" + std::to_string(i) + "(a) { return a + " +
              std::to_string(i) + "; } total += f" + std::to_string(i) +
              "(" + std::to_string(i) + ");\n";
  }
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(source);
  ResourceLimits limits;
  limits.deadline_ms = 1e-9;
  request.limits = limits;

  const analysis::AnalyzeResponse first = service.analyze(request);
  EXPECT_EQ(first.cache, analysis::CacheState::kMiss);
  EXPECT_FALSE(analysis::ResultCache::cacheable(first.outcome))
      << first.outcome.to_json();
  EXPECT_EQ(cache.counters().stores, 0u);
  // The unsettled outcome was not stored: the repeat misses again.
  const analysis::AnalyzeResponse second = service.analyze(request);
  EXPECT_EQ(second.cache, analysis::CacheState::kMiss);
  EXPECT_EQ(cache.counters().entries, 0u);
}

// --- wire v3 ---------------------------------------------------------------

TEST(WireV3, CacheModeRoundTripsAndDefaultStaysOffTheWire) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;", "req-1");
  const std::string default_line =
      analysis::wire::analyze_request_json(request);
  EXPECT_EQ(default_line.find("cache_mode"), std::string::npos);

  request.cache_mode = CacheMode::kRefresh;
  const std::string refresh_line =
      analysis::wire::analyze_request_json(request);
  EXPECT_NE(refresh_line.find("\"cache_mode\":\"refresh\""),
            std::string::npos);
  std::string error;
  const std::optional<analysis::AnalyzeRequest> parsed =
      analysis::wire::parse_analyze_request(refresh_line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->cache_mode, CacheMode::kRefresh);
  EXPECT_EQ(parsed->source, "var x = 1;");

  const std::optional<analysis::AnalyzeRequest> defaulted =
      analysis::wire::parse_analyze_request(default_line, &error);
  ASSERT_TRUE(defaulted.has_value()) << error;
  EXPECT_EQ(defaulted->cache_mode, CacheMode::kDefault);
}

TEST(WireV3, PinnedOlderVersionRejectsCacheMode) {
  std::string error;
  for (const char* version : {"1", "2"}) {
    const std::string line = std::string("{\"v\":") + version +
                             ",\"source\":\"var x = 1;\","
                             "\"cache_mode\":\"bypass\"}";
    error.clear();
    const std::optional<analysis::AnalyzeRequest> parsed =
        analysis::wire::parse_analyze_request(line, &error);
    EXPECT_FALSE(parsed.has_value()) << "pinned v" << version;
    EXPECT_NE(error.find("cache_mode"), std::string::npos) << error;
    EXPECT_NE(error.find("v3"), std::string::npos) << error;
  }
  // Unpinned (current version) accepts it.
  const std::optional<analysis::AnalyzeRequest> current =
      analysis::wire::parse_analyze_request(
          "{\"source\":\"var x = 1;\",\"cache_mode\":\"bypass\"}", &error);
  ASSERT_TRUE(current.has_value()) << error;
  EXPECT_EQ(current->cache_mode, CacheMode::kBypass);
  // Unknown mode strings are diagnosed.
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   "{\"source\":\"x\",\"cache_mode\":\"sideways\"}", &error)
                   .has_value());
}

TEST(WireV3, OlderLinesParseIdenticallyAndCachelessResponsesStayClean) {
  // A v2 line (no cache fields) parses exactly as before the bump.
  std::string error;
  const std::optional<analysis::AnalyzeRequest> v2 =
      analysis::wire::parse_analyze_request(
          "{\"v\":2,\"id\":\"a\",\"source\":\"var x = 1;\"}", &error);
  ASSERT_TRUE(v2.has_value()) << error;
  EXPECT_EQ(v2->id, "a");
  EXPECT_TRUE(v2->has_source);
  EXPECT_EQ(v2->cache_mode, CacheMode::kDefault);

  // A cacheless service's response line carries no cache members at all.
  const analysis::AnalyzerService plain(shared_analyzer());
  const analysis::AnalyzeResponse response =
      plain.analyze(analysis::AnalyzeRequest::for_source("var x = 1;"));
  EXPECT_EQ(response.cache, analysis::CacheState::kNone);
  const std::string line = response.to_json();
  EXPECT_EQ(line.find("\"cache\""), std::string::npos) << line;
  EXPECT_EQ(line.find("cache_lookup_ms"), std::string::npos) << line;

  // A cached service's hit is visible to wire clients via ParsedResponse.
  analysis::ResultCache cache({});
  const analysis::AnalyzerService cached(shared_analyzer(), &cache);
  const analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;");
  (void)cached.analyze(request);
  const analysis::AnalyzeResponse hit = cached.analyze(request);
  EXPECT_EQ(hit.cache, analysis::CacheState::kHit);
  const std::optional<analysis::wire::ParsedResponse> parsed =
      analysis::wire::parse_analyze_response(hit.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->cache_hit());
  EXPECT_TRUE(parsed->cached());
  EXPECT_GE(parsed->cache_lookup_ms, 0.0);
}

// --- longitudinal snapshot diffing ----------------------------------------

TEST(SnapshotDiff, EvolveSnapshotIsDeterministicAndPersistenceBounded) {
  const analysis::PopulationSpec spec = analysis::alexa_month_spec(1);
  const auto seeds = analysis::simulate_population(
      analysis::alexa_month_spec(0), 32, 0x5eed);
  std::vector<std::string> previous;
  for (const analysis::Sample& sample : seeds) {
    previous.push_back(sample.source);
  }
  const std::vector<std::string> a =
      analysis::evolve_snapshot(previous, spec, 0.7, 42);
  const std::vector<std::string> b =
      analysis::evolve_snapshot(previous, spec, 0.7, 42);
  EXPECT_EQ(a, b);  // pure function of (previous, spec, persistence, seed)
  EXPECT_EQ(analysis::evolve_snapshot(previous, spec, 1.0, 42), previous);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < previous.size(); ++i) {
    if (a[i] == previous[i]) ++kept;
  }
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, previous.size());
}

TEST(SnapshotDiff, MonthOneStatsMatchBypassedFullAnalysis) {
  // The snapshot driver's month-1 gate: analyzing the first snapshot
  // through a cold cache must replicate a cache-bypassed full analysis
  // bit-for-bit (stats and outcomes, timing aside).
  const auto samples = analysis::simulate_population(
      analysis::alexa_month_spec(0), 24, 0x5eed);
  std::vector<std::string> sources;
  for (const analysis::Sample& sample : samples) {
    sources.push_back(sample.source);
  }
  analysis::BatchOptions serial;
  serial.threads = 1;

  analysis::ResultCache cache({});
  const analysis::AnalyzerService cached(shared_analyzer(), &cache);
  const analysis::BatchResponse month1 = cached.analyze_batch(
      analysis::make_source_requests(sources), serial);
  const analysis::BatchResponse bypassed = cached.analyze_batch(
      analysis::make_source_requests(sources, CacheMode::kBypass), serial);

  ASSERT_EQ(month1.responses.size(), bypassed.responses.size());
  for (std::size_t i = 0; i < month1.responses.size(); ++i) {
    EXPECT_EQ(strip_timing(month1.responses[i].outcome.to_json()),
              strip_timing(bypassed.responses[i].outcome.to_json()))
        << "script " << i;
  }
  EXPECT_EQ(month1.stats.ok, bypassed.stats.ok);
  EXPECT_EQ(month1.stats.parse_errors, bypassed.stats.parse_errors);
  EXPECT_EQ(month1.stats.ineligible_size, bypassed.stats.ineligible_size);
  EXPECT_EQ(month1.stats.ineligible_ast, bypassed.stats.ineligible_ast);
  EXPECT_EQ(month1.stats.total, bypassed.stats.total);
  // And the cache saw one miss per distinct script (repeats within the
  // snapshot hit), then one bypass per script — no cross-talk.
  std::set<std::string> distinct;
  for (const std::string& source : sources) {
    distinct.insert(analysis::content_hash(source));
  }
  EXPECT_EQ(cache.counters().misses, distinct.size());
  EXPECT_EQ(cache.counters().hits, sources.size() - distinct.size());
  EXPECT_EQ(cache.counters().bypasses, sources.size());
}

}  // namespace
}  // namespace jst
