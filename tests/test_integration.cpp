// End-to-end tests: train the two detectors on a small synthesized corpus
// and verify the paper's qualitative results hold — level 1 separates
// regular from transformed scripts with high accuracy, level 2 recovers
// the techniques, and the detectors generalize to the unseen packer.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "analysis/wild.h"
#include "ml/metrics.h"
#include "ml/multilabel.h"
#include "transform/transform.h"

namespace jst::analysis {
namespace {

using transform::Technique;

// Small-but-meaningful training configuration shared by the tests
// (train once; the fixture object is reused across tests in this file).
const TransformationAnalyzer& shared_analyzer() {
  static const TransformationAnalyzer* kAnalyzer = [] {
    PipelineOptions options;
    options.training_regular_count = 70;
    options.per_technique_count = 14;
    options.seed = 20240701;
    options.detector.forest.tree_count = 24;
    options.detector.features.ngram.hash_dim = 256;
    auto* analyzer = new TransformationAnalyzer(options);
    analyzer->train();
    return analyzer;
  }();
  return *kAnalyzer;
}

// One script through the request path.
ScriptReport report_for(const TransformationAnalyzer& analyzer,
                        std::string source) {
  return AnalyzerService(analyzer)
      .analyze(AnalyzeRequest::for_source(std::move(source)))
      .outcome.report;
}

std::vector<std::string> held_out_regular(std::size_t count,
                                          std::uint64_t seed) {
  CorpusSpec spec;
  spec.regular_count = count;
  spec.seed = seed;  // different seed -> disjoint from training corpus
  return generate_regular_corpus(spec);
}

TEST(Integration, TrainsSuccessfully) {
  EXPECT_TRUE(shared_analyzer().trained());
}

TEST(Integration, AnalyzeRejectsGarbage) {
  const ScriptReport report = report_for(shared_analyzer(), "var = ;;; {{{");
  EXPECT_EQ(report.status, ScriptStatus::kParseError);
  EXPECT_TRUE(report.parse_failed());
}

TEST(Integration, Level1SeparatesRegularFromTransformed) {
  const auto& analyzer = shared_analyzer();
  const auto regular = held_out_regular(24, 777);

  std::size_t regular_correct = 0;
  for (const std::string& source : regular) {
    const ScriptReport report = report_for(analyzer, source);
    ASSERT_FALSE(report.parse_failed());
    if (report.level1.regular()) ++regular_correct;
  }

  Rng rng(88);
  std::size_t transformed_correct = 0;
  std::size_t transformed_total = 0;
  for (const std::string& source : regular) {
    for (Technique technique :
         {Technique::kMinificationSimple, Technique::kIdentifierObfuscation,
          Technique::kControlFlowFlattening}) {
      const Sample sample = make_transformed_sample(source, technique, rng);
      const ScriptReport report = report_for(analyzer, sample.source);
      ++transformed_total;
      if (report.level1.transformed()) ++transformed_correct;
    }
  }

  // Paper: 98.65% regular / 99.7% transformed at full scale; at this toy
  // scale we require strong but looser separation.
  EXPECT_GE(regular_correct * 10, regular.size() * 8)
      << regular_correct << "/" << regular.size();
  EXPECT_GE(transformed_correct * 10, transformed_total * 9)
      << transformed_correct << "/" << transformed_total;
}

TEST(Integration, Level2RecoversDominantTechniques) {
  const auto& analyzer = shared_analyzer();
  const auto bases = held_out_regular(10, 991);
  Rng rng(99);

  // For clearly distinguishable techniques, the top prediction should be a
  // true label most of the time.
  const std::vector<Technique> probes = {
      Technique::kMinificationSimple, Technique::kNoAlphanumeric,
      Technique::kControlFlowFlattening, Technique::kDebugProtection};
  std::size_t top1_hits = 0;
  std::size_t total = 0;
  for (const std::string& base : bases) {
    for (Technique technique : probes) {
      const Sample sample = make_transformed_sample(base, technique, rng);
      const ScriptReport report = report_for(analyzer, sample.source);
      ASSERT_FALSE(report.parse_failed());
      const auto top1 = ml::top_k_labels(
          analyzer.level2().predict_proba(features::extract_from_source(
              sample.source, analyzer.options().detector.features)),
          1);
      ASSERT_EQ(top1.size(), 1u);
      ++total;
      if (std::find(sample.techniques.begin(), sample.techniques.end(),
                    static_cast<Technique>(top1[0])) !=
          sample.techniques.end()) {
        ++top1_hits;
      }
    }
  }
  EXPECT_GE(top1_hits * 10, total * 7) << top1_hits << "/" << total;
}

TEST(Integration, ThresholdLimitsWrongLabels) {
  const auto& analyzer = shared_analyzer();
  const auto bases = held_out_regular(8, 1313);
  Rng rng(131);
  double wrong_total = 0.0;
  std::size_t count = 0;
  for (const std::string& base : bases) {
    const Sample sample = make_mixed_sample(base, 2, rng);
    const ScriptReport report = report_for(analyzer, sample.source);
    ASSERT_FALSE(report.parse_failed());
    const auto truth = indices_from_techniques(sample.techniques);
    const auto predicted = indices_from_techniques(report.techniques);
    wrong_total += static_cast<double>(ml::wrong_labels(predicted, truth));
    ++count;
  }
  // Paper (Figure 1b): < 0.32 wrong labels on average at threshold 10%
  // (at full training scale); the toy-scale bound is looser.
  EXPECT_LT(wrong_total / static_cast<double>(count), 2.5);
}

TEST(Integration, PackerDetectedAsTransformed) {
  const auto& analyzer = shared_analyzer();
  const auto bases = held_out_regular(10, 555);
  Rng rng(555);
  std::size_t detected = 0;
  for (const std::string& base : bases) {
    const std::string packed = transform::pack(base, rng);
    const ScriptReport report = report_for(analyzer, packed);
    ASSERT_FALSE(report.parse_failed());
    if (report.level1.transformed()) ++detected;
  }
  // Paper §III-E3: 99.52% at full scale.
  EXPECT_GE(detected, 8u) << detected << "/10";
}

TEST(Integration, WildPopulationRatesOrdered) {
  const auto& analyzer = shared_analyzer();
  const auto measure = [&analyzer](const PopulationSpec& spec,
                                   std::size_t count, std::uint64_t seed) {
    const auto samples = simulate_population(spec, count, seed);
    std::size_t transformed = 0;
    std::size_t parsed = 0;
    for (const Sample& sample : samples) {
      const ScriptReport report = report_for(analyzer, sample.source);
      if (report.parse_failed()) continue;
      ++parsed;
      if (report.level1.transformed()) ++transformed;
    }
    return parsed == 0 ? 0.0
                       : static_cast<double>(transformed) /
                             static_cast<double>(parsed);
  };
  const double alexa_rate = measure(alexa_spec(), 40, 1);
  const double npm_rate = measure(npm_spec(), 40, 2);
  // Paper: Alexa 68.6% vs npm 8.7% — the ordering must be clear.
  EXPECT_GT(alexa_rate, npm_rate + 0.2);
}

TEST(Integration, ChainAndIndependentBothTrain) {
  PipelineOptions options;
  options.training_regular_count = 30;
  options.per_technique_count = 6;
  options.detector.forest.tree_count = 8;
  options.detector.features.ngram.hash_dim = 128;

  options.detector.classifier_chain = true;
  TransformationAnalyzer chain(options);
  chain.train();
  EXPECT_TRUE(chain.trained());

  options.detector.classifier_chain = false;
  TransformationAnalyzer independent(options);
  independent.train();
  EXPECT_TRUE(independent.trained());

  const std::string probe = held_out_regular(1, 31337)[0];
  EXPECT_FALSE(report_for(chain, probe).parse_failed());
  EXPECT_FALSE(report_for(independent, probe).parse_failed());
}

TEST(Service, RequiresTrainedAnalyzer) {
  const TransformationAnalyzer untrained;
  EXPECT_THROW(AnalyzerService{untrained}, ModelError);
}

TEST(Service, BatchOutcomesAlignedWithStatuses) {
  AnalyzerService service(shared_analyzer());
  std::vector<std::string> sources = held_out_regular(4, 4242);
  sources.push_back("var = ;;; {{{");            // parse error
  sources.push_back("var tiny = 1;");            // parses, under 512 bytes
  // 600 bytes but no conditional/function/call node.
  sources.push_back("var filler = \"" + std::string(600, 'a') + "\";");

  BatchOptions options;
  options.threads = 3;
  const BatchResponse result =
      service.analyze_batch(make_source_requests(sources), options);

  ASSERT_EQ(result.responses.size(), sources.size());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.responses[i].outcome.status, ScriptStatus::kOk) << i;
    EXPECT_TRUE(result.responses[i].outcome.error_message.empty());
    EXPECT_GT(result.responses[i].outcome.timing.total_ms, 0.0);
  }
  EXPECT_EQ(result.responses[4].outcome.status, ScriptStatus::kParseError);
  EXPECT_FALSE(result.responses[4].outcome.error_message.empty());
  EXPECT_EQ(result.responses[5].outcome.status, ScriptStatus::kIneligibleSize);
  EXPECT_EQ(result.responses[6].outcome.status, ScriptStatus::kIneligibleAst);
  // Ineligible-but-parseable scripts still carry predictions.
  EXPECT_FALSE(
      result.responses[5].outcome.report.technique_confidence.empty());

  const BatchStats& stats = result.stats;
  EXPECT_EQ(stats.total, sources.size());
  EXPECT_EQ(stats.ok, 4u);
  EXPECT_EQ(stats.parse_errors, 1u);
  EXPECT_EQ(stats.ineligible_size, 1u);
  EXPECT_EQ(stats.ineligible_ast, 1u);
  EXPECT_EQ(stats.threads, 3u);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GT(stats.scripts_per_second, 0.0);
  EXPECT_GT(stats.static_analysis_ms, 0.0);
  EXPECT_NEAR(stats.parse_failure_rate(), 1.0 / 7.0, 1e-12);
}

TEST(Service, BatchDeterministicAcrossThreadCounts) {
  AnalyzerService service(shared_analyzer());
  const std::vector<std::string> sources = held_out_regular(6, 7788);

  BatchOptions serial;
  serial.threads = 1;
  BatchOptions wide;
  wide.threads = 4;
  const std::vector<AnalyzeRequest> requests = make_source_requests(sources);
  const BatchResponse a = service.analyze_batch(requests, serial);
  const BatchResponse b = service.analyze_batch(requests, wide);

  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const ScriptOutcome& lhs = a.responses[i].outcome;
    const ScriptOutcome& rhs = b.responses[i].outcome;
    EXPECT_EQ(lhs.status, rhs.status);
    EXPECT_DOUBLE_EQ(lhs.report.level1.p_regular, rhs.report.level1.p_regular);
    EXPECT_DOUBLE_EQ(lhs.report.level1.p_minified,
                     rhs.report.level1.p_minified);
    EXPECT_DOUBLE_EQ(lhs.report.level1.p_obfuscated,
                     rhs.report.level1.p_obfuscated);
    EXPECT_EQ(lhs.report.technique_confidence,
              rhs.report.technique_confidence);
  }
}

TEST(Service, SourceBytesLimitSkipsParsing) {
  AnalyzerService service(shared_analyzer());
  const std::vector<std::string> sources = held_out_regular(2, 9911);
  BatchOptions options;
  options.limits.max_source_bytes = 16;  // everything is larger than this
  const BatchResponse result =
      service.analyze_batch(make_source_requests(sources), options);
  for (const AnalyzeResponse& response : result.responses) {
    const ScriptOutcome& outcome = response.outcome;
    EXPECT_EQ(outcome.status, ScriptStatus::kIneligibleSize);
    ASSERT_TRUE(outcome.budget.has_value());
    EXPECT_EQ(outcome.budget->kind, ResourceKind::kSourceBytes);
    EXPECT_EQ(outcome.budget->limit, 16.0);
    EXPECT_GT(outcome.budget->observed, 16.0);
    EXPECT_NE(outcome.error_message.find("source_bytes"), std::string::npos);
    // Guarded scripts are never parsed or scored.
    EXPECT_TRUE(outcome.report.technique_confidence.empty());
  }
  EXPECT_EQ(result.stats.ineligible_size, 2u);
}

TEST(Service, EmptyBatchStatsAreWellDefined) {
  AnalyzerService service(shared_analyzer());
  const std::vector<AnalyzeRequest> requests;
  const BatchResponse result = service.analyze_batch(requests);
  const BatchStats& stats = result.stats;
  EXPECT_EQ(stats.total, 0u);
  EXPECT_EQ(stats.budget_tripped(), 0u);
  // Documented contract: every rate/percentile is 0 (not NaN) on an empty
  // batch, and to_json() stays serializable.
  EXPECT_EQ(stats.scripts_per_second, 0.0);
  EXPECT_EQ(stats.parse_failure_rate(), 0.0);
  EXPECT_EQ(stats.p50_script_ms, 0.0);
  EXPECT_EQ(stats.p95_script_ms, 0.0);
  EXPECT_EQ(stats.p99_script_ms, 0.0);
  EXPECT_EQ(stats.max_script_ms, 0.0);
  EXPECT_FALSE(stats.to_json().empty());
  EXPECT_NE(stats.to_json().find("\"total\":0"), std::string::npos);
}

}  // namespace
}  // namespace jst::analysis
