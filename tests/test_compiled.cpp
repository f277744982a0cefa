// Equivalence suite for the compiled inference fast path and the fused
// feature extractor. "Equivalent" here means bit-identical: the compiled
// forest accumulates the same float leaf values into a double in the same
// order as the reference tree walk, and the fused extractor emits the
// same float vector as the reference multi-walk (reference_features.h) —
// so every comparison below is exact (EXPECT_EQ), never approximate.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/detector.h"
#include "analysis/labels.h"
#include "analysis/model_io.h"
#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "features/feature_extractor.h"
#include "ml/compiled_forest.h"
#include "ml/multilabel.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "reference_features.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/strings.h"
#include "transform/technique.h"

namespace jst {
namespace {

namespace reference = features::reference;

std::vector<std::vector<float>> random_rows(std::size_t count,
                                            std::size_t features, Rng& rng) {
  std::vector<std::vector<float>> rows(count);
  for (auto& row : rows) {
    row.resize(features);
    for (float& value : row) value = static_cast<float>(rng.uniform());
  }
  return rows;
}

std::vector<std::uint8_t> noisy_labels(
    const std::vector<std::vector<float>>& rows, Rng& rng) {
  std::vector<std::uint8_t> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bool positive = rows[i][0] + rows[i][1] > 1.0f;
    if (rng.bernoulli(0.1)) positive = !positive;
    labels[i] = positive ? 1 : 0;
  }
  return labels;
}

ml::RandomForest trained_forest(std::size_t tree_count, std::uint64_t seed,
                                std::vector<std::vector<float>>& rows_out) {
  Rng rng(seed);
  rows_out = random_rows(300, 5, rng);
  const std::vector<std::uint8_t> labels = noisy_labels(rows_out, rng);
  ml::RandomForest forest;
  ml::ForestParams params;
  params.tree_count = tree_count;
  forest.fit(ml::Matrix{&rows_out}, labels, params, rng);
  return forest;
}

ml::LabelMatrix correlated_labels(const std::vector<std::vector<float>>& rows) {
  ml::LabelMatrix labels;
  labels.reserve(rows.size());
  for (const auto& row : rows) {
    const std::uint8_t l0 = row[0] > 0.5f;
    const std::uint8_t l2 = row[1] > 0.5f;
    labels.push_back({l0, l0, l2});
  }
  return labels;
}

// --- CompiledForest vs RandomForest ---------------------------------------

TEST(CompiledForest, BitIdenticalToReferenceOnRandomRows) {
  std::vector<std::vector<float>> rows;
  const ml::RandomForest forest = trained_forest(20, 101, rows);
  const ml::CompiledForest compiled = ml::CompiledForest::compile(forest);
  EXPECT_EQ(compiled.tree_count(), forest.tree_count());
  EXPECT_EQ(compiled.feature_count(), forest.feature_count());

  Rng rng(102);
  const auto probes = random_rows(200, 5, rng);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(compiled.predict_proba(probes[i]),
              forest.predict_proba(probes[i]))
        << "probe " << i;
  }
}

TEST(CompiledForest, ErrorsOnUntrainedAndUncompiled) {
  EXPECT_THROW(ml::CompiledForest::compile(ml::RandomForest{}), ModelError);
  ml::CompiledForest not_compiled;
  EXPECT_FALSE(not_compiled.compiled());
  const std::vector<float> row = {0.5f};
  EXPECT_THROW(not_compiled.predict_proba(row), ModelError);
}

// --- crafted node tables ---------------------------------------------------

// One node of a hand-built tree, in DecisionTree's text record order.
struct CraftedNode {
  std::int32_t feature = -1;
  float threshold = 0.0f;
  std::int32_t left = -1;
  std::int32_t right = -1;
  float value = 0.0f;
};

// The text stream RandomForest::load (and through it DecisionTree::load)
// reads: a one-tree forest over `feature_count` features.
std::string crafted_forest_text(const std::vector<CraftedNode>& nodes,
                                std::size_t feature_count) {
  std::ostringstream out;
  out.precision(17);
  out << "jstraced-forest-v1\n1 " << feature_count << '\n';
  out << nodes.size() << " 1 " << feature_count << '\n';
  for (const CraftedNode& node : nodes) {
    out << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
        << node.right << ' ' << node.value << " 0\n";
  }
  return out.str();
}

ml::RandomForest load_crafted_forest(const std::vector<CraftedNode>& nodes,
                                     std::size_t feature_count) {
  std::istringstream in(crafted_forest_text(nodes, feature_count));
  ml::RandomForest forest;
  forest.load(in);
  return forest;
}

// Complete binary tree of the given depth in pre-order (left child next).
std::int32_t build_complete_tree(std::size_t depth, std::size_t feature_count,
                                 Rng& rng, std::vector<CraftedNode>& nodes) {
  const auto self = static_cast<std::int32_t>(nodes.size());
  nodes.emplace_back();
  if (depth == 0) {
    nodes[self].value = static_cast<float>(rng.uniform());
    return self;
  }
  nodes[self].feature = static_cast<std::int32_t>(rng.index(feature_count));
  nodes[self].threshold = static_cast<float>(rng.uniform());
  nodes[self].left =
      build_complete_tree(depth - 1, feature_count, rng, nodes);
  nodes[self].right =
      build_complete_tree(depth - 1, feature_count, rng, nodes);
  return self;
}

TEST(CompiledForest, CompilesTreesBeyondSixteenBitLimits) {
  // 65535 nodes (> 32768) over 40000 features (indices > 32767): neither
  // node links nor feature indices fit 16 bits.
  constexpr std::size_t kFeatures = 40000;
  Rng rng(107);
  std::vector<CraftedNode> nodes;
  build_complete_tree(15, kFeatures, rng, nodes);
  nodes[0].feature = kFeatures - 1;
  ASSERT_EQ(nodes.size(), 65535u);
  const ml::RandomForest forest = load_crafted_forest(nodes, kFeatures);
  ASSERT_EQ(forest.trees()[0].node_count(), nodes.size());

  const ml::CompiledForest compiled = ml::CompiledForest::compile(forest);
  EXPECT_EQ(compiled.node_count(), nodes.size());
  const auto probes = random_rows(16, kFeatures, rng);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(compiled.predict_proba(probes[i]),
              forest.trees()[0].predict(probes[i]))
        << "probe " << i;
  }
}

// Root split on feature 0 with two leaves; each test corrupts one link.
std::vector<CraftedNode> three_node_tree() {
  std::vector<CraftedNode> nodes(3);
  nodes[0] = {0, 0.5f, 1, 2, 0.0f};
  nodes[1].value = 0.25f;
  nodes[2].value = 0.75f;
  return nodes;
}

void expect_compile_rejects(const std::vector<CraftedNode>& nodes,
                            const std::string& fragment) {
  const ml::RandomForest forest = load_crafted_forest(nodes, 2);
  try {
    (void)ml::CompiledForest::compile(forest);
    FAIL() << "expected ModelError mentioning \"" << fragment << '"';
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << error.what();
  }
}

TEST(CompiledForest, WellFormedCraftedTreeCompiles) {
  const ml::RandomForest forest = load_crafted_forest(three_node_tree(), 2);
  const ml::CompiledForest compiled = ml::CompiledForest::compile(forest);
  const std::vector<float> low = {0.1f, 0.0f};
  const std::vector<float> high = {0.9f, 0.0f};
  EXPECT_EQ(compiled.predict_proba(low), 0.25);
  EXPECT_EQ(compiled.predict_proba(high), 0.75);
}

TEST(CompiledForest, RejectsLeftChildThatIsNotNextNode) {
  std::vector<CraftedNode> nodes = three_node_tree();
  nodes[0].left = 2;
  nodes[0].right = 1;
  expect_compile_rejects(nodes, "left child");
}

TEST(CompiledForest, RejectsRightChildOutsideTree) {
  std::vector<CraftedNode> nodes = three_node_tree();
  nodes[0].right = 3;  // one past the last node
  expect_compile_rejects(nodes, "right child");
  nodes[0].right = 0;  // back-edge to the node itself
  expect_compile_rejects(nodes, "right child");
}

TEST(CompiledForest, RejectsFeatureIndexBeyondFeatureCount) {
  std::vector<CraftedNode> nodes = three_node_tree();
  nodes[0].feature = 2;  // the forest has features 0 and 1
  expect_compile_rejects(nodes, "feature index");
}

TEST(CompiledDetector, CorruptModelFileFailsLoadWithModelError) {
  analysis::DetectorConfig config;
  std::vector<CraftedNode> corrupt = three_node_tree();
  corrupt[0].right = 7;
  const std::size_t features =
      features::feature_dimension(config.features);
  std::stringstream stream;
  analysis::write_model_header(stream,
                               analysis::make_model_header("level1", config));
  stream << "classifier-chain 3\n"
         << crafted_forest_text(three_node_tree(), features)
         << crafted_forest_text(three_node_tree(), features + 1)
         << crafted_forest_text(corrupt, features + 2);
  analysis::Level1Detector detector(config);
  EXPECT_THROW(detector.load(stream), ModelError);
}

TEST(CompiledDetector, ForestWiderThanTheRowIsRejected) {
  analysis::DetectorConfig config;
  const std::size_t features =
      features::feature_dimension(config.features);
  // Links and feature indices are valid for the width the forests claim,
  // which is wider than the rows this configuration extracts.
  std::vector<CraftedNode> wide = three_node_tree();
  wide[0].feature = static_cast<std::int32_t>(features + 10);
  const auto detector_stream = [&](std::size_t second_forest_width) {
    std::stringstream stream;
    analysis::write_model_header(
        stream, analysis::make_model_header("level1", config));
    stream << "classifier-chain 3\n"
           << crafted_forest_text(wide, features + 11)
           << crafted_forest_text(wide, second_forest_width)
           << crafted_forest_text(wide, features + 13);
    return stream;
  };

  // Chain forests must widen by one column per position.
  std::stringstream inconsistent = detector_stream(features + 11);
  analysis::Level1Detector rejected(config);
  EXPECT_THROW(rejected.load(inconsistent), ModelError);

  std::stringstream consistent = detector_stream(features + 12);
  analysis::Level1Detector detector(config);
  detector.load(consistent);
  const std::vector<float> row(features, 0.5f);
  EXPECT_THROW((void)detector.predict(row), ModelError);
  const std::vector<float> wide_row(features + 11, 0.5f);
  EXPECT_EQ(detector.predict(wide_row).p_minified, 0.25);
}

// --- CompiledEnsemble vs MultiLabelClassifier -----------------------------

template <typename Classifier>
void expect_ensemble_matches(std::uint64_t seed) {
  Rng rng(seed);
  const auto rows = random_rows(300, 2, rng);
  const ml::LabelMatrix labels = correlated_labels(rows);
  Classifier classifier;
  ml::ForestParams params;
  params.tree_count = 8;
  classifier.fit(ml::Matrix{&rows}, labels, params, rng);

  const ml::CompiledEnsemble compiled =
      ml::CompiledEnsemble::compile(classifier);
  EXPECT_EQ(compiled.label_count(), classifier.label_count());
  EXPECT_EQ(compiled.chained(), classifier.chained());

  ml::PredictScratch scratch;
  const auto probes = random_rows(60, 2, rng);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::vector<double> reference = classifier.predict_proba(probes[i]);
    std::vector<double> fast;
    compiled.predict_proba(probes[i], scratch, fast);
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t j = 0; j < fast.size(); ++j) {
      EXPECT_EQ(fast[j], reference[j]) << "probe " << i << " label " << j;
    }
  }
}

TEST(CompiledEnsemble, BinaryRelevanceBitIdentical) {
  expect_ensemble_matches<ml::BinaryRelevance>(201);
}

TEST(CompiledEnsemble, ClassifierChainBitIdentical) {
  expect_ensemble_matches<ml::ClassifierChain>(202);
}

TEST(CompiledEnsemble, MatchesAfterSaveLoadInBothEncodings) {
  Rng rng(203);
  const auto rows = random_rows(250, 2, rng);
  const ml::LabelMatrix labels = correlated_labels(rows);
  ml::ClassifierChain original;
  ml::ForestParams params;
  params.tree_count = 6;
  original.fit(ml::Matrix{&rows}, labels, params, rng);

  const auto probes = random_rows(40, 2, rng);
  for (const ml::ModelEncoding encoding :
       {ml::ModelEncoding::kText, ml::ModelEncoding::kBinary}) {
    std::stringstream stream;
    original.save(stream, encoding);
    ml::ClassifierChain loaded;
    loaded.load(stream);
    const ml::CompiledEnsemble compiled =
        ml::CompiledEnsemble::compile(loaded);
    ml::PredictScratch scratch;
    std::vector<double> fast;
    for (const auto& probe : probes) {
      const std::vector<double> reference = original.predict_proba(probe);
      compiled.predict_proba(probe, scratch, fast);
      ASSERT_EQ(fast.size(), reference.size());
      for (std::size_t j = 0; j < fast.size(); ++j) {
        EXPECT_EQ(fast[j], reference[j]);
      }
    }
  }
}

// --- binary model encoding -------------------------------------------------

TEST(BinaryModelEncoding, ForestRoundTripsAndAutoDetects) {
  std::vector<std::vector<float>> rows;
  const ml::RandomForest forest = trained_forest(6, 301, rows);

  std::stringstream text_stream;
  forest.save(text_stream, ml::ModelEncoding::kText);
  std::stringstream binary_stream;
  forest.save(binary_stream, ml::ModelEncoding::kBinary);

  ml::RandomForest from_text;
  from_text.load(text_stream);
  ml::RandomForest from_binary;
  from_binary.load(binary_stream);
  EXPECT_EQ(from_binary.tree_count(), forest.tree_count());
  EXPECT_EQ(from_binary.feature_count(), forest.feature_count());

  Rng rng(302);
  const auto probes = random_rows(50, 5, rng);
  for (const auto& probe : probes) {
    const double reference = forest.predict_proba(probe);
    EXPECT_EQ(from_text.predict_proba(probe), reference);
    EXPECT_EQ(from_binary.predict_proba(probe), reference);
  }
}

TEST(BinaryModelEncoding, TruncatedBinaryStreamThrows) {
  std::vector<std::vector<float>> rows;
  const ml::RandomForest forest = trained_forest(4, 303, rows);
  std::ostringstream out;
  forest.save(out, ml::ModelEncoding::kBinary);
  const std::string bytes = out.str();
  for (const std::size_t keep :
       {bytes.size() / 2, bytes.size() - 1, std::size_t{24}}) {
    std::istringstream truncated(bytes.substr(0, keep));
    ml::RandomForest loaded;
    EXPECT_THROW(loaded.load(truncated), ModelError) << "keep=" << keep;
  }
}

// A tree, node or forest count patched far past the stream's size must
// fail as a truncation (ModelError), not as a count-sized allocation.
TEST(BinaryModelEncoding, HostileCountsThrowModelError) {
  constexpr std::uint64_t kHostile = std::uint64_t{1} << 40;
  std::vector<std::vector<float>> rows;
  const ml::RandomForest forest = trained_forest(4, 304, rows);
  const auto expect_model_error = [](std::string bytes, const char* what) {
    std::istringstream stream(std::move(bytes));
    ml::RandomForest loaded;
    EXPECT_THROW(loaded.load(stream), ModelError) << what;
  };

  std::ostringstream binary_out;
  forest.save(binary_out, ml::ModelEncoding::kBinary);
  const std::string binary = binary_out.str();
  const std::size_t tree_count_at = binary.find('\n') + 1;
  // Forest header: tree count, feature count; then the first tree's node
  // count.
  for (const std::size_t offset : {tree_count_at, tree_count_at + 16}) {
    std::string patched = binary;
    std::memcpy(patched.data() + offset, &kHostile, sizeof(kHostile));
    expect_model_error(std::move(patched), "binary count patch");
  }

  std::ostringstream text_out;
  forest.save(text_out, ml::ModelEncoding::kText);
  const std::string text = text_out.str();
  // Line 2 starts with the tree count, line 3 with the first node count.
  const std::size_t line2 = text.find('\n') + 1;
  const std::size_t line3 = text.find('\n', line2) + 1;
  for (const std::size_t offset : {line2, line3}) {
    std::string patched = text;
    patched.replace(offset, text.find(' ', offset) - offset,
                    std::to_string(kHostile));
    expect_model_error(std::move(patched), "text count patch");
  }

  std::istringstream chain("classifier-chain " + std::to_string(kHostile) +
                           "\n" + text);
  ml::ClassifierChain classifier;
  EXPECT_THROW(classifier.load(chain), ModelError);
}

TEST(BinaryModelEncoding, UnknownMagicThrows) {
  std::istringstream stream("jstraced-forest-v9 garbage");
  ml::RandomForest forest;
  try {
    forest.load(stream);
    FAIL() << "expected ModelError";
  } catch (const ModelError& error) {
    // The mismatch error must name the unrecognized magic.
    EXPECT_NE(std::string(error.what()).find("jstraced-forest-v9"),
              std::string::npos);
  }
}

// --- fused feature extraction ---------------------------------------------

std::vector<std::string> seed_corpus() {
  analysis::CorpusSpec spec;
  spec.regular_count = 16;
  spec.seed = 424242;
  std::vector<std::string> corpus = analysis::generate_regular_corpus(spec);
  // Transformed variants: every technique applied to the first sources, so
  // the fused walk sees obfuscator-shaped trees (big arrays, hex names,
  // switch dispatchers), not just regular code.
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

void expect_rows_equal(const std::vector<float>& reference,
                       const std::vector<float>& fused, std::size_t script) {
  ASSERT_EQ(fused.size(), reference.size()) << "script " << script;
  for (std::size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(fused[i], reference[i]) << "script " << script << " dim " << i;
  }
}

TEST(FusedExtraction, BitIdenticalToReferenceOnSeedCorpus) {
  const std::vector<std::string> corpus = seed_corpus();
  const features::FeatureConfig config;
  // ONE scratch across the whole corpus: equality on every script also
  // proves reuse leaks no state from previous scripts.
  features::ExtractScratch scratch;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const ScriptAnalysis analysis =
        analyze_script(corpus[i], config.analysis);
    const std::vector<float> reference = reference::extract(analysis, config);
    const std::vector<float>& fused =
        features::extract_into(analysis, config, scratch);
    expect_rows_equal(reference, fused, i);
  }
  EXPECT_EQ(scratch.uses, corpus.size());
  EXPECT_GT(scratch.capacity_bytes(), 0u);
}

TEST(FusedExtraction, SingleBlockConfigsMatchReference) {
  const std::vector<std::string> corpus = seed_corpus();
  features::ExtractScratch scratch;
  for (std::size_t variant = 0; variant < 2; ++variant) {
    features::FeatureConfig config;
    config.use_handpicked = variant == 0;
    config.use_ngrams = variant == 1;
    for (std::size_t i = 0; i < 4; ++i) {
      const ScriptAnalysis analysis =
          analyze_script(corpus[i], config.analysis);
      const std::vector<float> reference =
          reference::extract(analysis, config);
      const std::vector<float>& fused =
          features::extract_into(analysis, config, scratch);
      expect_rows_equal(reference, fused, i);
    }
  }
}

TEST(FusedExtraction, TrainingTableMatchesReference) {
  const std::vector<std::string> corpus = seed_corpus();
  features::FeatureConfig config;
  config.ngram.hash_dim = 64;
  std::vector<analysis::Sample> samples;
  for (const std::string& source : corpus) {
    samples.push_back(analysis::make_regular_sample(source));
  }
  const analysis::FeatureTable table =
      analysis::extract_features(std::move(samples), config);
  ASSERT_EQ(table.rows.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const ScriptAnalysis analysis =
        analyze_script(corpus[i], config.analysis);
    expect_rows_equal(reference::extract(analysis, config), table.rows[i], i);
  }
}

TEST(FusedExtraction, DataflowScratchDoesNotChangeAnalysis) {
  const std::vector<std::string> corpus = seed_corpus();
  DataFlowScratch dataflow_scratch;
  for (std::size_t i = 0; i < 6; ++i) {
    AnalysisOptions plain;
    AnalysisOptions reusing;
    reusing.dataflow_scratch = &dataflow_scratch;
    const ScriptAnalysis a = analyze_script(corpus[i], plain);
    const ScriptAnalysis b = analyze_script(corpus[i], reusing);
    EXPECT_EQ(a.data_flow.edges, b.data_flow.edges) << "script " << i;
    EXPECT_EQ(a.data_flow.unresolved_uses, b.data_flow.unresolved_uses);
  }
}

// --- detector routing ------------------------------------------------------

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

TEST(CompiledDetector, PredictionsBitIdenticalToReferenceClassifier) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const features::FeatureConfig& config =
      analyzer.options().detector.features;
  const std::vector<std::string> corpus = seed_corpus();
  ASSERT_TRUE(analyzer.level1().compiled().compiled());
  ASSERT_TRUE(analyzer.level2().compiled().compiled());

  for (std::size_t i = 0; i < 8; ++i) {
    const ScriptAnalysis analysis_result =
        analyze_script(corpus[corpus.size() - 1 - i], config.analysis);
    const std::vector<float> row =
        reference::extract(analysis_result, config);

    const auto level1 = analyzer.level1().predict(row);
    const std::vector<double> level1_reference =
        analyzer.level1().reference_classifier().predict_proba(row);
    EXPECT_EQ(level1.p_regular, level1_reference[0]);
    EXPECT_EQ(level1.p_minified, level1_reference[1]);
    EXPECT_EQ(level1.p_obfuscated, level1_reference[2]);

    const std::vector<double> level2 = analyzer.level2().predict_proba(row);
    const std::vector<double> level2_reference =
        analyzer.level2().reference_classifier().predict_proba(row);
    ASSERT_EQ(level2.size(), level2_reference.size());
    for (std::size_t j = 0; j < level2.size(); ++j) {
      EXPECT_EQ(level2[j], level2_reference[j]) << "label " << j;
    }

    const analysis::DetectorConfig& detector_config =
        analyzer.level2().config();
    EXPECT_EQ(analyzer.level2().predict_techniques(row),
              analysis::techniques_from_indices(ml::top_k_labels(
                  level2_reference, detector_config.level2_topk,
                  detector_config.level2_threshold)));
  }
}

TEST(CompiledDetector, AnalyzeOutcomeTechniquesFollowTheDecisionRule) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const features::FeatureConfig& config =
      analyzer.options().detector.features;
  const std::vector<std::string> corpus = seed_corpus();
  analysis::ScriptScratch scratch;
  std::size_t transformed = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const analysis::ScriptOutcome outcome =
        analyzer.analyze_outcome(corpus[i], ResourceLimits{}, scratch);
    ASSERT_TRUE(outcome.has_predictions()) << "script " << i;
    const ScriptAnalysis analysis_result =
        analyze_script(corpus[i], config.analysis);
    const std::vector<float> row =
        reference::extract(analysis_result, config);
    EXPECT_EQ(outcome.report.technique_confidence,
              analyzer.level2().predict_proba(row))
        << "script " << i;
    if (outcome.report.level1.transformed()) {
      ++transformed;
      EXPECT_EQ(outcome.report.techniques,
                analyzer.level2().predict_techniques(row))
          << "script " << i;
    } else {
      EXPECT_TRUE(outcome.report.techniques.empty()) << "script " << i;
    }
  }
  EXPECT_GT(transformed, 0u);
}

TEST(CompiledDetector, SaveLoadRoundTripKeepsPredictions) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  std::stringstream stream;
  analyzer.save(stream);  // defaults to the binary forest encoding

  analysis::TransformationAnalyzer loaded(analyzer.options());
  loaded.load(stream);

  const analysis::AnalyzerService original_service(analyzer);
  const analysis::AnalyzerService loaded_service(loaded);
  const std::vector<std::string> corpus = seed_corpus();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto request = analysis::AnalyzeRequest::for_source(corpus[i]);
    const analysis::ScriptReport a =
        original_service.analyze(request).outcome.report;
    const analysis::ScriptReport b =
        loaded_service.analyze(request).outcome.report;
    EXPECT_EQ(a.level1.p_regular, b.level1.p_regular) << "script " << i;
    EXPECT_EQ(a.level1.p_minified, b.level1.p_minified);
    EXPECT_EQ(a.level1.p_obfuscated, b.level1.p_obfuscated);
    EXPECT_EQ(a.technique_confidence, b.technique_confidence);
    EXPECT_EQ(a.techniques, b.techniques);
  }
}

// --- model-bytes oracle ----------------------------------------------------

// FNV-1a of the bytes TransformationAnalyzer::save writes for two small
// training configurations. The constants were captured from the reference
// multi-walk extractor; training on the fused extractor (or any other
// change to corpus synthesis, features, tree growth, or the encoding)
// must reproduce them exactly, at every JST_THREADS width.
std::uint64_t trained_model_fingerprint(bool classifier_chain) {
  analysis::PipelineOptions options;
  options.training_regular_count = 24;
  options.per_technique_count = 4;
  options.detector.forest.tree_count = 4;
  options.detector.features.ngram.hash_dim = 48;
  options.detector.classifier_chain = classifier_chain;
  options.seed = 8675309;
  analysis::TransformationAnalyzer analyzer(options);
  analyzer.train();
  std::ostringstream bytes;
  analyzer.save(bytes);
  return strings::fnv1a(bytes.str());
}

TEST(ModelBytes, ClassifierChainFingerprintPinned) {
  EXPECT_EQ(trained_model_fingerprint(true), 0x1f4cb451c0148bc2ULL);
}

TEST(ModelBytes, BinaryRelevanceFingerprintPinned) {
  EXPECT_EQ(trained_model_fingerprint(false), 0x3f965b3345d24a87ULL);
}

// --- scratch reuse ---------------------------------------------------------

TEST(ScriptScratch, ReusedScratchMatchesFreshAndRecordsMetrics) {
  const analysis::TransformationAnalyzer& analyzer = shared_analyzer();
  const std::vector<std::string> corpus = seed_corpus();

  obs::Counter& reuses =
      obs::MetricsRegistry::global().counter("jst_scratch_reuse_total");
  obs::Gauge& peak =
      obs::MetricsRegistry::global().gauge("jst_scratch_peak_bytes");
  const std::uint64_t reuses_before = reuses.value();

  analysis::ScriptScratch scratch;
  for (std::size_t i = 0; i < 6; ++i) {
    const analysis::ScriptOutcome reused =
        analyzer.analyze_outcome(corpus[i], ResourceLimits{}, scratch);
    analysis::ScriptScratch fresh;
    const analysis::ScriptOutcome baseline =
        analyzer.analyze_outcome(corpus[i], ResourceLimits{}, fresh);
    EXPECT_EQ(reused.status, baseline.status) << "script " << i;
    EXPECT_EQ(reused.report.level1.p_regular, baseline.report.level1.p_regular);
    EXPECT_EQ(reused.report.level1.p_minified,
              baseline.report.level1.p_minified);
    EXPECT_EQ(reused.report.level1.p_obfuscated,
              baseline.report.level1.p_obfuscated);
    EXPECT_EQ(reused.report.technique_confidence,
              baseline.report.technique_confidence);
    EXPECT_EQ(reused.report.techniques, baseline.report.techniques);
  }
  // 5 reuses of `scratch` (first use is a warm-up, not a reuse).
  EXPECT_GE(reuses.value() - reuses_before, 5u);
  EXPECT_GT(peak.value(), 0.0);
}

}  // namespace
}  // namespace jst
