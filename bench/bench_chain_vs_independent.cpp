// §III-D3 — validation-set comparison of the two multi-task strategies:
// classifier chain vs. classifiers-independence assumption. The paper
// selects the chain ("the random forest classifier with the classifiers
// chain approach performed best").
#include <cstdio>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "bench_common.h"
#include "ml/metrics.h"

namespace {

struct Scores {
  double level1_accuracy = 0.0;
  double level2_subset = 0.0;
  double level2_top1 = 0.0;
};

Scores evaluate(bool use_chain, std::size_t scale_count) {
  using namespace jst;
  using namespace jst::bench;

  analysis::PipelineOptions options;
  options.training_regular_count = scale_count;
  options.per_technique_count = scale_count / 5;
  options.seed = use_chain ? 0xc4a1 : 0x1d4e;
  options.detector.classifier_chain = use_chain;
  options.detector.forest.tree_count = 24;
  options.detector.features.ngram.hash_dim = 256;
  analysis::TransformationAnalyzer model(options);
  model.train();

  // Validation set: fresh bases, one technique each + regular files.
  const auto bases = held_out_regular(scale_count / 2, 0x7a11d);
  Rng rng(0x7a11d0);
  Scores scores;
  std::size_t level1_correct = 0;
  std::size_t level1_total = 0;
  std::vector<std::vector<std::size_t>> predicted;
  std::vector<std::vector<std::size_t>> truth;
  std::size_t top1_hits = 0;
  std::size_t top1_total = 0;

  for (const auto& base : bases) {
    {
      const auto report = analyze(model, base);
      ++level1_total;
      if (!report.parse_failed() && report.level1.regular()) ++level1_correct;
    }
    const auto technique = transform::all_techniques()[rng.index(10)];
    const auto sample = analysis::make_transformed_sample(base, technique, rng);
    const auto report = analyze(model, sample.source);
    ++level1_total;
    if (!report.parse_failed() && report.level1.transformed()) ++level1_correct;

    const auto row = features::extract_from_source(
        sample.source, model.options().detector.features);
    const auto probabilities = model.level2().predict_proba(row);
    std::vector<std::size_t> subset;
    for (std::size_t j = 0; j < probabilities.size(); ++j) {
      if (probabilities[j] >= 0.5) subset.push_back(j);
    }
    predicted.push_back(subset);
    truth.push_back(analysis::indices_from_techniques(sample.techniques));
    const auto top1 = analysis::indices_from_techniques(
        model.level2().predict_topk(row, 1));
    ++top1_total;
    if (ml::topk_correct(top1, truth.back())) ++top1_hits;
  }

  scores.level1_accuracy = 100.0 * static_cast<double>(level1_correct) /
                           static_cast<double>(level1_total);
  scores.level2_subset = 100.0 * ml::subset_accuracy(predicted, truth);
  scores.level2_top1 =
      100.0 * static_cast<double>(top1_hits) / static_cast<double>(top1_total);
  return scores;
}

}  // namespace

int main() {
  using namespace jst::bench;

  const std::size_t scale_count = scaled(90);
  std::fprintf(stderr, "[bench] training chain variant...\n");
  const Scores chain = evaluate(/*use_chain=*/true, scale_count);
  std::fprintf(stderr, "[bench] training independent variant...\n");
  const Scores independent = evaluate(/*use_chain=*/false, scale_count);

  print_header("Classifier chain vs. independence assumption",
               "section III-D3");
  std::printf("%-36s %12s %12s\n", "metric", "chain", "independent");
  std::printf("%-36s %11.2f%% %11.2f%%\n", "level-1 accuracy",
              chain.level1_accuracy, independent.level1_accuracy);
  std::printf("%-36s %11.2f%% %11.2f%%\n", "level-2 subset accuracy",
              chain.level2_subset, independent.level2_subset);
  std::printf("%-36s %11.2f%% %11.2f%%\n", "level-2 Top-1 accuracy",
              chain.level2_top1, independent.level2_top1);
  print_note("paper: the chain variant won on the validation set and is "
             "used for all reported results");
  print_footer();
  return 0;
}
