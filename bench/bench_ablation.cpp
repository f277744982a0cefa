// Ablations over the design choices DESIGN.md calls out:
//  - feature families: 4-grams only vs. hand-picked only vs. both (§III-B),
//  - data-flow features on vs. off (the JSTAP adjustment of §III-A),
//  - forest size sensitivity.
// Each configuration trains a fresh pipeline and reports level-1 accuracy
// and level-2 Top-1 on a shared validation protocol.
#include <cstdio>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "bench_common.h"
#include "support/strings.h"
#include "ml/metrics.h"

namespace {

struct Config {
  const char* name;
  bool use_ngrams;
  bool use_handpicked;
  bool use_dataflow;
  std::size_t trees;
};

struct Result {
  double level1 = 0.0;
  double top1 = 0.0;
};

Result run(const Config& config, std::size_t scale_count) {
  using namespace jst;
  using namespace jst::bench;

  analysis::PipelineOptions options;
  options.training_regular_count = scale_count;
  options.per_technique_count = scale_count / 5;
  options.seed = strings::fnv1a(config.name);
  options.detector.forest.tree_count = config.trees;
  options.detector.features.use_ngrams = config.use_ngrams;
  options.detector.features.use_handpicked = config.use_handpicked;
  options.detector.features.ngram.hash_dim = 256;
  options.detector.features.analysis.build_dataflow = config.use_dataflow;
  analysis::TransformationAnalyzer model(options);
  model.train();

  const auto bases = held_out_regular(scale_count / 2, 0xab1a7e);
  Rng rng(0xab1a7e0);
  std::size_t level1_correct = 0;
  std::size_t level1_total = 0;
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
    const auto top1 = analysis::indices_from_techniques(
        model.level2().predict_topk(row, 1));
    ++top1_total;
    if (ml::topk_correct(top1,
                         analysis::indices_from_techniques(sample.techniques))) {
      ++top1_hits;
    }
  }
  Result result;
  result.level1 = 100.0 * static_cast<double>(level1_correct) /
                  static_cast<double>(level1_total);
  result.top1 =
      100.0 * static_cast<double>(top1_hits) / static_cast<double>(top1_total);
  return result;
}

}  // namespace

int main() {
  using namespace jst::bench;

  const Config configs[] = {
      {"both families + dataflow (paper)", true, true, true, 24},
      {"4-grams only", true, false, true, 24},
      {"hand-picked only", false, true, true, 24},
      {"dataflow disabled", true, true, false, 24},
      {"small forest (8 trees)", true, true, true, 8},
      {"large forest (64 trees)", true, true, true, 64},
  };

  const std::size_t scale_count = scaled(70);
  print_header("Ablation study", "DESIGN.md section 5");
  std::printf("%-38s %12s %14s\n", "configuration", "level-1", "level-2 Top-1");
  for (const Config& config : configs) {
    std::fprintf(stderr, "[bench] ablation: %s...\n", config.name);
    const Result result = run(config, scale_count);
    std::printf("%-38s %11.2f%% %13.2f%%\n", config.name, result.level1,
                result.top1);
  }
  print_note("the paper's choice (both feature families, flows on, chain "
             "classifier) should be at or near the top on both metrics");
  print_footer();
  return 0;
}
