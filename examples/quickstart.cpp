// Quickstart: train the two detectors on a synthesized corpus, transform a
// script with one technique, and classify it.
//
//   $ ./quickstart
//
// Walks through the whole public API in ~30 lines of user code.
#include <cstdio>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "transform/transform.h"

int main() {
  using namespace jst;

  // 1. Train level-1 (regular vs minified/obfuscated) and level-2 (which
  //    of the ten techniques) on a synthesized ground-truth corpus.
  analysis::PipelineOptions options;
  options.training_regular_count = 80;   // keep the demo fast
  options.per_technique_count = 16;
  analysis::TransformationAnalyzer analyzer(options);
  std::printf("training detectors on a synthetic corpus...\n");
  analyzer.train();

  // 2. Take a regular script and obfuscate it.
  const std::string regular = R"JS(
// Compute cart totals with a small tax table.
var taxRates = { de: 0.19, fr: 0.2, us: 0.07 };

function computeTotal(items, country) {
  var subtotal = 0;
  for (var i = 0; i < items.length; i++) {
    subtotal += items[i].price * items[i].quantity;
  }
  var rate = taxRates[country] || 0;
  return subtotal * (1 + rate);
}

function formatPrice(value) {
  return value.toFixed(2) + " EUR";
}

console.log(formatPrice(computeTotal([{ price: 10, quantity: 3 }], "de")));
)JS";

  Rng rng(7);
  const std::string obfuscated = transform::apply_technique(
      transform::Technique::kControlFlowFlattening, regular, rng);

  // 3. Classify both through the request API.
  const analysis::AnalyzerService service(analyzer);
  for (const auto& [name, source] :
       {std::pair<const char*, const std::string&>{"regular", regular},
        std::pair<const char*, const std::string&>{"obfuscated", obfuscated}}) {
    const analysis::ScriptReport report =
        service.analyze(analysis::AnalyzeRequest::for_source(source))
            .outcome.report;
    std::printf("\n--- %s script (%zu bytes) ---\n", name, source.size());
    std::printf("level 1: p(regular)=%.2f p(minified)=%.2f p(obfuscated)=%.2f"
                " => %s\n",
                report.level1.p_regular, report.level1.p_minified,
                report.level1.p_obfuscated,
                report.level1.transformed() ? "TRANSFORMED" : "regular");
    if (report.level1.transformed()) {
      std::printf("level 2 techniques (top-k @ 10%% confidence):\n");
      for (transform::Technique technique : report.techniques) {
        std::printf("  - %s (%.0f%%)\n",
                    std::string(transform::technique_name(technique)).c_str(),
                    100.0 * report.technique_confidence[static_cast<std::size_t>(
                                technique)]);
      }
    }
  }
  return 0;
}
