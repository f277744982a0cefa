// §III-E3 — generalization to an unseen tool: the Daft Logic obfuscator
// (Dean Edwards packer). Paper: level 1 flags 99.52% as transformed;
// level 2 (Top-4 @ 10%) reports minification advanced + simple, identifier
// obfuscation, and string obfuscation.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "transform/transform.h"

int main() {
  using namespace jst;
  using namespace jst::bench;

  const auto& model = analyzer();
  const std::size_t sample_count = scaled(80);
  const auto bases = held_out_regular(sample_count, 0xdaf7);
  Rng rng(0xdaf70b);

  std::size_t transformed = 0;
  std::vector<double> average_confidence(transform::kTechniqueCount, 0.0);
  for (const std::string& base : bases) {
    const std::string packed = transform::pack(base, rng);
    const auto report = analyze(model, packed);
    if (report.parse_failed()) continue;
    if (report.level1.transformed()) ++transformed;
    for (std::size_t i = 0; i < report.technique_confidence.size(); ++i) {
      average_confidence[i] += report.technique_confidence[i];
    }
  }
  for (double& confidence : average_confidence) {
    confidence /= static_cast<double>(bases.size());
  }

  print_header("Unseen tool: Dean Edwards packer (Daft Logic)",
               "section III-E3");
  print_row("level-1: packed files flagged transformed", 99.52,
            100.0 * static_cast<double>(transformed) /
                static_cast<double>(bases.size()));

  // Paper's level-2 readout: the Top-4 techniques (threshold 10%).
  std::vector<std::size_t> order(transform::kTechniqueCount);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return average_confidence[a] > average_confidence[b];
  });
  const auto expected = transform::packer_labels();
  std::printf("\nlevel-2 Top-4 over packed samples (by avg confidence):\n");
  std::printf("%-6s %-28s %12s %10s\n", "rank", "technique", "confidence",
              "expected");
  std::size_t expected_in_top4 = 0;
  for (std::size_t rank = 0; rank < 4; ++rank) {
    const auto technique = static_cast<transform::Technique>(order[rank]);
    const bool is_expected =
        std::find(expected.begin(), expected.end(), technique) !=
        expected.end();
    if (is_expected) ++expected_in_top4;
    std::printf("%-6zu %-28s %11.1f%% %10s\n", rank + 1,
                std::string(transform::technique_name(technique)).c_str(),
                100.0 * average_confidence[order[rank]],
                is_expected ? "yes" : "-");
  }
  print_row("expected techniques inside Top-4 (of 4)", 4.0,
            static_cast<double>(expected_in_top4), "");
  print_note("paper's Top-4 readout: minification advanced + simple, "
             "identifier obfuscation, string obfuscation");
  print_footer();
  return 0;
}
