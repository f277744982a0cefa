#include "analysis/dataset.h"

#include <algorithm>
#include <atomic>

#include "analysis/pipeline.h"
#include "corpus/snippets.h"
#include "support/thread_pool.h"
#include "transform/transform.h"

namespace jst::analysis {
namespace {

// Mixed-configuration stage order: injection first, encodings next,
// structural passes, renaming, minification last — the order a single
// obfuscator pipeline applies its options in. kNoAlphanumeric is excluded
// from mixes (JSFuck output supports no further passes).
int stage_of(transform::Technique technique) {
  using transform::Technique;
  switch (technique) {
    case Technique::kDeadCodeInjection: return 0;
    case Technique::kGlobalArray: return 1;
    case Technique::kStringObfuscation: return 2;
    case Technique::kControlFlowFlattening: return 3;
    case Technique::kDebugProtection: return 4;
    case Technique::kIdentifierObfuscation: return 5;
    case Technique::kMinificationAdvanced: return 6;
    case Technique::kMinificationSimple: return 7;
    case Technique::kSelfDefending: return 8;
    case Technique::kNoAlphanumeric: return 9;
  }
  return 10;
}

}  // namespace

std::vector<std::string> generate_regular_corpus(const CorpusSpec& spec) {
  corpus::ProgramGenerator generator(spec.seed);
  Rng rng(spec.seed ^ 0xabcdef12345ULL);
  std::vector<std::string> out;
  out.reserve(spec.regular_count);
  const auto snippets = corpus::seed_snippets();
  for (std::size_t i = 0; i < spec.regular_count; ++i) {
    corpus::GeneratorOptions options;
    options.flavor = static_cast<int>(rng.index(3));
    options.min_bytes = 700 + rng.index(4200);
    options.comment_line_probability = rng.uniform(0.04, 0.22);
    if (rng.bernoulli(spec.snippet_fraction)) {
      // Snippet-seeded: one or two handwritten snippets, optionally with a
      // generated tail for variety.
      std::string source(snippets[rng.index(snippets.size())]);
      if (rng.bernoulli(0.5)) {
        source += "\n";
        source += snippets[rng.index(snippets.size())];
      }
      if (rng.bernoulli(0.6)) {
        options.min_bytes = 600;
        source += "\n";
        source += generator.generate(options);
      }
      out.push_back(std::move(source));
    } else {
      out.push_back(generator.generate(options));
    }
  }
  return out;
}

Sample make_regular_sample(const std::string& source) {
  Sample sample;
  sample.source = source;
  sample.level1 = level1_from_techniques({});
  return sample;
}

Sample make_transformed_sample(const std::string& source,
                               transform::Technique technique, Rng& rng) {
  Sample sample;
  sample.source = transform::apply_technique(technique, source, rng);
  sample.techniques = transform::labels_produced(technique);
  sample.level1 = level1_from_techniques(sample.techniques);
  return sample;
}

Sample apply_configuration(const std::string& source,
                           std::vector<transform::Technique> techniques,
                           Rng& rng) {
  using transform::Technique;
  std::vector<Technique> chosen = std::move(techniques);
  std::sort(chosen.begin(), chosen.end(),
            [](Technique a, Technique b) { return stage_of(a) < stage_of(b); });

  const bool renames_identifiers =
      std::find(chosen.begin(), chosen.end(),
                Technique::kIdentifierObfuscation) != chosen.end() ||
      std::find(chosen.begin(), chosen.end(),
                Technique::kControlFlowFlattening) != chosen.end();

  std::string current(source);
  for (Technique technique : chosen) {
    if (transform::is_minification(technique) && renames_identifiers) {
      // A combined tool pipeline does not undo its own hex renaming when
      // compacting; keep the obfuscated names.
      transform::MinifyOptions options;
      options.rename_locals = false;
      options.advanced = technique == Technique::kMinificationAdvanced;
      current = transform::minify(current, options);
    } else {
      current = transform::apply_technique(technique, current, rng);
    }
  }

  Sample sample;
  sample.source = std::move(current);
  std::vector<Technique> labels;
  for (Technique technique : chosen) {
    for (Technique label : transform::labels_produced(technique)) {
      if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
        labels.push_back(label);
      }
    }
  }
  sample.techniques = std::move(labels);
  sample.level1 = level1_from_techniques(sample.techniques);
  return sample;
}

Sample make_mixed_sample(const std::string& source,
                         std::size_t technique_count, Rng& rng) {
  using transform::Technique;
  // Candidate pool: everything except no-alphanumeric (JSFuck output
  // supports no further passes).
  std::vector<Technique> pool;
  for (Technique technique : transform::all_techniques()) {
    if (technique != Technique::kNoAlphanumeric) pool.push_back(technique);
  }
  rng.shuffle(pool);
  technique_count = std::min(technique_count, pool.size());
  pool.resize(technique_count);
  return apply_configuration(source, std::move(pool), rng);
}

FeatureTable extract_features(std::vector<Sample> samples,
                              const features::FeatureConfig& config) {
  FeatureTable table;
  table.samples = std::move(samples);
  table.rows.resize(table.samples.size());
  // Each sample parses + extracts independently through the serving
  // front end and extractor. Every lane claims samples one at a time and
  // reuses its own scratch — pooled arena and atom table included — which
  // is freed when training moves on (the thread's serving scratch would
  // keep each worker's largest training script resident while serving);
  // rows land at their own index, so the table is identical for any
  // thread count.
  const std::size_t lanes = support::resolve_threads(0);
  std::atomic<std::size_t> next{0};
  support::run_parallel(lanes, lanes, [&](std::size_t) {
    ScriptScratch scratch;
    for (std::size_t i = next++; i < table.samples.size(); i = next++) {
      const ScriptAnalysis analysis = scratch.analyze_front_end(
          table.samples[i].source, config.analysis);
      table.rows[i] = features::extract_into(analysis, config, scratch.extract);
    }
  });
  return table;
}

ml::LabelMatrix level1_labels(const std::vector<Sample>& samples) {
  ml::LabelMatrix labels;
  labels.reserve(samples.size());
  for (const Sample& sample : samples) {
    labels.push_back({static_cast<std::uint8_t>(sample.level1.regular),
                      static_cast<std::uint8_t>(sample.level1.minified),
                      static_cast<std::uint8_t>(sample.level1.obfuscated)});
  }
  return labels;
}

ml::LabelMatrix level2_labels(const std::vector<Sample>& samples) {
  ml::LabelMatrix labels;
  labels.reserve(samples.size());
  for (const Sample& sample : samples) {
    labels.push_back(technique_row(sample.techniques));
  }
  return labels;
}

}  // namespace jst::analysis
