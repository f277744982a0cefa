// jst-study: the paper's studies behind one driver.
//
//   jst-study <study>|all        (scale: JSTRACED_BENCH_SCALE, default 1)
//
// Each study reproduces a table or figure of the paper (DESIGN.md §4),
// prints it as "paper vs measured" rows and returns the paper's shape
// claims it measured. The shared analyzer (bench::analyzer()) is trained
// once per process. After the studies the driver prints every claim's
// verdict and exits 1 when a verdict differs from the status recorded
// here, so a drifted reproduction fails the `paper` ctest label instead
// of going unnoticed. Claims encode the paper's statements as
// EXPERIMENTS.md gives them; a claim the reproduction misses is recorded
// as a gap with its reason, never dropped.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/longitudinal.h"
#include "analysis/pipeline.h"
#include "bench_common.h"
#include "ml/metrics.h"
#include "ml/multilabel.h"
#include "support/stats.h"
#include "support/strings.h"
#include "transform/transform.h"

namespace {

using namespace jst;
using namespace jst::bench;
using transform::Technique;

// --- claims ---

enum class Status { kReproduced, kGap };

const char* status_name(Status status) {
  return status == Status::kReproduced ? "reproduced" : "gap";
}

// One shape claim: the paper's statement, what this run measured, and the
// status recorded for it with a one-line reason.
struct Claim {
  Status recorded = Status::kReproduced;
  std::string statement;
  bool holds = false;
  std::string measured;
  const char* reason;
};
using Claims = std::vector<Claim>;

__attribute__((format(printf, 1, 2))) std::string format(const char* pattern,
                                                         ...) {
  char buffer[256];
  va_list args;
  va_start(args, pattern);
  std::vsnprintf(buffer, sizeof(buffer), pattern, args);
  va_end(args);
  return buffer;
}

double percent(std::size_t count, std::size_t total) {
  return 100.0 * static_cast<double>(count) / static_cast<double>(total);
}

std::string technique_label(std::size_t index) {
  return std::string(
      transform::technique_name(static_cast<Technique>(index)));
}

// --- shared measurements ---

// Measured transformed-rate of a simulated population under the trained
// level-1 detector.
struct PopulationMeasurement {
  double transformed_rate = 0.0;
  double minified_rate = 0.0;
  double obfuscated_rate = 0.0;
  // Average level-2 confidence per technique over transformed scripts.
  std::vector<double> technique_confidence;
};

double confidence_pct(const PopulationMeasurement& measurement,
                      Technique technique) {
  return 100.0 *
         measurement.technique_confidence[static_cast<std::size_t>(technique)];
}

PopulationMeasurement measure_population(const analysis::PopulationSpec& spec,
                                         std::size_t count,
                                         std::uint64_t seed) {
  const analysis::AnalyzerService service(analyzer());
  const auto samples = analysis::simulate_population(spec, count, seed);
  std::vector<std::string> sources;
  sources.reserve(samples.size());
  for (const analysis::Sample& sample : samples) {
    sources.push_back(sample.source);
  }
  const analysis::BatchResponse batch =
      service.analyze_batch(analysis::make_source_requests(sources));

  PopulationMeasurement out;
  out.technique_confidence.assign(transform::kTechniqueCount, 0.0);
  std::size_t scripts = 0;
  std::size_t transformed = 0;
  for (const analysis::AnalyzeResponse& response : batch.responses) {
    const analysis::ScriptOutcome& outcome = response.outcome;
    if (outcome.parse_failed()) continue;
    const analysis::ScriptReport& report = outcome.report;
    ++scripts;
    if (report.level1.transformed()) {
      ++transformed;
      for (std::size_t i = 0; i < report.technique_confidence.size(); ++i) {
        out.technique_confidence[i] += report.technique_confidence[i];
      }
    }
    if (report.level1.minified()) out.minified_rate += 1.0;
    if (report.level1.obfuscated()) out.obfuscated_rate += 1.0;
  }
  if (scripts > 0) {
    out.transformed_rate =
        static_cast<double>(transformed) / static_cast<double>(scripts);
    out.minified_rate /= static_cast<double>(scripts);
    out.obfuscated_rate /= static_cast<double>(scripts);
  }
  if (transformed > 0) {
    for (double& confidence : out.technique_confidence) {
      confidence /= static_cast<double>(transformed);
    }
  }
  return out;
}

// The Alexa Top 10k population, measured once: Figure 2 prints it and the
// npm study compares against it.
const PopulationMeasurement& alexa_population() {
  static const PopulationMeasurement kAlexa =
      measure_population(analysis::alexa_spec(), scaled(220), 0xa1e8a);
  return kAlexa;
}

// Figures 2-3: minification simple, then advanced, lead a benign mix.
Claim minification_leads(std::string statement,
                         const std::vector<double>& confidence) {
  const auto top2 = ml::top_k_labels(confidence, 2);
  std::string leaders =
      technique_label(top2[0]) + ", " + technique_label(top2[1]);
  const bool holds = leaders == "minification_simple, minification_advanced";
  return {Status::kReproduced, std::move(statement), holds, std::move(leaders),
          "benign scripts are minification-led"};
}

// Validation protocol shared by the chain-vs-independent comparison and
// the ablation: train `options`, then for each fresh base score level 1 on
// the base (regular) and on one single-technique sample (transformed), and
// level 2 on that sample.
struct Validation {
  double level1 = 0.0;
  double subset = 0.0;  // labels at >= 50% confidence, exact set
  double top1 = 0.0;
};

Validation validate(const analysis::PipelineOptions& options,
                    std::uint64_t seed) {
  analysis::TransformationAnalyzer model(options);
  model.train();

  // The sample stream's seed is the bases' seed shifted one hex digit.
  const auto bases =
      held_out_regular(options.training_regular_count / 2, seed);
  Rng rng(seed << 4);
  std::size_t level1_correct = 0;
  std::vector<std::vector<std::size_t>> predicted;
  std::vector<std::vector<std::size_t>> truth;
  std::size_t top1_hits = 0;
  for (const auto& base : bases) {
    const auto regular = analyze(model, base);
    if (!regular.parse_failed() && regular.level1.regular()) ++level1_correct;
    const auto technique = transform::all_techniques()[rng.index(10)];
    const auto sample = analysis::make_transformed_sample(base, technique, rng);
    const auto report = analyze(model, sample.source);
    if (!report.parse_failed() && report.level1.transformed()) ++level1_correct;

    const auto probabilities =
        model.level2().predict_proba(features::extract_from_source(
            sample.source, model.options().detector.features));
    predicted.push_back(
        ml::top_k_labels(probabilities, probabilities.size(), 0.5));
    truth.push_back(analysis::indices_from_techniques(sample.techniques));
    if (ml::topk_correct(ml::top_k_labels(probabilities, 1), truth.back())) {
      ++top1_hits;
    }
  }
  Validation out;
  out.level1 = percent(level1_correct, 2 * bases.size());
  out.subset = 100.0 * ml::subset_accuracy(predicted, truth);
  out.top1 = percent(top1_hits, bases.size());
  return out;
}

// --- studies ---

// Table I — dataset summary. The paper's corpora cannot be redistributed;
// this materializes the simulated stand-ins at proportional scale.
Claims table1_datasets() {
  struct Row {
    const char* source;
    const char* creation;
    long long paper_count;
    const char* klass;
    analysis::PopulationSpec (*spec)();
  };
  const Row rows[] = {
      {"Alexa Top 10k", "2020", 46238, "Benign", &analysis::alexa_spec},
      {"npm Top 10k", "2020", 51053, "Benign", &analysis::npm_spec},
      {"DNC", "2015-2017", 4514, "Malicious", &analysis::dnc_spec},
      {"Hynek", "2015-2017", 29484, "Malicious", &analysis::hynek_spec},
      {"BSI", "2017", 36475, "Malicious", &analysis::bsi_spec},
  };

  print_header("Table I: dataset content (simulated stand-ins)",
               "Table I, section IV-A");
  std::printf("%-16s %-11s %12s %12s %-10s\n", "source", "creation",
              "paper #JS", "simulated", "class");
  const double fraction = 0.004 * scale();  // simulated share of paper scale
  for (const Row& row : rows) {
    const auto simulated_count = static_cast<std::size_t>(
        static_cast<double>(row.paper_count) * fraction) + 8;
    const auto samples = analysis::simulate_population(
        row.spec(), simulated_count, strings::fnv1a(row.source));
    std::printf("%-16s %-11s %12lld %12zu %-10s\n", row.source, row.creation,
                row.paper_count, samples.size(), row.klass);
  }
  // Longitudinal corpora are per-month populations.
  std::printf("%-16s %-11s %12lld %12s %-10s\n", "Alexa Top 2k x65",
              "2015-2020", 327164LL, "(65 specs)", "Benign");
  std::printf("%-16s %-11s %12lld %12s %-10s\n", "npm Top 2k x65", "2015-2020",
              482834LL, "(65 specs)", "Benign");
  print_note("counts scale with JSTRACED_BENCH_SCALE; class mixes follow "
             "section IV-A statistics");
  print_footer();
  return {};
}

// §III-E1 — level-1 accuracy on held-out regular, minified and obfuscated
// samples, plus the Raychev-corpus regular check.
Claims level1_accuracy() {
  const auto& model = analyzer();
  const std::size_t per_class = scaled(120);

  const auto regular = held_out_regular(per_class, 0xa11ce);
  std::size_t regular_correct = 0;
  for (const auto& source : regular) {
    if (analyze(model, source).level1.regular()) ++regular_correct;
  }

  // Minified and obfuscated pools: each technique represented equally.
  Rng rng(0x1e7e11);
  std::size_t minified_correct = 0;
  std::size_t obfuscated_correct = 0;
  const auto bases = held_out_regular(per_class, 0xb0b);
  const Technique kMinified[] = {Technique::kMinificationSimple,
                                 Technique::kMinificationAdvanced};
  const Technique kObfuscated[] = {
      Technique::kIdentifierObfuscation, Technique::kStringObfuscation,
      Technique::kGlobalArray,           Technique::kNoAlphanumeric,
      Technique::kDeadCodeInjection,     Technique::kControlFlowFlattening,
      Technique::kSelfDefending,         Technique::kDebugProtection};
  for (std::size_t i = 0; i < per_class; ++i) {
    const std::string& base = bases[i % bases.size()];
    const auto minified =
        analysis::make_transformed_sample(base, kMinified[i % 2], rng);
    if (analyze(model, minified.source).level1.minified()) ++minified_correct;
    const auto obfuscated =
        analysis::make_transformed_sample(base, kObfuscated[i % 8], rng);
    if (analyze(model, obfuscated.source).level1.obfuscated()) {
      ++obfuscated_correct;
    }
  }

  // Transformed-vs-regular (the binary view used for the wild study).
  std::size_t transformed_correct = 0;
  for (std::size_t i = 0; i < per_class; ++i) {
    const std::string& base = bases[i % bases.size()];
    const Technique technique =
        (i % 2 == 0) ? kMinified[i % 2] : kObfuscated[i % 8];
    const auto sample = analysis::make_transformed_sample(base, technique, rng);
    if (analyze(model, sample.source).level1.transformed()) {
      ++transformed_correct;
    }
  }

  const double overall =
      percent(regular_correct + minified_correct + obfuscated_correct,
              regular.size() + 2 * per_class);
  print_header("Level-1 detector accuracy (test set 1)", "section III-E1");
  print_row("regular detected as regular", 98.65,
            percent(regular_correct, regular.size()));
  print_row("minified detected as minified", 99.71,
            percent(minified_correct, per_class));
  print_row("obfuscated detected as obfuscated", 99.81,
            percent(obfuscated_correct, per_class));
  print_row("overall level-1 accuracy", 99.41, overall);
  print_row("transformed-vs-regular accuracy", 99.69,
            percent(transformed_correct + regular_correct,
                    per_class + regular.size()));

  // "Raychev" check: a large regular-only corpus from a different
  // generator seed stream.
  const auto raychev = held_out_regular(scaled(150), 0x4a1c);
  std::size_t raychev_correct = 0;
  for (const auto& source : raychev) {
    if (analyze(model, source).level1.regular()) ++raychev_correct;
  }
  print_row("regular corpus check (Raychev et al.)", 98.65,
            percent(raychev_correct, raychev.size()));
  print_note("paper scale: 8,000 samples per class; see EXPERIMENTS.md");
  print_footer();
  return {{Status::kReproduced, "level-1 overall accuracy >= 97% (99.41%)",
           overall >= 97.0, format("%.2f%%", overall),
           "the three held-out classes separate as in section III-E1"}};
}

// §III-E1 — level-2 on single-configuration samples: subset accuracy and
// Top-k accuracy, with the Top-k ceiling the label cardinality allows.
Claims level2_accuracy() {
  const auto& model = analyzer();
  const std::size_t per_technique = scaled(24);
  const auto bases = held_out_regular(scaled(60), 0x1ef2);
  Rng rng(0x1ef2c0de);

  std::vector<std::vector<std::size_t>> predicted_sets;
  std::vector<std::vector<std::size_t>> truth_sets;
  std::size_t topk_hits[4] = {0, 0, 0, 0};
  std::size_t at_least[4] = {0, 0, 0, 0};
  std::size_t total = 0;
  for (Technique technique : transform::all_techniques()) {
    for (std::size_t i = 0; i < per_technique; ++i) {
      const std::string& base = bases[rng.index(bases.size())];
      const auto sample = analysis::make_transformed_sample(base, technique, rng);
      const auto probabilities =
          model.level2().predict_proba(features::extract_from_source(
              sample.source, model.options().detector.features));
      const auto truth = analysis::indices_from_techniques(sample.techniques);
      // Subset prediction: labels over 50% confidence (count must match).
      predicted_sets.push_back(
          ml::top_k_labels(probabilities, probabilities.size(), 0.5));
      truth_sets.push_back(truth);
      // Top-k can only be correct when the ground truth has >= k labels;
      // the attainable ceiling depends on the stand-ins' label cardinality.
      for (std::size_t k = 1; k <= 3; ++k) {
        if (ml::topk_correct(ml::top_k_labels(probabilities, k), truth)) {
          ++topk_hits[k];
        }
        if (truth.size() >= k) ++at_least[k];
      }
      ++total;
    }
  }

  print_header("Level-2 detector accuracy (test set 1)", "section III-E1");
  print_row("subset (exact set) accuracy", 86.95,
            100.0 * ml::subset_accuracy(predicted_sets, truth_sets));
  print_row("Top-1 accuracy", 99.63, percent(topk_hits[1], total));
  print_row("Top-2 accuracy", 90.85, percent(topk_hits[2], total));
  print_row("Top-3 accuracy", 98.95, percent(topk_hits[3], total));
  std::printf("%-44s %10s %8.2f%% %8.2f%% %8.2f%%\n",
              "attainable ceiling (truth >= k labels)", "k=1..3:",
              percent(at_least[1], total), percent(at_least[2], total),
              percent(at_least[3], total));
  print_note("1,023 possible predictions; ground truths carry 1-3 labels. "
             "Our tool stand-ins' label cardinality differs from the "
             "paper's tools, bounding Top-2/Top-3 (see EXPERIMENTS.md; the "
             "paper's Top-2 < Top-3 is itself non-monotonic)");
  print_footer();

  Claims claims;
  for (std::size_t k = 2; k <= 3; ++k) {
    const double accuracy = percent(topk_hits[k], total);
    const double ceiling = percent(at_least[k], total);
    claims.push_back(
        {Status::kReproduced,
         format("Top-%zu within 1 point of its label-count ceiling", k),
         ceiling - accuracy <= 1.0,
         format("%.2f%% of %.2f%%", accuracy, ceiling),
         "true labels rank first; the stand-ins' cardinality bounds Top-k"});
  }
  return claims;
}

// §III-E2 / Figure 1 — mixed-technique samples (1-7 ground-truth labels):
// Top-k accuracy and average wrong/missing labels as k grows, plain and
// with the 10% and 50% confidence thresholds.
Claims fig1_mixed() {
  const auto& model = analyzer();
  const std::size_t sample_count = scaled(140);
  const auto bases = held_out_regular(scaled(48), 0xf19);
  Rng rng(0xf19c0de);

  struct Case {
    std::vector<double> probabilities;
    std::vector<std::size_t> truth;
  };
  std::vector<Case> cases;
  cases.reserve(sample_count);
  std::size_t level1_transformed = 0;
  for (std::size_t i = 0; i < sample_count; ++i) {
    const std::string& base = bases[rng.index(bases.size())];
    const std::size_t technique_count = 1 + rng.index(5);
    const auto sample = analysis::make_mixed_sample(base, technique_count, rng);
    const auto row = features::extract_from_source(
        sample.source, model.options().detector.features);
    if (model.level1().predict(row).transformed()) ++level1_transformed;
    cases.push_back({model.level2().predict_proba(row),
                     analysis::indices_from_techniques(sample.techniques)});
  }
  const double flagged = percent(level1_transformed, cases.size());

  print_header("Mixed-technique detection (test set 2)",
               "section III-E2, Figure 1");
  print_row("level-1: mixed files flagged transformed", 99.99, flagged);

  // One Figure 1 panel: for k = 1..8, the Top-k labels at `threshold`.
  // Returns the average wrong labels at k = 7.
  const auto panel = [&](double threshold, bool show_kept) {
    double wrong_at_7 = 0.0;
    for (std::size_t k = 1; k <= 8; ++k) {
      std::size_t hits = 0;
      double wrong = 0.0;
      double missing = 0.0;
      double kept = 0.0;
      for (const Case& c : cases) {
        const auto picked = ml::top_k_labels(c.probabilities, k, threshold);
        if (ml::topk_correct(picked, c.truth)) ++hits;
        wrong += static_cast<double>(ml::wrong_labels(picked, c.truth));
        missing += static_cast<double>(ml::missing_labels(picked, c.truth));
        kept += static_cast<double>(picked.size());
      }
      const double n = static_cast<double>(cases.size());
      std::printf("%4zu %9.2f%% %12.3f %14.3f", k,
                  100.0 * static_cast<double>(hits) / n, wrong / n,
                  missing / n);
      if (show_kept) std::printf(" %12.2f", kept / n);
      std::printf("\n");
      if (k == 7) wrong_at_7 = wrong / n;
    }
    return wrong_at_7;
  };

  std::printf("\nFigure 1a: plain Top-k (no threshold)\n");
  std::printf("%4s %10s %12s %14s\n", "k", "accuracy", "avg wrong",
              "avg missing");
  panel(-INFINITY, false);
  double wrong_at_7 = 0.0;
  for (const double threshold : {0.10, 0.50}) {
    std::printf("\nFigure 1%s: Top-k with %.0f%% confidence threshold\n",
                threshold < 0.3 ? "b" : "c", threshold * 100);
    std::printf("%4s %10s %12s %14s %12s\n", "k", "accuracy", "avg wrong",
                "avg missing", "avg kept");
    const double wrong = panel(threshold, true);
    if (threshold < 0.3) wrong_at_7 = wrong;
  }
  print_note("paper: threshold 10% keeps avg wrong labels < 0.32 while "
             "detecting up to 7 techniques; 50% recognizes only 3-4");
  print_footer();
  return {
      {Status::kReproduced, "mixed files flagged transformed >= 99% (99.99%)",
       flagged >= 99.0, format("%.2f%%", flagged),
       "level 1 flags every multi-technique sample"},
      {Status::kGap, "Fig. 1b: avg wrong labels < 0.32 at 10%, k=7",
       wrong_at_7 < 0.32, format("%.3f", wrong_at_7),
       "absent techniques reach 10% confidence on stand-in mixes"},
  };
}

// §III-E3 — the unseen Dean Edwards packer (Daft Logic): level-1 rate and
// the level-2 Top-4 readout by average confidence.
Claims daftlogic() {
  const auto& model = analyzer();
  const std::size_t sample_count = scaled(80);
  const auto bases = held_out_regular(sample_count, 0xdaf7);
  Rng rng(0xdaf70b);

  std::size_t transformed = 0;
  std::vector<double> average_confidence(transform::kTechniqueCount, 0.0);
  for (const std::string& base : bases) {
    const auto report = analyze(model, transform::pack(base, rng));
    if (report.parse_failed()) continue;
    if (report.level1.transformed()) ++transformed;
    for (std::size_t i = 0; i < report.technique_confidence.size(); ++i) {
      average_confidence[i] += report.technique_confidence[i];
    }
  }
  for (double& confidence : average_confidence) {
    confidence /= static_cast<double>(bases.size());
  }
  const double flagged = percent(transformed, bases.size());

  print_header("Unseen tool: Dean Edwards packer (Daft Logic)",
               "section III-E3");
  print_row("level-1: packed files flagged transformed", 99.52, flagged);

  // Paper's level-2 readout: the Top-4 techniques (threshold 10%).
  const auto expected = transform::packer_labels();
  std::printf("\nlevel-2 Top-4 over packed samples (by avg confidence):\n");
  std::printf("%-6s %-28s %12s %10s\n", "rank", "technique", "confidence",
              "expected");
  std::size_t expected_in_top4 = 0;
  std::size_t rank = 0;
  for (const std::size_t index : ml::top_k_labels(average_confidence, 4)) {
    const bool is_expected =
        std::find(expected.begin(), expected.end(),
                  static_cast<Technique>(index)) != expected.end();
    if (is_expected) ++expected_in_top4;
    std::printf("%-6zu %-28s %11.1f%% %10s\n", ++rank,
                technique_label(index).c_str(),
                100.0 * average_confidence[index], is_expected ? "yes" : "-");
  }
  print_row("expected techniques inside Top-4 (of 4)", 4.0,
            static_cast<double>(expected_in_top4), "");
  print_note("paper's Top-4 readout: minification advanced + simple, "
             "identifier obfuscation, string obfuscation");
  print_footer();
  return {
      {Status::kReproduced, "packer flagged transformed >= 99% (99.52%)",
       flagged >= 99.0, format("%.2f%%", flagged),
       "level 1 generalizes to an unseen tool"},
      {Status::kReproduced, "packer Top-4 holds the 4 expected techniques",
       expected_in_top4 == 4, format("%zu of 4", expected_in_top4),
       "minification and renaming dominate packed output"},
  };
}

// Figures 2 and 3 print the same rows for one population.
void print_population(const PopulationMeasurement& measurement,
                      const double (&paper)[3], const char* figure,
                      const double (&paper_mix)[transform::kTechniqueCount]) {
  print_row("scripts transformed", paper[0],
            100.0 * measurement.transformed_rate);
  print_row("scripts minified", paper[1], 100.0 * measurement.minified_rate);
  print_row("scripts obfuscated", paper[2],
            100.0 * measurement.obfuscated_rate);
  std::printf("\n%s: technique probability in transformed scripts\n", figure);
  std::printf("%-28s %10s %10s\n", "technique", "paper", "measured");
  for (Technique technique : transform::all_techniques()) {
    const auto index = static_cast<std::size_t>(technique);
    std::printf("%-28s %9.2f%% %9.2f%%\n",
                technique_label(index).c_str(), paper_mix[index],
                100.0 * measurement.technique_confidence[index]);
  }
}

// §IV-B1 / Figure 2 — Alexa Top 10k: share of transformed scripts and the
// per-technique usage probability among them.
Claims fig2_alexa() {
  const PopulationMeasurement& measurement = alexa_population();
  print_header("Alexa Top 10k websites", "section IV-B1, Figure 2");
  print_population(measurement, {68.60, 68.20, 0.40}, "Figure 2",
                   {
                       5.72,   // identifier obfuscation
                       1.94,   // string obfuscation (upper bound "below 1.94")
                       1.0,    // global array
                       0.2,    // no alphanumeric
                       1.0,    // dead code injection
                       0.5,    // control-flow flattening
                       0.3,    // self-defending
                       0.3,    // debug protection
                       45.96,  // minification simple
                       40.24,  // minification advanced
                   });
  print_note("measured = average level-2 confidence over scripts the "
             "level-1 detector flags as transformed");
  print_footer();
  return {minification_leads("Fig. 2: min. simple, then advanced, lead Alexa",
                             measurement.technique_confidence)};
}

// §IV-B2 / Figure 3 — npm Top 10k packages: ~8x less transformed than
// Alexa, technique mix dominated by minification.
Claims fig3_npm() {
  const auto measurement =
      measure_population(analysis::npm_spec(), scaled(260), 0x09b3);
  print_header("npm Top 10k packages", "section IV-B2, Figure 3");
  print_population(measurement, {8.70, 8.46, 0.25}, "Figure 3",
                   {
                       4.5,    // identifier obfuscation
                       1.5,    // string obfuscation
                       0.8,    // global array
                       0.2,    // no alphanumeric
                       0.8,    // dead code injection
                       0.4,    // control-flow flattening
                       0.2,    // self-defending
                       0.4,    // debug protection
                       58.34,  // minification simple
                       36.57,  // minification advanced
                   });
  print_note("npm scripts are fully transformed when transformed at all "
             "(no regular-head/minified-tail mixtures, unlike Alexa)");
  print_footer();
  const double alexa = alexa_population().transformed_rate;
  return {
      {Status::kReproduced, "Alexa transformed >= 5x npm (7.9x)",
       alexa >= 5.0 * measurement.transformed_rate,
       format("%.1fx", alexa / measurement.transformed_rate),
       "site bundles are minified far more often than packages"},
      minification_leads("Fig. 3: min. simple, then advanced, lead npm",
                         measurement.technique_confidence),
  };
}

// §IV-B1 + Figure 4 — popularity-rank effects. Alexa: ~80% of the Top 1k
// transformed against 72.35% of Top 9k-10k. npm: the 1k most popular
// packages are 2.4-4.4x less likely to contain transformed code.
Claims rank_effect() {
  const std::size_t per_bucket = scaled(70);

  print_header("Rank effect: Alexa 1k-buckets", "section IV-B1");
  std::printf("%-12s %14s %14s\n", "bucket", "paper approx", "measured");
  double alexa_top = 0.0;
  double alexa_last = 0.0;
  for (std::size_t bucket = 0; bucket < 10; bucket += 3) {
    const auto measurement = measure_population(
        analysis::alexa_rank_bucket_spec(bucket), per_bucket, 0xa0 + bucket);
    const double paper = 80.0 + (72.35 - 80.0) * static_cast<double>(bucket) / 9.0;
    std::printf("Top %zuk-%zuk %13.2f%% %13.2f%%\n", bucket, bucket + 1, paper,
                100.0 * measurement.transformed_rate);
    (bucket == 0 ? alexa_top : alexa_last) = measurement.transformed_rate;
  }

  print_header("Rank effect: npm 1k-buckets", "section IV-B2, Figure 4");
  std::printf("%-12s %14s %14s\n", "bucket", "paper approx", "measured");
  double top1k_rate = 0.0;
  double later_rate = 0.0;
  // npm rates are small (3-13%); measure more scripts per bucket so the
  // 2.4-4.4x factor is not washed out by sampling noise.
  const std::size_t npm_per_bucket = per_bucket * 4;
  for (const std::size_t bucket : {std::size_t{0}, std::size_t{4}, std::size_t{9}}) {
    const auto measurement = measure_population(
        analysis::npm_rank_bucket_spec(bucket), npm_per_bucket, 0xb0 + bucket);
    const double paper = bucket == 0 ? 3.2 : 7.5 + 0.6 * static_cast<double>(bucket);
    std::printf("Top %zuk-%zuk %13.2f%% %13.2f%%\n", bucket, bucket + 1, paper,
                100.0 * measurement.transformed_rate);
    (bucket == 0 ? top1k_rate : later_rate) = measurement.transformed_rate;
  }
  const double factor = top1k_rate > 0.0 ? later_rate / top1k_rate : 0.0;
  if (top1k_rate > 0.0) {
    print_row("npm: later-bucket / Top-1k factor (2.4-4.4x)", 3.4, factor, "x");
  }
  print_footer();
  return {
      {Status::kGap, "Alexa Top-1k more transformed than Top 9k-10k",
       alexa_top > alexa_last,
       format("%.2f%% vs %.2f%%", 100.0 * alexa_top, 100.0 * alexa_last),
       "the specs' 7.65-point gradient is within 70-script bucket noise"},
      {Status::kReproduced, "npm later buckets 2.4-4.4x Top-1k transformed",
       factor >= 2.4 && factor <= 4.4, format("%.2fx", factor),
       "popular packages ship less transformed code"},
  };
}

// §IV-C / Figure 5 — malicious feeds: level-1 transformed rates and the
// technique mix among transformed samples, then monthly waves of BSI.
Claims fig5_malware() {
  struct Feed {
    const char* name;
    analysis::PopulationSpec (*spec)();
    double paper_transformed;
  };
  const Feed feeds[] = {
      {"DNC (exploit kits)", &analysis::dnc_spec, 65.94},
      {"Hynek (malware)", &analysis::hynek_spec, 73.07},
      {"BSI (JScript loaders)", &analysis::bsi_spec, 28.93},
  };

  print_header("Malicious JavaScript feeds", "section IV-C, Figure 5");
  std::vector<double> transformed;
  for (const Feed& feed : feeds) {
    const auto measurement =
        measure_population(feed.spec(), scaled(150), strings::fnv1a(feed.name));
    transformed.push_back(100.0 * measurement.transformed_rate);
    print_row(std::string(feed.name) + ": transformed", feed.paper_transformed,
              transformed.back());
  }

  std::printf("\nFigure 5: technique probability in transformed malware\n");
  std::printf("%-28s %10s", "technique", "paper");
  for (const Feed& feed : feeds) std::printf(" %10.10s", feed.name);
  std::printf("\n");
  const double paper_values[transform::kTechniqueCount] = {
      31.0,  // identifier obfuscation (25-37%)
      19.0,  // string obfuscation (17-21%)
      7.5,   // global array (5-10%)
      2.0,   // no alphanumeric
      7.5,   // dead code (5-10%)
      7.5,   // control-flow flattening (5-10%)
      2.0,   // self-defending
      2.5,   // debug protection
      15.0,  // minification simple (22% for DNC)
      19.0,  // minification advanced (17-21%)
  };
  std::vector<PopulationMeasurement> measurements;
  for (const Feed& feed : feeds) {
    measurements.push_back(measure_population(feed.spec(), scaled(150),
                                              strings::fnv1a(feed.name) + 1));
  }
  for (Technique technique : transform::all_techniques()) {
    const auto index = static_cast<std::size_t>(technique);
    std::printf("%-28s %9.1f%%", technique_label(index).c_str(),
                paper_values[index]);
    for (const auto& measurement : measurements) {
      std::printf(" %9.1f%%", 100.0 * measurement.technique_confidence[index]);
    }
    std::printf("\n");
  }
  print_note("identifier obfuscation should dominate each malicious feed, "
             "unlike the minification-led benign mixes (Figures 2-3)");

  // Figure 5's x-axis is per-month: malware arrives in waves, with one
  // configuration dominating each month and strongly varying transformed
  // rates (§IV-C2 notes the per-month sample counts differ).
  std::printf("\nFigure 5 monthly waves (BSI feed, sampled months):\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "month", "transformed",
              "id obf", "str obf", "min adv");
  const auto base = analysis::bsi_spec();
  for (std::size_t month = 0; month < 30; month += 6) {
    const auto measurement = measure_population(
        analysis::malware_month_spec(base, month), scaled(40), 0xb51 + month);
    std::printf("%-10s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
                analysis::month_label(month).c_str(),
                100.0 * measurement.transformed_rate,
                confidence_pct(measurement, Technique::kIdentifierObfuscation),
                confidence_pct(measurement, Technique::kStringObfuscation),
                confidence_pct(measurement, Technique::kMinificationAdvanced));
  }
  print_note("the top-3 malicious techniques stay the same across months "
             "even as the waves shift rates (paper's summary IV-E)");
  print_footer();

  // Feeds whose mix ranks identifier obfuscation first, string
  // obfuscation second.
  std::size_t id_first = 0;
  std::size_t str_second = 0;
  for (const auto& measurement : measurements) {
    const auto top2 = ml::top_k_labels(measurement.technique_confidence, 2);
    if (static_cast<Technique>(top2[0]) == Technique::kIdentifierObfuscation) {
      ++id_first;
    }
    if (static_cast<Technique>(top2[1]) == Technique::kStringObfuscation) {
      ++str_second;
    }
  }
  const bool bsi_least =
      transformed[2] < transformed[0] && transformed[2] < transformed[1];
  return {
      {Status::kReproduced, "Fig. 5: identifier obfuscation first in all feeds",
       id_first == 3, format("%zu of 3 feeds", id_first),
       "malware is obfuscation-led, unlike the benign mixes"},
      {Status::kGap, "Fig. 5: string obfuscation second in all feeds",
       str_second == 3, format("%zu of 3 feeds", str_second),
       "minification simple outranks it in every stand-in feed"},
      {Status::kReproduced, "BSI is the least transformed feed (28.93%)",
       bsi_least,
       format("%.2f%% vs %.2f%%, %.2f%%", transformed[2], transformed[0],
              transformed[1]),
       "JScript loaders are mostly shipped in clear"},
  };
}

// The Figures 6-8 month row: transformed share and the leading techniques.
void print_month(std::size_t month, const PopulationMeasurement& measurement) {
  std::printf("%-10s %11.2f%% %11.2f%% %11.2f%% %11.2f%%\n",
              analysis::month_label(month).c_str(),
              100.0 * measurement.transformed_rate,
              confidence_pct(measurement, Technique::kMinificationSimple),
              confidence_pct(measurement, Technique::kMinificationAdvanced),
              confidence_pct(measurement, Technique::kIdentifierObfuscation));
}

void print_month_header() {
  std::printf("%-10s %12s %12s %12s %12s\n", "month", "transformed",
              "min simple", "min adv", "id obf");
}

// §IV-D1 / Figures 6-7 — Alexa Top 2k, 2015-05 .. 2020-09: the share of
// transformed scripts rises steadily.
Claims fig67_longitudinal_alexa() {
  const std::size_t per_month = scaled(64);
  const std::size_t month_step = 8;  // sample every ~8 months

  print_header("Longitudinal Alexa Top 2k", "section IV-D1, Figures 6-7");
  print_month_header();
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t month = 0; month < analysis::kMonthCount;
       month += month_step) {
    const auto measurement = measure_population(
        analysis::alexa_month_spec(month), per_month, 0x60 + month);
    print_month(month, measurement);
    xs.push_back(static_cast<double>(month));
    ys.push_back(measurement.transformed_rate);
  }
  std::printf("\n");
  // Least-squares slope over the sampled months (robust to per-month
  // sampling noise), scaled to the whole 65-month window.
  double x_mean = 0.0;
  double y_mean = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    x_mean += xs[i];
    y_mean += ys[i];
  }
  x_mean /= static_cast<double>(xs.size());
  y_mean /= static_cast<double>(ys.size());
  double numerator = 0.0;
  double denominator = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    numerator += (xs[i] - x_mean) * (ys[i] - y_mean);
    denominator += (xs[i] - x_mean) * (xs[i] - x_mean);
  }
  const double slope = denominator > 0.0 ? numerator / denominator : 0.0;
  const double delta = 100.0 * slope * (analysis::kMonthCount - 1);
  print_row("trend: transformed share delta (rising)", 14.0, delta, " pp");
  print_note("paper: steady increase driven by minification-simple growth "
             "(38.74% -> 47.02%)");
  print_footer();
  return {{Status::kReproduced, "Alexa transformed share has a positive slope",
           delta > 0.0, format("%+.2f pp", delta),
           "the month specs raise the transformed share 56% -> 70%"}};
}

// §IV-D2 / Figures 6+8 — npm Top 2k, 2015-05 .. 2020-09: three phases of
// the transformed share driven by package churn.
Claims fig8_longitudinal_npm() {
  const std::size_t per_month = scaled(56);
  const std::size_t month_step = 4;

  print_header("Longitudinal npm Top 2k", "section IV-D2, Figures 6+8");
  print_month_header();
  std::vector<double> phases[3];
  for (std::size_t month = 0; month < analysis::kMonthCount;
       month += month_step) {
    const auto measurement = measure_population(
        analysis::npm_month_spec(month), per_month, 0x80 + month);
    print_month(month, measurement);
    phases[month < 12 ? 0 : month < 49 ? 1 : 2].push_back(
        measurement.transformed_rate);
  }
  std::printf("\n");
  const double phase1 = 100.0 * stats::mean(phases[0]);
  const double phase2 = 100.0 * stats::mean(phases[1]);
  const double phase3 = 100.0 * stats::mean(phases[2]);
  print_row("phase 1 (2015-05..2016-04) avg transformed", 7.40, phase1);
  print_row("phase 2 (2016-05..2019-05) avg transformed", 17.95, phase2);
  print_row("phase 3 (2019-06..2020-09) avg transformed", 15.17, phase3);
  print_row("phase 1 relative stddev (package churn)", 24.22,
            stats::relative_stddev_percent(phases[0]));
  print_note("three phases reflect npm package churn, not a secular trend; "
             "the technique mix stays minification-led throughout");
  print_footer();
  return {{Status::kReproduced, "npm phase 2 > phase 3 > phase 1",
           phase2 > phase3 && phase3 > phase1,
           format("%.2f%% > %.2f%% > %.2f%%", phase2, phase3, phase1),
           "the churn model reproduces the three phases"}};
}

// §III-D3 — validation-set comparison of the two multi-task strategies.
// The paper selects the classifier chain.
Claims chain_vs_independent() {
  const std::size_t scale_count = scaled(90);
  const auto variant = [scale_count](bool use_chain) {
    analysis::PipelineOptions options;
    options.training_regular_count = scale_count;
    options.per_technique_count = scale_count / 5;
    options.seed = use_chain ? 0xc4a1 : 0x1d4e;
    options.detector.classifier_chain = use_chain;
    options.detector.forest.tree_count = 24;
    options.detector.features.ngram.hash_dim = 256;
    std::fprintf(stderr, "[bench] training %s variant...\n",
                 use_chain ? "chain" : "independent");
    return validate(options, 0x7a11d);
  };
  const Validation chain = variant(true);
  const Validation independent = variant(false);

  print_header("Classifier chain vs. independence assumption",
               "section III-D3");
  std::printf("%-36s %12s %12s\n", "metric", "chain", "independent");
  std::printf("%-36s %11.2f%% %11.2f%%\n", "level-1 accuracy", chain.level1,
              independent.level1);
  std::printf("%-36s %11.2f%% %11.2f%%\n", "level-2 subset accuracy",
              chain.subset, independent.subset);
  std::printf("%-36s %11.2f%% %11.2f%%\n", "level-2 Top-1 accuracy",
              chain.top1, independent.top1);
  print_note("paper: the chain variant won on the validation set and is "
             "used for all reported results");
  print_footer();
  return {{Status::kReproduced,
           "classifier chain beats independence (subset acc.)",
           chain.subset > independent.subset,
           format("%.2f%% vs %.2f%%", chain.subset, independent.subset),
           "chained labels capture technique co-occurrence"}};
}

// Ablations over the design choices DESIGN.md §5 calls out: feature
// families, data-flow features, forest size. Each configuration trains a
// fresh pipeline on the shared validation protocol.
Claims ablation() {
  struct Config {
    const char* name;
    bool use_ngrams;
    bool use_handpicked;
    bool use_dataflow;
    std::size_t trees;
  };
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
  std::vector<Validation> results;
  for (const Config& config : configs) {
    std::fprintf(stderr, "[bench] ablation: %s...\n", config.name);
    analysis::PipelineOptions options;
    options.training_regular_count = scale_count;
    options.per_technique_count = scale_count / 5;
    options.seed = strings::fnv1a(config.name);
    options.detector.forest.tree_count = config.trees;
    options.detector.features.use_ngrams = config.use_ngrams;
    options.detector.features.use_handpicked = config.use_handpicked;
    options.detector.features.ngram.hash_dim = 256;
    options.detector.features.analysis.build_dataflow = config.use_dataflow;
    results.push_back(validate(options, 0xab1a7e));
    std::printf("%-38s %11.2f%% %13.2f%%\n", config.name,
                results.back().level1, results.back().top1);
  }
  print_note("the paper's choice (both feature families, flows on, chain "
             "classifier) should be at or near the top on both metrics");
  print_footer();
  const Validation& ngrams = results[1];
  const Validation& handpicked = results[2];
  return {{Status::kReproduced,
           "hand-picked only beats 4-grams only (L1, Top-1)",
           handpicked.level1 > ngrams.level1 && handpicked.top1 > ngrams.top1,
           format("%.2f/%.2f%% vs %.2f/%.2f%%", handpicked.level1,
                  handpicked.top1, ngrams.level1, ngrams.top1),
           "expert features carry the signal at small training scale"}};
}

// §II-C — techniques outside the level-2 label set (obfuscated field
// reference, integer obfuscation) are still flagged transformed by level 1.
Claims unmonitored() {
  const auto& model = analyzer();
  const std::size_t sample_count = scaled(60);
  const auto bases = held_out_regular(sample_count, 0xf1e1d);
  Rng rng(0xf1e1d0);

  std::size_t regular_as_regular = 0;
  std::size_t field_ref_flagged = 0;
  std::size_t integer_flagged = 0;
  std::size_t both_flagged = 0;
  for (const std::string& base : bases) {
    if (analyze(model, base).level1.regular()) ++regular_as_regular;
    const std::string field_ref =
        transform::obfuscate_field_references(base, rng);
    if (analyze(model, field_ref).level1.transformed()) ++field_ref_flagged;
    const std::string integers = transform::obfuscate_integers(base, rng);
    if (analyze(model, integers).level1.transformed()) ++integer_flagged;
    Rng combo_rng(rng.next());
    const std::string both = transform::obfuscate_integers(
        transform::obfuscate_field_references(base, combo_rng), combo_rng);
    if (analyze(model, both).level1.transformed()) ++both_flagged;
  }

  print_header("Unmonitored techniques still flagged transformed",
               "section II-C (generalization beyond the 10 classes)");
  print_row("untransformed bases kept regular", 98.65,
            percent(regular_as_regular, bases.size()));
  print_row("obfuscated field reference -> transformed", 99.0,
            percent(field_ref_flagged, bases.size()));
  print_row("integer obfuscation -> transformed", 99.0,
            percent(integer_flagged, bases.size()));
  print_row("both combined -> transformed", 99.0,
            percent(both_flagged, bases.size()));
  print_note("paper gives no exact number for unmonitored techniques; the "
             "claim is qualitative (level 1 flags them, level 2 does not "
             "name them)");
  print_footer();
  const std::size_t fewest =
      std::min({field_ref_flagged, integer_flagged, both_flagged});
  return {{Status::kReproduced,
           "unmonitored techniques flagged transformed (> 50%)",
           2 * fewest > bases.size(),
           format("%.2f%% at least", percent(fewest, bases.size())),
           "level 1 generalizes beyond the ten classes"}};
}

struct Study {
  const char* name;
  Claims (*run)();
};

constexpr Study kStudies[] = {
    {"table1_datasets", &table1_datasets},
    {"level1_accuracy", &level1_accuracy},
    {"level2_accuracy", &level2_accuracy},
    {"fig1_mixed", &fig1_mixed},
    {"daftlogic", &daftlogic},
    {"fig2_alexa", &fig2_alexa},
    {"fig3_npm", &fig3_npm},
    {"rank_effect", &rank_effect},
    {"fig5_malware", &fig5_malware},
    {"fig67_longitudinal_alexa", &fig67_longitudinal_alexa},
    {"fig8_longitudinal_npm", &fig8_longitudinal_npm},
    {"chain_vs_independent", &chain_vs_independent},
    {"ablation", &ablation},
    {"unmonitored", &unmonitored},
};

// Prints each study's claims with their verdicts; returns how many
// verdicts differ from the recorded status.
std::size_t print_claims(
    const std::vector<std::pair<const char*, Claim>>& claims) {
  std::printf("\nPaper claims: measured verdict vs recorded status\n");
  print_footer();
  std::printf("%-10s %-24s %-52s %s\n", "verdict", "study", "claim",
              "measured");
  std::size_t gaps = 0;
  std::size_t mismatches = 0;
  for (const auto& [study, claim] : claims) {
    const Status verdict = claim.holds ? Status::kReproduced : Status::kGap;
    gaps += verdict == Status::kGap;
    mismatches += verdict != claim.recorded;
    std::printf("%-10s %-24s %-52s %s\n", status_name(verdict), study,
                claim.statement.c_str(), claim.measured.c_str());
    if (verdict != claim.recorded || verdict == Status::kGap) {
      std::printf("  %s %s: %s\n",
                  verdict != claim.recorded ? "MISMATCH, recorded" : "recorded",
                  status_name(claim.recorded), claim.reason);
    }
  }
  print_footer();
  std::printf("%zu claims: %zu reproduced, %zu gap; %zu differ from the "
              "recorded status\n",
              claims.size(), claims.size() - gaps, gaps, mismatches);
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view wanted = argc == 2 ? argv[1] : "";
  std::vector<std::pair<const char*, Claim>> claims;
  bool matched = false;
  for (const Study& study : kStudies) {
    if (wanted != "all" && wanted != study.name) continue;
    matched = true;
    for (Claim& claim : study.run()) claims.emplace_back(study.name, claim);
  }
  if (!matched) {
    std::fprintf(stderr, "usage: jst-study <study>|all\nstudies:");
    for (const Study& study : kStudies) std::fprintf(stderr, " %s", study.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return print_claims(claims) == 0 ? 0 : 1;
}
