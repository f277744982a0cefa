#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>

#include "analysis/wire.h"
#include "lexer/scan.h"
#include "support/strings.h"
#include "transform/technique.h"

namespace jstbench {

using namespace jst;

void add_end_to_end(Result& result, const EndToEnd& metrics) {
  result.add("setup_s", metrics.setup_s, "s");
  result.add("scripts_per_s", metrics.scripts_per_s, "1/s");
  result.add("latency_p50_ms", metrics.latency_p50_ms, "ms");
  result.add("latency_p99_ms", metrics.latency_p99_ms, "ms");
  result.add("ok_share", metrics.ok_share, "share");
  result.add("verdict_accuracy", metrics.verdict_accuracy, "share");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (metrics.verdict_accuracy < kAccuracyFloor) {
    result.fail_check("verdict_accuracy " +
                      std::to_string(metrics.verdict_accuracy) +
                      " is below the floor " + std::to_string(kAccuracyFloor));
  }
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

analysis::PipelineOptions detector_options() {
  analysis::PipelineOptions options;
  options.training_regular_count = 160;
  options.per_technique_count = 32;
  options.seed = 0xbadc0ffee;
  options.detector.forest.tree_count = 32;
  options.detector.features.ngram.hash_dim = 384;
  return options;
}

Setup train_detectors(int repetitions) {
  Setup setup;
  for (int i = 0; i < repetitions; ++i) {
    const auto start = Clock::now();
    auto analyzer =
        std::make_unique<analysis::TransformationAnalyzer>(detector_options());
    analyzer->train();
    setup.train_s.push_back(ms_since(start) / 1000.0);
    setup.analyzer = std::move(analyzer);
  }
  return setup;
}

std::size_t scaled(std::size_t count, double scale) {
  const auto value = static_cast<std::size_t>(
      std::llround(static_cast<double>(count) * scale));
  return std::max<std::size_t>(value, 1);
}

std::vector<LabeledScript> population_corpus(
    const analysis::PopulationSpec& spec, std::size_t count,
    std::uint64_t seed) {
  std::vector<LabeledScript> scripts;
  for (analysis::Sample& sample :
       analysis::simulate_population(spec, count, seed)) {
    scripts.push_back(
        {std::move(sample.source), !sample.techniques.empty()});
  }
  return scripts;
}

std::vector<LabeledScript> wild_corpus(std::size_t count, std::uint64_t seed) {
  // Shares of the mix: each population's script count in the paper's
  // Table I (§IV-A), the counts bench/bench_table1_datasets.cpp prints, so
  // about 28 % Alexa, 30 % npm, 3 % DNC, 18 % Hynek and 22 % BSI. The
  // malware feeds (§IV-C) bring the JSFuck and packer floods that make the
  // heavy tail of per-script cost. A handful of flood scripts carry about
  // half the corpus's work, so the feeds are fixed collections (as the
  // paper's are) and the stream interleaves the populations in a fixed
  // order: only the crawl scripts are drawn from `seed`. Drawing the
  // floods, or their places in the batch, per seed would let the seed, not
  // the program, set the figures.
  constexpr std::uint64_t kFixedSeed = 0xfeed5eed;
  struct Part {
    analysis::PopulationSpec spec;
    double table1_scripts;
    bool fixed;
  };
  const Part parts[] = {{analysis::alexa_spec(), 46238, false},
                        {analysis::npm_spec(), 51053, false},
                        {analysis::dnc_spec(), 4514, true},
                        {analysis::hynek_spec(), 29484, true},
                        {analysis::bsi_spec(), 36475, true}};
  double table1_total = 0.0;
  for (const Part& part : parts) table1_total += part.table1_scripts;
  std::mt19937_64 crawl_rng(seed);
  std::vector<std::vector<LabeledScript>> populations;
  std::vector<std::size_t> order;
  for (std::size_t p = 0; p < std::size(parts); ++p) {
    const std::uint64_t crawl_seed = crawl_rng();
    populations.push_back(population_corpus(
        parts[p].spec,
        scaled(count, parts[p].table1_scripts / table1_total),
        parts[p].fixed ? kFixedSeed + p : crawl_seed));
    order.insert(order.end(), populations.back().size(), p);
  }
  // Fisher-Yates with the standardized engine, so the order is the same
  // on every standard library.
  std::mt19937_64 order_rng(kFixedSeed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[order_rng() % i]);
  }
  std::vector<std::size_t> next(populations.size(), 0);
  std::vector<LabeledScript> scripts;
  for (const std::size_t p : order) {
    scripts.push_back(std::move(populations[p][next[p]++]));
  }
  return scripts;
}

std::string verdict_line(const analysis::ScriptOutcome& outcome) {
  std::string line(analysis::to_string(outcome.status));
  if (outcome.has_predictions()) {
    const auto& level1 = outcome.report.level1;
    line += level1.minified() ? " M" : " -";
    line += level1.obfuscated() ? "O" : "-";
    for (const transform::Technique technique : outcome.report.techniques) {
      line += ' ';
      line += transform::technique_name(technique);
    }
  }
  return line;
}

std::string verdict_digest(
    const std::vector<analysis::AnalyzeResponse>& responses) {
  std::string all;
  for (const analysis::AnalyzeResponse& response : responses) {
    all += analysis::to_string(response.status);
    all += ' ';
    all += verdict_line(response.outcome);
    all += '\n';
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(strings::fnv1a(all)));
  return hex;
}

std::string outcome_bytes(analysis::ScriptOutcome outcome) {
  outcome.timing = analysis::StageTimings{};
  return analysis::wire::script_outcome_json(outcome);
}

double verdict_accuracy(
    const std::vector<LabeledScript>& scripts,
    const std::vector<analysis::AnalyzeResponse>& responses) {
  if (scripts.empty()) return 0.0;
  std::size_t matches = 0;
  for (std::size_t i = 0; i < scripts.size() && i < responses.size(); ++i) {
    const analysis::ScriptOutcome& outcome = responses[i].outcome;
    if (responses[i].ok() && outcome.has_predictions() &&
        outcome.report.level1.transformed() == scripts[i].transformed) {
      ++matches;
    }
  }
  return static_cast<double>(matches) / static_cast<double>(scripts.size());
}

bool response_failed(const analysis::AnalyzeResponse& response) {
  if (!response.ok()) return true;
  switch (response.outcome.status) {
    case analysis::ScriptStatus::kOk:
    case analysis::ScriptStatus::kIneligibleSize:
    case analysis::ScriptStatus::kIneligibleAst:
      return false;
    default:  // parse error or a budget quarantine
      return true;
  }
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t pool_width() {
  return std::clamp<std::size_t>(hardware_threads() - 1, 1, 4);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

void fingerprint(Result& result, const Options& options) {
  result.note("workload", options.workload);
  result.note("seed", std::to_string(options.seed));
  result.note("seconds", std::to_string(options.seconds));
  result.note("trace", options.trace ? "1" : "0");
  result.note("scale", std::to_string(options.scale));
  result.note("cpu_model", cpu_model());
  result.note("nproc", std::to_string(hardware_threads()));
  result.note("pool_width", std::to_string(pool_width()));
#if defined(__clang__)
  result.note("compiler", "clang " __clang_version__);
#else
  result.note("compiler", "gcc " __VERSION__);
#endif
  result.note("build_type", JSTBENCH_BUILD_TYPE);
  result.note("lexer_scan_path",
              std::string(lex::scan_policy_name(lex::scan_policy())));
}

}  // namespace jstbench
