// Shared pieces of the repository benchmark program (jstbench): options,
// the result record, robust statistics, the detector set-up, seeded
// corpora and the host fingerprint.
//
// Every number jstbench reports is measured here, from the outside:
// the benchmark clocks its own calls into the library's public functions
// and never reads the library's internal stage timers for a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "analysis/wild.h"

namespace jstbench {

namespace analysis = jst::analysis;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Multiplies every corpus size; the smoke tests run at a small scale.
  double scale = 1.0;
  // Where the traced run writes its Chrome trace_event JSON.
  std::string trace_out;
  // Scratch directory (cache files, the daemon socket); created and
  // removed by jstbench. Relative paths keep the socket path short.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's record: the contract line (correct / attempted / failed /
// metrics) plus the fingerprint fields printed beside it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // failed output checks
  std::vector<std::pair<std::string, std::string>> info;  // fingerprint

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  // Records a failed output check; the run reports correct=false.
  void fail_check(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
};

// The end-to-end metrics every workload reports, by the names in
// BENCHMARK.json. add_end_to_end appends them, plus peak_rss_mb, and
// fails the run below the accuracy floor.
struct EndToEnd {
  double setup_s = 0.0;
  double scripts_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double ok_share = 0.0;
  double verdict_accuracy = 0.0;
};
void add_end_to_end(Result& result, const EndToEnd& metrics);

// --- statistics ----------------------------------------------------------

double median(std::vector<double> values);
// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> values, double q);

// --- the system under test -----------------------------------------------

// Fixed detector configuration: the model is part of the system, not of
// the workload, so it does not depend on --seed.
analysis::PipelineOptions detector_options();

struct Setup {
  std::unique_ptr<analysis::TransformationAnalyzer> analyzer;
  std::vector<double> train_s;  // one entry per training repetition
};

// Trains the detectors `repetitions` times (the set-up time is reported as
// a median) and keeps the last model.
Setup train_detectors(int repetitions);

// --- inputs --------------------------------------------------------------

// A script with the simulator's ground truth.
struct LabeledScript {
  std::string source;
  bool transformed = false;  // level-1 truth: minified and/or obfuscated
};

// The wild-study mix (§IV): Alexa, npm and the three malware feeds in
// the shares of the paper's Table I counts and a fixed interleaving. The
// crawl scripts are drawn from `seed`; the feeds are the same collections
// for every seed.
std::vector<LabeledScript> wild_corpus(std::size_t count, std::uint64_t seed);

// `count` scripts of one population.
std::vector<LabeledScript> population_corpus(
    const analysis::PopulationSpec& spec, std::size_t count,
    std::uint64_t seed);

std::size_t scaled(std::size_t count, double scale);

// --- correctness helpers -------------------------------------------------

// Verdict digest line of one outcome: status, level-1 labels and the
// Top-k techniques. Timings are excluded.
std::string verdict_line(const analysis::ScriptOutcome& outcome);
// FNV-1a 64 over the verdict lines of `responses`, in order, as hex.
std::string verdict_digest(
    const std::vector<analysis::AnalyzeResponse>& responses);
// Outcome bytes with the timings zeroed, for bit-identity checks.
std::string outcome_bytes(analysis::ScriptOutcome outcome);

// Share of scripts whose level-1 transformed verdict matches the truth;
// scripts without predictions count as mismatches.
double verdict_accuracy(
    const std::vector<LabeledScript>& scripts,
    const std::vector<analysis::AnalyzeResponse>& responses);

// Minimum verdict_accuracy below which a run fails its output checks.
inline constexpr double kAccuracyFloor = 0.85;

// Per-operation failures of a served response: a rejected request, a
// parse error or a budget quarantine.
bool response_failed(const analysis::AnalyzeResponse& response);

// --- host ----------------------------------------------------------------

double peak_rss_mb();
std::size_t hardware_threads();
// Worker width every pool in the process uses: one lane fewer than nproc,
// at least 1 and at most 4. The spare core absorbs the host's own work,
// which otherwise stalls whichever lane shares its core.
std::size_t pool_width();
void fingerprint(Result& result, const Options& options);

}  // namespace jstbench
