// snapshot_cache: the jstraced-snapshot loop, in-process (the paper's
// 65-month study, §IV-D).
//
// Month 0 is a seeded Alexa population; each later month is
// evolve_snapshot of the one before (persistence 0.7), and every month is
// served through an AnalyzerService with a ResultCache attached: a memory
// tier whose byte budget is smaller than one month's outcomes, plus a disk
// tier in a fresh directory, so some hits come from disk. Cache reads run
// beside cache writes, and only content-new scripts reach the pipeline, so
// a cache change shows here far more than a pipeline change.
//
// Each pass walks every month with a new cache. Requests go through
// single AnalyzerService::analyze calls spread over the pool, each timed
// by the benchmark, and scripts_per_s counts served scripts, hits
// included, per second of the benchmark's own wall clock (per-month
// medians over the passes). The latency percentiles are taken over every
// call of a pass, then their median over the passes. None of these
// figures comes from BatchStats: on a hit its stage sums replay the
// timings of the original analysis.
#include <filesystem>
#include <unordered_map>
#include <unordered_set>

#include "analysis/longitudinal.h"
#include "support/strings.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace jstbench {

using namespace jst;

namespace {

constexpr std::size_t kScriptsPerMonth = 128;
constexpr double kPersistence = 0.7;
constexpr int kTrainRepetitions = 3;
// Served hits re-checked against a bypassed re-analysis, per month.
constexpr std::size_t kHitChecksPerMonth = 2;

struct Months {
  std::vector<std::vector<analysis::AnalyzeRequest>> requests;
  std::vector<std::vector<std::string>> sources;
  std::vector<std::vector<bool>> transformed;  // ground truth per slot
  std::vector<std::string> distinct;  // every script once, first-seen order
  std::size_t bytes = 0;
};

Months make_months(std::size_t months, std::size_t scripts,
                   std::uint64_t seed) {
  Months out;
  // Ground truth by content: month 0's samples and, for each later month,
  // the replacement draw evolve_snapshot makes from the same seed.
  std::unordered_map<std::string, bool> truth;
  std::vector<std::string> current;
  for (std::size_t month = 0; month < months; ++month) {
    const analysis::PopulationSpec spec = analysis::alexa_month_spec(month);
    const std::uint64_t month_seed = month == 0 ? seed : seed + month;
    for (const analysis::Sample& sample :
         analysis::simulate_population(spec, scripts, month_seed)) {
      truth.emplace(sample.source, !sample.techniques.empty());
      if (month == 0) current.push_back(sample.source);
    }
    if (month > 0) {
      current =
          analysis::evolve_snapshot(current, spec, kPersistence, month_seed);
    }
    std::vector<bool> labels;
    for (const std::string& source : current) {
      labels.push_back(truth.at(source));
      out.bytes += source.size();
    }
    out.requests.push_back(analysis::make_source_requests(current));
    out.sources.push_back(current);
    out.transformed.push_back(std::move(labels));
  }
  std::unordered_set<std::string> seen;
  for (const auto& month : out.sources) {
    for (const std::string& source : month) {
      if (seen.insert(source).second) out.distinct.push_back(source);
    }
  }
  return out;
}

}  // namespace

analysis::ResultCache::Config snapshot_cache_config(const std::string& dir,
                                                    double scale) {
  analysis::ResultCache::Config config;
  config.dir = dir;
  // About a third of one month's outcomes: carried-forward scripts that
  // fell out of the memory tier are served from the record file.
  config.max_bytes = scaled(48 * 1024, scale);
  return config;
}

void run_snapshot_cache(const Options& options, Result& result) {
  const Months months =
      make_months(analysis::kMonthCount,
                  scaled(kScriptsPerMonth, options.scale), options.seed);
  std::size_t requests_per_pass = 0;
  for (const auto& month : months.requests) requests_per_pass += month.size();
  result.note("corpus_scripts", std::to_string(requests_per_pass));
  result.note("corpus_distinct_scripts",
              std::to_string(months.distinct.size()));
  result.note("corpus_bytes", std::to_string(months.bytes));

  const Setup setup = train_detectors(kTrainRepetitions);

  if (options.trace) {
    Tracer tracer(true);
    run_traced(setup, months.distinct, months.sources, true, options, tracer,
               result);
    result.attempted = months.distinct.size();
    return;
  }

  const std::size_t width = pool_width();
  std::vector<double> open_s;
  // Every pass replays the same request stream into a fresh cache, so
  // month m does the same work in every pass: its wall time is a median
  // over the timed passes, which a host stall in a few passes does not
  // move. The latency percentiles of a pass cover all its calls, so an
  // intermittent stall (a lock wait, a disk append) shows in them.
  std::vector<std::vector<double>> month_ms(months.requests.size());
  std::vector<double> pass_p50, pass_p99;
  std::size_t timed_passes = 0;
  std::size_t hits = 0, lookups = 0, matches = 0, evictions = 0;
  std::string first_digest;
  // Pass 0 warms the process up and makes the tallies; the passes after
  // it are timed for --seconds.
  Clock::time_point start;
  for (std::size_t pass = 0;; ++pass) {
    if (pass == 1) start = Clock::now();
    if (timed_passes >= 2 && ms_since(start) >= options.seconds * 1000.0) {
      break;
    }
    const std::string dir =
        options.work_dir + "/cache-" + std::to_string(pass);
    const auto open_start = Clock::now();
    analysis::ResultCache cache(snapshot_cache_config(dir, options.scale));
    const analysis::AnalyzerService service(*setup.analyzer, &cache);
    open_s.push_back(ms_since(open_start) / 1000.0);
    if (!cache.load_error().empty()) {
      result.fail_check("snapshot_cache: cache open: " + cache.load_error());
    }

    std::string verdicts;
    std::vector<double> pass_call_ms;
    for (std::size_t m = 0; m < months.requests.size(); ++m) {
      const auto& requests = months.requests[m];
      std::vector<analysis::AnalyzeResponse> responses(requests.size());
      std::vector<double> call_ms(requests.size());
      const auto month_start = Clock::now();
      support::run_parallel(width, requests.size(), [&](std::size_t i) {
        const auto call_start = Clock::now();
        responses[i] = service.analyze(requests[i]);
        call_ms[i] = ms_since(call_start);
      });
      if (pass > 0) month_ms[m].push_back(ms_since(month_start));
      pass_call_ms.insert(pass_call_ms.end(), call_ms.begin(), call_ms.end());

      // Outside the timed region: tallies, digest and hit re-checks.
      std::size_t checked = 0;
      for (std::size_t i = 0; i < responses.size(); ++i) {
        const analysis::AnalyzeResponse& response = responses[i];
        verdicts += verdict_line(response.outcome);
        verdicts += '\n';
        if (pass == 0) {
          ++result.attempted;
          if (response_failed(response)) ++result.failed;
          if (response.cache == analysis::CacheState::kHit) ++hits;
          if (response.cache == analysis::CacheState::kHit ||
              response.cache == analysis::CacheState::kMiss) {
            ++lookups;
          }
          if (response.outcome.has_predictions() &&
              response.outcome.report.level1.transformed() ==
                  months.transformed[m][i]) {
            ++matches;
          }
        }
        if (response.cache == analysis::CacheState::kHit &&
            checked < kHitChecksPerMonth && i % 7 == m % 7) {
          ++checked;
          analysis::AnalyzeRequest bypass = requests[i];
          bypass.cache_mode = CacheMode::kBypass;
          if (outcome_bytes(service.analyze(bypass).outcome) !=
              outcome_bytes(response.outcome)) {
            result.fail_check("snapshot_cache: a cache hit differs from its "
                              "bypassed re-analysis (month " +
                              std::to_string(m) + ", slot " +
                              std::to_string(i) + ")");
          }
        }
      }
    }
    evictions = cache.counters().evictions;
    const std::string digest = std::to_string(strings::fnv1a(verdicts));
    if (first_digest.empty()) first_digest = digest;
    if (digest != first_digest) {
      result.fail_check("snapshot_cache: verdicts differ between passes");
    }
    if (pass > 0) {
      ++timed_passes;
      pass_p50.push_back(percentile(pass_call_ms, 0.50));
      pass_p99.push_back(percentile(pass_call_ms, 0.99));
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  if (evictions == 0) {
    result.fail_check("snapshot_cache: the memory tier never evicted, so no "
                      "hit was served from disk");
  }
  result.note("verdict_digest", first_digest);
  result.note("passes", std::to_string(timed_passes));
  result.note("hit_share", std::to_string(static_cast<double>(hits) /
                                          static_cast<double>(lookups)));

  double pass_ms = 0.0;
  for (const std::vector<double>& samples : month_ms) {
    pass_ms += median(samples);
  }

  EndToEnd metrics;
  metrics.setup_s = median(setup.train_s) + median(open_s);
  metrics.scripts_per_s =
      static_cast<double>(requests_per_pass) * 1000.0 / pass_ms;
  metrics.latency_p50_ms = median(pass_p50);
  metrics.latency_p99_ms = median(pass_p99);
  metrics.ok_share = 1.0 - static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted);
  metrics.verdict_accuracy =
      static_cast<double>(matches) / static_cast<double>(result.attempted);
  add_end_to_end(result, metrics);
}

}  // namespace jstbench
