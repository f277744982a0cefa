// wild_batch: the paper's wild study (§IV) as one in-process batch job.
//
// A seeded mix of the Alexa, npm and three malware populations goes
// through AnalyzerService::analyze_batch at a fixed pool width, with no
// cache attached. Minified web code, obfuscated malware and JSFuck token
// floods put work on every pipeline layer, and level-2 inference runs for
// every transformed script.
//
// The first half of --seconds times whole batches (scripts_per_s); the
// second half times single AnalyzerService::analyze calls from as many
// concurrent callers as the batch has lanes (latency_p50_ms /
// latency_p99_ms: the percentiles of each pass's call times, as medians
// over the passes).
#include <atomic>

#include "support/thread_pool.h"
#include "workloads.h"

namespace jstbench {

using namespace jst;

namespace {

constexpr std::size_t kCorpusScripts = 4000;
constexpr int kTrainRepetitions = 3;

}  // namespace

void run_wild_batch(const Options& options, Result& result) {
  const std::vector<LabeledScript> corpus =
      wild_corpus(scaled(kCorpusScripts, options.scale), options.seed);
  std::vector<std::string> sources;
  std::size_t bytes = 0;
  for (const LabeledScript& script : corpus) {
    sources.push_back(script.source);
    bytes += script.source.size();
  }
  result.note("corpus_scripts", std::to_string(sources.size()));
  result.note("corpus_bytes", std::to_string(bytes));

  const Setup setup = train_detectors(kTrainRepetitions);
  const analysis::AnalyzerService service(*setup.analyzer);
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(sources);

  if (options.trace) {
    Tracer tracer(true);
    run_traced(setup, sources, {sources}, true, options, tracer, result);
    result.attempted = sources.size();
    return;
  }

  // Reference verdicts: the same batch on one lane.
  analysis::BatchOptions serial;
  serial.threads = 1;
  const analysis::BatchResponse reference =
      service.analyze_batch(requests, serial);
  const std::string digest = verdict_digest(reference.responses);
  result.note("verdict_digest", digest);

  const auto start = Clock::now();
  const double half_ms = options.seconds * 1000.0 / 2.0;

  // Throughput: whole batches at the fixed pool width.
  analysis::BatchOptions wide;
  wide.threads = pool_width();
  std::vector<double> rates;
  while (rates.size() < 2 || ms_since(start) < half_ms) {
    const auto batch_start = Clock::now();
    const analysis::BatchResponse batch = service.analyze_batch(requests, wide);
    const double batch_ms = ms_since(batch_start);
    rates.push_back(static_cast<double>(requests.size()) * 1000.0 / batch_ms);
    if (verdict_digest(batch.responses) != digest) {
      result.fail_check("wild_batch: verdict digest at width " +
                        std::to_string(wide.threads) +
                        " differs from width 1");
    }
  }

  // Latency: single AnalyzerService::analyze calls from pool_width()
  // concurrent callers. The percentiles are taken over every call of a
  // pass, so a stall that hits any call shows in that pass's tail; the
  // metric is their median over the passes, which one stalled pass does
  // not move. The scripts rotate between callers from pass to pass.
  const std::size_t lanes = pool_width();
  std::vector<double> call_ms(requests.size());
  std::vector<double> pass_p50, pass_p99;
  std::atomic<std::size_t> mismatches{0};
  std::size_t passes = 0;
  const auto latency_start = Clock::now();
  while (passes < 1 || ms_since(latency_start) < half_ms) {
    support::run_parallel(lanes, lanes, [&](std::size_t lane) {
      for (std::size_t i = (lane + passes) % lanes; i < requests.size();
           i += lanes) {
        const auto call_start = Clock::now();
        const analysis::AnalyzeResponse response = service.analyze(requests[i]);
        call_ms[i] = ms_since(call_start);
        if (verdict_line(response.outcome) !=
            verdict_line(reference.responses[i].outcome)) {
          mismatches.fetch_add(1);
        }
      }
    });
    pass_p50.push_back(percentile(call_ms, 0.50));
    pass_p99.push_back(percentile(call_ms, 0.99));
    ++passes;
  }
  if (mismatches.load() > 0) {
    result.fail_check("wild_batch: " + std::to_string(mismatches.load()) +
                      " single-request verdicts differ from the batch "
                      "verdicts");
  }
  for (const analysis::AnalyzeResponse& response : reference.responses) {
    ++result.attempted;
    if (response_failed(response)) ++result.failed;
  }
  result.note("batches", std::to_string(rates.size()));
  result.note("latency_passes", std::to_string(passes));

  EndToEnd metrics;
  metrics.setup_s = median(setup.train_s);
  metrics.scripts_per_s = median(rates);
  metrics.latency_p50_ms = median(pass_p50);
  metrics.latency_p99_ms = median(pass_p99);
  metrics.ok_share = 1.0 - static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted);
  metrics.verdict_accuracy = verdict_accuracy(corpus, reference.responses);
  add_end_to_end(result, metrics);
}

}  // namespace jstbench
