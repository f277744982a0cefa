// The three workloads and the per-layer measurements they share.
#pragma once

#include <string>
#include <vector>

#include "analysis/result_cache.h"
#include "common.h"
#include "tracer.h"

namespace jstbench {

// --- workloads (each fills `result` with its metrics and checks) ---------

void run_wild_batch(const Options& options, Result& result);
void run_daemon_open_loop(const Options& options, Result& result);
void run_snapshot_cache(const Options& options, Result& result);

// --- per-layer measurements (layers.cpp) ---------------------------------

// The traced run's per-layer metrics over one workload's inputs, from the
// benchmark's own calls into each layer:
//   - ml.train_s from the set-up;
//   - an outside-in walk over `scripts`: for each one the benchmark calls
//     Lexer::tokenize, parse_program, build_control_flow, build_data_flow,
//     script_eligible, extract_into, Level1Detector::predict,
//     Level2Detector::predict_proba / predict_techniques and
//     AnalyzerService::analyze under spans, then sends the request and
//     response through the wire schema (lexer.* to analysis.wire.*, and
//     trace_overhead_pct); the walk must reach the service's verdict;
//   - support.pool_scaling and obs.flight_overhead_pct over `scripts`;
//   - analysis.cache.* over `stream` (consecutive batches: snapshot months,
//     or one batch);
//   - with `probe`, server.* from a daemon probe over `scripts` at a third
//     of two workers' capacity (workloads whose own traffic does not reach
//     the daemon).
// Writes the spans to options.trace_out.
void run_traced(const Setup& setup, const std::vector<std::string>& scripts,
                const std::vector<std::vector<std::string>>& stream,
                bool probe, const Options& options, Tracer& tracer,
                Result& result);

// --- the daemon (daemon_open_loop.cpp) -----------------------------------

// server.* metrics from a short open-loop probe at `rate` requests/s.
void probe_server(const analysis::AnalyzerService& service,
                  const std::vector<std::string>& bodies, double rate,
                  const Options& options, Tracer& tracer, Result& result);

// --- the cache (snapshot_cache.cpp) --------------------------------------

// Memory tier sized below one snapshot month's outcomes at `scale`, plus
// a disk tier in `dir`.
analysis::ResultCache::Config snapshot_cache_config(const std::string& dir,
                                                    double scale);

}  // namespace jstbench
