// Per-layer measurements, taken from the outside: every span and counter
// here wraps a call the benchmark itself makes into a layer's public
// function. The sequence in walk_script mirrors the service's per-script
// pipeline (TransformationAnalyzer::analyze_outcome), with the same pooled
// scratch, so the layer times add up to what a served script costs.
#include <filesystem>

#include "analysis/wire.h"
#include "features/feature_extractor.h"
#include "lexer/lexer.h"
#include "obs/flight_recorder.h"
#include "parser/parser.h"
#include "support/error.h"
#include "workloads.h"

namespace jstbench {

using namespace jst;

namespace {

struct LayerCounts {
  std::size_t tokens = 0;
  std::size_t bytes = 0;
  std::size_t nodes = 0;
  std::size_t parse_errors = 0;
  std::size_t cfg_edges = 0;
  std::size_t dataflow_edges = 0;
  std::size_t dataflow_trips = 0;
  std::size_t level2_calls = 0;
};

// One script through every layer and through the service, then its
// request and response through the wire schema. Returns false when the
// walk's verdict differs from the service's.
bool walk_script(const analysis::AnalyzerService& service, std::uint64_t id,
                 const std::string& source, analysis::ScriptScratch& scratch,
                 support::Arena& lex_arena, Tracer& tracer,
                 LayerCounts& counts) {
  const analysis::TransformationAnalyzer& analyzer = service.analyzer();
  const features::FeatureConfig& config = analyzer.options().detector.features;
  const ScopedSpan root(tracer, "script", id);
  counts.bytes += source.size();

  // The service runs the same script before the layer calls on even ids
  // and after them on odd ids, so warm caches favour neither side of
  // analysis.service.unattributed_ms.
  const analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(source);
  analysis::AnalyzeResponse response;
  const auto serve = [&] {
    const ScopedSpan span(tracer, "analysis.service.analyze", id,
                          root.index());
    response = service.analyze(request);
  };
  if (id % 2 == 0) serve();

  analysis::ScriptOutcome walked;
  {
    const ScopedSpan span(tracer, "lexer.tokenize", id, root.index());
    lex_arena.reset();
    try {
      counts.tokens += Lexer::tokenize(source, lex_arena).size();
    } catch (const ParseError&) {
      // Counted once, below, where parse_program fails on the same input.
    }
  }

  ScriptAnalysis analysis;
  bool parsed = true;
  {
    const ScopedSpan span(tracer, "parser.parse_program", id, root.index());
    try {
      analysis.parse =
          parse_program(source, nullptr, &scratch.arena, &scratch.atoms);
    } catch (const ParseError&) {
      parsed = false;
    }
  }
  if (!parsed) {
    ++counts.parse_errors;
    walked.status = analysis::ScriptStatus::kParseError;
  } else {
    counts.nodes += analysis.parse.ast.node_count();
    {
      const ScopedSpan span(tracer, "cfg.build_control_flow", id, root.index());
      analysis.control_flow = build_control_flow(analysis.parse.ast, nullptr,
                                                 &scratch.extract.cfg);
    }
    counts.cfg_edges += analysis.control_flow.edge_count();
    {
      const ScopedSpan span(tracer, "dataflow.build_data_flow", id,
                            root.index());
      DataFlowOptions dataflow_options;
      dataflow_options.node_budget = config.analysis.dataflow_node_budget;
      dataflow_options.scratch = &scratch.extract.dataflow;
      analysis.data_flow =
          build_data_flow(analysis.parse.ast, dataflow_options);
    }
    counts.dataflow_edges += analysis.data_flow.edge_count();
    if (!analysis.data_flow.completed) ++counts.dataflow_trips;

    bool eligible = false;
    {
      const ScopedSpan span(tracer, "features.script_eligible", id,
                            root.index());
      eligible =
          script_eligible(analysis, &scratch.extract.eligibility_stack);
    }
    walked.status = eligible ? analysis::ScriptStatus::kOk
                    : size_eligible(source)
                        ? analysis::ScriptStatus::kIneligibleAst
                        : analysis::ScriptStatus::kIneligibleSize;

    const std::vector<float>* row = nullptr;
    {
      const ScopedSpan span(tracer, "features.extract_into", id, root.index());
      row = &features::extract_into(analysis, config, scratch.extract);
    }
    analysis::ScriptReport& report = walked.report;
    {
      const ScopedSpan span(tracer, "ml.level1.predict", id, root.index());
      report.level1 = analyzer.level1().predict(*row, scratch.predict);
    }
    {
      const ScopedSpan span(tracer, "ml.level2.predict_proba", id,
                            root.index());
      analyzer.level2().predict_proba(*row, scratch.predict,
                                      report.technique_confidence);
    }
    ++counts.level2_calls;
    if (report.level1.transformed()) {
      const ScopedSpan span(tracer, "ml.level2.predict_techniques", id,
                            root.index());
      report.techniques =
          analyzer.level2().predict_techniques(*row, scratch.predict);
      ++counts.level2_calls;
    }
  }
  if (id % 2 == 1) serve();

  // The same traffic through the wire schema, both directions.
  std::string error;
  bool wire_ok = true;
  {
    std::string line;
    {
      const ScopedSpan span(tracer, "analysis.wire.encode", id, root.index());
      line = analysis::wire::analyze_request_json(request);
    }
    const ScopedSpan span(tracer, "analysis.wire.decode", id, root.index());
    wire_ok = analysis::wire::parse_analyze_request(line, &error).has_value();
  }
  {
    std::string line;
    {
      const ScopedSpan span(tracer, "analysis.wire.encode", id, root.index());
      line = analysis::wire::analyze_response_json(response);
    }
    const ScopedSpan span(tracer, "analysis.wire.decode", id, root.index());
    wire_ok =
        analysis::wire::parse_analyze_response(line, &error).has_value() &&
        wire_ok;
  }
  return wire_ok && response.ok() &&
         verdict_line(walked) == verdict_line(response.outcome);
}

// Returns the mean serial service time per script, in ms.
double trace_pipeline(const analysis::AnalyzerService& service,
                      const std::vector<std::string>& scripts, Tracer& tracer,
                      Result& result) {
  analysis::ScriptScratch scratch;
  support::Arena lex_arena;
  // Every script is walked twice, once without spans and once traced, in
  // alternating order; the gap between the two totals is the tracing
  // overhead, and host noise lands on both sides alike.
  Tracer untraced(false);
  LayerCounts counts, ignored;
  double untraced_ms = 0.0, traced_ms = 0.0;
  std::size_t mismatches = 0;
  const auto walk = [&](std::size_t i, Tracer& into, LayerCounts& tally,
                        double& wall_ms) {
    const auto start = Clock::now();
    if (!walk_script(service, i, scripts[i], scratch, lex_arena, into,
                     tally)) {
      ++mismatches;
    }
    wall_ms += ms_since(start);
  };
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    if ((i / 2) % 2 == 0) {
      walk(i, untraced, ignored, untraced_ms);
      walk(i, tracer, counts, traced_ms);
    } else {
      walk(i, tracer, counts, traced_ms);
      walk(i, untraced, ignored, untraced_ms);
    }
  }
  if (mismatches > 0) {
    result.fail_check("layer walk: " + std::to_string(mismatches) +
                      " walk(s) where the outside-in layer calls disagree "
                      "with AnalyzerService::analyze");
  }

  const double lex = tracer.total_ms("lexer.tokenize");
  const double parse = tracer.total_ms("parser.parse_program");
  const double cfg = tracer.total_ms("cfg.build_control_flow");
  const double dataflow = tracer.total_ms("dataflow.build_data_flow");
  const double eligibility = tracer.total_ms("features.script_eligible");
  const double features = tracer.total_ms("features.extract_into");
  const double level1 = tracer.total_ms("ml.level1.predict");
  const double level2 = tracer.total_ms("ml.level2.predict_proba");
  const double topk = tracer.total_ms("ml.level2.predict_techniques");
  const double service_ms = tracer.total_ms("analysis.service.analyze");

  result.add("lexer.busy_ms", lex, "ms");
  result.add("lexer.tokens", static_cast<double>(counts.tokens), "count");
  result.add("lexer.mb_per_s",
             lex > 0.0 ? static_cast<double>(counts.bytes) / 1e6 /
                             (lex / 1000.0)
                       : 0.0,
             "MB/s");
  result.add("parser.busy_ms", parse, "ms");
  // parse_program lexes internally; its own share is parse minus the
  // separately timed lex of the same scripts.
  result.add("parser.self_ms", parse - lex, "ms");
  result.add("parser.nodes", static_cast<double>(counts.nodes), "count");
  result.add("parser.errors", static_cast<double>(counts.parse_errors),
             "count");
  result.add("cfg.busy_ms", cfg, "ms");
  result.add("cfg.edges", static_cast<double>(counts.cfg_edges), "count");
  result.add("dataflow.busy_ms", dataflow, "ms");
  result.add("dataflow.edges", static_cast<double>(counts.dataflow_edges),
             "count");
  result.add("dataflow.budget_trips",
             static_cast<double>(counts.dataflow_trips), "count");
  result.add("features.busy_ms", features, "ms");
  result.add("features.eligibility_ms", eligibility, "ms");
  result.add("ml.level1_ms", level1, "ms");
  result.add("ml.level2_ms", level2, "ms");
  result.add("ml.topk_ms", topk, "ms");
  result.add("ml.level2_calls", static_cast<double>(counts.level2_calls),
             "count");
  result.add("analysis.service.busy_ms", service_ms, "ms");
  result.add("analysis.service.unattributed_ms",
             service_ms - (parse + cfg + dataflow + eligibility + features +
                           level1 + level2 + topk),
             "ms");
  result.add("analysis.wire.encode_ms", tracer.total_ms("analysis.wire.encode"),
             "ms");
  result.add("analysis.wire.decode_ms", tracer.total_ms("analysis.wire.decode"),
             "ms");
  result.add("trace_overhead_pct",
             100.0 * (traced_ms - untraced_ms) / untraced_ms, "%");
  return scripts.empty() ? 0.0
                         : service_ms / static_cast<double>(scripts.size());
}

void measure_pool_and_flight(const analysis::AnalyzerService& service,
                             const std::vector<std::string>& scripts,
                             Result& result) {
  const std::vector<analysis::AnalyzeRequest> requests =
      analysis::make_source_requests(scripts);
  const auto pass_ms = [&](std::size_t threads) {
    analysis::BatchOptions batch_options;
    batch_options.threads = threads;
    const auto start = Clock::now();
    const analysis::BatchResponse batch =
        service.analyze_batch(requests, batch_options);
    return ms_since(start);
  };
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const bool was_enabled = recorder.enabled();
  std::vector<double> wide, serial_on, serial_off;
  // Alternating passes, so drift on the host spreads over every side.
  for (int repetition = 0; repetition < 2; ++repetition) {
    recorder.set_enabled(true);
    wide.push_back(pass_ms(pool_width()));
    serial_on.push_back(pass_ms(1));
    recorder.set_enabled(false);
    serial_off.push_back(pass_ms(1));
  }
  recorder.set_enabled(was_enabled);
  result.add("support.pool_scaling", median(serial_on) / median(wide), "x");
  result.add("obs.flight_overhead_pct",
             100.0 * (median(serial_on) - median(serial_off)) /
                 median(serial_off),
             "%");
}

void trace_cache(const analysis::TransformationAnalyzer& analyzer,
                 const std::vector<std::vector<std::string>>& batches,
                 const analysis::ResultCache::Config& config, Tracer& tracer,
                 Result& result) {
  // Served through a cache-attached service, one request at a time, so
  // the tally below is exact and the outside-in pass must reproduce it.
  std::size_t lookups = 0;
  std::size_t hits = 0;
  {
    analysis::ResultCache::Config served_config = config;
    served_config.dir = config.dir + "/served";
    std::filesystem::create_directories(served_config.dir);
    analysis::ResultCache cache(served_config);
    const analysis::AnalyzerService service(analyzer, &cache);
    for (const std::vector<std::string>& batch : batches) {
      for (const std::string& source : batch) {
        const analysis::AnalyzeResponse response =
            service.analyze(analysis::AnalyzeRequest::for_source(source));
        if (response.cache == analysis::CacheState::kHit) ++hits;
        if (response.cache == analysis::CacheState::kHit ||
            response.cache == analysis::CacheState::kMiss) {
          ++lookups;
        }
      }
    }
  }

  analysis::ResultCache::Config walk_config = config;
  walk_config.dir = config.dir + "/walk";
  std::filesystem::create_directories(walk_config.dir);
  analysis::ResultCache cache(walk_config);
  // Attaching the cache computes the model fingerprint used in the key.
  const analysis::AnalyzerService keyed(analyzer, &cache);
  const analysis::AnalyzerService uncached(analyzer);
  const ResourceLimits limits;
  std::size_t walk_hits = 0;
  std::uint64_t id = 0;
  for (const std::vector<std::string>& batch : batches) {
    for (const std::string& source : batch) {
      const ScopedSpan root(tracer, "request", id);
      const std::string key = analysis::ResultCache::make_key(
          analysis::content_hash(source), keyed.model_fingerprint(), limits);
      bool hit = false;
      {
        const ScopedSpan span(tracer, "analysis.cache.lookup", id,
                              root.index());
        hit = cache.lookup(key).has_value();
      }
      if (hit) {
        ++walk_hits;
      } else {
        analysis::AnalyzeResponse response;
        {
          const ScopedSpan span(tracer, "analysis.service.analyze", id,
                                root.index());
          response =
              uncached.analyze(analysis::AnalyzeRequest::for_source(source));
        }
        const ScopedSpan span(tracer, "analysis.cache.store", id,
                              root.index());
        cache.store(key, response.outcome);
      }
      ++id;
    }
  }
  if (walk_hits != hits) {
    result.fail_check("cache walk: " + std::to_string(walk_hits) +
                      " lookup hits, but the service reported " +
                      std::to_string(hits) + " kHit responses");
  }
  std::error_code error;
  const std::uintmax_t file_bytes =
      std::filesystem::file_size(cache.path(), error);
  result.add("analysis.cache.lookup_ms",
             tracer.total_ms("analysis.cache.lookup"), "ms");
  result.add("analysis.cache.store_ms", tracer.total_ms("analysis.cache.store"),
             "ms");
  result.add("analysis.cache.hit_share",
             lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups),
             "share");
  result.add("analysis.cache.file_bytes",
             error ? 0.0 : static_cast<double>(file_bytes), "bytes");
}

}  // namespace

void run_traced(const Setup& setup, const std::vector<std::string>& scripts,
                const std::vector<std::vector<std::string>>& stream,
                bool probe, const Options& options, Tracer& tracer,
                Result& result) {
  const analysis::AnalyzerService service(*setup.analyzer);
  result.add("ml.train_s", median(setup.train_s), "s");
  const double service_ms = trace_pipeline(service, scripts, tracer, result);
  measure_pool_and_flight(service, scripts, result);
  trace_cache(*setup.analyzer, stream,
              snapshot_cache_config(options.work_dir + "/cache", options.scale),
              tracer, result);
  if (probe) {
    probe_server(service, scripts, 2.0 / 3.0 * 1000.0 / service_ms, options,
                 tracer, result);
  }
  if (!tracer.write_chrome_json(options.trace_out)) {
    result.fail_check("cannot write the trace to " + options.trace_out);
  }
}

}  // namespace jstbench
