#include "analysis/pipeline.h"

#include <array>
#include <chrono>
#include <istream>
#include <ostream>
#include <string>

#include "analysis/model_io.h"
#include "analysis/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/json_writer.h"
#include "support/thread_pool.h"
#include "transform/technique.h"

namespace jst::analysis {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Per-script pipeline telemetry (DESIGN.md §9). The histograms mirror
// StageTimings, so no extra clock reads happen — recording is a handful
// of relaxed atomic adds per script.
struct ScriptMetrics {
  obs::Counter& scripts =
      obs::MetricsRegistry::global().counter("jst_scripts_total");
  obs::Counter& parse_errors =
      obs::MetricsRegistry::global().counter("jst_scripts_parse_errors_total");
  obs::Histogram& total_ms =
      obs::MetricsRegistry::global().histogram("jst_script_total_ms");
  obs::Histogram& static_analysis_ms =
      obs::MetricsRegistry::global().histogram("jst_stage_static_analysis_ms");
  obs::Histogram& features_ms =
      obs::MetricsRegistry::global().histogram("jst_stage_features_ms");
  obs::Histogram& inference_ms =
      obs::MetricsRegistry::global().histogram("jst_stage_inference_ms");
};

ScriptMetrics& script_metrics() {
  static ScriptMetrics* metrics = new ScriptMetrics();  // outlives statics
  return *metrics;
}

// Scratch-reuse telemetry for the zero-alloc fast path: how often a
// warmed-up scratch was handed another script, and the largest
// steady-state footprint any scratch reached.
struct ScratchMetrics {
  obs::Counter& reuses =
      obs::MetricsRegistry::global().counter("jst_scratch_reuse_total");
  obs::Gauge& peak_bytes =
      obs::MetricsRegistry::global().gauge("jst_scratch_peak_bytes");

  void record_peak(std::size_t bytes) {
    // Racy max across workers is fine — telemetry only.
    const auto value = static_cast<double>(bytes);
    if (value > peak_bytes.value()) peak_bytes.set(value);
  }
};

ScratchMetrics& scratch_metrics() {
  static ScratchMetrics* metrics = new ScratchMetrics();  // outlives statics
  return *metrics;
}

// Pooled front-end arena telemetry: how often a warmed-up arena was
// reset-and-reused for another script, and the largest per-script
// footprint (peak bytes across resets) any worker arena reached.
struct ArenaMetrics {
  obs::Counter& reuses =
      obs::MetricsRegistry::global().counter("jst_arena_reuse_total");
  obs::Gauge& peak_bytes =
      obs::MetricsRegistry::global().gauge("jst_arena_peak_bytes");

  void record_peak(std::size_t bytes) {
    // Racy max across workers is fine — telemetry only.
    const auto value = static_cast<double>(bytes);
    if (value > peak_bytes.value()) peak_bytes.set(value);
  }
};

ArenaMetrics& arena_metrics() {
  static ArenaMetrics* metrics = new ArenaMetrics();  // outlives statics
  return *metrics;
}

// Budget-trip telemetry (DESIGN.md §10): one aggregate counter plus one
// counter per ResourceKind, named jst_budget_<kind>_total.
struct BudgetMetrics {
  obs::Counter& trips =
      obs::MetricsRegistry::global().counter("jst_budget_trips_total");
  obs::Counter& degraded =
      obs::MetricsRegistry::global().counter("jst_scripts_degraded_total");
  std::array<obs::Counter*, 6> by_kind{};

  BudgetMetrics() {
    for (std::size_t i = 0; i < by_kind.size(); ++i) {
      const std::string name =
          "jst_budget_" +
          std::string(to_string(static_cast<ResourceKind>(i))) + "_total";
      by_kind[i] = &obs::MetricsRegistry::global().counter(name);
    }
  }
};

BudgetMetrics& budget_metrics() {
  static BudgetMetrics* metrics = new BudgetMetrics();  // outlives statics
  return *metrics;
}

// Prediction telemetry (DESIGN.md §14): what the detectors are *saying*,
// not just how fast they say it. Level-1 verdict counters plus, per
// technique, a positive counter and a confidence histogram on the unit
// layout — a drifting confidence distribution is visible in the export
// long before thresholded positives move.
struct PredictMetrics {
  obs::Counter& transformed =
      obs::MetricsRegistry::global().counter("jst_predict_transformed_total");
  obs::Counter& minified =
      obs::MetricsRegistry::global().counter("jst_predict_minified_total");
  obs::Counter& obfuscated =
      obs::MetricsRegistry::global().counter("jst_predict_obfuscated_total");
  obs::Counter& regular =
      obs::MetricsRegistry::global().counter("jst_predict_regular_total");
  std::array<obs::Counter*, transform::kTechniqueCount> technique_positive{};
  std::array<obs::Histogram*, transform::kTechniqueCount>
      technique_confidence{};

  PredictMetrics() {
    auto& registry = obs::MetricsRegistry::global();
    registry.set_help("jst_predict_transformed_total",
                      "scripts level 1 flagged as minified and/or obfuscated");
    registry.set_help("jst_predict_minified_total",
                      "scripts level 1 flagged as minified");
    registry.set_help("jst_predict_obfuscated_total",
                      "scripts level 1 flagged as obfuscated");
    registry.set_help("jst_predict_regular_total",
                      "scripts level 1 considered untransformed");
    for (transform::Technique technique : transform::all_techniques()) {
      const std::string name(transform::technique_name(technique));
      const std::size_t i = static_cast<std::size_t>(technique);
      technique_positive[i] =
          &registry.counter("jst_predict_" + name + "_total");
      registry.set_help("jst_predict_" + name + "_total",
                        "scripts level 2 labeled " + name);
      technique_confidence[i] = &registry.histogram(
          "jst_predict_" + name + "_confidence",
          obs::HistogramLayout::kUnit);
      registry.set_help("jst_predict_" + name + "_confidence",
                        "level-2 confidence for " + name + " (all scripts)");
    }
  }

  void record(const ScriptReport& report) {
    if (report.level1.transformed()) {
      transformed.add(1);
    } else {
      regular.add(1);
    }
    if (report.level1.minified()) minified.add(1);
    if (report.level1.obfuscated()) obfuscated.add(1);
    for (std::size_t i = 0; i < report.technique_confidence.size() &&
                            i < transform::kTechniqueCount;
         ++i) {
      technique_confidence[i]->record(report.technique_confidence[i]);
    }
    for (transform::Technique technique : report.techniques) {
      technique_positive[static_cast<std::size_t>(technique)]->add(1);
    }
  }
};

PredictMetrics& predict_metrics() {
  static PredictMetrics* metrics = new PredictMetrics();  // outlives statics
  return *metrics;
}

// Flight-recorder breadcrumbs for the serving path: per-stage timings and
// the budget trip, keyed to the request id in scope. Gated on an active
// RequestScope so the batch path (wild_study, training, benches) pays
// nothing beyond one thread-local read per script.
void record_outcome_flight(const ScriptOutcome& outcome) {
  if (obs::current_request_id().empty()) return;
  if (outcome.budget.has_value()) {
    obs::flight_record(obs::FlightEventKind::kBudgetTrip, {},
                       to_string(outcome.budget->kind).data(),
                       outcome.budget->observed, outcome.budget->limit);
  }
  obs::flight_record(obs::FlightEventKind::kStage, {}, "static_analysis",
                     outcome.timing.static_analysis_ms);
  if (outcome.timing.features_ms > 0.0) {
    obs::flight_record(obs::FlightEventKind::kStage, {}, "features",
                       outcome.timing.features_ms);
  }
  if (outcome.has_predictions()) {
    obs::flight_record(obs::FlightEventKind::kStage, {}, "inference",
                       outcome.timing.inference_ms);
  }
}

// Statuses whose analysis stopped before features could run.
bool hard_failure(ScriptStatus status) {
  switch (status) {
    case ScriptStatus::kParseError:
    case ScriptStatus::kBudgetTokens:
    case ScriptStatus::kBudgetAstNodes:
    case ScriptStatus::kBudgetDepth:
    case ScriptStatus::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

ScriptStatus status_for_trip(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kSourceBytes: return ScriptStatus::kIneligibleSize;
    case ResourceKind::kTokens: return ScriptStatus::kBudgetTokens;
    case ResourceKind::kAstNodes: return ScriptStatus::kBudgetAstNodes;
    case ResourceKind::kAstDepth: return ScriptStatus::kBudgetDepth;
    case ResourceKind::kDataflowEdges: return ScriptStatus::kBudgetDataflow;
    case ResourceKind::kDeadline: return ScriptStatus::kDeadlineExceeded;
  }
  return ScriptStatus::kParseError;
}

void record_outcome_metrics(const ScriptOutcome& outcome) {
  ScriptMetrics& metrics = script_metrics();
  // Touch the budget/scratch/arena/predict singletons unconditionally so
  // the jst_budget_*, jst_scratch_*, jst_arena_*, and jst_predict_*
  // series exist (at 0) in every export, not only after the first trip,
  // reuse, or prediction.
  BudgetMetrics& budget = budget_metrics();
  PredictMetrics& predict = predict_metrics();
  scratch_metrics();
  arena_metrics();
  record_outcome_flight(outcome);
  metrics.scripts.add(1);
  metrics.total_ms.record(outcome.timing.total_ms);
  metrics.static_analysis_ms.record(outcome.timing.static_analysis_ms);
  if (outcome.budget.has_value()) {
    budget.trips.add(1);
    budget.by_kind[static_cast<std::size_t>(outcome.budget->kind)]->add(1);
    if (outcome.degraded()) budget.degraded.add(1);
  }
  if (outcome.parse_failed()) {
    metrics.parse_errors.add(1);
    return;
  }
  if (hard_failure(outcome.status)) return;
  metrics.features_ms.record(outcome.timing.features_ms);
  if (outcome.has_predictions()) {
    metrics.inference_ms.record(outcome.timing.inference_ms);
    predict.record(outcome.report);
  }
}

}  // namespace

std::string_view to_string(ScriptStatus status) {
  switch (status) {
    case ScriptStatus::kOk: return "ok";
    case ScriptStatus::kParseError: return "parse_error";
    case ScriptStatus::kIneligibleSize: return "ineligible_size";
    case ScriptStatus::kIneligibleAst: return "ineligible_ast";
    case ScriptStatus::kBudgetTokens: return "budget_tokens";
    case ScriptStatus::kBudgetAstNodes: return "budget_ast_nodes";
    case ScriptStatus::kBudgetDepth: return "budget_depth";
    case ScriptStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ScriptStatus::kBudgetDataflow: return "budget_dataflow";
    case ScriptStatus::kDegraded: return "degraded";
  }
  return "unknown";
}

std::string ScriptOutcome::to_json() const {
  // Serialization lives in the versioned wire schema (analysis/wire.h) so
  // this method, the daemon, and wild_study --ndjson-out emit identical
  // bytes; v1 preserves the pre-schema field order the golden frontend
  // fixture was captured against.
  return wire::script_outcome_json(*this);
}

TransformationAnalyzer::TransformationAnalyzer(PipelineOptions options)
    : options_(std::move(options)),
      level1_(options_.detector),
      level2_(options_.detector) {}

void TransformationAnalyzer::train() {
  CorpusSpec spec;
  spec.regular_count = options_.training_regular_count;
  spec.seed = options_.seed;
  std::vector<std::string> corpus;
  {
    JST_SPAN("train.corpus");
    corpus = generate_regular_corpus(spec);
  }
  train_on(corpus);
}

void TransformationAnalyzer::train_on(
    const std::vector<std::string>& regular_sources) {
  if (regular_sources.empty()) {
    throw InvalidArgument("train_on: empty regular corpus");
  }
  Rng rng(options_.seed ^ 0x5eedf00dULL);

  // Build pools: regular + per-technique transformed. Base indices and
  // per-sample seeds are drawn serially so the corpus is identical for any
  // thread count; the transforms themselves fan out over the pool.
  struct TransformJob {
    std::size_t base = 0;
    transform::Technique technique;
    std::uint64_t seed = 0;
  };
  std::vector<TransformJob> jobs;
  jobs.reserve(options_.per_technique_count * transform::kTechniqueCount);
  for (transform::Technique technique : transform::all_techniques()) {
    for (std::size_t i = 0; i < options_.per_technique_count; ++i) {
      jobs.push_back({rng.index(regular_sources.size()), technique,
                      rng.next()});
    }
  }

  std::vector<Sample> samples(regular_sources.size() + jobs.size());
  {
    JST_SPAN("train.synthesize");
    for (std::size_t i = 0; i < regular_sources.size(); ++i) {
      samples[i] = make_regular_sample(regular_sources[i]);
    }
    support::run_parallel(0, jobs.size(), [&](std::size_t j) {
      const TransformJob& job = jobs[j];
      Rng job_rng(job.seed);
      samples[regular_sources.size() + j] = make_transformed_sample(
          regular_sources[job.base], job.technique, job_rng);
    });
  }

  FeatureTable table;
  {
    JST_SPAN("train.features");
    table = extract_features(std::move(samples), options_.detector.features);
  }
  const ml::LabelMatrix level1_matrix = level1_labels(table.samples);
  const ml::LabelMatrix level2_matrix = level2_labels(table.samples);

  {
    JST_SPAN("train.level1");
    Rng level1_rng = rng.split();
    level1_.fit(table.matrix(), level1_matrix, level1_rng);
  }

  // Level 2 trains on transformed samples only.
  JST_SPAN("train.level2");
  std::vector<std::vector<float>> transformed_rows;
  ml::LabelMatrix transformed_labels;
  for (std::size_t i = 0; i < table.samples.size(); ++i) {
    if (!table.samples[i].techniques.empty()) {
      transformed_rows.push_back(table.rows[i]);
      transformed_labels.push_back(level2_matrix[i]);
    }
  }
  Rng level2_rng = rng.split();
  level2_.fit(ml::Matrix{&transformed_rows}, transformed_labels, level2_rng);
  trained_ = true;
}

void TransformationAnalyzer::save(std::ostream& out) const {
  if (!trained_) throw ModelError("save: detector not trained");
  write_model_header(out, make_model_header("analyzer", options_.detector));
  level1_.save(out);
  level2_.save(out);
}

void TransformationAnalyzer::load(std::istream& in) {
  check_model_header(in, make_model_header("analyzer", options_.detector));
  level1_.load(in);
  level2_.load(in);
  trained_ = true;
}

ScriptAnalysis ScriptScratch::analyze_front_end(std::string_view source,
                                                AnalysisOptions options) {
  options.dataflow_scratch = &extract.dataflow;
  options.cfg_scratch = &extract.cfg;
  options.arena = &arena;
  options.atoms = &atoms;
  return analyze_script(source, options);
}

ScriptScratch& thread_script_scratch() {
  static thread_local ScriptScratch scratch;
  return scratch;
}

// The resource-governed per-script pipeline (DESIGN.md §10). Hard stages
// (lex/parse/CFG) throw BudgetExceeded, mapped to a budget status here;
// soft stages (data flow, features, inference) degrade: the outcome keeps
// everything computed before the trip and lists the skipped stages.
// Tripped ceilings never escape as exceptions.
ScriptOutcome TransformationAnalyzer::analyze_outcome(
    std::string_view source, const ResourceLimits& limits,
    ScriptScratch& scratch) const {
  if (!trained_) throw ModelError("analyze: detector not trained");
  if (scratch.extract.uses > 0) scratch_metrics().reuses.add(1);
  // epoch > 0 means the pooled arena has been reset at least once, i.e.
  // this script reuses chunks warmed up by a previous one.
  if (scratch.arena.epoch() > 0) arena_metrics().reuses.add(1);
  ScriptOutcome outcome;
  JST_SPAN("script");
  const bool governed = limits.any_enabled();
  Budget budget(limits);
  const auto start = std::chrono::steady_clock::now();

  // Source-size ceiling: refused before the lexer touches a byte. This is
  // the successor of the retired BatchOptions::max_bytes guard and keeps
  // its status (kIneligibleSize) so population counts stay comparable.
  if (limits.max_source_bytes > 0 && source.size() > limits.max_source_bytes) {
    budget.set_stage("pre-parse");
    BudgetTrip trip = budget.make_trip(ResourceKind::kSourceBytes);
    trip.observed = static_cast<double>(source.size());
    outcome.status = ScriptStatus::kIneligibleSize;
    outcome.report.status = outcome.status;
    outcome.error_message = trip.to_string();
    outcome.budget = std::move(trip);
    outcome.timing.static_analysis_ms = ms_since(start);
    outcome.timing.total_ms = outcome.timing.static_analysis_ms;
    record_outcome_metrics(outcome);
    return outcome;
  }

  ScriptAnalysis analysis;
  {
    JST_SPAN("static_analysis");
    try {
      AnalysisOptions analysis_options = options_.detector.features.analysis;
      analysis_options.budget = governed ? &budget : nullptr;
      analysis = scratch.analyze_front_end(source, analysis_options);
    } catch (const BudgetExceeded& error) {
      outcome.status = status_for_trip(error.trip().kind);
      outcome.report.status = outcome.status;
      outcome.budget = error.trip();
      outcome.error_message = error.what();
      outcome.timing.static_analysis_ms = ms_since(start);
      outcome.timing.total_ms = outcome.timing.static_analysis_ms;
      record_outcome_metrics(outcome);
      return outcome;
    } catch (const ParseError& error) {
      outcome.status = ScriptStatus::kParseError;
      outcome.report.status = outcome.status;
      outcome.error_message = error.what();
      outcome.timing.static_analysis_ms = ms_since(start);
      outcome.timing.total_ms = outcome.timing.static_analysis_ms;
      record_outcome_metrics(outcome);
      return outcome;
    }
    // The §III-D1 eligibility filter is an AST scan, so it belongs to the
    // static-analysis stage; attributing it here keeps the per-stage times
    // a partition of total_ms (the BatchStats invariant in service.h).
    if (!size_eligible(source)) {
      outcome.status = ScriptStatus::kIneligibleSize;
    } else if (!ast_eligible(analysis)) {
      outcome.status = ScriptStatus::kIneligibleAst;
    } else {
      outcome.status = ScriptStatus::kOk;
    }
  }
  outcome.timing.static_analysis_ms = ms_since(start);

  // Soft trip 1: the data-flow pass ran out of edge budget. Edges are
  // truncated but the AST and CFG are intact, so features and inference
  // still run below; the budget status takes precedence over eligibility.
  const bool dataflow_edges_tripped =
      analysis.data_flow.tripped.has_value() &&
      analysis.data_flow.tripped->kind == ResourceKind::kDataflowEdges;
  const bool dataflow_deadline_tripped =
      analysis.data_flow.tripped.has_value() &&
      analysis.data_flow.tripped->kind == ResourceKind::kDeadline;
  if (dataflow_edges_tripped) {
    outcome.status = ScriptStatus::kBudgetDataflow;
    outcome.budget = analysis.data_flow.tripped;
    outcome.error_message = outcome.budget->to_string();
    outcome.skipped_stages.push_back("dataflow");
  }
  outcome.report.status = outcome.status;

  // Soft trip 2: the deadline passed during data flow or by this
  // checkpoint. Degrade — emit the hand-picked block (cheap, bounded by
  // the already-admitted AST) and skip n-grams and inference.
  budget.set_stage("features");
  if (governed && (dataflow_deadline_tripped || budget.deadline_expired())) {
    outcome.status = ScriptStatus::kDegraded;
    outcome.budget = dataflow_deadline_tripped
                         ? analysis.data_flow.tripped
                         : std::optional<BudgetTrip>(
                               budget.make_trip(ResourceKind::kDeadline));
    outcome.error_message = outcome.budget->to_string();
    if (dataflow_deadline_tripped) {
      outcome.skipped_stages.push_back("dataflow");
    }
    outcome.skipped_stages.push_back("ngrams");
    outcome.skipped_stages.push_back("inference");
    const auto features_start = std::chrono::steady_clock::now();
    {
      JST_SPAN("features");
      features::FeatureConfig handpicked_only = options_.detector.features;
      handpicked_only.use_ngrams = false;
      outcome.partial_features =
          features::extract_into(analysis, handpicked_only, scratch.extract);
    }
    outcome.timing.features_ms = ms_since(features_start);
    outcome.timing.total_ms = ms_since(start);
    outcome.report.status = outcome.status;
    scratch_metrics().record_peak(scratch.capacity_bytes());
    arena_metrics().record_peak(scratch.arena.peak_bytes());
    record_outcome_metrics(outcome);
    return outcome;
  }

  const auto features_start = std::chrono::steady_clock::now();
  const std::vector<float>* row = nullptr;
  {
    JST_SPAN("features");
    row = &features::extract_into(analysis, options_.detector.features,
                                  scratch.extract);
  }
  outcome.timing.features_ms = ms_since(features_start);

  // Soft trip 3: the deadline passed during feature extraction. The full
  // feature row exists but inference is skipped.
  budget.set_stage("inference");
  if (governed && budget.deadline_expired()) {
    outcome.status = ScriptStatus::kDegraded;
    outcome.budget = budget.make_trip(ResourceKind::kDeadline);
    outcome.error_message = outcome.budget->to_string();
    outcome.skipped_stages.push_back("inference");
    outcome.partial_features = *row;
    outcome.timing.total_ms = ms_since(start);
    outcome.report.status = outcome.status;
    scratch_metrics().record_peak(scratch.capacity_bytes());
    arena_metrics().record_peak(scratch.arena.peak_bytes());
    record_outcome_metrics(outcome);
    return outcome;
  }

  const auto inference_start = std::chrono::steady_clock::now();
  {
    JST_SPAN("inference");
    outcome.report.level1 = level1_.predict(*row, scratch.predict);
    level2_.predict_proba(*row, scratch.predict,
                          outcome.report.technique_confidence);
    if (outcome.report.level1.transformed()) {
      outcome.report.techniques =
          level2_.select_techniques(outcome.report.technique_confidence);
    }
  }
  outcome.timing.inference_ms = ms_since(inference_start);
  outcome.timing.total_ms = ms_since(start);
  scratch_metrics().record_peak(scratch.capacity_bytes());
  arena_metrics().record_peak(scratch.arena.peak_bytes());
  record_outcome_metrics(outcome);
  return outcome;
}

}  // namespace jst::analysis
