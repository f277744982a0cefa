// End-to-end trainer + analyzer: the whole §III pipeline in one object.
//
// Training mirrors §III-D2's composition at configurable scale: a regular
// corpus, one transformed pool per technique; level 1 trains on
// regular/minified/obfuscated thirds (the two minification techniques
// represented equally, likewise the eight obfuscation techniques), level 2
// trains on per-technique pools. Corpus synthesis, feature extraction, and
// forest training all run on the shared thread pool; per-sample and
// per-tree RNG streams are derived serially, so a given seed reproduces
// the same trained model for any thread count.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/dataset.h"
#include "analysis/detector.h"
#include "support/arena.h"
#include "support/atom.h"
#include "support/budget.h"

namespace jst::analysis {

struct PipelineOptions {
  DetectorConfig detector;
  // Number of regular base scripts synthesized for training.
  std::size_t training_regular_count = 240;
  // Per-technique transformed samples for level 2 (and pooled for level 1).
  std::size_t per_technique_count = 60;
  std::uint64_t seed = 1234;
};

// Per-script analysis disposition. Predictions are computed for every
// script that parses — including ineligible ones — so callers can decide
// whether to honor the paper's §III-D1 filter; the status records which
// criterion (if any) failed. Budget statuses record a tripped
// ResourceLimits ceiling (DESIGN.md §10): the four hard trips carry no
// predictions (the AST never fully materialized), while kBudgetDataflow
// and kDegraded are degraded outcomes that still carry whatever the
// pipeline could compute before the trip.
enum class ScriptStatus {
  kOk,              // parsed and passed the paper's eligibility filter
  kParseError,      // could not be tokenized/parsed; no predictions
  kIneligibleSize,  // outside [512 B, 2 MB], or above max_source_bytes
  kIneligibleAst,   // no conditional, function, or call node
  // Hard budget trips (no AST, no predictions; diagnostic populated).
  kBudgetTokens,      // max_tokens tripped in the lexer
  kBudgetAstNodes,    // max_ast_nodes tripped in the parser
  kBudgetDepth,       // max_ast_depth tripped in the parser
  kDeadlineExceeded,  // deadline_ms tripped in a hard stage (lex/parse/cfg)
  // Degraded outcomes (diagnostic populated, skipped stages listed).
  kBudgetDataflow,  // max_dataflow_edges tripped; edges truncated, but
                    // features + predictions were still computed
  kDegraded,        // deadline noticed at a soft checkpoint after parsing;
                    // hand-picked features emitted, later stages skipped
};

std::string_view to_string(ScriptStatus status);

// Result of analyzing one script in the wild.
struct ScriptReport {
  ScriptStatus status = ScriptStatus::kParseError;
  Level1Detector::Prediction level1;
  std::vector<double> technique_confidence;  // 10 entries
  std::vector<transform::Technique> techniques;  // thresholded top-k

  // Parsed and eligible under the paper's filter.
  bool ok() const { return status == ScriptStatus::kOk; }
  // Predictions are absent exactly when parsing failed.
  bool parse_failed() const { return status == ScriptStatus::kParseError; }
};

// Per-stage wall time of one script's analysis, in milliseconds.
struct StageTimings {
  double total_ms = 0.0;
  double static_analysis_ms = 0.0;  // lex + parse + CFG + data flow
  double features_ms = 0.0;         // 4-grams + hand-picked features
  double inference_ms = 0.0;        // level-1 + level-2 forests
};

// One script's structured outcome in the batch API: the report plus the
// failure diagnostics and timing the bool-pair convention used to drop.
struct ScriptOutcome {
  ScriptStatus status = ScriptStatus::kParseError;
  ScriptReport report;        // predictions populated whenever inference ran
  std::string error_message;  // parse/budget diagnostics; empty otherwise
  StageTimings timing;
  // Populated on every budget status: which ceiling, the configured limit,
  // the observed value, and the stage that noticed the trip.
  std::optional<BudgetTrip> budget;
  // Degraded outcomes: stages that were skipped ("dataflow", "ngrams",
  // "inference"), in pipeline order.
  std::vector<std::string> skipped_stages;
  // Degraded outcomes that skipped inference: the features that were still
  // computed (the hand-picked block when n-grams were skipped, or the full
  // row when only inference was) so callers keep a usable signal for
  // quarantined scripts.
  std::vector<float> partial_features;

  bool ok() const { return status == ScriptStatus::kOk; }
  bool parse_failed() const { return status == ScriptStatus::kParseError; }
  // Partial results under a tripped soft budget (DESIGN.md §10).
  bool degraded() const {
    return status == ScriptStatus::kDegraded ||
           status == ScriptStatus::kBudgetDataflow;
  }
  // True when level-1/level-2 inference ran and report carries predictions.
  bool has_predictions() const {
    return !report.technique_confidence.empty();
  }

  // One self-contained JSON object (status, diagnostics, timings, and the
  // report's predictions) — symmetric with BatchStats::to_json(), so
  // callers can stream per-script NDJSON without hand-rolled formatting.
  std::string to_json() const;
};

// Per-worker reusable state for the analyze fast path: the fused
// feature-extraction scratch (counters, traversal stack, n-gram ring,
// feature row, data-flow workspace) plus the compiled-inference scratch
// (chain row and probability buffer). One instance per batch
// worker thread makes the post-parse pipeline allocation-free in steady
// state; reuse and footprint are reported via jst_scratch_reuse_total
// and jst_scratch_peak_bytes.
struct ScriptScratch {
  features::ExtractScratch extract;
  ml::PredictScratch predict;
  // Pooled front-end arena: the lexer, token stream, and AST (with its
  // pre-order index) of every script this worker analyzes live here. parse_program resets it (not
  // frees it) per script, so steady-state lex+parse reuses the same
  // chunks and allocates nothing. Reuse and footprint are reported via
  // jst_arena_reuse_total and jst_arena_peak_bytes.
  support::Arena arena;
  // Pooled identifier atom table, cleared per script in lockstep with the
  // arena reset (parse_program). Dense atom ids index the data-flow
  // builder's per-atom binding stacks (DESIGN.md §17).
  support::AtomTable atoms;

  std::size_t capacity_bytes() const {
    return extract.capacity_bytes() + predict.capacity_bytes() +
           arena.capacity_bytes() + atoms.capacity_bytes();
  }

  // The pooled front end shared by serving and training: lex, parse, CFG
  // and data flow of `source` (per `options`' switches and budget) with
  // the arena, atom table and CFG/data-flow workspaces taken from this
  // scratch. The result is valid until the scratch's next use.
  ScriptAnalysis analyze_front_end(std::string_view source,
                                   AnalysisOptions options);
};

// The calling thread's ScriptScratch. Every serving entry point on a
// thread (AnalyzerService::analyze, analyze_batch lanes) goes through this
// one accessor, so a pool thread pins one pooled arena — grown to the
// largest script it has served — not one per entry point.
ScriptScratch& thread_script_scratch();

class TransformationAnalyzer {
 public:
  explicit TransformationAnalyzer(PipelineOptions options = {});

  // Synthesizes training data and fits both detectors.
  void train();
  // Fits from an externally built corpus (regular sources only; transforms
  // are applied internally).
  void train_on(const std::vector<std::string>& regular_sources);

  bool trained() const { return trained_; }

  // Persist a trained analyzer / restore it without retraining. Every
  // component is prefixed with a versioned header (magic + format version
  // + feature dimension + forest parameters); loading under a mismatched
  // PipelineOptions throws ModelError naming the offending field.
  void save(std::ostream& out) const;
  void load(std::istream& in);

  // The per-script pipeline — the unit of work AnalyzerService fans out
  // over the thread pool; callers outside the service go through
  // AnalyzerService::analyze. `limits` governs the call with a per-script
  // Budget: tripped ceilings surface as budget statuses or degraded
  // outcomes, never as exceptions (a default-constructed ResourceLimits
  // governs nothing). Feature extraction and inference run through
  // `scratch`, whose buffer capacities persist across scripts
  // (allocation-free steady state); a ParseError surfaces as
  // status == kParseError.
  ScriptOutcome analyze_outcome(std::string_view source,
                                const ResourceLimits& limits,
                                ScriptScratch& scratch) const;

  const Level1Detector& level1() const { return level1_; }
  const Level2Detector& level2() const { return level2_; }
  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
  Level1Detector level1_;
  Level2Detector level2_;
  bool trained_ = false;
};

}  // namespace jst::analysis
