// Analysis-as-a-service API over a trained TransformationAnalyzer.
//
// The paper's wild study (§IV) classifies hundreds of thousands of scripts
// under a per-script timeout — a workload shaped like a service, not a
// batch CLI. This header is the service contract (DESIGN.md §13): every
// frontend (the jstraced-server daemon, the bench drivers, the example
// CLIs) builds an AnalyzeRequest, the service answers with an
// AnalyzeResponse, and both sides of that exchange serialize through the
// versioned NDJSON wire schema in analysis/wire.h. The original
// analyze_one / analyze_batch(span<string>) adapters completed their
// deprecation cycle (introduced PR 6, callers migrated PR 8, removed
// PR 9) — make_source_requests covers the raw-source case.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pipeline.h"
#include "support/cache_flags.h"  // CacheMode

namespace jst::analysis {

class ResultCache;

struct BatchOptions {
  // Parallelism for the batch (0 = JST_THREADS / hardware default via
  // support::resolve_threads, 1 = serial). Results are identical for
  // every value.
  std::size_t threads = 0;
  // Per-script resource ceilings (support/budget.h). Every script in the
  // batch is analyzed under its own Budget built from these limits; tripped
  // ceilings surface as budget statuses / degraded outcomes and are tallied
  // in BatchStats, never thrown. The default governs nothing. A request's
  // own limits override (AnalyzeRequest::limits); this field is the batch
  // default. This supersedes the old max_bytes field: set
  // limits.max_source_bytes for the former behavior (see DESIGN.md §10).
  ResourceLimits limits;
};

// How much of the analysis outcome a response should carry on the wire
// (AnalyzeRequest::detail). Analysis work is identical for every level —
// detail only governs serialization, so a daemon client can trade
// response size against information.
enum class OutputDetail : std::uint8_t {
  kStatus,   // outcome status string only
  kSummary,  // status + diagnostics + budget trip + timings (no report)
  kFull,     // the complete ScriptOutcome, report included
};

std::string_view to_string(OutputDetail detail);

// Disposition of one AnalyzeRequest, distinct from the per-script
// ScriptStatus: ResponseStatus describes the request/transport layer
// (admission, resolution, validation) while ScriptStatus describes the
// analysis itself. A request can be answered kOk while its outcome is a
// parse error or a budget quarantine.
enum class ResponseStatus : std::uint8_t {
  kOk,              // analyzed; outcome populated
  kInvalidRequest,  // malformed request (no source, bad limits, bad JSON)
  kNotFound,        // source_hash reference unknown to the resolver
  kOverloaded,      // admission control shed the request (DESIGN.md §13)
  kDraining,        // server is shutting down; request not admitted
};

std::string_view to_string(ResponseStatus status);

// How a request interacted with the service's ResultCache
// (AnalyzeResponse::cache). kNone means no cache was consulted — the
// service has none attached — and the field stays off the wire, so a
// cacheless daemon's responses are byte-identical to wire v2 modulo the
// version number.
enum class CacheState : std::uint8_t {
  kNone,    // no cache attached; no metadata emitted
  kHit,     // outcome served from the cache, pipeline skipped
  kMiss,    // not cached; analyzed (and stored when cacheable)
  kBypass,  // CacheMode::kBypass: cache deliberately ignored
  kStale,   // CacheMode::kRefresh over an existing entry: recomputed
};

std::string_view to_string(CacheState state);

// One unit of service work: an inline source (or a content-hash reference
// to one the resolver has already seen), an optional per-request limits
// override, and the requested response detail.
struct AnalyzeRequest {
  // Opaque client token echoed back verbatim; lets clients correlate
  // pipelined responses, which the daemon emits in completion order.
  std::string id;
  // Observability correlation token: 16 lowercase hex digits
  // (obs::is_valid_request_id). Clients may supply one (wire v2+); the
  // daemon mints one at admission when absent. The service installs it
  // as the thread's obs::RequestScope for the duration of the analysis,
  // so every trace span and flight-recorder event the request produces
  // carries it. Distinct from `id`: `id` is client-meaningful and
  // free-form, `request_id` is the fixed-shape join key for traces.
  std::string request_id;
  // Inline JS source. `has_source` distinguishes an intentionally empty
  // script from an absent field (wire requests may carry only a hash).
  std::string source;
  bool has_source = false;
  // Content-hash reference (16 lowercase hex digits, FNV-1a 64 of the
  // source bytes): names a script previously submitted inline to the same
  // resolver. Requests carrying both source and hash are validated for
  // consistency and rejected on mismatch.
  std::string source_hash;
  // Per-request override of the service/batch default limits.
  std::optional<ResourceLimits> limits;
  OutputDetail detail = OutputDetail::kFull;
  // Cache discipline for this request (wire v3). kDefault consults the
  // service's ResultCache when one is attached; kBypass skips it
  // entirely; kRefresh recomputes and overwrites. Ignored (all modes
  // behave alike) when the service has no cache.
  CacheMode cache_mode = CacheMode::kDefault;

  static AnalyzeRequest for_source(std::string source,
                                   std::string id = std::string());
  static AnalyzeRequest for_hash(std::string source_hash,
                                 std::string id = std::string());
};

// Adapts a span of raw sources into inline-source requests. Requests are
// positionally aligned with the sources.
std::vector<AnalyzeRequest> make_source_requests(
    std::span<const std::string> sources,
    CacheMode cache_mode = CacheMode::kDefault);

// The service's answer: request disposition, the content hash of the
// analyzed source, the ScriptOutcome (kOk only), and server-side queue
// metadata. Fields under "daemon-filled" are zero when the service is
// called in-process (no queue exists).
struct AnalyzeResponse {
  ResponseStatus status = ResponseStatus::kInvalidRequest;
  std::string id;           // echoed from the request
  std::string request_id;   // echoed (or daemon-minted) trace join key
  std::string source_hash;  // computed (inline) or echoed (reference)
  ScriptOutcome outcome;    // meaningful only when status == kOk
  std::string error;        // diagnostic for every non-kOk status
  OutputDetail detail = OutputDetail::kFull;  // serialization level
  // --- cache metadata (DESIGN.md §15) ---
  // kNone when the service has no cache (fields stay off the wire). On a
  // kHit the outcome carries the timings of the original analysis, while
  // service_ms reflects the actual (lookup-only) serving cost.
  CacheState cache = CacheState::kNone;
  double cache_lookup_ms = 0.0;  // time spent consulting the cache
  // --- daemon-filled queue metadata (DESIGN.md §13) ---
  double queue_ms = 0.0;    // admission -> worker pickup
  double service_ms = 0.0;  // worker pickup -> response ready
  std::size_t queue_depth = 0;  // depth observed at admission

  bool ok() const { return status == ResponseStatus::kOk; }

  // One NDJSON line in the versioned wire schema (analysis/wire.h),
  // honoring `detail`.
  std::string to_json() const;
};

// Aggregate counters over one batch call.
//
// Stage accounting invariant: the per-stage sums partition the per-script
// totals — static_analysis_ms + features_ms + inference_ms ≈
// total_script_ms, where static analysis covers lex + parse + CFG + data
// flow + the §III-D1 eligibility walk. The residue is only the clock
// reads between stage boundaries (microseconds per script); the batch
// aggregator asserts the invariant in debug builds. Only analyzed
// requests (ResponseStatus::kOk) are counted: a rejected or unresolved
// request never reaches the pipeline, so it contributes to no counter.
// A cache hit counts in `total`, its status counter and `cache_hits`, but
// not in the stage sums or total_script_ms: its stored timings describe
// the analysis that filled the entry, not this batch's work.
struct BatchStats {
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t parse_errors = 0;
  std::size_t ineligible_size = 0;
  std::size_t ineligible_ast = 0;
  // Budget quarantine counters (DESIGN.md §10), one per budget status.
  std::size_t budget_tokens = 0;      // kBudgetTokens
  std::size_t budget_ast_nodes = 0;   // kBudgetAstNodes
  std::size_t budget_depth = 0;       // kBudgetDepth
  std::size_t budget_dataflow = 0;    // kBudgetDataflow (degraded)
  std::size_t deadline_exceeded = 0;  // kDeadlineExceeded (hard stage)
  std::size_t degraded = 0;           // kDegraded (soft-checkpoint deadline)
  std::size_t threads = 1;            // parallelism actually used
  // Batch wall-clock time. For an empty batch every rate/percentile field
  // below is a well-defined 0.0 (no division happens on total == 0).
  double wall_ms = 0.0;
  double scripts_per_second = 0.0;  // total / wall time; 0 when total == 0
  // Per-stage time summed across scripts (≈ wall_ms × threads when the
  // pool is saturated); see the invariant above.
  double static_analysis_ms = 0.0;
  double features_ms = 0.0;
  double inference_ms = 0.0;
  // Per-script latency distribution over the served cost of every script
  // in the batch (AnalyzeResponse::service_ms: the analysis for a miss or
  // an uncached call, the lookup for a hit). Percentiles are exact —
  // computed from the full sample, not histogram buckets.
  double total_script_ms = 0.0;  // Σ per-script total_ms of analyzed scripts
  double p50_script_ms = 0.0;
  double p95_script_ms = 0.0;
  double p99_script_ms = 0.0;
  double max_script_ms = 0.0;  // slowest single script
  std::size_t cache_hits = 0;  // scripts served from the result cache

  // Scripts quarantined by any ResourceLimits ceiling (hard or degraded).
  std::size_t budget_tripped() const {
    return budget_tokens + budget_ast_nodes + budget_depth + budget_dataflow +
           deadline_exceeded + degraded;
  }
  double parse_failure_rate() const {
    return total == 0 ? 0.0
                      : static_cast<double>(parse_errors) /
                            static_cast<double>(total);
  }
  // Sum of the three per-stage aggregates (lhs of the invariant above).
  double stage_ms_sum() const {
    return static_analysis_ms + features_ms + inference_ms;
  }

  // One self-contained JSON object with every field above, in the
  // versioned wire schema (analysis/wire.h) — identical bytes whether
  // emitted here, by the daemon, or by wild_study --ndjson-out.
  std::string to_json() const;
};

// Result of a request-path batch: responses positionally aligned with the
// requests, plus aggregate stats over the analyzed subset.
struct BatchResponse {
  std::vector<AnalyzeResponse> responses;  // aligned with the input span
  BatchStats stats;
};

class AnalyzerService {
 public:
  // The analyzer must already be trained (or loaded); throws ModelError
  // otherwise. The service borrows the analyzer — and the optional
  // ResultCache — both of which must outlive it. Attaching a cache
  // computes the model fingerprint once (one serialization pass).
  explicit AnalyzerService(const TransformationAnalyzer& analyzer,
                           ResultCache* cache = nullptr);

  // --- request/response API (the primary entry points) ---

  // Serves one request under its own limits (falling back to
  // `default_limits` when the request carries no override). Never throws
  // on request or analysis failures — both surface as ResponseStatus /
  // ScriptStatus. Hash-only requests return kNotFound here: resolution
  // requires a registry, which the daemon layers on top (server/server.h).
  AnalyzeResponse analyze(const AnalyzeRequest& request,
                          const ResourceLimits& default_limits = {}) const;

  // Serves every request concurrently over the thread pool; responses are
  // positionally aligned and independent of the thread count. Outcomes are
  // bit-identical to analyze() on each request in isolation.
  BatchResponse analyze_batch(std::span<const AnalyzeRequest> requests,
                              const BatchOptions& options = {}) const;

  const TransformationAnalyzer& analyzer() const { return *analyzer_; }

  // Attach (or detach, with nullptr) the result cache. Not thread-safe
  // against in-flight analyze calls; configure before serving.
  void set_cache(ResultCache* cache);
  ResultCache* cache() const { return cache_; }

  // FNV-1a 64 of the serialized trained model as 16 lowercase hex — the
  // model_version component of the cache key. Empty until a cache is
  // attached (computing it costs one full model serialization).
  const std::string& model_fingerprint() const { return model_fingerprint_; }

 private:
  AnalyzeResponse analyze_with_scratch(const AnalyzeRequest& request,
                                       const ResourceLimits& default_limits,
                                       ScriptScratch& scratch) const;

  const TransformationAnalyzer* analyzer_;
  ResultCache* cache_ = nullptr;
  std::string model_fingerprint_;  // computed when a cache is attached
};

// Content hash used for AnalyzeRequest::source_hash references: FNV-1a 64
// of the raw source bytes, formatted as 16 lowercase hex digits.
//
// Trust assumption (DESIGN.md §13): FNV-1a is not collision-resistant —
// colliding inputs are trivially constructible — and the daemon's hash
// registry is shared across connections, returning the first source
// registered under a hash. source_hash references are therefore only
// reliable among mutually-trusted local clients (the daemon listens on a
// Unix socket, filesystem-permission-gated). If the registry is ever
// exposed to untrusted writers, swap this for a cryptographic digest
// (e.g. truncated SHA-256); the wire field is an opaque hex token, so
// only kWireFormatVersion needs bumping.
std::string content_hash(std::string_view source);

}  // namespace jst::analysis
