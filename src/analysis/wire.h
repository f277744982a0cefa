// Versioned NDJSON wire schema for the service API (DESIGN.md §13).
//
// Every serialized service artifact — ScriptOutcome, BatchStats,
// AnalyzeRequest, AnalyzeResponse — goes through this module, so the
// daemon, the batch CLI shims, wild_study --ndjson-out, and the golden
// frontend fixture all emit identical bytes for identical values. The
// schema is versioned alongside the model format (analysis/model_io.h):
// kWireFormatVersion is bumped on any field addition, removal, or
// reordering, requests carry an optional "v" checked on parse, and
// responses echo the version so clients can pin what they expect.
//
// Version history:
//   v1 — initial schema. ScriptOutcome and BatchStats objects keep the
//        exact field order of the pre-schema to_json() methods (the
//        frontend golden fixture was captured against it).
//   v2 — optional "request_id" (16 lowercase hex) on requests and
//        responses: the observability correlation token joining a
//        response to its trace spans and flight-recorder events.
//        Parsers accept any version ≤ current; a request that pins
//        "v":1 while carrying request_id is rejected, and v1 documents
//        without the field parse exactly as before. ScriptOutcome /
//        BatchStats bytes are unchanged (the golden fixture still
//        matches).
//   v3 — result-cache metadata (DESIGN.md §15): requests gain an
//        optional "cache_mode" ("default" | "bypass" | "refresh",
//        emitted only when not default), responses gain "cache"
//        ("hit" | "miss" | "bypass" | "stale") and "cache_lookup_ms" —
//        emitted only when the serving service actually consulted a
//        cache, so a cacheless daemon's responses differ from v2 in
//        the version number alone. Same pinning rule as v2: a request
//        that pins "v":1 or "v":2 while carrying cache_mode is
//        rejected; v1/v2 documents without the field parse exactly as
//        before. ScriptOutcome / BatchStats bytes are unchanged.
//   BatchStats later gained a trailing "cache_hits" field without a
//   version bump: no request or response line carries BatchStats (only
//   the BatchStats::to_json exports do), so the protocol is unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/service.h"
#include "support/json_reader.h"
#include "support/json_writer.h"

namespace jst::analysis::wire {

inline constexpr std::uint32_t kWireFormatVersion = 3;

// First version that understands the optional "request_id" field.
inline constexpr std::uint32_t kWireRequestIdVersion = 2;

// First version that understands the cache fields ("cache_mode" on
// requests; "cache" / "cache_lookup_ms" on responses).
inline constexpr std::uint32_t kWireCacheVersion = 3;

// --- serialization -------------------------------------------------------

// Writes one ScriptOutcome object in value position. kFull emits every
// field (byte-identical to the pre-schema ScriptOutcome::to_json);
// kSummary drops the report and partial_features; kStatus callers should
// not emit an object at all (write_analyze_response handles that level).
void write_script_outcome(JsonWriter& writer, const ScriptOutcome& outcome,
                          OutputDetail detail = OutputDetail::kFull);

// Writes one BatchStats object in value position (byte-identical to the
// pre-schema BatchStats::to_json).
void write_batch_stats(JsonWriter& writer, const BatchStats& stats);

// Writes a ResourceLimits object in value position; only enabled ceilings
// are emitted, so the default limits serialize as {}.
void write_resource_limits(JsonWriter& writer, const ResourceLimits& limits);

// One-line NDJSON helpers over the writers above.
std::string script_outcome_json(const ScriptOutcome& outcome,
                                OutputDetail detail = OutputDetail::kFull);
std::string batch_stats_json(const BatchStats& stats);
std::string analyze_request_json(const AnalyzeRequest& request);
std::string analyze_response_json(const AnalyzeResponse& response);

// --- parsing -------------------------------------------------------------

// Parses one request line. Accepts an optional "v" (defaults to the
// current version; any version ≤ current is accepted, newer versions
// are rejected), "id", "request_id" (v2+, 16 lowercase hex), "source",
// "source_hash", "detail" ("status" | "summary" | "full"), and "limits"
// ({"production":true} merges the production defaults, then the
// individual ceiling fields override). Returns std::nullopt and fills
// `error` on malformed JSON, unknown keys, or bad field types — the
// daemon turns that into a kInvalidRequest response.
std::optional<AnalyzeRequest> parse_analyze_request(std::string_view line,
                                                    std::string* error);

// Same, from an already-parsed DOM — the daemon parses each line once to
// route ops vs. requests and hands the document here.
std::optional<AnalyzeRequest> parse_analyze_request(
    const support::JsonValue& document, std::string* error);

// Client-side view of a response line: the envelope decoded into fields,
// the outcome left as a JSON DOM (clients rarely need more than its
// status, and the full ScriptOutcome is not reconstructible from
// reduced-detail responses anyway).
struct ParsedResponse {
  std::uint32_t version = kWireFormatVersion;
  ResponseStatus status = ResponseStatus::kInvalidRequest;
  std::string id;
  std::string request_id;
  std::string source_hash;
  std::string error;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::size_t queue_depth = 0;
  std::string outcome_status;       // set at every detail level when kOk
  support::JsonValue outcome;       // object at kSummary/kFull, else null
  // Cache metadata (v3): "hit" | "miss" | "bypass" | "stale", or empty
  // when the serving daemon consulted no cache (including every pre-v3
  // response line).
  std::string cache;
  double cache_lookup_ms = 0.0;

  bool ok() const { return status == ResponseStatus::kOk; }
  // Typed view of the cache field, for callers branching on reuse.
  bool cache_hit() const { return cache == "hit"; }
  bool cached() const { return !cache.empty(); }
};

std::optional<ParsedResponse> parse_analyze_response(std::string_view line,
                                                     std::string* error);

// Parses a limits object (the "limits" member of a request). Exposed for
// the daemon's config path and tests.
bool parse_resource_limits(const support::JsonValue& value,
                           ResourceLimits& limits, std::string* error);

}  // namespace jst::analysis::wire
