#include "analysis/wire.h"

#include <utility>

#include "obs/request_context.h"
#include "transform/technique.h"

namespace jst::analysis::wire {
namespace {

bool parse_output_detail(std::string_view text, OutputDetail& detail) {
  if (text == "status") detail = OutputDetail::kStatus;
  else if (text == "summary") detail = OutputDetail::kSummary;
  else if (text == "full") detail = OutputDetail::kFull;
  else return false;
  return true;
}

bool parse_response_status(std::string_view text, ResponseStatus& status) {
  if (text == "ok") status = ResponseStatus::kOk;
  else if (text == "invalid_request") status = ResponseStatus::kInvalidRequest;
  else if (text == "not_found") status = ResponseStatus::kNotFound;
  else if (text == "overloaded") status = ResponseStatus::kOverloaded;
  else if (text == "draining") status = ResponseStatus::kDraining;
  else return false;
  return true;
}

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

// Reads an optional non-negative count field into `field`; false + error
// on a wrong type or a negative/fractional value.
bool read_size_field(const support::JsonValue& value, const char* name,
                     std::size_t& field, std::string* error) {
  if (!value.is_number() || value.as_number() < 0.0) {
    set_error(error, std::string("limits.") + name +
                         ": expected a non-negative number");
    return false;
  }
  field = static_cast<std::size_t>(value.as_number());
  return true;
}

}  // namespace

void write_resource_limits(JsonWriter& writer, const ResourceLimits& limits) {
  writer.begin_object();
  if (limits.max_source_bytes > 0) {
    writer.key("max_source_bytes");
    writer.value(limits.max_source_bytes);
  }
  if (limits.max_tokens > 0) {
    writer.key("max_tokens");
    writer.value(limits.max_tokens);
  }
  if (limits.max_ast_nodes > 0) {
    writer.key("max_ast_nodes");
    writer.value(limits.max_ast_nodes);
  }
  if (limits.max_ast_depth > 0) {
    writer.key("max_ast_depth");
    writer.value(limits.max_ast_depth);
  }
  if (limits.max_dataflow_edges > 0) {
    writer.key("max_dataflow_edges");
    writer.value(limits.max_dataflow_edges);
  }
  if (limits.deadline_ms > 0.0) {
    writer.key("deadline_ms");
    writer.value(limits.deadline_ms);
  }
  writer.end_object();
}

void write_script_outcome(JsonWriter& writer, const ScriptOutcome& outcome,
                          OutputDetail detail) {
  writer.begin_object();
  writer.key("status"); writer.value(to_string(outcome.status));
  if (detail == OutputDetail::kStatus) {
    writer.end_object();
    return;
  }
  writer.key("degraded"); writer.value(outcome.degraded());
  if (!outcome.error_message.empty()) {
    writer.key("error"); writer.value(outcome.error_message);
  }
  writer.key("timing");
  writer.begin_object();
  writer.key("total_ms"); writer.value(outcome.timing.total_ms);
  writer.key("static_analysis_ms");
  writer.value(outcome.timing.static_analysis_ms);
  writer.key("features_ms"); writer.value(outcome.timing.features_ms);
  writer.key("inference_ms"); writer.value(outcome.timing.inference_ms);
  writer.end_object();
  writer.key("budget");
  if (outcome.budget.has_value()) {
    writer.begin_object();
    writer.key("kind"); writer.value(jst::to_string(outcome.budget->kind));
    writer.key("limit"); writer.value(outcome.budget->limit);
    writer.key("observed"); writer.value(outcome.budget->observed);
    writer.key("stage"); writer.value(outcome.budget->stage);
    writer.end_object();
  } else {
    writer.null();
  }
  if (!outcome.skipped_stages.empty()) {
    writer.key("skipped_stages");
    writer.begin_array();
    for (const std::string& stage : outcome.skipped_stages) {
      writer.value(stage);
    }
    writer.end_array();
  }
  if (detail == OutputDetail::kSummary) {
    writer.end_object();
    return;
  }
  if (!outcome.partial_features.empty()) {
    writer.key("partial_features");
    writer.begin_array();
    for (const float value : outcome.partial_features) {
      writer.value(static_cast<double>(value));
    }
    writer.end_array();
  }
  writer.key("report");
  if (outcome.has_predictions()) {
    writer.begin_object();
    writer.key("p_regular"); writer.value(outcome.report.level1.p_regular);
    writer.key("p_minified"); writer.value(outcome.report.level1.p_minified);
    writer.key("p_obfuscated");
    writer.value(outcome.report.level1.p_obfuscated);
    writer.key("transformed");
    writer.value(outcome.report.level1.transformed());
    writer.key("technique_confidence");
    writer.begin_array();
    for (const double confidence : outcome.report.technique_confidence) {
      writer.value(confidence);
    }
    writer.end_array();
    writer.key("techniques");
    writer.begin_array();
    for (const transform::Technique technique : outcome.report.techniques) {
      writer.value(transform::technique_name(technique));
    }
    writer.end_array();
    writer.end_object();
  } else {
    writer.null();
  }
  writer.end_object();
}

void write_batch_stats(JsonWriter& writer, const BatchStats& stats) {
  writer.begin_object();
  writer.key("total"); writer.value(stats.total);
  writer.key("ok"); writer.value(stats.ok);
  writer.key("parse_errors"); writer.value(stats.parse_errors);
  writer.key("ineligible_size"); writer.value(stats.ineligible_size);
  writer.key("ineligible_ast"); writer.value(stats.ineligible_ast);
  writer.key("budget_tokens"); writer.value(stats.budget_tokens);
  writer.key("budget_ast_nodes"); writer.value(stats.budget_ast_nodes);
  writer.key("budget_depth"); writer.value(stats.budget_depth);
  writer.key("budget_dataflow"); writer.value(stats.budget_dataflow);
  writer.key("deadline_exceeded"); writer.value(stats.deadline_exceeded);
  writer.key("degraded"); writer.value(stats.degraded);
  writer.key("budget_tripped"); writer.value(stats.budget_tripped());
  writer.key("threads"); writer.value(stats.threads);
  writer.key("wall_ms"); writer.value(stats.wall_ms);
  writer.key("scripts_per_second"); writer.value(stats.scripts_per_second);
  writer.key("parse_failure_rate"); writer.value(stats.parse_failure_rate());
  writer.key("static_analysis_ms"); writer.value(stats.static_analysis_ms);
  writer.key("features_ms"); writer.value(stats.features_ms);
  writer.key("inference_ms"); writer.value(stats.inference_ms);
  writer.key("total_script_ms"); writer.value(stats.total_script_ms);
  writer.key("p50_script_ms"); writer.value(stats.p50_script_ms);
  writer.key("p95_script_ms"); writer.value(stats.p95_script_ms);
  writer.key("p99_script_ms"); writer.value(stats.p99_script_ms);
  writer.key("max_script_ms"); writer.value(stats.max_script_ms);
  writer.key("cache_hits"); writer.value(stats.cache_hits);
  writer.end_object();
}

std::string script_outcome_json(const ScriptOutcome& outcome,
                                OutputDetail detail) {
  JsonWriter writer;
  write_script_outcome(writer, outcome, detail);
  return writer.str();
}

std::string batch_stats_json(const BatchStats& stats) {
  JsonWriter writer;
  write_batch_stats(writer, stats);
  return writer.str();
}

std::string analyze_request_json(const AnalyzeRequest& request) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("v"); writer.value(static_cast<long long>(kWireFormatVersion));
  if (!request.id.empty()) {
    writer.key("id"); writer.value(request.id);
  }
  if (!request.request_id.empty()) {
    writer.key("request_id"); writer.value(request.request_id);
  }
  writer.key("detail"); writer.value(to_string(request.detail));
  if (request.cache_mode != CacheMode::kDefault) {
    writer.key("cache_mode");
    writer.value(jst::to_string(request.cache_mode));
  }
  if (request.limits.has_value()) {
    writer.key("limits");
    write_resource_limits(writer, *request.limits);
  }
  if (!request.source_hash.empty()) {
    writer.key("source_hash"); writer.value(request.source_hash);
  }
  if (request.has_source) {
    writer.key("source"); writer.value(request.source);
  }
  writer.end_object();
  return writer.str();
}

std::string analyze_response_json(const AnalyzeResponse& response) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("v"); writer.value(static_cast<long long>(kWireFormatVersion));
  if (!response.id.empty()) {
    writer.key("id"); writer.value(response.id);
  }
  if (!response.request_id.empty()) {
    writer.key("request_id"); writer.value(response.request_id);
  }
  writer.key("status"); writer.value(to_string(response.status));
  if (!response.source_hash.empty()) {
    writer.key("source_hash"); writer.value(response.source_hash);
  }
  writer.key("queue_ms"); writer.value(response.queue_ms);
  writer.key("service_ms"); writer.value(response.service_ms);
  writer.key("queue_depth"); writer.value(response.queue_depth);
  if (response.cache != CacheState::kNone) {
    writer.key("cache"); writer.value(to_string(response.cache));
    writer.key("cache_lookup_ms"); writer.value(response.cache_lookup_ms);
  }
  if (response.status == ResponseStatus::kOk) {
    writer.key("outcome_status");
    writer.value(to_string(response.outcome.status));
    if (response.detail != OutputDetail::kStatus) {
      writer.key("outcome");
      write_script_outcome(writer, response.outcome, response.detail);
    }
  } else {
    writer.key("error"); writer.value(response.error);
  }
  writer.end_object();
  return writer.str();
}

bool parse_resource_limits(const support::JsonValue& value,
                           ResourceLimits& limits, std::string* error) {
  if (!value.is_object()) {
    set_error(error, "limits: expected an object");
    return false;
  }
  ResourceLimits parsed;
  if (const support::JsonValue* production = value.find("production")) {
    if (!production->is_bool()) {
      set_error(error, "limits.production: expected a boolean");
      return false;
    }
    if (production->as_bool()) parsed = ResourceLimits::production();
  }
  for (const auto& [key, member] : value.as_object()) {
    if (key == "production") continue;
    if (key == "max_source_bytes") {
      if (!read_size_field(member, key.c_str(), parsed.max_source_bytes,
                           error)) {
        return false;
      }
    } else if (key == "max_tokens") {
      if (!read_size_field(member, key.c_str(), parsed.max_tokens, error)) {
        return false;
      }
    } else if (key == "max_ast_nodes") {
      if (!read_size_field(member, key.c_str(), parsed.max_ast_nodes, error)) {
        return false;
      }
    } else if (key == "max_ast_depth") {
      if (!read_size_field(member, key.c_str(), parsed.max_ast_depth, error)) {
        return false;
      }
    } else if (key == "max_dataflow_edges") {
      if (!read_size_field(member, key.c_str(), parsed.max_dataflow_edges,
                           error)) {
        return false;
      }
    } else if (key == "deadline_ms") {
      if (!member.is_number() || member.as_number() < 0.0) {
        set_error(error, "limits.deadline_ms: expected a non-negative number");
        return false;
      }
      parsed.deadline_ms = member.as_number();
    } else {
      set_error(error, "limits: unknown field '" + key + "'");
      return false;
    }
  }
  limits = parsed;
  return true;
}

std::optional<AnalyzeRequest> parse_analyze_request(std::string_view line,
                                                    std::string* error) {
  std::string parse_error;
  std::optional<support::JsonValue> document =
      support::parse_json(line, &parse_error);
  if (!document.has_value()) {
    set_error(error, "malformed JSON (" + parse_error + ")");
    return std::nullopt;
  }
  return parse_analyze_request(*document, error);
}

std::optional<AnalyzeRequest> parse_analyze_request(
    const support::JsonValue& document, std::string* error) {
  if (!document.is_object()) {
    set_error(error, "request must be a JSON object");
    return std::nullopt;
  }

  // Resolve the pinned version first (object iteration is key-sorted, so
  // "v" would otherwise be seen after the fields it gates).
  std::uint32_t version = kWireFormatVersion;
  if (const support::JsonValue* pinned = document.find("v")) {
    const bool integral =
        pinned->is_number() &&
        pinned->as_number() ==
            static_cast<double>(static_cast<std::uint32_t>(
                pinned->as_number()));
    if (!integral || pinned->as_number() < 1.0 ||
        pinned->as_number() > static_cast<double>(kWireFormatVersion)) {
      set_error(error, "unsupported wire version (expected 1.." +
                           std::to_string(kWireFormatVersion) + ")");
      return std::nullopt;
    }
    version = static_cast<std::uint32_t>(pinned->as_number());
  }

  AnalyzeRequest request;
  for (const auto& [key, member] : document.as_object()) {
    if (key == "v") {
      continue;  // handled above
    } else if (key == "request_id") {
      if (version < kWireRequestIdVersion) {
        set_error(error, "request_id requires wire v" +
                             std::to_string(kWireRequestIdVersion) +
                             " (request pins v" + std::to_string(version) +
                             ")");
        return std::nullopt;
      }
      if (!member.is_string() ||
          !obs::is_valid_request_id(member.as_string())) {
        set_error(error,
                  "request_id: expected 16 lowercase hex characters");
        return std::nullopt;
      }
      request.request_id = member.as_string();
    } else if (key == "cache_mode") {
      if (version < kWireCacheVersion) {
        set_error(error, "cache_mode requires wire v" +
                             std::to_string(kWireCacheVersion) +
                             " (request pins v" + std::to_string(version) +
                             ")");
        return std::nullopt;
      }
      if (!member.is_string() ||
          !parse_cache_mode(member.as_string(), request.cache_mode)) {
        set_error(error,
                  "cache_mode: expected \"default\", \"bypass\", or "
                  "\"refresh\"");
        return std::nullopt;
      }
    } else if (key == "id") {
      if (!member.is_string()) {
        set_error(error, "id: expected a string");
        return std::nullopt;
      }
      request.id = member.as_string();
    } else if (key == "source") {
      if (!member.is_string()) {
        set_error(error, "source: expected a string");
        return std::nullopt;
      }
      request.source = member.as_string();
      request.has_source = true;
    } else if (key == "source_hash") {
      if (!member.is_string()) {
        set_error(error, "source_hash: expected a string");
        return std::nullopt;
      }
      request.source_hash = member.as_string();
    } else if (key == "detail") {
      if (!member.is_string() ||
          !parse_output_detail(member.as_string(), request.detail)) {
        set_error(error,
                  "detail: expected \"status\", \"summary\", or \"full\"");
        return std::nullopt;
      }
    } else if (key == "limits") {
      ResourceLimits limits;
      if (!parse_resource_limits(member, limits, error)) return std::nullopt;
      request.limits = limits;
    } else {
      set_error(error, "unknown field '" + key + "'");
      return std::nullopt;
    }
  }
  if (!request.has_source && request.source_hash.empty()) {
    set_error(error, "request carries neither source nor source_hash");
    return std::nullopt;
  }
  return request;
}

std::optional<ParsedResponse> parse_analyze_response(std::string_view line,
                                                     std::string* error) {
  std::string parse_error;
  std::optional<support::JsonValue> document =
      support::parse_json(line, &parse_error);
  if (!document.has_value()) {
    set_error(error, "malformed JSON (" + parse_error + ")");
    return std::nullopt;
  }
  if (!document->is_object()) {
    set_error(error, "response must be a JSON object");
    return std::nullopt;
  }

  ParsedResponse response;
  const support::JsonValue* version = document->find("v");
  if (version != nullptr && version->is_number()) {
    response.version = static_cast<std::uint32_t>(version->as_number());
  }
  const support::JsonValue* status = document->find("status");
  if (status == nullptr || !status->is_string() ||
      !parse_response_status(status->as_string(), response.status)) {
    set_error(error, "missing or unknown response status");
    return std::nullopt;
  }
  if (const support::JsonValue* id = document->find("id")) {
    response.id = id->as_string();
  }
  if (const support::JsonValue* rid = document->find("request_id")) {
    response.request_id = rid->as_string();
  }
  if (const support::JsonValue* hash = document->find("source_hash")) {
    response.source_hash = hash->as_string();
  }
  if (const support::JsonValue* message = document->find("error")) {
    response.error = message->as_string();
  }
  if (const support::JsonValue* value = document->find("queue_ms")) {
    response.queue_ms = value->as_number();
  }
  if (const support::JsonValue* value = document->find("service_ms")) {
    response.service_ms = value->as_number();
  }
  if (const support::JsonValue* value = document->find("queue_depth")) {
    response.queue_depth = static_cast<std::size_t>(value->as_number());
  }
  if (const support::JsonValue* value = document->find("cache")) {
    response.cache = value->as_string();
  }
  if (const support::JsonValue* value = document->find("cache_lookup_ms")) {
    response.cache_lookup_ms = value->as_number();
  }
  if (const support::JsonValue* value = document->find("outcome_status")) {
    response.outcome_status = value->as_string();
  }
  if (const support::JsonValue* outcome = document->find("outcome")) {
    response.outcome = *outcome;
  }
  return response;
}

}  // namespace jst::analysis::wire
