// Analysis-as-a-service (DESIGN.md §13): the AnalyzeRequest/AnalyzeResponse
// API, its versioned NDJSON wire schema, and the jstraced daemon.
//
//  * Wire round-trips: request and response lines survive
//    serialize → parse with every field intact; unknown fields, bad
//    types, and newer format versions are rejected with diagnostics.
//  * Admission control: Server::should_shed is a pure function — the
//    hard cap and the queue-wait estimate shed deterministically.
//  * Socket integration: a live daemon serves concurrent bursts with
//    zero dropped connections, resolves content-hash references,
//    answers metrics/ping ops and HTTP-style scrapes, sheds overload
//    with explicit kOverloaded responses, and drains on shutdown
//    without abandoning admitted requests.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.h"
#include "analysis/service.h"
#include "analysis/wild.h"
#include "analysis/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "server/client.h"
#include "server/server.h"
#include "support/json_reader.h"
#include "support/rng.h"
#include "transform/transform.h"

namespace jst {
namespace {

// Same corpus as test_frontend/test_compiled: 16 deterministic regular
// scripts plus one transformed variant per technique.
std::vector<std::string> seed_corpus() {
  analysis::CorpusSpec spec;
  spec.regular_count = 16;
  spec.seed = 424242;
  std::vector<std::string> corpus = analysis::generate_regular_corpus(spec);
  Rng rng(99);
  std::size_t base = 0;
  for (const transform::Technique technique : transform::all_techniques()) {
    corpus.push_back(
        analysis::make_transformed_sample(corpus[base % 16], technique, rng)
            .source);
    ++base;
  }
  return corpus;
}

const analysis::TransformationAnalyzer& shared_analyzer() {
  static analysis::TransformationAnalyzer* analyzer = [] {
    analysis::PipelineOptions options;
    options.training_regular_count = 32;
    options.per_technique_count = 6;
    options.detector.forest.tree_count = 6;
    options.detector.features.ngram.hash_dim = 64;
    options.seed = 20260806;
    auto* built = new analysis::TransformationAnalyzer(options);
    built->train();
    return built;
  }();
  return *analyzer;
}

// A unique-per-test socket path under /tmp (sun_path is length-limited,
// so the build tree is not a safe prefix).
std::string test_socket_path(const char* tag) {
  return "/tmp/jstraced_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

// Splits NDJSON / JSONL into non-empty lines.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Extracts `"key":"..."` from a single-line JSON event ("" when absent).
std::string json_string_field(const std::string& line,
                              const std::string& key) {
  const std::string needle = '"' + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::string();
  const std::size_t start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

// Extracts the numeric `"key":` value from a single-line JSON event.
double json_number_field(const std::string& line, const std::string& key) {
  const std::string needle = '"' + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) return 0.0;
  return std::atof(line.c_str() + at + needle.size());
}

// --- wire schema: requests -------------------------------------------------

TEST(WireSchema, RequestRoundTripInlineSource) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;", "req-7");
  request.detail = analysis::OutputDetail::kSummary;
  ResourceLimits limits;
  limits.deadline_ms = 250.0;
  limits.max_tokens = 5000;
  request.limits = limits;

  const std::string line = analysis::wire::analyze_request_json(request);
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->id, "req-7");
  EXPECT_TRUE(parsed->has_source);
  EXPECT_EQ(parsed->source, "var x = 1;");
  EXPECT_EQ(parsed->detail, analysis::OutputDetail::kSummary);
  ASSERT_TRUE(parsed->limits.has_value());
  EXPECT_DOUBLE_EQ(parsed->limits->deadline_ms, 250.0);
  EXPECT_EQ(parsed->limits->max_tokens, 5000u);
  EXPECT_EQ(parsed->limits->max_ast_nodes, 0u);
}

TEST(WireSchema, RequestRoundTripHashReference) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_hash("00112233aabbccdd", "ref-1");
  const std::string line = analysis::wire::analyze_request_json(request);
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_FALSE(parsed->has_source);
  EXPECT_EQ(parsed->source_hash, "00112233aabbccdd");
  EXPECT_EQ(parsed->detail, analysis::OutputDetail::kFull);
}

TEST(WireSchema, RequestRejectsUnknownFieldAndNewerVersion) {
  std::string error;
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   R"({"v":1,"source":"x","bogus":true})", &error)
                   .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   R"({"v":999,"source":"x"})", &error)
                   .has_value());
  EXPECT_FALSE(
      analysis::wire::parse_analyze_request("not json at all", &error)
          .has_value());
}

TEST(WireSchema, RequestLimitsProductionThenOverride) {
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(
      R"({"source":"x","limits":{"production":true,"max_tokens":7}})",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->limits.has_value());
  const ResourceLimits production = ResourceLimits::production();
  EXPECT_EQ(parsed->limits->max_tokens, 7u);  // override wins
  EXPECT_EQ(parsed->limits->max_source_bytes, production.max_source_bytes);
  EXPECT_DOUBLE_EQ(parsed->limits->deadline_ms, production.deadline_ms);
}

// --- wire schema: request_id (v2) ------------------------------------------

TEST(WireSchema, RequestIdRoundTripsOnV2) {
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source("var x = 1;", "rid-1");
  request.request_id = "0123456789abcdef";
  const std::string line = analysis::wire::analyze_request_json(request);
  EXPECT_NE(line.find("\"request_id\":\"0123456789abcdef\""),
            std::string::npos)
      << line;

  std::string error;
  const auto parsed = analysis::wire::parse_analyze_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->request_id, "0123456789abcdef");
  EXPECT_EQ(parsed->id, "rid-1");

  // Absent request_id parses as empty (the daemon mints one later).
  const auto bare = analysis::wire::parse_analyze_request(
      R"({"source":"x"})", &error);
  ASSERT_TRUE(bare.has_value()) << error;
  EXPECT_TRUE(bare->request_id.empty());
}

TEST(WireSchema, RequestIdRejectedUnderPinnedV1) {
  std::string error;
  EXPECT_FALSE(analysis::wire::parse_analyze_request(
                   R"({"v":1,"source":"x","request_id":"0123456789abcdef"})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("wire v2"), std::string::npos) << error;
  // An explicit v:2 pin accepts it.
  const auto parsed = analysis::wire::parse_analyze_request(
      R"({"v":2,"source":"x","request_id":"0123456789abcdef"})", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->request_id, "0123456789abcdef");
}

TEST(WireSchema, RequestIdRejectsMalformedShapes) {
  std::string error;
  for (const char* bad :
       {R"({"source":"x","request_id":""})",
        R"({"source":"x","request_id":"short"})",
        R"({"source":"x","request_id":"0123456789ABCDEF"})",
        R"({"source":"x","request_id":"0123456789abcdef0"})"}) {
    EXPECT_FALSE(
        analysis::wire::parse_analyze_request(bad, &error).has_value())
        << bad;
    EXPECT_NE(error.find("request_id"), std::string::npos) << error;
  }
}

TEST(WireSchema, ResponseCarriesRequestIdThroughService) {
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0], "echo-1");
  request.request_id = "feedfacefeedface";
  const analysis::AnalyzeResponse response = service.analyze(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.request_id, "feedfacefeedface");

  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(
      response.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->request_id, "feedfacefeedface");
}

// --- wire schema: responses ------------------------------------------------

TEST(WireSchema, ResponseRoundTripOk) {
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0], "ok-1");
  analysis::AnalyzeResponse response = service.analyze(request);
  ASSERT_TRUE(response.ok());
  response.queue_ms = 1.5;
  response.queue_depth = 3;

  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(
      response.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->version, analysis::wire::kWireFormatVersion);
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->id, "ok-1");
  EXPECT_EQ(parsed->source_hash, analysis::content_hash(seed_corpus()[0]));
  EXPECT_DOUBLE_EQ(parsed->queue_ms, 1.5);
  EXPECT_EQ(parsed->queue_depth, 3u);
  EXPECT_EQ(parsed->outcome_status, to_string(response.outcome.status));
  ASSERT_TRUE(parsed->outcome.is_object());
  // The embedded outcome is the same bytes ScriptOutcome::to_json emits.
  const support::JsonValue* status = parsed->outcome.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->as_string(), to_string(response.outcome.status));
}

TEST(WireSchema, ResponseDetailLevels) {
  const analysis::AnalyzerService service(shared_analyzer());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0]);

  request.detail = analysis::OutputDetail::kStatus;
  analysis::AnalyzeResponse status_response = service.analyze(request);
  const std::string status_line = status_response.to_json();
  EXPECT_EQ(status_line.find("\"outcome\":"), std::string::npos);
  EXPECT_NE(status_line.find("\"outcome_status\":"), std::string::npos);

  request.detail = analysis::OutputDetail::kSummary;
  const std::string summary_line = service.analyze(request).to_json();
  EXPECT_NE(summary_line.find("\"outcome\":"), std::string::npos);
  EXPECT_EQ(summary_line.find("\"report\":"), std::string::npos);

  request.detail = analysis::OutputDetail::kFull;
  const std::string full_line = service.analyze(request).to_json();
  EXPECT_NE(full_line.find("\"report\":"), std::string::npos);
}

TEST(WireSchema, ResponseErrorRoundTrip) {
  analysis::AnalyzeResponse response;
  response.status = analysis::ResponseStatus::kOverloaded;
  response.id = "shed-1";
  response.error = "overloaded: 9 in flight";
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(
      response.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->status, analysis::ResponseStatus::kOverloaded);
  EXPECT_EQ(parsed->error, "overloaded: 9 in flight");
  EXPECT_TRUE(parsed->outcome.is_null());
}

// The member to_json surfaces route through the wire schema — same
// bytes, one serializer.
TEST(WireSchema, ToJsonRoutesThroughWire) {
  const analysis::AnalyzerService service(shared_analyzer());
  const analysis::BatchResponse batch = service.analyze_batch(
      analysis::make_source_requests(seed_corpus()));
  for (const analysis::AnalyzeResponse& response : batch.responses) {
    EXPECT_EQ(response.outcome.to_json(),
              analysis::wire::script_outcome_json(response.outcome));
  }
  EXPECT_EQ(batch.stats.to_json(),
            analysis::wire::batch_stats_json(batch.stats));
}

// --- content hashing -------------------------------------------------------

TEST(ContentHash, StableFormat) {
  const std::string hash = analysis::content_hash("var x = 1;");
  EXPECT_EQ(hash.size(), 16u);
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(hash, analysis::content_hash("var x = 1;"));
  EXPECT_NE(hash, analysis::content_hash("var x = 2;"));
}

// --- JSON DOM serializer ---------------------------------------------------

// support::to_json is what Client::metrics_json/stats_json use to lift an
// embedded payload out of the op envelope — it must reproduce the parsed
// document (including the ±1e999 infinity idiom the metrics registry
// emits) and be its own fixpoint.
TEST(JsonRoundTrip, SerializerReproducesDocument) {
  const std::string text =
      R"({"b":true,"inf":1e999,"neg":-1e999,)"
      R"("list":[1,2.5,-0.1,"x\ny",null],)"
      R"("nested":{"count":12345,"frac":0.1}})";
  std::string error;
  const auto parsed = support::parse_json(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const std::string serialized = support::to_json(*parsed);

  const auto reparsed = support::parse_json(serialized, &error);
  ASSERT_TRUE(reparsed.has_value()) << error << ": " << serialized;
  EXPECT_EQ(support::to_json(*reparsed), serialized);  // fixpoint

  EXPECT_TRUE(std::isinf(reparsed->find("inf")->as_number()));
  EXPECT_GT(reparsed->find("inf")->as_number(), 0.0);
  EXPECT_TRUE(std::isinf(reparsed->find("neg")->as_number()));
  EXPECT_LT(reparsed->find("neg")->as_number(), 0.0);
  EXPECT_NE(serialized.find("1e999"), std::string::npos) << serialized;
  EXPECT_DOUBLE_EQ(reparsed->find("nested")->find("frac")->as_number(), 0.1);
  EXPECT_NE(serialized.find("\"frac\":0.1"), std::string::npos) << serialized;
  EXPECT_EQ(reparsed->find("nested")->find("count")->as_number(), 12345.0);
  EXPECT_NE(serialized.find("\"count\":12345"), std::string::npos)
      << serialized;
  EXPECT_EQ(reparsed->find("list")->as_array()[3].as_string(), "x\ny");
}

// --- admission control (pure function) ------------------------------------

TEST(AdmissionControl, HardCapSheds) {
  EXPECT_TRUE(server::Server::should_shed(4, 2, 0.0, 0.0, 4));
  EXPECT_TRUE(server::Server::should_shed(9, 2, 1.0, 1e9, 4));
  EXPECT_FALSE(server::Server::should_shed(3, 2, 0.0, 0.0, 4));
}

TEST(AdmissionControl, DeadlineEstimateSheds) {
  // 8 queued × 100 ms p95 / 2 workers = 400 ms estimated wait.
  EXPECT_TRUE(server::Server::should_shed(8, 2, 100.0, 399.0, 0));
  EXPECT_FALSE(server::Server::should_shed(8, 2, 100.0, 401.0, 0));
  // More workers absorb the same queue.
  EXPECT_FALSE(server::Server::should_shed(8, 8, 100.0, 399.0, 0));
}

TEST(AdmissionControl, NoDeadlineNeverShedsWithoutCap) {
  EXPECT_FALSE(server::Server::should_shed(100000, 1, 5000.0, 0.0, 0));
  EXPECT_FALSE(server::Server::should_shed(0, 1, 5000.0, 1.0, 0));
}

// Regression for stale admission (PR 7): before the windowed p95, one
// early slow burst poisoned the cumulative p95 for the life of the
// process, so should_shed kept rejecting fast traffic minutes later. The
// windowed estimate forgets the burst once it ages out of the window.
TEST(AdmissionControl, WindowedP95RecoversFromEarlySlowBurst) {
  obs::Histogram cumulative;          // the since-boot view (old behavior)
  obs::WindowedHistogram windowed(60);  // what admission_p95_ms consults

  // Second 0: a 200-request burst at 500 ms service time.
  for (int i = 0; i < 200; ++i) {
    cumulative.record(500.0);
    windowed.record_at(0, 500.0);
  }
  // Ten minutes later: the same count of 1 ms requests.
  for (int i = 0; i < 200; ++i) {
    cumulative.record(1.0);
    windowed.record_at(600, 1.0);
  }

  const double cumulative_p95 = cumulative.p95();
  const double windowed_p95 = windowed.snapshot_at(600).p95;
  EXPECT_GT(cumulative_p95, 100.0);  // still dominated by the burst
  EXPECT_LT(windowed_p95, 10.0);     // burst aged out of the window

  // 4 queued, 2 workers, 250 ms deadline: the cumulative estimate sheds
  // traffic the server could easily serve; the windowed one admits it.
  EXPECT_TRUE(server::Server::should_shed(4, 2, cumulative_p95, 250.0, 0));
  EXPECT_FALSE(server::Server::should_shed(4, 2, windowed_p95, 250.0, 0));
}

// --- flight recorder under the sanitizers ----------------------------------

// Empty rid/key views (default-constructed: null data()) outside any
// request scope are recorded as absent fields. This suite carries the
// `robustness` label, so the ubsan preset checks the copy is free of
// null-pointer memcpy. (The global recorder: a local one's per-thread
// rings are never freed, which LeakSanitizer would report.)
TEST(FlightRecorderViews, EmptyRidAndKeyRecordAsAbsentFields) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.clear();
  recorder.record(obs::FlightEventKind::kAdmit, std::string_view(),
                  std::string_view(), "empty-views", 1.0);
  recorder.record(obs::FlightEventKind::kStage, "", "", "empty-views", 2.0);
  const std::vector<std::string> lines = split_lines(recorder.dump_ndjson());
  recorder.clear();
  std::size_t recorded = 0;
  for (const std::string& line : lines) {
    if (json_string_field(line, "label") != "empty-views") continue;
    ++recorded;
    EXPECT_EQ(line.find("\"rid\""), std::string::npos) << line;
    EXPECT_EQ(line.find("\"key\""), std::string::npos) << line;
  }
  EXPECT_EQ(recorded, 2u);
}

// --- socket integration ----------------------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  void StartServer(const char* tag, server::ServerConfig config) {
    config.socket_path = test_socket_path(tag);
    service_ = std::make_unique<analysis::AnalyzerService>(shared_analyzer());
    daemon_ = std::make_unique<server::Server>(*service_, std::move(config));
    daemon_->start();
  }

  // Postmortem artifact: when a serving test fails, dump the flight
  // recorder next to the test binary so CI can upload it (the workflow
  // attaches test_server_flight.ndjson on failure).
  void TearDown() override {
    if (::testing::Test::HasFailure()) {
      const char* path = std::getenv("JST_FLIGHT_ARTIFACT");
      obs::FlightRecorder::global().dump_to_file(
          path != nullptr ? path : "test_server_flight.ndjson");
    }
  }

  std::unique_ptr<analysis::AnalyzerService> service_;
  std::unique_ptr<server::Server> daemon_;
};

TEST_F(ServerFixture, BurstZeroDroppedConnections) {
  server::ServerConfig config;
  config.workers = 2;
  StartServer("burst", config);

  server::LoadOptions load;
  load.connections = 8;
  load.requests_per_connection = 8;
  load.detail = analysis::OutputDetail::kStatus;
  load.sources = seed_corpus();
  const server::LoadReport report =
      server::run_load(daemon_->socket_path(), load);

  EXPECT_EQ(report.transport_errors, 0u);
  EXPECT_EQ(report.sent, 64u);
  EXPECT_EQ(report.ok, 64u);
  EXPECT_EQ(report.shed, 0u);
  const server::ServerStats stats = daemon_->stats();
  EXPECT_EQ(stats.requests_served, 64u);
  EXPECT_EQ(stats.requests_shed, 0u);
}

TEST_F(ServerFixture, HashReferenceResolvesAfterInlineSubmission) {
  StartServer("hash", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  const std::string source = seed_corpus()[0];

  // Unknown hash first: explicit not_found, connection stays usable.
  const auto miss = client.call(
      analysis::AnalyzeRequest::for_hash(analysis::content_hash(source)));
  EXPECT_EQ(miss.status, analysis::ResponseStatus::kNotFound);

  const auto inline_response =
      client.call(analysis::AnalyzeRequest::for_source(source, "a"));
  ASSERT_TRUE(inline_response.ok());
  EXPECT_EQ(inline_response.source_hash, analysis::content_hash(source));

  const auto by_hash = client.call(
      analysis::AnalyzeRequest::for_hash(inline_response.source_hash, "b"));
  ASSERT_TRUE(by_hash.ok());
  EXPECT_EQ(by_hash.outcome_status, inline_response.outcome_status);
  EXPECT_EQ(by_hash.source_hash, inline_response.source_hash);
}

// A parseable script of exactly `size` bytes whose tail is comment
// padding — distinct tags give distinct content hashes.
std::string padded_source(char tag, std::size_t size) {
  std::string source = "var v = 1; //";
  source.resize(size, tag);
  return source;
}

// The registry is a byte-budgeted LRU: once the budget is exceeded the
// least-recently-used source is evicted (references miss with not_found),
// and resolving a reference refreshes the entry it hit.
TEST_F(ServerFixture, HashRegistryEvictsLeastRecentlyUsed) {
  server::ServerConfig config;
  config.hash_registry_bytes = 700;  // fits two 320-byte sources, not three
  StartServer("lru", config);
  server::Client client(daemon_->socket_path());

  const std::string a = padded_source('a', 320);
  const std::string b = padded_source('b', 320);
  const std::string c = padded_source('c', 320);

  ASSERT_TRUE(client.call(analysis::AnalyzeRequest::for_source(a, "a")).ok());
  ASSERT_TRUE(client.call(analysis::AnalyzeRequest::for_source(b, "b")).ok());

  // Touch A: it becomes most-recently-used, so registering C evicts B.
  ASSERT_TRUE(
      client
          .call(analysis::AnalyzeRequest::for_hash(analysis::content_hash(a)))
          .ok());
  ASSERT_TRUE(client.call(analysis::AnalyzeRequest::for_source(c, "c")).ok());

  EXPECT_EQ(client
                .call(analysis::AnalyzeRequest::for_hash(
                    analysis::content_hash(b)))
                .status,
            analysis::ResponseStatus::kNotFound);
  EXPECT_TRUE(
      client
          .call(analysis::AnalyzeRequest::for_hash(analysis::content_hash(a)))
          .ok());
  EXPECT_TRUE(
      client
          .call(analysis::AnalyzeRequest::for_hash(analysis::content_hash(c)))
          .ok());
}

// A source bigger than the request's effective max_source_bytes is never
// registered: the registry cannot pin memory the pipeline would refuse
// to analyze.
TEST_F(ServerFixture, HashRegistrySkipsSourcesOverLimit) {
  server::ServerConfig config;
  config.default_limits.max_source_bytes = 128;
  StartServer("regcap", config);
  server::Client client(daemon_->socket_path());

  const std::string big = padded_source('g', 320);
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(big, "big")).ok());
  EXPECT_EQ(client
                .call(analysis::AnalyzeRequest::for_hash(
                    analysis::content_hash(big)))
                .status,
            analysis::ResponseStatus::kNotFound);

  const std::string small = padded_source('s', 64);
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(small, "small")).ok());
  EXPECT_TRUE(client
                  .call(analysis::AnalyzeRequest::for_hash(
                      analysis::content_hash(small)))
                  .ok());
}

TEST_F(ServerFixture, PingMetricsAndHttpScrape) {
  StartServer("ops", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  EXPECT_TRUE(client.ping());

  // A served request so the counters are non-trivial.
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(seed_corpus()[0]))
          .ok());
  const std::string metrics = client.metrics_json();
  EXPECT_NE(metrics.find("jst_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("jst_server_service_ms"), std::string::npos);

  // HTTP-style scrape on a fresh connection (the exchange closes it).
  server::Client scraper(daemon_->socket_path());
  const std::string head = scraper.call_raw("GET /metrics HTTP/1.0");
  EXPECT_NE(head.find("HTTP/1.0 200 OK"), std::string::npos);
}

// A request line that reaches the daemon in many small writes is
// reassembled and answered once, with the response the same line gets
// when it is sent in one write.
TEST_F(ServerFixture, LineSplitAcrossSmallWritesIsAnsweredOnce) {
  StartServer("split", server::ServerConfig{});
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(padded_source('s', 6000), "split");
  request.detail = analysis::OutputDetail::kStatus;
  const std::string line = analysis::wire::analyze_request_json(request);

  server::Client whole(daemon_->socket_path());
  std::string error;
  const auto single = analysis::wire::parse_analyze_response(
      whole.call_raw(line), &error);
  ASSERT_TRUE(single.has_value()) << error;
  ASSERT_TRUE(single->ok());

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  const std::string path = daemon_->socket_path();
  ASSERT_LT(path.size(), sizeof(address.sun_path));
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  // 61-byte pieces with a pause between them, so the daemon reads the
  // line as ~100 chunks; a ping follows to show nothing else is answered.
  const std::string stream = line + "\n{\"op\":\"ping\"}\n";
  const std::size_t split_end = line.size() + 1;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t piece =
        at < split_end ? std::min<std::size_t>(61, split_end - at)
                       : stream.size() - at;
    ASSERT_EQ(::send(fd, stream.data() + at, piece, MSG_NOSIGNAL),
              static_cast<ssize_t>(piece));
    at += piece;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string received;
  char chunk[4096];
  while (std::count(received.begin(), received.end(), '\n') < 2) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "daemon closed before answering";
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // Ops are answered inline and requests by workers, so the two lines
  // may arrive in either order.
  std::vector<std::string> lines = split_lines(received);
  ASSERT_EQ(lines.size(), 2u);
  if (lines[0].find("\"op\":\"ping\"") != std::string::npos) {
    std::swap(lines[0], lines[1]);
  }
  EXPECT_NE(lines[1].find("\"op\":\"ping\""), std::string::npos)
      << lines[1];
  const auto split = analysis::wire::parse_analyze_response(lines[0], &error);
  ASSERT_TRUE(split.has_value()) << error;
  EXPECT_EQ(split->status, single->status);
  EXPECT_EQ(split->id, single->id);
  EXPECT_EQ(split->source_hash, single->source_hash);
  EXPECT_EQ(split->outcome_status, single->outcome_status);
}

TEST_F(ServerFixture, MalformedLineAnswersInvalidRequest) {
  StartServer("bad", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  std::string error;
  const auto parsed = analysis::wire::parse_analyze_response(
      client.call_raw("this is not json"), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->status, analysis::ResponseStatus::kInvalidRequest);
  // The connection survives the bad line.
  EXPECT_TRUE(client.ping());
}

// Deterministic overload: one worker with a 150 ms service floor and a
// hard cap of 2. Six requests fired from pre-connected clients: exactly
// two are admitted (the cap), four are answered kOverloaded immediately —
// the shed responses arrive long before the 150 ms floor can retire the
// admitted pair, so the split cannot race.
TEST_F(ServerFixture, OverloadShedsDeterministically) {
  server::ServerConfig config;
  config.workers = 1;
  config.max_queue_depth = 2;
  config.min_service_ms = 150.0;
  // Shed-burst forensics: the four sheds below cross this threshold, so
  // the server must auto-dump the flight recorder to this path.
  const std::string dump_path =
      "/tmp/jstraced_test_" + std::to_string(::getpid()) + "_burst.ndjson";
  config.shed_burst_dump_threshold = 2;
  config.flight_dump_path = dump_path;
  StartServer("overload", config);

  constexpr std::size_t kClients = 6;
  std::vector<std::unique_ptr<server::Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<server::Client>(daemon_->socket_path()));
  }

  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> overloaded{0};
  std::vector<std::thread> threads;
  const std::string source = seed_corpus()[0];
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const auto response = clients[i]->call(
          analysis::AnalyzeRequest::for_source(source, std::to_string(i)));
      if (response.ok()) ++ok;
      if (response.status == analysis::ResponseStatus::kOverloaded) {
        ++overloaded;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(ok.load(), 2u);
  EXPECT_EQ(overloaded.load(), 4u);
  const server::ServerStats stats = daemon_->stats();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.requests_shed, 4u);

  // The shed burst crossed the threshold: the flight recorder was dumped
  // automatically, and the dump names the overload verdicts.
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << dump_path;
  std::stringstream contents;
  contents << dump.rdbuf();
  EXPECT_NE(contents.str().find("\"kind\":\"shed\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"label\":\"overloaded\""),
            std::string::npos);
  std::remove(dump_path.c_str());
}

// Requests whose queue wait consumed the whole deadline are shed at
// pickup instead of analyzed late: with one worker, a 200 ms floor, and
// 100 ms deadlines, the first request (admitted into an idle server)
// completes and every queued follower is answered kOverloaded.
TEST_F(ServerFixture, DeadlineElapsedInQueueShedsAtPickup) {
  server::ServerConfig config;
  config.workers = 1;
  config.min_service_ms = 200.0;
  StartServer("latedl", config);

  constexpr std::size_t kClients = 3;
  std::vector<std::unique_ptr<server::Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<server::Client>(daemon_->socket_path()));
  }
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> overloaded{0};
  std::vector<std::thread> threads;
  const std::string source = seed_corpus()[0];
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      analysis::AnalyzeRequest request =
          analysis::AnalyzeRequest::for_source(source, std::to_string(i));
      ResourceLimits limits;
      limits.deadline_ms = 100.0;
      request.limits = limits;
      const auto response = clients[i]->call(request);
      if (response.ok()) ++ok;
      if (response.status == analysis::ResponseStatus::kOverloaded) {
        ++overloaded;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Exactly one request rode the idle lane; the rest waited ≥ 200 ms
  // against a 100 ms deadline and were shed (at admission by the wait
  // estimate once a p95 exists, or at pickup) — never analyzed late.
  EXPECT_EQ(ok.load(), 1u);
  EXPECT_EQ(overloaded.load(), kClients - 1);
}

// --- observability ops and request-id plumbing (DESIGN.md §14) -------------

TEST_F(ServerFixture, ServerMintsOrEchoesRequestId) {
  StartServer("rid", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  const std::string source = seed_corpus()[0];

  // No client-supplied id: the daemon mints a valid one.
  const auto minted =
      client.call(analysis::AnalyzeRequest::for_source(source, "m-1"));
  ASSERT_TRUE(minted.ok());
  EXPECT_TRUE(obs::is_valid_request_id(minted.request_id))
      << minted.request_id;

  // Client-supplied id (wire v2): echoed verbatim.
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(source, "m-2");
  request.request_id = "00c0ffee00c0ffee";
  const auto echoed = client.call(request);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed.request_id, "00c0ffee00c0ffee");

  // Two mints never collide.
  const auto second =
      client.call(analysis::AnalyzeRequest::for_source(source, "m-3"));
  EXPECT_NE(second.request_id, minted.request_id);
}

TEST_F(ServerFixture, StatsOpReportsRecentWindow) {
  server::ServerConfig config;
  config.workers = 2;
  StartServer("statsop", config);
  server::Client client(daemon_->socket_path());
  const std::vector<std::string> corpus = seed_corpus();
  constexpr std::size_t kRequests = 20;  // past the default warm-up of 16
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client
                    .call(analysis::AnalyzeRequest::for_source(
                        corpus[i % corpus.size()], std::to_string(i)))
                    .ok());
  }

  const std::string stats = client.stats_json();
  std::string error;
  const auto document = support::parse_json(stats, &error);
  ASSERT_TRUE(document.has_value()) << error << ": " << stats;

  EXPECT_EQ(document->find("window_seconds")->as_number(), 60.0);
  EXPECT_TRUE(document->find("warm")->as_bool()) << stats;
  EXPECT_EQ(document->find("workers")->as_number(), 2.0);
  EXPECT_GE(document->find("admission_p95_ms")->as_number(), 0.0);

  const support::JsonValue* recent = document->find("recent");
  ASSERT_NE(recent, nullptr);
  EXPECT_EQ(recent->find("requests")->as_number(),
            static_cast<double>(kRequests));
  EXPECT_EQ(recent->find("served")->as_number(),
            static_cast<double>(kRequests));
  EXPECT_EQ(recent->find("shed")->as_number(), 0.0);
  EXPECT_GT(recent->find("qps")->as_number(), 0.0);
  EXPECT_LE(recent->find("service_p50_ms")->as_number(),
            recent->find("service_p95_ms")->as_number());
  EXPECT_LE(recent->find("service_p95_ms")->as_number(),
            recent->find("service_p99_ms")->as_number());

  // Cumulative section and the slowest-exemplar table exist; exemplars
  // reference real source hashes with valid request ids.
  ASSERT_NE(document->find("cumulative"), nullptr);
  const support::JsonValue* slowest = document->find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_TRUE(slowest->is_array());
  EXPECT_FALSE(slowest->as_array().empty());
  // In-process accessor matches the wire surface's shape.
  EXPECT_NE(daemon_->stats_json().find("\"recent\":"), std::string::npos);
}

TEST_F(ServerFixture, FlightOpReturnsEventArray) {
  obs::FlightRecorder::global().clear();
  StartServer("flightop", server::ServerConfig{});
  server::Client client(daemon_->socket_path());
  ASSERT_TRUE(
      client.call(analysis::AnalyzeRequest::for_source(seed_corpus()[0]))
          .ok());

  const std::string line = client.call_raw("{\"op\":\"flight\"}");
  std::string error;
  const auto document = support::parse_json(line, &error);
  ASSERT_TRUE(document.has_value()) << error << ": " << line;
  EXPECT_EQ(document->find("status")->as_string(), "ok");
  const support::JsonValue* events = document->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_FALSE(events->as_array().empty());
  // The served request left its admit and respond breadcrumbs.
  EXPECT_NE(line.find("\"kind\":\"admit\""), std::string::npos);
  EXPECT_NE(line.find("\"kind\":\"respond\""), std::string::npos);
}

// The PR-7 acceptance criterion: one request's full lifecycle — admission
// verdict, queue pickup, pipeline stages, respond — reconstructs from the
// trace JSONL and the flight-recorder dump joined on request_id.
TEST_F(ServerFixture, LifecycleReconstructsFromTraceAndFlightJoin) {
  obs::FlightRecorder::global().clear();
  server::ServerConfig config;
  config.workers = 1;
  StartServer("lifecycle", config);

  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  if (JST_TRACING) obs::set_trace_sink(&sink);

  const std::string rid = "abcdef0123456789";
  server::Client client(daemon_->socket_path());
  analysis::AnalyzeRequest request =
      analysis::AnalyzeRequest::for_source(seed_corpus()[0], "lc-1");
  request.request_id = rid;
  const auto response = client.call(request);
  // Drain before detaching the sink so no server-side span is mid-write.
  daemon_->shutdown();
  obs::set_trace_sink(nullptr);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.request_id, rid);

  // Flight side of the join: admit → pickup → stages → respond, in
  // timestamp order, all carrying the request id.
  double admit_ts = -1.0, pickup_ts = -1.0, respond_ts = -1.0;
  std::size_t stage_events = 0;
  for (const std::string& line :
       split_lines(obs::FlightRecorder::global().dump_ndjson())) {
    if (json_string_field(line, "rid") != rid) continue;
    const std::string kind = json_string_field(line, "kind");
    const double ts = json_number_field(line, "ts_us");
    if (kind == "admit") admit_ts = ts;
    if (kind == "pickup") pickup_ts = ts;
    if (kind == "respond") respond_ts = ts;
    if (kind == "stage") ++stage_events;
  }
  ASSERT_GE(admit_ts, 0.0) << "no admit event for " << rid;
  ASSERT_GE(pickup_ts, 0.0) << "no pickup event for " << rid;
  ASSERT_GE(respond_ts, 0.0) << "no respond event for " << rid;
  EXPECT_LE(admit_ts, pickup_ts);
  EXPECT_LE(pickup_ts, respond_ts);
  EXPECT_GE(stage_events, 3u);  // static_analysis, features, inference

  // Trace side of the join: the pipeline spans carry the same rid.
  if (JST_TRACING) {
    std::size_t rid_spans = 0;
    bool saw_script = false, saw_inference = false;
    for (const std::string& line : split_lines(trace_out.str())) {
      if (json_string_field(line, "rid") != rid) continue;
      ++rid_spans;
      const std::string name = json_string_field(line, "name");
      if (name == "script") saw_script = true;
      if (name == "inference") saw_inference = true;
    }
    EXPECT_GE(rid_spans, 4u);
    EXPECT_TRUE(saw_script);
    EXPECT_TRUE(saw_inference);
  }
}

// Start/shutdown cycles: shutdown() must stop the accept thread before it
// closes the listening socket (no accept() on a closed or reused fd), and
// every cycle releases its socket file. Every tenth cycle also proves the
// daemon accepted before it was shut down.
TEST(ServerLifecycle, RepeatedStartShutdownCycles) {
  const analysis::AnalyzerService service(shared_analyzer());
  server::ServerConfig config;
  config.workers = 1;
  config.socket_path = test_socket_path("cycles");
  for (int cycle = 0; cycle < 200; ++cycle) {
    server::Server daemon(service, config);
    daemon.start();
    if (cycle % 10 == 0) {
      server::Client client(daemon.socket_path());
      EXPECT_TRUE(client.ping()) << "cycle " << cycle;
    }
    daemon.shutdown();
    ASSERT_NE(::access(config.socket_path.c_str(), F_OK), 0)
        << "socket file left behind in cycle " << cycle;
  }
}

TEST_F(ServerFixture, DrainAnswersAdmittedRequests) {
  server::ServerConfig config;
  config.workers = 1;
  config.min_service_ms = 150.0;
  StartServer("drain", config);

  server::Client client(daemon_->socket_path());
  std::atomic<bool> answered{false};
  std::thread caller([&] {
    const auto response =
        client.call(analysis::AnalyzeRequest::for_source(seed_corpus()[0]));
    EXPECT_TRUE(response.ok());
    answered = true;
  });
  // Wait until the request is admitted, then drain mid-service. (Until
  // the accept thread has taken the connection, a shutdown drops it with
  // the listening socket and the caller's send fails.)
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon_->stats().requests_admitted == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(daemon_->stats().requests_admitted, 1u);
  daemon_->shutdown();
  caller.join();
  EXPECT_TRUE(answered.load());

  // The socket file is gone and new connections are refused.
  EXPECT_THROW(server::Client{daemon_->socket_path()}, std::runtime_error);
}

}  // namespace
}  // namespace jst
