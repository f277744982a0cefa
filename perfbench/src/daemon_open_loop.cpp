// daemon_open_loop: an in-process jstraced Server on a Unix socket, driven
// by an open-loop generator.
//
// Scripts are small, so admission, queueing, wire encode/decode and socket
// writes are a large share of each round trip; the batch workloads never
// touch this layer. The generator pipelines requests over at most two
// connections on a fixed schedule, independent of when responses come
// back, so a slow server receives the same load and its queue grows. Each
// request is timed from when it was due to be sent, which charges a
// generator stall to every request it delays, and the run reports how
// late the generator ran.
//
// The schedule is a ladder: a reference step at kReferenceRate (the
// latency metrics are its round trips), then increasing rates until a step
// leaves a growing backlog, then a saturation step whose completion rate
// is the daemon's capacity (scripts_per_s). max_rate_rps is the highest
// rate whose step met the p99 limit. The daemon has no cache, two
// workers, no admission cap and no service-time floor, so nothing is
// shed: overload shows as queueing.
//
// This workload runs through the same command but is not one of the gated
// workloads in BENCHMARK.json: on a shared 4-vCPU host its round-trip p99
// moved sixfold between runs (perfbench/README.md).
// Its generator also drives the server probe of the gated workloads'
// traced runs (probe_server).
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "analysis/result_cache.h"
#include "analysis/wire.h"
#include "server/server.h"
#include "workloads.h"

namespace jstbench {

using namespace jst;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kBodies = 2048;
constexpr int kTrainRepetitions = 3;
// The latency limit a ladder step's p99 must meet (BENCHMARK.json).
constexpr double kP99LimitMs = 20.0;
// The rtt metrics are taken at this rate, over kReferenceShare of the
// run, as the median over windows of kWindow requests.
constexpr double kReferenceRate = 2000.0;
constexpr double kReferenceShare = 0.6;
constexpr std::size_t kWindow = 2000;
// Each ladder step lasts kStepShare of the run, and at least long enough
// for kStepMinRequests requests (ten samples beyond its p99 and more).
constexpr double kLadderRates[] = {3000.0, 4000.0, 5000.0, 6000.0,  7000.0,
                                   8000.0, 9000.0, 10000.0, 12000.0, 14000.0};
constexpr double kStepShare = 0.03;
constexpr double kStepMinRequests = 1200.0;
// The saturation step runs at this multiple of the last ladder rate for
// kSaturationShare of the run.
constexpr double kSaturationFactor = 1.25;
constexpr double kSaturationShare = 0.2;
// Request ids are fixed-width decimal so a template line can be patched.
constexpr std::size_t kIdDigits = 8;

struct Step {
  double rate = 0.0;
  double seconds = 0.0;
};

// One request of the open loop.
struct Exchange {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point received;
  std::size_t body = 0;
  std::size_t step = 0;
  std::size_t connection = 0;
  std::string line;  // the response line; empty until answered
};

struct OpenLoop {
  std::vector<Step> steps;
  std::vector<Exchange> exchanges;  // every request sent, in send order
  std::vector<Clock::time_point> step_start;
  std::size_t steps_run = 0;
  // Indexes into `steps`: the ladder step that left a growing backlog, and
  // the saturation step; kNone when there was none.
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t backlog_step = kNone;
  std::size_t saturation_step = kNone;
  bool transport_error = false;
};

class UnixConnection {
 public:
  explicit UnixConnection(const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                             sizeof(address)) != 0) {
      const std::string reason = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to " + path + ": " + reason);
    }
  }
  ~UnixConnection() { ::close(fd_); }
  UnixConnection(const UnixConnection&) = delete;
  UnixConnection& operator=(const UnixConnection&) = delete;

  int fd() const { return fd_; }

  bool write_all(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fd_ = -1;
};

// Reads response lines until a stop is requested, stamping each with its
// arrival time and filing it under the request id it echoes. The sender
// writes other members of the same exchanges; each member has one writer.
void read_responses(std::stop_token stop, int fd,
                    std::vector<Exchange>& exchanges,
                    std::atomic<std::size_t>& answered,
                    std::atomic<bool>& transport_error) {
  std::string buffer;
  char chunk[64 * 1024];
  while (!stop.stop_requested()) {
    pollfd poll_fd{fd, POLLIN, 0};
    const int ready = ::poll(&poll_fd, 1, 20);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      transport_error.store(true);
      break;
    }
    const Clock::time_point now = Clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t end = buffer.find('\n'); end != std::string::npos;
         end = buffer.find('\n', begin)) {
      std::string line = buffer.substr(begin, end - begin);
      begin = end + 1;
      const std::size_t at = line.find("\"id\":\"");
      std::size_t id = exchanges.size();
      if (at != std::string::npos && at + 6 + kIdDigits <= line.size()) {
        id = std::strtoull(line.substr(at + 6, kIdDigits).c_str(), nullptr,
                           10);
      }
      if (id >= exchanges.size()) {
        transport_error.store(true);
        continue;
      }
      exchanges[id].received = now;
      exchanges[id].line = std::move(line);
      answered.fetch_add(1);
    }
    buffer.erase(0, begin);
  }
}

OpenLoop run_open_loop(const std::string& socket_path,
                       const std::vector<std::string>& bodies,
                       std::vector<Step> steps, double saturation_seconds) {
  OpenLoop run;
  run.steps = std::move(steps);
  double top_rate = 0.0;
  std::size_t capacity = 0;
  for (const Step& step : run.steps) {
    top_rate = std::max(top_rate, step.rate);
    capacity += static_cast<std::size_t>(std::ceil(step.rate * step.seconds));
  }
  capacity += static_cast<std::size_t>(
      std::ceil(kSaturationFactor * top_rate * saturation_seconds));
  // Sized once: the reader threads write into it while the sender runs.
  run.exchanges.resize(capacity);

  // Request lines are encoded once per body with a placeholder id that
  // the sender overwrites, keeping JSON encoding off the schedule.
  std::vector<std::string> templates;
  std::vector<std::size_t> id_offsets;
  for (const std::string& body : bodies) {
    analysis::AnalyzeRequest request = analysis::AnalyzeRequest::for_source(
        body, std::string(kIdDigits, '0'));
    request.detail = analysis::OutputDetail::kFull;
    templates.push_back(analysis::wire::analyze_request_json(request) + '\n');
    id_offsets.push_back(templates.back().find("\"id\":\"") + 6);
  }

  std::vector<std::unique_ptr<UnixConnection>> connections;
  for (std::size_t i = 0; i < kConnections; ++i) {
    connections.push_back(std::make_unique<UnixConnection>(socket_path));
  }
  std::atomic<std::size_t> answered{0};
  std::atomic<bool> transport_error{false};
  // Declared after everything the readers use; a jthread stops and joins
  // on destruction, on every path out of this function.
  std::vector<std::jthread> readers;
  for (const auto& connection : connections) {
    readers.emplace_back(read_responses, connection->fd(),
                         std::ref(run.exchanges), std::ref(answered),
                         std::ref(transport_error));
  }

  std::size_t sent = 0;
  Clock::time_point step_start = Clock::now();
  // Sends step `s` on schedule; false on a transport failure.
  const auto send_step = [&](std::size_t s) {
    const Step step = run.steps[s];
    const auto count =
        static_cast<std::size_t>(std::llround(step.rate * step.seconds));
    const std::chrono::duration<double> period(1.0 / step.rate);
    run.step_start.push_back(step_start);
    for (std::size_t k = 0; k < count && sent < run.exchanges.size(); ++k) {
      const Clock::time_point due =
          step_start +
          std::chrono::duration_cast<Clock::duration>(period * double(k));
      if (due > Clock::now()) std::this_thread::sleep_until(due);
      Exchange& exchange = run.exchanges[sent];
      exchange.due = due;
      exchange.body = sent % bodies.size();
      exchange.step = s;
      exchange.connection = sent % kConnections;
      std::string line = templates[exchange.body];
      char digits[kIdDigits + 1];
      std::snprintf(digits, sizeof(digits), "%0*zu", int(kIdDigits), sent);
      std::memcpy(&line[id_offsets[exchange.body]], digits, kIdDigits);
      exchange.sent = Clock::now();
      if (!connections[exchange.connection]->write_all(line)) return false;
      ++sent;
    }
    step_start += std::chrono::duration_cast<Clock::duration>(
        period * double(count));
    ++run.steps_run;
    return true;
  };

  bool sending = true;
  for (std::size_t s = 0; s < run.steps.size() && sending; ++s) {
    sending = send_step(s);
    // A growing backlog: more requests outstanding at the end of the step
    // than the latency limit lets the server hold at this rate.
    const double allowed =
        std::max(16.0, run.steps[s].rate * kP99LimitMs / 1000.0);
    if (sending && static_cast<double>(sent - answered.load()) > allowed) {
      run.backlog_step = s;
      break;
    }
  }
  // Saturation: well past the last rate, so the server is busy for the
  // whole step and its completion rate is its capacity.
  if (sending && saturation_seconds > 0.0) {
    run.steps.resize(run.steps_run);
    run.steps.push_back(
        {kSaturationFactor * run.steps.back().rate, saturation_seconds});
    run.saturation_step = run.steps.size() - 1;
    sending = send_step(run.saturation_step);
  }
  run.transport_error = !sending;

  // Drain: every sent request gets its answer (or the wait gives up).
  const auto drain_start = Clock::now();
  while (answered.load() < sent && !transport_error.load() &&
         ms_since(drain_start) < 60000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  readers.clear();
  run.transport_error = run.transport_error || transport_error.load() ||
                        answered.load() < sent;
  run.exchanges.resize(sent);
  return run;
}

// Decoded view of one answered exchange.
struct Answer {
  bool answered = false;
  analysis::ResponseStatus status = analysis::ResponseStatus::kInvalidRequest;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::optional<analysis::ScriptOutcome> outcome;
};

std::vector<Answer> decode(const OpenLoop& run) {
  std::vector<Answer> answers(run.exchanges.size());
  std::string error;
  for (std::size_t i = 0; i < run.exchanges.size(); ++i) {
    if (run.exchanges[i].line.empty()) continue;
    const auto parsed =
        analysis::wire::parse_analyze_response(run.exchanges[i].line, &error);
    if (!parsed.has_value()) continue;
    Answer& answer = answers[i];
    answer.answered = true;
    answer.status = parsed->status;
    answer.queue_ms = parsed->queue_ms;
    answer.service_ms = parsed->service_ms;
    if (parsed->ok()) {
      answer.outcome = analysis::parse_script_outcome(parsed->outcome);
    }
  }
  return answers;
}

// server.* metrics over the requests of step `step`, plus the request
// spans of the whole run.
void add_server_metrics(const OpenLoop& run, const std::vector<Answer>& answers,
                        std::size_t step, Tracer& tracer, Result& result) {
  std::vector<double> queue, service, transport, lag;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < run.exchanges.size(); ++i) {
    const Exchange& exchange = run.exchanges[i];
    const Answer& answer = answers[i];
    if (answer.answered) {
      const std::int32_t root =
          tracer.add("server.request", i, Tracer::kNoParent,
                     1 + static_cast<std::uint32_t>(exchange.connection),
                     exchange.due, exchange.received);
      tracer.add("server.generator_lag", i, root,
                 1 + static_cast<std::uint32_t>(exchange.connection),
                 exchange.due, exchange.sent);
      tracer.add("server.round_trip", i, root,
                 1 + static_cast<std::uint32_t>(exchange.connection),
                 exchange.sent, exchange.received);
    }
    if (answer.status == analysis::ResponseStatus::kOverloaded ||
        answer.status == analysis::ResponseStatus::kDraining) {
      ++shed;
    }
    if (exchange.step != step || !answer.answered) continue;
    queue.push_back(answer.queue_ms);
    service.push_back(answer.service_ms);
    transport.push_back(ms_between(exchange.sent, exchange.received) -
                        answer.queue_ms - answer.service_ms);
    lag.push_back(ms_between(exchange.due, exchange.sent));
  }
  result.add("server.queue_ms.p50", percentile(queue, 0.50), "ms");
  result.add("server.queue_ms.p99", percentile(queue, 0.99), "ms");
  result.add("server.service_ms.p50", percentile(service, 0.50), "ms");
  result.add("server.service_ms.p99", percentile(service, 0.99), "ms");
  result.add("server.transport_ms.p50", percentile(transport, 0.50), "ms");
  result.add("server.transport_ms.p99", percentile(transport, 0.99), "ms");
  result.add("server.shed", static_cast<double>(shed), "count");
  result.add("server.generator_lag_ms", percentile(lag, 0.99), "ms");
}

server::ServerConfig daemon_config(const Options& options,
                                   const std::string& name) {
  server::ServerConfig config;
  config.socket_path = options.work_dir + "/" + name + ".sock";
  config.workers = kWorkers;
  config.max_queue_depth = 0;  // no admission cap: overload queues
  return config;
}

}  // namespace

void probe_server(const analysis::AnalyzerService& service,
                  const std::vector<std::string>& bodies, double rate,
                  const Options& options, Tracer& tracer, Result& result) {
  server::Server daemon(service, daemon_config(options, "probe"));
  daemon.start();
  // At least a thousand requests, so the p99 has ten samples beyond it.
  const OpenLoop run = run_open_loop(
      daemon.socket_path(), bodies,
      {{rate, std::clamp(1000.0 / rate, 1.0, 5.0)}}, 0.0);
  daemon.shutdown();
  if (run.transport_error) result.fail_check("server probe: transport error");
  add_server_metrics(run, decode(run), 0, tracer, result);
}

void run_daemon_open_loop(const Options& options, Result& result) {
  const std::vector<LabeledScript> corpus = population_corpus(
      analysis::alexa_spec(), scaled(kBodies, options.scale), options.seed);
  std::vector<std::string> bodies;
  std::size_t bytes = 0;
  for (const LabeledScript& script : corpus) {
    bodies.push_back(script.source);
    bytes += script.source.size();
  }
  result.note("corpus_scripts", std::to_string(bodies.size()));
  result.note("corpus_bytes", std::to_string(bytes));

  const Setup setup = train_detectors(kTrainRepetitions);
  const analysis::AnalyzerService service(*setup.analyzer);

  // In-process verdicts every daemon answer must reproduce.
  std::vector<std::string> expected;
  for (const std::string& body : bodies) {
    expected.push_back(outcome_bytes(
        service.analyze(analysis::AnalyzeRequest::for_source(body)).outcome));
  }

  const auto start = Clock::now();
  server::Server daemon(service, daemon_config(options, "daemon"));
  daemon.start();
  const double start_s = ms_since(start) / 1000.0;

  std::vector<Step> steps{{kReferenceRate, options.seconds * kReferenceShare}};
  for (const double rate : kLadderRates) {
    steps.push_back({rate, std::max(options.seconds * kStepShare,
                                    kStepMinRequests / rate)});
  }
  const OpenLoop run = run_open_loop(daemon.socket_path(), bodies, steps,
                                     options.seconds * kSaturationShare);
  daemon.shutdown();
  const std::vector<Answer> answers = decode(run);
  if (run.transport_error) {
    result.fail_check("daemon: transport error or unanswered requests");
  }

  // Per-request outcome checks, accuracy and failures.
  std::size_t matches = 0;
  std::size_t predicted = 0;
  for (std::size_t i = 0; i < run.exchanges.size(); ++i) {
    const Answer& answer = answers[i];
    const std::size_t body = run.exchanges[i].body;
    ++result.attempted;
    if (!answer.outcome.has_value()) {
      ++result.failed;
      continue;
    }
    analysis::AnalyzeResponse response;
    response.status = answer.status;
    response.outcome = *answer.outcome;
    if (response_failed(response)) ++result.failed;
    if (outcome_bytes(*answer.outcome) != expected[body]) {
      result.fail_check("daemon: response " + std::to_string(i) +
                        " differs from the in-process outcome");
    }
    if (answer.outcome->has_predictions()) {
      ++predicted;
      if (answer.outcome->report.level1.transformed() ==
          corpus[body].transformed) {
        ++matches;
      }
    }
  }

  // Per-step round trips, each from the request's due time, and the rate
  // at which responses came back while the step ran.
  struct StepStats {
    std::vector<double> rtt;  // in send order
    double completion_rate = 0.0;
    bool pass = false;
  };
  std::vector<StepStats> stats(run.steps_run);
  for (std::size_t s = 0; s < run.steps_run; ++s) {
    const Clock::time_point begin = run.step_start[s];
    const Clock::time_point end =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(run.steps[s].seconds));
    std::size_t sent = 0;
    std::size_t completed = 0;
    for (std::size_t i = 0; i < run.exchanges.size(); ++i) {
      const Exchange& exchange = run.exchanges[i];
      const bool answered = answers[i].answered;
      if (answered && exchange.received >= begin && exchange.received < end) {
        ++completed;
      }
      if (exchange.step != s) continue;
      ++sent;
      if (answered) {
        stats[s].rtt.push_back(ms_between(exchange.due, exchange.received));
      }
    }
    stats[s].completion_rate =
        static_cast<double>(completed) * 1000.0 / ms_between(begin, end);
    const double p99 = percentile(stats[s].rtt, 0.99);
    stats[s].pass = s != run.saturation_step && s != run.backlog_step &&
                    stats[s].rtt.size() == sent && p99 <= kP99LimitMs;
    result.note("step_" + std::to_string(s),
                std::to_string(run.steps[s].rate) + " rps: p50 " +
                    std::to_string(percentile(stats[s].rtt, 0.5)) +
                    " ms, p99 " + std::to_string(p99) + " ms, completed " +
                    std::to_string(stats[s].completion_rate) + "/s" +
                    (stats[s].pass ? "" : ", over the limit"));
  }

  // Capacity: the completion rate of the saturation step (or of the last
  // step, if the run ended before it), reported as scripts_per_s.
  // max_rate_rps is the highest ladder rate whose step met the limit.
  const double capacity = stats.back().completion_rate;
  double max_rate = 0.0;
  for (std::size_t s = 0; s < run.steps_run; ++s) {
    if (stats[s].pass) max_rate = std::max(max_rate, run.steps[s].rate);
  }
  // Reference-step round trips: medians over consecutive windows of
  // kWindow requests, so a stall of the host moves one window, not the
  // figure. A run too short for one full window uses all it has.
  const std::vector<double>& reference = stats.front().rtt;
  std::vector<double> window_p50, window_p99;
  std::string windows;
  for (std::size_t begin = 0; begin == 0 || begin + kWindow <= reference.size();
       begin += kWindow) {
    const std::vector<double> window(
        reference.begin() + begin,
        reference.begin() + std::min(reference.size(), begin + kWindow));
    window_p50.push_back(percentile(window, 0.50));
    window_p99.push_back(percentile(window, 0.99));
    windows += std::to_string(window_p99.back()) + " ";
  }
  result.note("reference_window_p99_ms", windows);
  result.note("p99_limit_ms", std::to_string(kP99LimitMs));

  if (options.trace) {
    Tracer tracer(true);
    add_server_metrics(run, answers, 0, tracer, result);
    run_traced(setup, bodies, {bodies}, false, options, tracer, result);
    return;
  }

  EndToEnd metrics;
  metrics.setup_s = median(setup.train_s) + start_s;
  metrics.scripts_per_s = capacity;
  metrics.latency_p50_ms = median(window_p50);
  metrics.latency_p99_ms = median(window_p99);
  metrics.ok_share = 1.0 - static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted);
  metrics.verdict_accuracy =
      static_cast<double>(matches) / static_cast<double>(predicted);
  result.add("max_rate_rps", max_rate, "1/s");
  add_end_to_end(result, metrics);
}

}  // namespace jstbench
