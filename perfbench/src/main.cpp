// jstbench: the repository benchmark program.
//
//   jstbench --workload <wild_batch|daemon_open_loop|snapshot_cache>
//            --seed N --seconds S --trace 0|1
//            [--scale X] [--work-dir DIR] [--trace-out FILE]
//
// Builds the workload's inputs from --seed, sets the system up, measures
// for --seconds, checks the outputs, and prints two lines on stdout: a
// record line ({"record": fingerprint, checks}) and, last, the result
// line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics and
// writes the spans as Chrome trace_event JSON to --trace-out. A failed
// output check prints correct=false and exits with status 3. The
// workloads and the meaning of every metric are recorded in
// BENCHMARK.json at the repository root. perfbench/run.py builds this
// binary and forwards its arguments.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "support/json_writer.h"
#include "workloads.h"

namespace {

using namespace jstbench;

int usage() {
  std::fprintf(stderr,
               "usage: jstbench --workload wild_batch|daemon_open_loop|"
               "snapshot_cache --seed N --seconds S --trace 0|1 "
               "[--scale X] [--work-dir DIR] [--trace-out FILE]\n");
  return 2;
}

// Shortest text that reads back as the same double.
std::string number_text(double value) {
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer),
                                          value);
  return error == std::errc() ? std::string(buffer, end) : "0";
}

std::string record_line(const Result& result) {
  jst::JsonWriter writer;
  writer.begin_object();
  writer.key("record");
  writer.begin_object();
  for (const auto& [key, value] : result.info) {
    writer.key(key);
    writer.value(value);
  }
  writer.key("checks_failed");
  writer.begin_array();
  for (const std::string& error : result.errors) writer.value(error);
  writer.end_array();
  writer.end_object();
  writer.end_object();
  return writer.str();
}

std::string result_line(const Result& result) {
  jst::JsonWriter writer;
  writer.begin_object();
  writer.key("correct"); writer.value(result.correct);
  writer.key("attempted");
  writer.value(static_cast<long long>(result.attempted));
  writer.key("failed"); writer.value(static_cast<long long>(result.failed));
  writer.key("metrics");
  writer.begin_object();
  for (const Metric& metric : result.metrics) {
    writer.key(metric.name);
    writer.begin_object();
    writer.key("value"); writer.raw(number_text(metric.value));
    writer.key("unit"); writer.value(metric.unit);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
  return writer.str();
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  // The library's global pool (training, batches) reads its width from
  // JST_THREADS on first use; pin it to the benchmark's fixed width.
  ::setenv("JST_THREADS", std::to_string(pool_width()).c_str(), 1);
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_number(value, number) &&
               number >= 0.0) {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && parse_number(value, number) &&
               number > 0.0) {
      options.seconds = number;
    } else if (flag == "--trace" &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      options.trace = value[0] == '1';
    } else if (flag == "--scale" && parse_number(value, number) &&
               number > 0.0) {
      options.scale = number;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  void (*run)(const Options&, Result&) = nullptr;
  if (options.workload == "wild_batch") run = run_wild_batch;
  if (options.workload == "daemon_open_loop") run = run_daemon_open_loop;
  if (options.workload == "snapshot_cache") run = run_snapshot_cache;
  if (run == nullptr || !have_seed) return usage();

  if (options.work_dir.empty()) {
    options.work_dir = "jstbench-work-" + std::to_string(::getpid());
  }
  if (options.trace_out.empty()) {
    options.trace_out = "jstbench-trace-" + options.workload + ".json";
  }

  Result result;
  fingerprint(result, options);
  int status = 0;
  try {
    std::filesystem::remove_all(options.work_dir);
    std::filesystem::create_directories(options.work_dir);
    run(options, result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "jstbench: %s\n", error.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  if (status != 0) return status;

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "jstbench: check failed: %s\n", error.c_str());
  }
  std::cout << record_line(result) << '\n'
            << result_line(result) << std::endl;
  return result.correct ? 0 : 3;
}
