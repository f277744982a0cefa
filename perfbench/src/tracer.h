// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions (the library is not instrumented for this).
// Each span keeps its name, start, end, parent span and an id shared by
// every span of one script or request; they stay in memory and are
// written out once, at exit, as Chrome trace_event JSON (loadable in
// Perfetto and chrome://tracing). Single-threaded: record from one thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace jstbench {

class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    const char* name = "";  // static string: "<layer>.<function>"
    std::uint64_t id = 0;   // script or request id
    std::int32_t parent = kNoParent;
    std::uint32_t track = 0;  // trace row (tid) the span is drawn on
    Clock::time_point start;
    Clock::time_point end;
    double ms() const { return ms_between(start, end); }
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  // Opens a span under `parent` and returns its index (kNoParent when
  // the tracer is disabled, which makes every call below a no-op).
  std::int32_t open(const char* name, std::uint64_t id, std::int32_t parent);
  void close(std::int32_t index);
  // A span whose times were measured elsewhere (e.g. a request's send and
  // receive stamps).
  std::int32_t add(const char* name, std::uint64_t id, std::int32_t parent,
                   std::uint32_t track, Clock::time_point start,
                   Clock::time_point end);

  // Sum of the durations of every span named `name`, in ms.
  double total_ms(const char* name) const;

  // Writes {"traceEvents":[...]} with one complete ("X") event per span.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// RAII span; the tracer must outlive it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id,
             std::int32_t parent = Tracer::kNoParent)
      : tracer_(tracer), index_(tracer.open(name, id, parent)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

}  // namespace jstbench
