#include "tracer.h"

#include <cstring>
#include <fstream>

#include "support/json_writer.h"

namespace jstbench {

std::int32_t Tracer::open(const char* name, std::uint64_t id,
                          std::int32_t parent) {
  if (!enabled_) return kNoParent;
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, id, parent, 0, now, now});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t index) {
  if (index == kNoParent) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

std::int32_t Tracer::add(const char* name, std::uint64_t id,
                         std::int32_t parent, std::uint32_t track,
                         Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return kNoParent;
  spans_.push_back({name, id, parent, track, start, end});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double Tracer::total_ms(const char* name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) total += span.ms();
  }
  return total;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const auto micros = [&](Clock::time_point at) {
    return std::chrono::duration<double, std::micro>(at - epoch_).count();
  };
  jst::JsonWriter writer;
  writer.begin_object();
  writer.key("displayTimeUnit"); writer.value("ms");
  writer.key("traceEvents");
  writer.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* dot = std::strchr(span.name, '.');
    writer.begin_object();
    writer.key("name"); writer.value(span.name);
    writer.key("cat");
    writer.value(dot == nullptr
                     ? std::string(span.name)
                     : std::string(span.name, static_cast<std::size_t>(
                                                  dot - span.name)));
    writer.key("ph"); writer.value("X");
    writer.key("ts"); writer.value(micros(span.start));
    writer.key("dur"); writer.value(micros(span.end) - micros(span.start));
    writer.key("pid"); writer.value(std::size_t{1});
    writer.key("tid"); writer.value(static_cast<std::size_t>(span.track));
    writer.key("args");
    writer.begin_object();
    writer.key("id"); writer.value(static_cast<std::size_t>(span.id));
    writer.key("span"); writer.value(i);
    writer.key("parent");
    if (span.parent == kNoParent) {
      writer.null();
    } else {
      writer.value(static_cast<std::size_t>(span.parent));
    }
    writer.end_object();
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
  std::ofstream out(path);
  out << writer.str() << '\n';
  return static_cast<bool>(out);
}

}  // namespace jstbench
