// Lexer block-scanner microbenchmark (DESIGN.md §16).
//
// Measures tokenize-only throughput (MB/s) per input family. The
// families stress different scanners: minified output is
// punctuator-dense with long physical lines (whitespace scanner mostly
// idle), JSFuck floods are short-token storms (runs too short for the
// wide scanners to amortize — the interesting regression case), string-
// heavy sources spend almost all bytes inside literal payloads (the
// find_string_end fast path), and plain sources mix identifiers,
// comments, and indentation (find_id_end / find_ws_end / find_line_end).
//
// Emits BENCH_lexer.json via bench_common so the per-family trajectory
// is recorded across revisions; one row per family, scanned by the SWAR
// block scanners (the lexer's only scan path).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "lexer/lexer.h"
#include "lexer/scan.h"
#include "support/arena.h"
#include "support/rng.h"
#include "transform/transform.h"

namespace jst {
namespace {

struct Family {
  std::string name;
  std::vector<std::string> sources;
  std::size_t bytes = 0;
};

Family make_family(std::string name, std::vector<std::string> sources) {
  Family family;
  family.name = std::move(name);
  family.sources = std::move(sources);
  for (const std::string& source : family.sources) {
    family.bytes += source.size();
  }
  return family;
}

// Plain generated scripts, exactly the held-out corpus the pipeline
// benches use.
Family plain_family(std::size_t count) {
  return make_family("plain", bench::held_out_regular(count, 0x1e4));
}

// The same corpus through the repo's minifier (advanced mode, long
// wrapped lines).
Family minified_family(std::size_t count) {
  std::vector<std::string> sources = bench::held_out_regular(count, 0x1e4);
  transform::MinifyOptions options;
  options.advanced = true;
  for (std::string& source : sources) {
    source = transform::minify(source, options);
  }
  return make_family("minified", std::move(sources));
}

// JSFuck-style floods via the no-alnum transformer (the real ~1500x
// blowup, capped per input to keep the corpus tractable).
Family jsfuck_family(std::size_t count) {
  // The ~1500x blowup means a handful of seeds already yields megabytes
  // of flood; divide so this family doesn't dominate the bench's wall
  // time.
  std::vector<std::string> seeds =
      bench::held_out_regular(std::max<std::size_t>(count / 8, 1), 0x2e4);
  transform::NoAlnumOptions options;
  options.max_source_bytes = 128;
  std::vector<std::string> sources;
  sources.reserve(seeds.size());
  for (const std::string& seed : seeds) {
    sources.push_back(transform::no_alnum_transform(seed, options));
  }
  return make_family("jsfuck", std::move(sources));
}

// Sources dominated by long string literals with sparse escapes — the
// block scanner's best case, and the dirty-path run-append's worst.
Family string_heavy_family(std::size_t count) {
  Rng rng(0x3e4);
  std::vector<std::string> sources;
  sources.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string source;
    const int literals = 8 + static_cast<int>(rng.uniform_int(0, 8));
    for (int j = 0; j < literals; ++j) {
      const std::size_t length =
          512 + static_cast<std::size_t>(rng.uniform_int(0, 4096));
      const std::size_t escape_every =
          rng.uniform_int(0, 3) == 0
              ? 64 + static_cast<std::size_t>(rng.uniform_int(0, 256))
              : 0;  // three in four literals are escape-free
      source += "var s" + std::to_string(j) + " = \"";
      for (std::size_t k = 0; k < length; ++k) {
        if (escape_every != 0 && k % escape_every == 0) {
          source += "\\x41";
        } else {
          source += static_cast<char>('!' + (k * 7 + j) % 90);
          if (source.back() == '"' || source.back() == '\\') {
            source.back() = '.';
          }
        }
      }
      source += "\";\n";
    }
    sources.push_back(std::move(source));
  }
  return make_family("string_heavy", std::move(sources));
}

// Best-of-5 serial tokenize pass over the family.
double measure_ms(const Family& family) {
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t tokens = 0;
    for (const std::string& source : family.sources) {
      support::Arena arena;
      tokens += Lexer::tokenize(source, arena).size();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (tokens == 0) std::fprintf(stderr, "[bench] empty token stream?\n");
    best = std::min(best, ms);
  }
  return best;
}

}  // namespace
}  // namespace jst

int main() {
  using namespace jst;

  const std::size_t count = bench::scaled(48);
  std::vector<Family> families;
  families.push_back(plain_family(count));
  families.push_back(minified_family(count));
  families.push_back(jsfuck_family(count));
  families.push_back(string_heavy_family(count));

  std::printf("lexer throughput (tokenize only, best of 5, serial)\n");
  std::printf("%-14s %8s %10s %10s\n", "family", "bytes", "wall_ms", "MB/s");

  std::vector<bench::BenchRecord> records;
  for (const Family& family : families) {
    const double ms = measure_ms(family);
    const double mbps =
        static_cast<double>(family.bytes) / 1048576.0 / (ms / 1000.0);
    std::printf("%-14s %8zu %10.3f %10.1f\n", family.name.c_str(),
                family.bytes, ms, mbps);

    bench::BenchRecord record;
    record.config = "family=" + family.name + " scan=" +
                    std::string(lex::scan_policy_name(lex::scan_policy()));
    record.threads = 1;
    record.scripts = family.sources.size();
    record.wall_ms = ms;
    record.scripts_per_second =
        static_cast<double>(family.sources.size()) / (ms / 1000.0);
    record.bytes = family.bytes;
    record.mb_per_second = mbps;
    records.push_back(std::move(record));
  }

  bench::write_bench_json("lexer", records);
  return 0;
}
