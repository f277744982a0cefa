#include "features/feature_extractor.h"

#include <algorithm>
#include <cstdint>
#include <span>

namespace jst::features {

std::size_t feature_dimension(const FeatureConfig& config) {
  std::size_t dimension = 0;
  if (config.use_handpicked) dimension += handpicked_feature_names().size();
  if (config.use_ngrams) dimension += config.ngram.hash_dim;
  return dimension;
}

std::vector<std::string> feature_names(const FeatureConfig& config) {
  std::vector<std::string> names;
  if (config.use_handpicked) {
    names = handpicked_feature_names();
  }
  if (config.use_ngrams) {
    for (std::size_t i = 0; i < config.ngram.hash_dim; ++i) {
      names.push_back("ngram" + std::to_string(kNgramOrder) + "_" +
                      std::to_string(i));
    }
  }
  return names;
}

std::vector<float> extract_from_source(std::string_view source,
                                       const FeatureConfig& config) {
  ExtractScratch scratch;
  AnalysisOptions options = config.analysis;
  options.dataflow_scratch = &scratch.dataflow;
  options.cfg_scratch = &scratch.cfg;
  const ScriptAnalysis analysis = analyze_script(source, options);
  return extract_into(analysis, config, scratch);
}

const std::vector<float>& extract_into(const ScriptAnalysis& analysis,
                                       const FeatureConfig& config,
                                       ExtractScratch& scratch) {
  ++scratch.uses;
  scratch.row.clear();
  // Scans of the AST's pre-order index (DESIGN.md §12): depth comes from
  // depths(), the n-gram bytes from kinds(), and only the hand-picked
  // counters touch the Nodes.
  const Ast& ast = analysis.parse.ast;
  const std::span<const NodeKind> kinds = ast.kinds();

  constexpr std::size_t n = kNgramOrder;
  const std::size_t hash_dim = config.ngram.hash_dim;
  const bool want_handpicked = config.use_handpicked;
  const bool want_ngrams = config.use_ngrams && hash_dim > 0;

  std::size_t max_depth = 0;
  if (want_handpicked) {
    ExtractCounters& counters = scratch.counters;
    counters.reset(ast.atoms().size());
    scratch.level_counts.clear();
    const std::span<const Node* const> nodes = ast.nodes();
    const std::span<const std::uint32_t> depths = ast.depths();
    for (std::size_t id = 0; id < kinds.size(); ++id) {
      gather_handpicked(*nodes[id], ast, counters);
      const std::size_t depth = depths[id];
      if (depth > max_depth) {
        max_depth = depth;
        scratch.level_counts.resize(depth, 0);
      }
      ++scratch.level_counts[depth - 1];
    }
  }
  if (want_ngrams) {
    scratch.ngram_histogram.assign(hash_dim, 0.0f);
    scratch.fnv_ring.fill(0);
    for (std::size_t id = 0; id < kinds.size(); ++id) {
      // Ring of FNV-1a partial states, one per in-flight window: the slot
      // for the window starting at this node resets to the offset basis,
      // every slot absorbs this node's kind byte, and the window that
      // just saw its n-th byte emits. Windows emit in pre-order window
      // order, so the float histogram increments in the same order for
      // every caller.
      const auto byte = static_cast<std::uint8_t>(kinds[id]);
      scratch.fnv_ring[id % n] = kFnvOffsetBasis;
      for (std::uint64_t& hash : scratch.fnv_ring) {
        hash = (hash ^ byte) * kFnvPrime;
      }
      if (id + 1 >= n) {
        ++scratch.ngram_histogram[scratch.fnv_ring[(id + 1) % n] % hash_dim];
      }
    }
  }

  if (want_handpicked) {
    const std::size_t breadth =
        scratch.level_counts.empty()
            ? 0
            : *std::max_element(scratch.level_counts.begin(),
                                scratch.level_counts.end());
    assemble_handpicked(analysis, scratch.counters, max_depth, breadth,
                        scratch.row);
  }
  if (want_ngrams) {
    const std::size_t windows = kinds.size() >= n ? kinds.size() - n + 1 : 0;
    if (windows > 0) {
      const float scale = 1.0f / static_cast<float>(windows);
      for (float& value : scratch.ngram_histogram) value *= scale;
    }
    scratch.row.insert(scratch.row.end(), scratch.ngram_histogram.begin(),
                       scratch.ngram_histogram.end());
  }
  return scratch.row;
}

}  // namespace jst::features
