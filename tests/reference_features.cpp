#include "reference_features.h"

#include "ast/walk.h"

namespace jst::features::reference {

std::vector<float> ngram_features(const Node* root, const NgramConfig& config) {
  std::vector<float> histogram(config.hash_dim, 0.0f);
  const std::vector<NodeKind> kinds = preorder_kinds(root);
  if (kinds.size() < kNgramOrder || config.hash_dim == 0) return histogram;

  const std::size_t windows = kinds.size() - kNgramOrder + 1;
  for (std::size_t i = 0; i < windows; ++i) {
    // FNV-1a over the kind bytes of the window.
    std::uint64_t hash = kFnvOffsetBasis;
    for (std::size_t j = 0; j < kNgramOrder; ++j) {
      hash ^= static_cast<std::uint8_t>(kinds[i + j]);
      hash *= kFnvPrime;
    }
    ++histogram[hash % config.hash_dim];
  }
  const float scale = 1.0f / static_cast<float>(windows);
  for (float& value : histogram) value *= scale;
  return histogram;
}

std::vector<float> handpicked_features(const ScriptAnalysis& analysis) {
  const Node* root = analysis.parse.ast.root();
  ExtractCounters counters;
  walk_preorder(root, [&counters](const Node& node) {
    gather_handpicked(node, counters);
  });
  std::vector<float> out;
  assemble_handpicked(analysis, counters, tree_depth(root), tree_breadth(root),
                      out);
  return out;
}

std::vector<float> extract(const ScriptAnalysis& analysis,
                           const FeatureConfig& config) {
  std::vector<float> out;
  out.reserve(feature_dimension(config));
  if (config.use_handpicked) {
    const std::vector<float> handpicked = handpicked_features(analysis);
    out.insert(out.end(), handpicked.begin(), handpicked.end());
  }
  if (config.use_ngrams) {
    const std::vector<float> ngrams =
        ngram_features(analysis.parse.ast.root(), config.ngram);
    out.insert(out.end(), ngrams.begin(), ngrams.end());
  }
  return out;
}

}  // namespace jst::features::reference
