// Test-only reference feature extractor: the straightforward multi-walk
// implementation of §III-B's vector space. The library extracts features
// in one fused traversal (features::extract_into); the suites compare it
// against these separate walks for the hand-picked counters, tree depth,
// tree breadth, and the materialized n-gram kind sequence.
#pragma once

#include <vector>

#include "features/feature_extractor.h"

namespace jst::features::reference {

// Relative-frequency histogram of hashed 4-grams over the pre-order kind
// sequence, size = config.hash_dim.
std::vector<float> ngram_features(const Node* root, const NgramConfig& config);

// The hand-picked block, in handpicked_feature_names() order.
std::vector<float> handpicked_features(const ScriptAnalysis& analysis);

// Hand-picked block then n-gram histogram, as selected by `config`.
std::vector<float> extract(const ScriptAnalysis& analysis,
                           const FeatureConfig& config);

}  // namespace jst::features::reference
