// CART binary decision tree with probability estimates.
//
// Replaces the scikit-learn tree the paper builds on. Splits minimize Gini
// impurity; leaves store the positive-class fraction of their training
// samples, so predict() yields calibrated-ish probabilities that the
// forest averages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "support/rng.h"

namespace jst::ml {

// Row-major dense feature matrix view.
struct Matrix {
  const std::vector<std::vector<float>>* rows = nullptr;
  std::size_t row_count() const { return rows == nullptr ? 0 : rows->size(); }
  std::size_t column_count() const {
    return row_count() == 0 ? 0 : (*rows)[0].size();
  }
  float at(std::size_t row, std::size_t column) const {
    return (*rows)[row][column];
  }
};

// How fit() produces the per-feature sorted (value, label) sequence a
// split scan consumes. Both strategies yield byte-for-byte identical
// fitted trees (asserted by test_ml's serialization-hash test): the
// presorted filter emits exactly the sequence gather+sort would, so the
// choice is purely a performance knob.
//   kGather    — per node: gather the node's pairs and std::sort them
//                (the historical code path; O(n log n) per feature).
//   kPresorted — per tree: lazily sort each feature's bootstrap column
//                once, then per node filter that ordering through a
//                multiplicity count array (O(N) walk, no re-sorting).
//   kAuto      — presorted filter for nodes holding a large share of the
//                tree's samples (where the O(N) walk is cheaper than
//                re-sorting), gather+sort for small deep nodes.
enum class SplitFinder : std::uint8_t {
  kAuto,
  kGather,
  kPresorted,
};

struct TreeParams {
  std::size_t max_depth = 24;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 1;
  // Number of feature candidates per split; 0 = sqrt(feature count).
  std::size_t max_features = 0;
  SplitFinder split_finder = SplitFinder::kAuto;
};

// Serialization encoding for trained models (see analysis/model_io.h for
// the header that sits in front of detector-level streams). Text is the
// historical human-readable format and stays loadable forever; binary is
// the fast path for forest-sized models (fixed-width little-endian node
// records instead of decimal round-trips). Loaders auto-detect from the
// per-component magic, so either encoding reads back transparently.
enum class ModelEncoding : std::uint8_t {
  kText,
  kBinary,
};

class DecisionTree {
 public:
  // One node of the fitted tree. Kept public (it is plain data) so the
  // compiled inference fast path (compiled_forest.h) can flatten the
  // node table without re-walking predictions through this class.
  struct TreeNode {
    std::int32_t feature = -1;       // -1 for leaves
    float threshold = 0.0f;          // go left when value <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    float value = 0.0f;              // leaf: positive-class probability
    float importance = 0.0f;         // weighted impurity decrease
  };

  // Fits on the samples selected by `indices` (bootstrap subset).
  void fit(const Matrix& data, std::span<const std::uint8_t> labels,
           std::span<const std::size_t> indices, const TreeParams& params,
           Rng& rng);

  // Probability of the positive class.
  double predict(std::span<const float> row) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const { return depth_; }
  std::size_t feature_count() const { return feature_count_; }

  // Fitted node table in pre-order: root = index 0, and an internal
  // node's left child immediately follows it (the layout
  // CompiledForest::compile requires). Read-only view for
  // flattening/inspection.
  std::span<const TreeNode> nodes() const { return nodes_; }

  // Accumulates impurity-decrease feature importances into `out`
  // (size = feature count).
  void add_feature_importance(std::vector<double>& out) const;

  // Text serialization (whitespace-separated; version-checked by the
  // forest wrapper).
  void save(std::ostream& out) const;
  void load(std::istream& in);

  // Binary serialization: raw little-endian node records (much faster
  // than the decimal text round-trip for forest-sized models). Framed by
  // the forest wrapper's versioned magic; throws ModelError on
  // truncation.
  void save_binary(std::ostream& out) const;
  void load_binary(std::istream& in);

 private:
  // Per-fit scratch for split finding (freed when fit returns). The
  // presorted columns are computed lazily — a feature pays its one-time
  // O(N log N) sort only when the auto/presorted policy first consults it.
  struct SplitScratch {
    // Per feature: the tree's bootstrap row ids (one entry per slot,
    // duplicates included) ordered by (feature value, label). Empty until
    // first use.
    std::vector<std::vector<std::uint32_t>> sorted_slots;
    // Row-id multiplicity workspace for the presorted filter; all zeros
    // between uses (each walk consumes exactly what it planted).
    std::vector<std::uint32_t> counts;
    // The bootstrap multiset fit() was called with (rows, slot order).
    std::vector<std::uint32_t> bootstrap;
  };

  std::int32_t build(const Matrix& data, std::span<const std::uint8_t> labels,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, std::size_t depth,
                     const TreeParams& params, Rng& rng,
                     SplitScratch& scratch);

  std::vector<TreeNode> nodes_;
  std::size_t depth_ = 0;
  std::size_t feature_count_ = 0;
};

}  // namespace jst::ml
