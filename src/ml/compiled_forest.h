// Compiled inference: flattened, cache-friendly forest layout.
//
// RandomForest::predict_proba walks one std::vector<TreeNode> per tree —
// an AoS layout where every hop touches a 24-byte node (half of which is
// training-only payload: importance, and the redundant left index) spread
// over per-tree heap blocks. At wild-study scale (the paper classifies
// ~20M scripts, 13 forests per script) that pointer-chasing is the
// inference bottleneck.
//
// CompiledForest flattens a fitted forest into one contiguous
// structure-of-arrays node table in the spirit of QuickScorer's tree
// blocking (Lucchese et al., SIGIR 2015). Trees keep the pre-order layout
// DecisionTree::build emits, so a node's left child is always the next
// node and only the right child needs a link. Per node the table holds
// three 4-byte fields (12 B/node):
//   - feature:   int32 split feature, -1 for a leaf;
//   - threshold: float split threshold, or the leaf's positive-class
//                probability when the node is a leaf;
//   - right:     uint32 index of the right child in the shared table.
// Every valid model compiles; compile() rejects a tree whose links or
// feature indices would send a walk out of bounds (a corrupt model file)
// with ModelError.
//
// Predictions are bit-identical to the reference path by construction:
// the same float thresholds are compared with the same `<=`, the same
// float leaf values are accumulated into a double in the same tree order,
// and the same single division by the tree count happens at the end.
// DecisionTree::predict stays as the oracle; the equivalence suite
// (tests/test_compiled.cpp) asserts exact equality on randomized
// matrices, saved-then-loaded models, and across JST_THREADS widths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/multilabel.h"
#include "ml/random_forest.h"

namespace jst::ml {

// Reusable per-thread buffers for the compiled prediction path. All
// predict calls that take a PredictScratch are allocation-free once the
// scratch has warmed up (capacities stick across calls).
struct PredictScratch {
  std::vector<float> extended;  // row + chain-position label bits
  std::vector<double> proba;    // per-label probabilities

  // Approximate steady-state footprint, for the obs peak-bytes gauge.
  std::size_t capacity_bytes() const {
    return extended.capacity() * sizeof(float) +
           proba.capacity() * sizeof(double);
  }
};

class CompiledForest {
 public:
  CompiledForest() = default;

  // Flattens a fitted forest. Throws ModelError if the forest is empty
  // or a tree is malformed: an internal node whose left child is not the
  // next node, whose right child is not after it inside the same tree,
  // or whose feature index is not below the forest's feature count.
  static CompiledForest compile(const RandomForest& forest);

  bool compiled() const { return !roots_.empty(); }
  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return feature_.size(); }
  std::size_t feature_count() const { return feature_count_; }

  // Averaged positive-class probability — bit-identical to
  // RandomForest::predict_proba on the source forest.
  double predict_proba(std::span<const float> row) const;

 private:
  double predict_tree(std::uint32_t root, std::span<const float> row) const;

  // Structure-of-arrays node table, all trees concatenated in pre-order.
  std::vector<std::int32_t> feature_;  // -1 = leaf
  std::vector<float> threshold_;       // leaf: positive-class probability
  std::vector<std::uint32_t> right_;   // right child (left = self + 1)
  std::vector<std::uint32_t> roots_;   // per-tree root index
  std::size_t feature_count_ = 0;
};

// Compiled counterpart of a fitted MultiLabelClassifier: one
// CompiledForest per label plus the chain rule (thresholded upstream
// predictions appended as features) when the source was a
// ClassifierChain. Mirrors predict_proba bit-for-bit through a
// scratch-taking overload that is allocation-free in steady state;
// decisions over the probabilities go through ml::top_k_labels.
class CompiledEnsemble {
 public:
  CompiledEnsemble() = default;

  // Throws ModelError if a forest is malformed (CompiledForest::compile)
  // or the forests disagree on the row width: every forest of a binary
  // relevance model reads the same features, and chain position j reads
  // j more than position 0.
  static CompiledEnsemble compile(const MultiLabelClassifier& classifier);

  bool compiled() const { return !forests_.empty(); }
  std::size_t label_count() const { return forests_.size(); }
  bool chained() const { return chained_; }
  // Row width the first forest reads.
  std::size_t feature_count() const { return feature_count_; }

  // Per-label probabilities into `out` (resized to label_count()).
  // Throws ModelError if `row` is narrower than feature_count().
  void predict_proba(std::span<const float> row, PredictScratch& scratch,
                     std::vector<double>& out) const;

 private:
  std::vector<CompiledForest> forests_;
  std::size_t feature_count_ = 0;
  bool chained_ = false;
  double chain_threshold_ = 0.5;
};

}  // namespace jst::ml
