#include "ml/compiled_forest.h"

#include <limits>
#include <string>

#include "support/error.h"

namespace jst::ml {

CompiledForest CompiledForest::compile(const RandomForest& forest) {
  if (!forest.trained()) {
    throw ModelError("CompiledForest::compile: forest not trained");
  }
  CompiledForest out;
  out.feature_count_ = forest.feature_count();

  std::size_t total_nodes = 0;
  for (const DecisionTree& tree : forest.trees()) {
    total_nodes += tree.node_count();
  }
  if (total_nodes > std::numeric_limits<std::uint32_t>::max()) {
    throw ModelError("CompiledForest::compile: forest exceeds 2^32 nodes");
  }
  out.feature_.reserve(total_nodes);
  out.threshold_.reserve(total_nodes);
  out.right_.reserve(total_nodes);
  out.roots_.reserve(forest.tree_count());

  for (const DecisionTree& tree : forest.trees()) {
    const std::span<const DecisionTree::TreeNode> nodes = tree.nodes();
    if (nodes.empty()) {
      throw ModelError("CompiledForest::compile: empty tree");
    }
    const auto base = static_cast<std::uint32_t>(out.feature_.size());
    out.roots_.push_back(base);
    const auto count = static_cast<std::int64_t>(nodes.size());
    for (std::int64_t self = 0; self < count; ++self) {
      const DecisionTree::TreeNode& node =
          nodes[static_cast<std::size_t>(self)];
      if (node.feature < 0) {
        out.feature_.push_back(-1);
        out.threshold_.push_back(node.value);
        out.right_.push_back(0);  // never followed
        continue;
      }
      // Every hop moves strictly forward inside the tree, so a walk from
      // the root ends at a leaf within the table.
      const auto reject = [self](const char* what) {
        throw ModelError("CompiledForest::compile: node " +
                         std::to_string(self) + ": " + what);
      };
      if (node.left != self + 1) reject("left child is not the next node");
      if (node.right <= self || node.right >= count) {
        reject("right child out of range");
      }
      if (static_cast<std::size_t>(node.feature) >= out.feature_count_) {
        reject("feature index out of range");
      }
      out.feature_.push_back(node.feature);
      out.threshold_.push_back(node.threshold);
      out.right_.push_back(base + static_cast<std::uint32_t>(node.right));
    }
  }
  return out;
}

double CompiledForest::predict_tree(std::uint32_t root,
                                    std::span<const float> row) const {
  const std::int32_t* feature = feature_.data();
  const float* threshold = threshold_.data();
  const std::uint32_t* right = right_.data();
  std::uint32_t index = root;
  for (std::int32_t f = feature[index]; f >= 0; f = feature[index]) {
    index = row[static_cast<std::size_t>(f)] <= threshold[index]
                ? index + 1
                : right[index];
  }
  return static_cast<double>(threshold[index]);
}

double CompiledForest::predict_proba(std::span<const float> row) const {
  if (roots_.empty()) {
    throw ModelError("CompiledForest::predict before compile");
  }
  double total = 0.0;
  for (const std::uint32_t root : roots_) total += predict_tree(root, row);
  return total / static_cast<double>(roots_.size());
}

CompiledEnsemble CompiledEnsemble::compile(
    const MultiLabelClassifier& classifier) {
  if (classifier.label_count() == 0) {
    throw ModelError("CompiledEnsemble::compile: classifier not trained");
  }
  CompiledEnsemble out;
  out.chained_ = classifier.chained();
  out.chain_threshold_ = classifier.chain_threshold();
  const std::span<const RandomForest> forests = classifier.forests();
  out.feature_count_ = forests[0].feature_count();
  out.forests_.reserve(forests.size());
  for (std::size_t j = 0; j < forests.size(); ++j) {
    const std::size_t expected = out.feature_count_ + (out.chained_ ? j : 0);
    if (forests[j].feature_count() != expected) {
      throw ModelError("CompiledEnsemble::compile: forest " +
                       std::to_string(j) + " reads " +
                       std::to_string(forests[j].feature_count()) +
                       " features, expected " + std::to_string(expected));
    }
    out.forests_.push_back(CompiledForest::compile(forests[j]));
  }
  return out;
}

void CompiledEnsemble::predict_proba(std::span<const float> row,
                                     PredictScratch& scratch,
                                     std::vector<double>& out) const {
  if (forests_.empty()) {
    throw ModelError("CompiledEnsemble::predict before compile");
  }
  if (row.size() < feature_count_) {
    throw ModelError("CompiledEnsemble::predict: row has " +
                     std::to_string(row.size()) + " features, model reads " +
                     std::to_string(feature_count_));
  }
  out.resize(forests_.size());
  if (!chained_) {
    for (std::size_t j = 0; j < forests_.size(); ++j) {
      out[j] = forests_[j].predict_proba(row);
    }
    return;
  }
  // Chain rule: position j sees the thresholded predictions of positions
  // [0, j-1] appended to the row — same bits ClassifierChain pushes.
  scratch.extended.assign(row.begin(), row.end());
  for (std::size_t j = 0; j < forests_.size(); ++j) {
    out[j] = forests_[j].predict_proba(scratch.extended);
    if (j + 1 < forests_.size()) {
      scratch.extended.push_back(out[j] >= chain_threshold_ ? 1.0f : 0.0f);
    }
  }
}

}  // namespace jst::ml
