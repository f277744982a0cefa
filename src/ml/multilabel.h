// Multi-task (multi-label) classification wrappers.
//
// The paper (§III-C/D3) compares two scikit-learn strategies over random
// forests and selects the second:
//  - binary relevance ("classifiers independence assumption"): one
//    independent binary classifier per label;
//  - classifier chain: classifier at position P additionally receives the
//    labels of positions [0, P-1] as features (ground truth at training
//    time, thresholded predictions at inference time).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ml/random_forest.h"

namespace jst::ml {

// Binary label matrix: labels[i][j] == 1 iff sample i carries label j.
using LabelMatrix = std::vector<std::vector<std::uint8_t>>;

class MultiLabelClassifier {
 public:
  virtual ~MultiLabelClassifier() = default;

  virtual void fit(const Matrix& data, const LabelMatrix& labels,
                   const ForestParams& params, Rng& rng) = 0;

  // Per-label positive probability (independent scores; they do not sum
  // to 1 — the paper leans on this for its confidence-threshold analysis).
  virtual std::vector<double> predict_proba(
      std::span<const float> row) const = 0;

  virtual std::size_t label_count() const = 0;

  // Introspection for the compiled inference fast path
  // (ml/compiled_forest.h): the fitted per-label forests and the chain
  // rule parameters. `chained()` is true when position P's forest expects
  // the thresholded predictions of positions [0, P-1] appended to the row.
  virtual std::span<const RandomForest> forests() const = 0;
  virtual bool chained() const = 0;
  virtual double chain_threshold() const { return 0.5; }

  // Serialization of the trained per-label forests; the encoding picks
  // text (historical, human-readable) or binary per-forest payloads.
  // load() auto-detects, so files written by either encoding read back.
  virtual void save(std::ostream& out,
                    ModelEncoding encoding = ModelEncoding::kText) const = 0;
  virtual void load(std::istream& in) = 0;
};

// The multi-label decision rule, applied to probabilities a classifier has
// already produced: indices of the (at most) k most probable labels whose
// probability is >= threshold, most probable first, ties in ascending
// label order. With the default threshold every label qualifies (plain
// top-k); the paper's level-2 rule uses threshold = 0.10 (§III-E2).
std::vector<std::size_t> top_k_labels(
    std::span<const double> probabilities, std::size_t k,
    double threshold = -std::numeric_limits<double>::infinity());

class BinaryRelevance final : public MultiLabelClassifier {
 public:
  void fit(const Matrix& data, const LabelMatrix& labels,
           const ForestParams& params, Rng& rng) override;
  std::vector<double> predict_proba(std::span<const float> row) const override;
  std::size_t label_count() const override { return forests_.size(); }
  std::span<const RandomForest> forests() const override { return forests_; }
  bool chained() const override { return false; }
  void save(std::ostream& out,
            ModelEncoding encoding = ModelEncoding::kText) const override;
  void load(std::istream& in) override;

 private:
  std::vector<RandomForest> forests_;
};

class ClassifierChain final : public MultiLabelClassifier {
 public:
  void fit(const Matrix& data, const LabelMatrix& labels,
           const ForestParams& params, Rng& rng) override;
  std::vector<double> predict_proba(std::span<const float> row) const override;
  std::size_t label_count() const override { return forests_.size(); }
  std::span<const RandomForest> forests() const override { return forests_; }
  bool chained() const override { return true; }
  double chain_threshold() const override { return chain_threshold_; }
  void save(std::ostream& out,
            ModelEncoding encoding = ModelEncoding::kText) const override;
  void load(std::istream& in) override;

 private:
  std::vector<RandomForest> forests_;
  double chain_threshold_ = 0.5;
};

}  // namespace jst::ml
