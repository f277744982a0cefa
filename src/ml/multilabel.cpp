#include "ml/multilabel.h"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>

#include "support/error.h"

namespace jst::ml {
namespace {

std::size_t validate(const Matrix& data, const LabelMatrix& labels) {
  if (data.row_count() == 0) throw ModelError("multilabel fit: empty data");
  if (labels.size() != data.row_count()) {
    throw ModelError("multilabel fit: label row mismatch");
  }
  const std::size_t label_count = labels[0].size();
  if (label_count == 0) throw ModelError("multilabel fit: zero labels");
  for (const auto& row : labels) {
    if (row.size() != label_count) {
      throw ModelError("multilabel fit: ragged label matrix");
    }
  }
  return label_count;
}

std::vector<std::uint8_t> label_column(const LabelMatrix& labels,
                                       std::size_t column) {
  std::vector<std::uint8_t> out(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) out[i] = labels[i][column];
  return out;
}

}  // namespace

std::vector<std::size_t> top_k_labels(std::span<const double> probabilities,
                                      std::size_t k, double threshold) {
  std::vector<std::size_t> order(probabilities.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return probabilities[a] > probabilities[b];
                   });
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < order.size() && out.size() < k; ++i) {
    if (probabilities[order[i]] >= threshold) out.push_back(order[i]);
  }
  return out;
}

void BinaryRelevance::fit(const Matrix& data, const LabelMatrix& labels,
                          const ForestParams& params, Rng& rng) {
  const std::size_t label_count = validate(data, labels);
  forests_.clear();
  forests_.resize(label_count);
  for (std::size_t j = 0; j < label_count; ++j) {
    const std::vector<std::uint8_t> column = label_column(labels, j);
    forests_[j].fit(data, column, params, rng);
  }
}

std::vector<double> BinaryRelevance::predict_proba(
    std::span<const float> row) const {
  if (forests_.empty()) throw ModelError("BinaryRelevance: predict before fit");
  std::vector<double> out(forests_.size());
  for (std::size_t j = 0; j < forests_.size(); ++j) {
    out[j] = forests_[j].predict_proba(row);
  }
  return out;
}

void ClassifierChain::fit(const Matrix& data, const LabelMatrix& labels,
                          const ForestParams& params, Rng& rng) {
  const std::size_t label_count = validate(data, labels);
  forests_.clear();
  forests_.resize(label_count);

  // Extended copies of the rows: base features plus the ground-truth labels
  // of all previous chain positions (Read et al., 2011).
  std::vector<std::vector<float>> extended(*data.rows);
  for (std::size_t j = 0; j < label_count; ++j) {
    Matrix extended_view{&extended};
    const std::vector<std::uint8_t> column = label_column(labels, j);
    forests_[j].fit(extended_view, column, params, rng);
    if (j + 1 < label_count) {
      for (std::size_t i = 0; i < extended.size(); ++i) {
        extended[i].push_back(static_cast<float>(labels[i][j]));
      }
    }
  }
}

std::vector<double> ClassifierChain::predict_proba(
    std::span<const float> row) const {
  if (forests_.empty()) throw ModelError("ClassifierChain: predict before fit");
  std::vector<double> out(forests_.size());
  std::vector<float> extended(row.begin(), row.end());
  for (std::size_t j = 0; j < forests_.size(); ++j) {
    out[j] = forests_[j].predict_proba(extended);
    if (j + 1 < forests_.size()) {
      extended.push_back(out[j] >= chain_threshold_ ? 1.0f : 0.0f);
    }
  }
  return out;
}

}  // namespace jst::ml

namespace jst::ml {

namespace {

void save_forests(const std::vector<RandomForest>& forests, const char* tag,
                  std::ostream& out, ModelEncoding encoding) {
  out << tag << ' ' << forests.size() << '\n';
  for (const RandomForest& forest : forests) forest.save(out, encoding);
}

void load_forests(std::vector<RandomForest>& forests, const char* tag,
                  std::istream& in) {
  std::string magic;
  std::size_t count = 0;
  if (!(in >> magic >> count) || magic != tag) {
    throw ModelError(std::string("multilabel load: expected ") + tag);
  }
  forests.clear();
  for (std::size_t i = 0; i < count; ++i) forests.emplace_back().load(in);
}

}  // namespace

void BinaryRelevance::save(std::ostream& out, ModelEncoding encoding) const {
  save_forests(forests_, "binary-relevance", out, encoding);
}

void BinaryRelevance::load(std::istream& in) {
  load_forests(forests_, "binary-relevance", in);
}

void ClassifierChain::save(std::ostream& out, ModelEncoding encoding) const {
  save_forests(forests_, "classifier-chain", out, encoding);
}

void ClassifierChain::load(std::istream& in) {
  load_forests(forests_, "classifier-chain", in);
}

}  // namespace jst::ml
