#include "analysis/detector.h"

#include <istream>
#include <ostream>

#include "analysis/model_io.h"
#include "support/error.h"

namespace jst::analysis {
namespace {

std::unique_ptr<ml::MultiLabelClassifier> make_classifier(bool chain) {
  if (chain) return std::make_unique<ml::ClassifierChain>();
  return std::make_unique<ml::BinaryRelevance>();
}

}  // namespace

Level1Detector::Level1Detector(DetectorConfig config)
    : config_(std::move(config)),
      classifier_(make_classifier(config_.classifier_chain)) {}

void Level1Detector::fit(const ml::Matrix& data, const ml::LabelMatrix& labels,
                         Rng& rng) {
  if (!labels.empty() && labels[0].size() != 3) {
    throw ModelError("Level1Detector::fit: expected 3 label columns");
  }
  classifier_->fit(data, labels, config_.forest, rng);
  compiled_ = ml::CompiledEnsemble::compile(*classifier_);
}

Level1Detector::Prediction Level1Detector::predict(
    std::span<const float> row, ml::PredictScratch& scratch) const {
  compiled_.predict_proba(row, scratch, scratch.proba);
  Prediction prediction;
  prediction.p_regular = scratch.proba[0];
  prediction.p_minified = scratch.proba[1];
  prediction.p_obfuscated = scratch.proba[2];
  return prediction;
}

Level1Detector::Prediction Level1Detector::predict(
    std::span<const float> row) const {
  ml::PredictScratch scratch;
  return predict(row, scratch);
}

void Level1Detector::save(std::ostream& out, ml::ModelEncoding encoding) const {
  write_model_header(out, make_model_header("level1", config_));
  classifier_->save(out, encoding);
}

void Level1Detector::load(std::istream& in) {
  check_model_header(in, make_model_header("level1", config_));
  classifier_->load(in);
  compiled_ = ml::CompiledEnsemble::compile(*classifier_);
}

Level2Detector::Level2Detector(DetectorConfig config)
    : config_(std::move(config)),
      classifier_(make_classifier(config_.classifier_chain)) {}

void Level2Detector::fit(const ml::Matrix& data, const ml::LabelMatrix& labels,
                         Rng& rng) {
  if (!labels.empty() && labels[0].size() != transform::kTechniqueCount) {
    throw ModelError("Level2Detector::fit: expected 10 label columns");
  }
  classifier_->fit(data, labels, config_.forest, rng);
  compiled_ = ml::CompiledEnsemble::compile(*classifier_);
}

void Level2Detector::predict_proba(std::span<const float> row,
                                   ml::PredictScratch& scratch,
                                   std::vector<double>& out) const {
  compiled_.predict_proba(row, scratch, out);
}

std::vector<double> Level2Detector::predict_proba(
    std::span<const float> row) const {
  ml::PredictScratch scratch;
  std::vector<double> out;
  predict_proba(row, scratch, out);
  return out;
}

std::vector<transform::Technique> Level2Detector::select_techniques(
    std::span<const double> confidence) const {
  return techniques_from_indices(ml::top_k_labels(
      confidence, config_.level2_topk, config_.level2_threshold));
}

std::vector<transform::Technique> Level2Detector::predict_techniques(
    std::span<const float> row, ml::PredictScratch& scratch) const {
  predict_proba(row, scratch, scratch.proba);
  return select_techniques(scratch.proba);
}

std::vector<transform::Technique> Level2Detector::predict_techniques(
    std::span<const float> row) const {
  ml::PredictScratch scratch;
  return predict_techniques(row, scratch);
}

void Level2Detector::save(std::ostream& out, ml::ModelEncoding encoding) const {
  write_model_header(out, make_model_header("level2", config_));
  classifier_->save(out, encoding);
}

void Level2Detector::load(std::istream& in) {
  check_model_header(in, make_model_header("level2", config_));
  classifier_->load(in);
  compiled_ = ml::CompiledEnsemble::compile(*classifier_);
}

}  // namespace jst::analysis
