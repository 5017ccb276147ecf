#include "core/prediction.h"

#include <cmath>

#include <gtest/gtest.h>

#include "fnv_digest.h"
#include "util/rng.h"

namespace cfnet::core {
namespace {

/// Synthetic linearly-separable-ish task: label depends on features 0 and 2;
/// features 1 and 3..9 are noise.
std::vector<LabeledExample> SyntheticExamples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabeledExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    LabeledExample ex;
    ex.company_id = i + 1;
    ex.features.resize(SuccessFeatureNames().size());
    for (double& f : ex.features) f = rng.Normal(0, 1);
    double z = 2.0 * ex.features[0] - 1.5 * ex.features[2] - 1.0;
    double p = 1.0 / (1.0 + std::exp(-z));
    ex.success = rng.Bernoulli(p);
    out.push_back(std::move(ex));
  }
  return out;
}

TEST(AucTest, PerfectAndWorstAndRandom) {
  EXPECT_DOUBLE_EQ(
      ComputeAuc({{0.9, true}, {0.8, true}, {0.2, false}, {0.1, false}}), 1.0);
  EXPECT_DOUBLE_EQ(
      ComputeAuc({{0.9, false}, {0.8, false}, {0.2, true}, {0.1, true}}), 0.0);
  // All scores tied: AUC 0.5 by midrank convention.
  EXPECT_DOUBLE_EQ(ComputeAuc({{0.5, true}, {0.5, false}, {0.5, true}}), 0.5);
  // Degenerate single-class input.
  EXPECT_DOUBLE_EQ(ComputeAuc({{0.9, true}, {0.1, true}}), 0.5);
}

TEST(AucTest, PartialOrdering) {
  // One inversion among 2x2: AUC = 3/4.
  EXPECT_DOUBLE_EQ(
      ComputeAuc({{0.9, true}, {0.7, false}, {0.6, true}, {0.1, false}}),
      0.75);
}

TEST(TrainTest, LearnsSeparableSignal) {
  auto examples = SyntheticExamples(4000, 11);
  TrainConfig config;
  config.balance_classes = false;  // classes are roughly balanced here
  PredictionResult model = TrainSuccessPredictor(examples, config);
  EXPECT_GT(model.test_auc, 0.85);
  // Informative weights dominate and carry the right signs.
  EXPECT_GT(model.weights[0], 0.5);
  EXPECT_LT(model.weights[2], -0.4);
  for (size_t k : {1u, 3u, 4u, 5u}) {
    EXPECT_LT(std::fabs(model.weights[k]), std::fabs(model.weights[0]) / 3)
        << "noise feature " << k;
  }
  EXPECT_EQ(model.train_size + model.test_size, examples.size());
}

TEST(TrainTest, L1PrunesNoiseFeatures) {
  auto examples = SyntheticExamples(4000, 13);
  TrainConfig config;
  config.balance_classes = false;
  config.l1 = 0.01;
  PredictionResult model = TrainSuccessPredictor(examples, config);
  EXPECT_LT(model.nonzero_weights, SuccessFeatureNames().size());
  // The informative features survive selection.
  EXPECT_GT(std::fabs(model.weights[0]), 1e-6);
  EXPECT_GT(std::fabs(model.weights[2]), 1e-6);
  EXPECT_GT(model.test_auc, 0.85);
}

TEST(TrainTest, DeterministicPerSeed) {
  auto examples = SyntheticExamples(1000, 17);
  PredictionResult a = TrainSuccessPredictor(examples);
  PredictionResult b = TrainSuccessPredictor(examples);
  EXPECT_EQ(a.test_auc, b.test_auc);
  EXPECT_EQ(a.weights, b.weights);
}

TEST(TrainTest, ImbalancedClassesStillRank) {
  // ~2% positives, like the funding rate.
  Rng rng(19);
  std::vector<LabeledExample> examples;
  for (size_t i = 0; i < 6000; ++i) {
    LabeledExample ex;
    ex.company_id = i;
    ex.features.resize(SuccessFeatureNames().size());
    for (double& f : ex.features) f = rng.Normal(0, 1);
    double z = 2.5 * ex.features[1] - 4.2;
    ex.success = rng.Bernoulli(1.0 / (1.0 + std::exp(-z)));
    examples.push_back(std::move(ex));
  }
  PredictionResult model = TrainSuccessPredictor(examples);
  EXPECT_GT(model.test_auc, 0.8);
  EXPECT_GT(model.top_decile_lift, 2.0);
}

// Every bit of a default-config model: the split, the step size and the L2
// strength all feed it.
TEST(TrainTest, PinnedWeightsAndAuc) {
  PredictionResult model = TrainSuccessPredictor(SyntheticExamples(2000, 29));
  FnvDigest digest;
  for (double w : model.weights) digest.Bits(w);
  digest.Bits(model.bias);
  digest.Bits(model.train_auc);
  digest.Bits(model.test_auc);
  digest.Word(model.train_size);
  EXPECT_EQ(digest.value(), 0xb3498dbb8da47a14ull)
      << std::hex << "0x" << digest.value();
}

TEST(TrainTest, EmptyInput) {
  PredictionResult model = TrainSuccessPredictor({});
  EXPECT_EQ(model.train_size, 0u);
  EXPECT_DOUBLE_EQ(model.test_auc, 0.0);
}

}  // namespace
}  // namespace cfnet::core
