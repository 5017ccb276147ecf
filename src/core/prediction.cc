#include "core/prediction.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dataflow/dataset.h"
#include "graph/centrality.h"
#include "graph/weighted_graph.h"
#include "util/rng.h"

namespace cfnet::core {
namespace {

constexpr size_t kNumFeatures = 12;

constexpr double kTrainFraction = 0.7;
constexpr double kLearningRate = 0.5;
constexpr double kL2 = 1e-4;

double Sigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

const std::vector<std::string>& SuccessFeatureNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "log1p(angellist_followers)",
      "has_facebook",
      "has_twitter",
      "has_demo_video",
      "log1p(facebook_likes)",
      "log1p(twitter_tweets)",
      "log1p(twitter_followers)",
      "log1p(investor_in_degree)",
      "log1p(sum_investor_out_degree)",
      "mean_investor_core_number",
      "max_investor_pagerank_x1e3",
      "currently_fundraising",
  };
  return *names;
}

std::vector<LabeledExample> BuildSuccessFeatures(
    std::shared_ptr<dataflow::ExecutionContext> ctx,
    const AnalysisInputs& inputs, const graph::BipartiteGraph& investor_graph,
    bool include_graph_features) {
  using dataflow::Dataset;

  // Lookup tables for the joins (small relative to startups).
  auto fb_likes = std::make_shared<std::unordered_map<uint64_t, int64_t>>();
  for (const auto& r : inputs.facebook) (*fb_likes)[r.angellist_id] = r.fan_count;
  auto tw = std::make_shared<
      std::unordered_map<uint64_t, std::pair<int64_t, int64_t>>>();
  for (const auto& r : inputs.twitter) {
    (*tw)[r.angellist_id] = {r.statuses_count,
                             r.followers_count_null ? 0 : r.followers_count};
  }
  auto funded = std::make_shared<std::unordered_map<uint64_t, bool>>();
  for (const auto& r : inputs.crunchbase) {
    (*funded)[r.angellist_id] = r.funded();
  }

  // §7 centrality features of investors on the co-investment projection.
  auto core_numbers = std::make_shared<std::vector<int>>();
  auto pageranks = std::make_shared<std::vector<double>>();
  if (include_graph_features && investor_graph.num_left() > 0) {
    graph::WeightedGraph projection =
        graph::WeightedGraph::ProjectLeft(investor_graph);
    *core_numbers = graph::CoreNumbers(projection);
    *pageranks = graph::PageRank(projection);
  }

  const graph::BipartiteGraph* g = &investor_graph;
  return Dataset<StartupRecord>::FromVector(ctx, inputs.startups)
      .Map([=](const StartupRecord& s) {
        LabeledExample ex;
        ex.company_id = s.id;
        ex.features.assign(kNumFeatures, 0.0);
        ex.features[0] = std::log1p(static_cast<double>(s.follower_count));
        ex.features[1] = s.has_facebook_url ? 1.0 : 0.0;
        ex.features[2] = s.has_twitter_url ? 1.0 : 0.0;
        ex.features[3] = s.has_video ? 1.0 : 0.0;
        if (auto it = fb_likes->find(s.id); it != fb_likes->end()) {
          ex.features[4] = std::log1p(static_cast<double>(it->second));
        }
        if (auto it = tw->find(s.id); it != tw->end()) {
          ex.features[5] = std::log1p(static_cast<double>(it->second.first));
          ex.features[6] = std::log1p(static_cast<double>(it->second.second));
        }
        if (include_graph_features) {
          uint32_t r = g->RightIndexOf(s.id);
          if (r != graph::BipartiteGraph::kInvalidIndex) {
            auto investors = g->InNeighbors(r);
            ex.features[7] = std::log1p(static_cast<double>(investors.size()));
            size_t total_activity = 0;
            double core_sum = 0;
            double max_pr = 0;
            for (uint32_t inv : investors) {
              total_activity += g->OutDegree(inv);
              if (inv < core_numbers->size()) {
                core_sum += static_cast<double>((*core_numbers)[inv]);
              }
              if (inv < pageranks->size()) {
                max_pr = std::max(max_pr, (*pageranks)[inv]);
              }
            }
            ex.features[8] =
                std::log1p(static_cast<double>(total_activity));
            if (!investors.empty()) {
              ex.features[9] = core_sum / static_cast<double>(investors.size());
            }
            ex.features[10] = max_pr * 1e3;
          }
        }
        ex.features[11] = s.fundraising ? 1.0 : 0.0;
        auto it = funded->find(s.id);
        ex.success = it != funded->end() && it->second;
        return ex;
      })
      .Collect();
}

double ComputeAuc(const std::vector<std::pair<double, bool>>& scored) {
  std::vector<std::pair<double, bool>> sorted = scored;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Rank-sum (Mann-Whitney) with midranks for ties.
  double rank_sum_pos = 0;
  size_t positives = 0;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i;
    while (j < sorted.size() && sorted[j].first == sorted[i].first) ++j;
    double midrank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (size_t k = i; k < j; ++k) {
      if (sorted[k].second) {
        rank_sum_pos += midrank;
        ++positives;
      }
    }
    i = j;
  }
  size_t negatives = sorted.size() - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  double u = rank_sum_pos - static_cast<double>(positives) *
                                (static_cast<double>(positives) + 1) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

PredictionResult TrainSuccessPredictor(
    const std::vector<LabeledExample>& examples, const TrainConfig& config) {
  PredictionResult result;
  result.feature_names = SuccessFeatureNames();
  if (examples.empty()) return result;
  const size_t dims = examples[0].features.size();

  // Deterministic shuffle + split.
  std::vector<size_t> order(examples.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  Rng rng(config.seed);
  rng.Shuffle(order);
  size_t train_n = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(examples.size()) *
                             kTrainFraction));
  train_n = std::min(train_n, examples.size() - 1);
  result.train_size = train_n;
  result.test_size = examples.size() - train_n;

  // Standardization from the training split only.
  result.feature_mean.assign(dims, 0);
  result.feature_stddev.assign(dims, 0);
  for (size_t i = 0; i < train_n; ++i) {
    const auto& f = examples[order[i]].features;
    for (size_t k = 0; k < dims; ++k) result.feature_mean[k] += f[k];
  }
  for (size_t k = 0; k < dims; ++k) {
    result.feature_mean[k] /= static_cast<double>(train_n);
  }
  for (size_t i = 0; i < train_n; ++i) {
    const auto& f = examples[order[i]].features;
    for (size_t k = 0; k < dims; ++k) {
      double d = f[k] - result.feature_mean[k];
      result.feature_stddev[k] += d * d;
    }
  }
  for (size_t k = 0; k < dims; ++k) {
    result.feature_stddev[k] =
        std::sqrt(result.feature_stddev[k] / static_cast<double>(train_n));
  }

  auto standardized = [&](size_t example_idx, size_t k) {
    double sd = result.feature_stddev[k];
    if (sd <= 0) return 0.0;
    return (examples[example_idx].features[k] - result.feature_mean[k]) / sd;
  };

  // Class weights.
  size_t positives = 0;
  for (size_t i = 0; i < train_n; ++i) {
    if (examples[order[i]].success) ++positives;
  }
  double pos_weight = 1.0;
  if (config.balance_classes && positives > 0 && positives < train_n) {
    pos_weight = static_cast<double>(train_n - positives) /
                 static_cast<double>(positives);
  }

  // Full-batch gradient descent with L2, plus an L1 proximal step.
  std::vector<double> w(dims, 0);
  double bias = 0;
  std::vector<double> grad(dims);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0;
    double weight_total = 0;
    for (size_t i = 0; i < train_n; ++i) {
      size_t idx = order[i];
      double z = bias;
      for (size_t k = 0; k < dims; ++k) z += w[k] * standardized(idx, k);
      double p = Sigmoid(z);
      double y = examples[idx].success ? 1.0 : 0.0;
      double sample_weight = examples[idx].success ? pos_weight : 1.0;
      double err = (p - y) * sample_weight;
      for (size_t k = 0; k < dims; ++k) grad[k] += err * standardized(idx, k);
      grad_bias += err;
      weight_total += sample_weight;
    }
    for (size_t k = 0; k < dims; ++k) {
      double step = grad[k] / weight_total + kL2 * w[k];
      w[k] -= kLearningRate * step;
      if (config.l1 > 0) {
        // Proximal soft-threshold (ISTA).
        double threshold = kLearningRate * config.l1;
        if (w[k] > threshold) {
          w[k] -= threshold;
        } else if (w[k] < -threshold) {
          w[k] += threshold;
        } else {
          w[k] = 0;
        }
      }
    }
    bias -= kLearningRate * grad_bias / weight_total;
  }
  result.weights = w;
  result.bias = bias;
  for (double x : w) {
    if (std::fabs(x) > 1e-9) ++result.nonzero_weights;
  }

  // Evaluation.
  auto score_split = [&](size_t begin, size_t end) {
    std::vector<std::pair<double, bool>> scored;
    scored.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      size_t idx = order[i];
      double z = bias;
      for (size_t k = 0; k < dims; ++k) z += w[k] * standardized(idx, k);
      scored.emplace_back(Sigmoid(z), examples[idx].success);
    }
    return scored;
  };
  auto train_scored = score_split(0, train_n);
  auto test_scored = score_split(train_n, examples.size());
  result.train_auc = ComputeAuc(train_scored);
  result.test_auc = ComputeAuc(test_scored);

  double log_loss = 0;
  size_t test_pos = 0;
  for (const auto& [p, y] : test_scored) {
    double clamped = std::clamp(p, 1e-12, 1.0 - 1e-12);
    log_loss += y ? -std::log(clamped) : -std::log(1.0 - clamped);
    if (y) ++test_pos;
  }
  result.test_log_loss =
      test_scored.empty() ? 0 : log_loss / static_cast<double>(test_scored.size());

  // Top-decile lift.
  if (!test_scored.empty() && test_pos > 0) {
    std::sort(test_scored.begin(), test_scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    size_t decile = std::max<size_t>(1, test_scored.size() / 10);
    size_t hits = 0;
    for (size_t i = 0; i < decile; ++i) {
      if (test_scored[i].second) ++hits;
    }
    double decile_rate = static_cast<double>(hits) / static_cast<double>(decile);
    double base_rate =
        static_cast<double>(test_pos) / static_cast<double>(test_scored.size());
    result.top_decile_lift = decile_rate / base_rate;
  }
  return result;
}

}  // namespace cfnet::core
