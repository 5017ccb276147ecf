#ifndef CFNET_CORE_PREDICTION_H_
#define CFNET_CORE_PREDICTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.h"
#include "dataflow/context.h"
#include "graph/bipartite_graph.h"

namespace cfnet::core {

/// §7's prediction direction, implemented: logistic regression from company
/// profile + social-engagement + investor-graph features to fundraising
/// success, with L1 feature selection ("feature selection methods for
/// high-dimensional regression to identify the graph statistics that are
/// the most useful").

/// One labeled example.
struct LabeledExample {
  uint64_t company_id = 0;
  std::vector<double> features;  // aligned with SuccessFeatureNames()
  bool success = false;
};

/// Names of the features produced by BuildSuccessFeatures, in order.
const std::vector<std::string>& SuccessFeatureNames();

/// Builds one example per crawled startup. Engagement counts enter as
/// log1p; investor-graph features come from the merged bipartite graph:
/// company in-degree, the aggregate activity of its investors, and the
/// §7 centrality measures of those investors on the co-investment
/// projection (mean k-core, max PageRank).
///
/// `leak_check`: when true (default), the investor-graph features are
/// included; they partially encode the label (funded companies attract
/// investors), which is exactly the §7 hypothesis worth testing — compare
/// AUCs with and without them.
std::vector<LabeledExample> BuildSuccessFeatures(
    std::shared_ptr<dataflow::ExecutionContext> ctx,
    const AnalysisInputs& inputs, const graph::BipartiteGraph& investor_graph,
    bool include_graph_features = true);

/// Full-batch gradient descent on a 70/30 train/test split, with step
/// size 0.5 and L2 strength 1e-4.
struct TrainConfig {
  int epochs = 300;
  /// L1 strength; > 0 enables proximal soft-thresholding (lasso-style
  /// feature selection: irrelevant weights are driven to exactly 0).
  double l1 = 0;
  /// Upweight positive examples by the class imbalance ratio (funding
  /// success is ~1.4% of companies).
  bool balance_classes = true;
  uint64_t seed = 20160626;
};

/// A trained logistic model plus its held-out evaluation.
struct PredictionResult {
  std::vector<std::string> feature_names;
  std::vector<double> weights;  // on standardized features
  double bias = 0;
  /// Standardization parameters (apply to raw features before weights).
  std::vector<double> feature_mean;
  std::vector<double> feature_stddev;

  double test_auc = 0;
  double train_auc = 0;
  double test_log_loss = 0;
  /// Success rate within the top decile of predicted scores, divided by
  /// the base rate — "how much better than guessing".
  double top_decile_lift = 0;
  size_t train_size = 0;
  size_t test_size = 0;
  size_t nonzero_weights = 0;
};

/// Trains on a deterministic shuffle/split of `examples`.
PredictionResult TrainSuccessPredictor(const std::vector<LabeledExample>& examples,
                                       const TrainConfig& config = {});

/// Area under the ROC curve for (score, label) pairs (rank statistic; ties
/// get half credit).
double ComputeAuc(const std::vector<std::pair<double, bool>>& scored);

}  // namespace cfnet::core

#endif  // CFNET_CORE_PREDICTION_H_
