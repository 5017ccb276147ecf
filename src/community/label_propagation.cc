#include "community/label_propagation.h"

#include <numeric>

#include "community/local_move.h"
#include "util/rng.h"

namespace cfnet::community {

LabelPropagationResult RunLabelPropagation(
    const graph::WeightedGraph& g, const LabelPropagationConfig& config) {
  LabelPropagationResult result;
  const size_t n = g.num_nodes();
  result.labels.assign(n, -1);
  if (n == 0) return result;

  std::vector<int> label(n);
  std::iota(label.begin(), label.end(), 0);
  Rng rng(config.seed);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  NeighborWeights weights(n);  // labels stay within [0, n)
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    rng.Shuffle(order);
    bool changed = false;
    for (uint32_t v : order) {
      auto nbrs = g.Neighbors(v);
      if (nbrs.empty()) continue;
      auto ws = g.Weights(v);
      weights.Begin();
      for (size_t i = 0; i < nbrs.size(); ++i) {
        weights.Add(label[nbrs[i]], ws[i]);
      }
      int best = label[v];
      double best_w = -1;
      for (int l : weights.touched) {
        const double w = weights.Get(l);
        // Ties break toward the current label, then the smaller label, for
        // determinism under a fixed seed.
        if (w > best_w || (w == best_w && l == label[v]) ||
            (w == best_w && best != label[v] && l < best)) {
          best_w = w;
          best = l;
        }
      }
      if (best != label[v]) {
        label[v] = best;
        changed = true;
      }
    }
    result.iterations = iter + 1;
    if (!changed) break;
  }

  for (uint32_t v = 0; v < n; ++v) {
    result.labels[v] = g.Neighbors(v).empty() ? -1 : label[v];
  }
  result.communities = CommunitySet::FromLabels(result.labels);
  return result;
}

}  // namespace cfnet::community
