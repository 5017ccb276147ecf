#include "community/model_selection.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/rng.h"

namespace cfnet::community {
namespace {

constexpr double kMinProb = 1e-9;
constexpr double kHoldoutFraction = 0.15;

}  // namespace

ModelSelectionResult SelectCodaCommunities(const graph::BipartiteGraph& g,
                                           const std::vector<int>& candidates,
                                           const ModelSelectionConfig& config) {
  ModelSelectionResult result;
  if (candidates.empty() || g.num_edges() < 10) return result;

  // Collect edges by external id, shuffle, split.
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(g.num_edges());
  std::unordered_set<uint64_t> edge_keys;
  edge_keys.reserve(g.num_edges() * 2);
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    for (uint32_t r : g.OutNeighbors(l)) {
      edges.emplace_back(g.LeftId(l), g.RightId(r));
      edge_keys.insert((static_cast<uint64_t>(l) << 32) | r);
    }
  }
  Rng rng(config.seed);
  rng.Shuffle(edges);
  size_t holdout = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(edges.size()) *
                             kHoldoutFraction));
  holdout = std::min(holdout, edges.size() - 1);
  std::vector<std::pair<uint64_t, uint64_t>> heldout_edges(
      edges.begin(), edges.begin() + static_cast<long>(holdout));
  std::vector<std::pair<uint64_t, uint64_t>> train_edges(
      edges.begin() + static_cast<long>(holdout), edges.end());
  graph::BipartiteGraph train_graph =
      graph::BipartiteGraph::FromEdges(train_edges);

  // Sampled non-edges (in the full graph) for the negative half of the
  // held-out score. Indices refer to the *original* graph for uniform
  // coverage, then map to train-graph indices for evaluation.
  std::vector<std::pair<uint64_t, uint64_t>> non_edges;
  non_edges.reserve(holdout);
  size_t attempts = 0;
  while (non_edges.size() < holdout && attempts++ < holdout * 50) {
    uint32_t l = static_cast<uint32_t>(rng.NextUint64(g.num_left()));
    uint32_t r = static_cast<uint32_t>(rng.NextUint64(g.num_right()));
    if (edge_keys.count((static_cast<uint64_t>(l) << 32) | r)) continue;
    non_edges.emplace_back(g.LeftId(l), g.RightId(r));
  }

  double best_score = -1e300;
  for (int c : candidates) {
    CodaConfig coda_config = config.coda;
    coda_config.num_communities = c;
    CodaResult fit = Coda(coda_config).Fit(train_graph);

    double ll = 0;
    size_t scored = 0;
    for (const auto& [lid, rid] : heldout_edges) {
      uint32_t l = train_graph.LeftIndexOf(lid);
      uint32_t r = train_graph.RightIndexOf(rid);
      if (l == graph::BipartiteGraph::kInvalidIndex ||
          r == graph::BipartiteGraph::kInvalidIndex) {
        continue;  // endpoint lost all training edges; cannot be scored
      }
      ll += std::log(std::max(fit.EdgeProbability(l, r), kMinProb));
      ++scored;
    }
    for (const auto& [lid, rid] : non_edges) {
      uint32_t l = train_graph.LeftIndexOf(lid);
      uint32_t r = train_graph.RightIndexOf(rid);
      if (l == graph::BipartiteGraph::kInvalidIndex ||
          r == graph::BipartiteGraph::kInvalidIndex) {
        continue;
      }
      ll += std::log(
          std::max(1.0 - fit.EdgeProbability(l, r), kMinProb));
      ++scored;
    }

    CandidateScore score;
    score.num_communities = c;
    score.heldout_log_likelihood =
        scored == 0 ? -1e300 : ll / static_cast<double>(scored);
    score.train_log_likelihood = fit.final_log_likelihood;
    score.detected_communities = fit.investor_communities.communities.size();
    if (score.heldout_log_likelihood > best_score) {
      best_score = score.heldout_log_likelihood;
      result.best_num_communities = c;
    }
    result.scores.push_back(score);
  }
  return result;
}

}  // namespace cfnet::community
