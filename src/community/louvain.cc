#include "community/louvain.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "community/local_move.h"
#include "util/rng.h"

namespace cfnet::community {
namespace {

/// Aggregation levels at most; each level is one local-move phase.
constexpr int kMaxLevels = 10;

/// One Louvain level: local node moves until no modularity gain. Returns
/// the per-node community labels within this level's graph.
std::vector<int> LocalMovePhase(const graph::WeightedGraph& g, Rng& rng,
                                bool* any_move) {
  const size_t n = g.num_nodes();
  std::vector<int> label(n);
  std::iota(label.begin(), label.end(), 0);
  const double m2 = g.TotalWeight2m();
  *any_move = false;
  if (m2 <= 0) return label;

  // sigma_tot[c]: total weighted degree of community c.
  std::vector<double> sigma_tot(n, 0);
  for (uint32_t v = 0; v < n; ++v) sigma_tot[v] = g.WeightedDegree(v);

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  NeighborWeights weights(n);  // community -> edge weight sum for current node
  for (int sweep = 0; sweep < kMaxSweepsPerLevel; ++sweep) {
    bool moved = false;
    for (uint32_t v : order) {
      if (MoveToBestCommunity(g, v, m2, label, sigma_tot, weights)) {
        moved = true;
        *any_move = true;
      }
    }
    if (!moved) break;
  }
  return label;
}

/// Aggregates the graph by community labels (relabeled to 0..k-1).
graph::WeightedGraph Aggregate(const graph::WeightedGraph& g,
                               std::vector<int>& labels, size_t* num_out) {
  const size_t n = g.num_nodes();
  // Compact labels in first-appearance order (labels are level-local node
  // ids, so a dense remap array replaces the hash map).
  std::vector<int> remap(n, -1);
  int next = 0;
  for (int& l : labels) {
    if (remap[static_cast<size_t>(l)] == -1) {
      remap[static_cast<size_t>(l)] = next++;
    }
    l = remap[static_cast<size_t>(l)];
  }
  const size_t num_comms = static_cast<size_t>(next);
  *num_out = num_comms;

  // Group nodes by community (counting sort), then accumulate each
  // community's neighbor-community weights through the dense scratch.
  std::vector<size_t> comm_offsets(num_comms + 1, 0);
  for (int l : labels) ++comm_offsets[static_cast<size_t>(l) + 1];
  for (size_t c = 1; c <= num_comms; ++c) {
    comm_offsets[c] += comm_offsets[c - 1];
  }
  std::vector<uint32_t> comm_nodes(n);
  {
    std::vector<size_t> cursor(comm_offsets.begin(), comm_offsets.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      comm_nodes[cursor[static_cast<size_t>(labels[v])]++] = v;
    }
  }

  std::vector<std::tuple<uint32_t, uint32_t, double>> edges;
  edges.reserve(std::min(g.num_edges(), num_comms * 8));
  NeighborWeights weights(num_comms);
  for (size_t a = 0; a < num_comms; ++a) {
    weights.Begin();
    for (size_t k = comm_offsets[a]; k < comm_offsets[a + 1]; ++k) {
      const uint32_t v = comm_nodes[k];
      auto nbrs = g.Neighbors(v);
      auto ws = g.Weights(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const int b = labels[nbrs[i]];
        if (static_cast<size_t>(b) < a) continue;  // counted from the other side
        // Intra-community adjacency entries (including both entries of a
        // self loop) are seen twice while scanning community a; halve them.
        weights.Add(b, static_cast<size_t>(b) == a ? ws[i] * 0.5 : ws[i]);
      }
    }
    std::sort(weights.touched.begin(), weights.touched.end());
    for (int b : weights.touched) {
      edges.emplace_back(static_cast<uint32_t>(a), static_cast<uint32_t>(b),
                         weights.Get(b));
    }
  }
  return graph::WeightedGraph::FromEdges(num_comms, edges);
}

}  // namespace

double Modularity(const graph::WeightedGraph& g, const std::vector<int>& labels) {
  const double m2 = g.TotalWeight2m();
  if (m2 <= 0) return 0;
  int max_label = -1;
  for (int l : labels) max_label = std::max(max_label, l);
  if (max_label < 0) return 0;
  const size_t k = static_cast<size_t>(max_label) + 1;
  std::vector<double> sigma_tot(k, 0);
  std::vector<double> sigma_in(k, 0);
  for (uint32_t v = 0; v < g.num_nodes(); ++v) {
    if (labels[v] < 0) continue;
    sigma_tot[static_cast<size_t>(labels[v])] += g.WeightedDegree(v);
    auto nbrs = g.Neighbors(v);
    auto ws = g.Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (labels[nbrs[i]] == labels[v]) {
        sigma_in[static_cast<size_t>(labels[v])] += ws[i];
      }
    }
  }
  double q = 0;
  for (size_t c = 0; c < k; ++c) {
    if (sigma_tot[c] <= 0 && sigma_in[c] <= 0) continue;
    q += sigma_in[c] / m2 - (sigma_tot[c] / m2) * (sigma_tot[c] / m2);
  }
  return q;
}

LouvainResult RunLouvain(const graph::WeightedGraph& g,
                         const LouvainConfig& config) {
  LouvainResult result;
  const size_t n = g.num_nodes();
  result.labels.assign(n, -1);
  if (n == 0) return result;

  Rng rng(config.seed);
  // node_of_level maps original node -> current-level node.
  std::vector<int> node_map(n);
  std::iota(node_map.begin(), node_map.end(), 0);
  graph::WeightedGraph current = g;

  for (int level = 0; level < kMaxLevels; ++level) {
    bool any_move = false;
    std::vector<int> labels = LocalMovePhase(current, rng, &any_move);
    size_t num_comms = 0;
    graph::WeightedGraph next = Aggregate(current, labels, &num_comms);
    for (size_t v = 0; v < n; ++v) {
      node_map[v] = labels[static_cast<size_t>(node_map[v])];
    }
    result.levels = level + 1;
    if (!any_move || num_comms == current.num_nodes()) break;
    current = std::move(next);
  }

  // Final labels: omit isolated nodes (zero degree in the original graph).
  for (uint32_t v = 0; v < n; ++v) {
    result.labels[v] = g.WeightedDegree(v) > 0 ? node_map[v] : -1;
  }
  result.communities = CommunitySet::FromLabels(result.labels);
  result.modularity = Modularity(g, result.labels);
  return result;
}

}  // namespace cfnet::community
