#include "community/incremental.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "community/local_move.h"
#include "community/louvain.h"
#include "graph/bipartite_graph.h"
#include "util/logging.h"

namespace cfnet::community {
namespace {

constexpr uint32_t kInvalid = graph::BipartiteGraph::kInvalidIndex;

/// Seed labels compacted to [0, n): previous-partition labels keep their
/// grouping (first-appearance order), -1 seeds become fresh singletons.
std::vector<int> CompactSeeds(const graph::WeightedGraph& g,
                              const std::vector<int>& seed_labels) {
  const size_t n = g.num_nodes();
  std::vector<int> label(n, -1);
  std::unordered_map<int, int> remap;
  int next = 0;
  for (size_t v = 0; v < n; ++v) {
    const int s = v < seed_labels.size() ? seed_labels[v] : -1;
    if (s >= 0) {
      auto [it, inserted] = remap.try_emplace(s, next);
      if (inserted) ++next;
      label[v] = it->second;
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (label[v] < 0) label[v] = next++;
  }
  CFNET_CHECK(static_cast<size_t>(next) <= n);
  return label;
}

}  // namespace

std::vector<int> MapLabels(const std::vector<int>& previous_labels,
                           const std::vector<uint32_t>& old_to_new,
                           size_t new_num_nodes) {
  std::vector<int> out(new_num_nodes, -1);
  for (size_t v = 0; v < old_to_new.size() && v < previous_labels.size(); ++v) {
    const uint32_t nl = old_to_new[v];
    if (nl != kInvalid && nl < new_num_nodes) out[nl] = previous_labels[v];
  }
  return out;
}

RefineResult RefineLouvain(const graph::WeightedGraph& g,
                           const std::vector<int>& seed_labels,
                           const std::vector<uint32_t>& frontier,
                           double previous_modularity,
                           const IncrementalCommunityConfig& config) {
  RefineResult res;
  const size_t n = g.num_nodes();
  res.frontier_size = frontier.size();
  if (n == 0) return res;
  const double m2 = g.TotalWeight2m();
  std::vector<int> label = CompactSeeds(g, seed_labels);
  if (m2 > 0) {
    std::vector<double> sigma_tot(n, 0);
    for (uint32_t v = 0; v < n; ++v) {
      sigma_tot[static_cast<size_t>(label[v])] += g.WeightedDegree(v);
    }

    // The first sweep visits the frontier in index order.
    std::vector<uint32_t> active_list;
    active_list.reserve(frontier.size());
    for (uint32_t v : frontier) {
      if (v < n) active_list.push_back(v);
    }
    std::sort(active_list.begin(), active_list.end());
    active_list.erase(std::unique(active_list.begin(), active_list.end()),
                      active_list.end());
    res.active_nodes = active_list.size();

    // Worklist sweeps: only nodes whose neighborhood moved last sweep are
    // revisited, so the active set shrinks to the wavefront of actual
    // moves instead of accumulating.
    std::vector<char> next(n, 0);
    std::vector<uint32_t> next_list;
    NeighborWeights weights(n);
    for (int sweep = 0; sweep < kMaxSweepsPerLevel; ++sweep) {
      bool moved = false;
      next_list.clear();
      for (uint32_t v : active_list) {
        if (!MoveToBestCommunity(g, v, m2, label, sigma_tot, weights)) {
          continue;
        }
        moved = true;
        // A move can destabilize the neighborhood: revisit it next sweep.
        for (uint32_t u : g.Neighbors(v)) {
          if (!next[u]) {
            next[u] = 1;
            next_list.push_back(u);
          }
        }
      }
      res.sweeps = sweep + 1;
      if (!moved) break;
      std::sort(next_list.begin(), next_list.end());
      active_list = next_list;
      for (uint32_t u : active_list) next[u] = 0;
      res.active_nodes = std::max(res.active_nodes, active_list.size());
    }
  }

  // Isolated nodes -> -1; labels compacted in first-appearance order.
  res.labels.assign(n, -1);
  std::vector<int> remap(n, -1);
  int next_label = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (g.WeightedDegree(v) <= 0) continue;
    const size_t l = static_cast<size_t>(label[v]);
    if (remap[l] == -1) remap[l] = next_label++;
    res.labels[v] = remap[l];
  }
  res.communities = CommunitySet::FromLabels(res.labels);
  res.modularity = Modularity(g, res.labels);
  if (previous_modularity - res.modularity >
      config.modularity_drop_tolerance) {
    LouvainResult full = RunLouvain(g);
    res.labels = std::move(full.labels);
    res.communities = std::move(full.communities);
    res.modularity = full.modularity;
    res.full_rebuild = true;
  }
  return res;
}

}  // namespace cfnet::community
