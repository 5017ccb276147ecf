#ifndef CFNET_COMMUNITY_LOCAL_MOVE_H_
#define CFNET_COMMUNITY_LOCAL_MOVE_H_

// Community-internal kernels shared by full Louvain (louvain.cc), the
// incremental refiner (incremental.cc) and label propagation: one dense
// neighbor-weight accumulator and one modularity local move.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/weighted_graph.h"

namespace cfnet::community {

/// Dense neighbor-weight accumulator: weight_to[c] is valid only when
/// stamp[c] == epoch, so switching nodes costs one counter bump instead of
/// a hash-map clear. `touched` lists the communities seen for the current
/// node, in adjacency order (deterministic for a fixed graph). Community ids
/// must lie in [0, n).
struct NeighborWeights {
  std::vector<double> weight_to;
  std::vector<uint32_t> stamp;
  std::vector<int> touched;
  uint32_t epoch = 0;

  explicit NeighborWeights(size_t n) : weight_to(n, 0), stamp(n, 0) {
    touched.reserve(64);
  }

  void Begin() {
    ++epoch;
    touched.clear();
    if (epoch == 0) {  // wrapped: stamps are stale, reset them
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }

  void Add(int c, double w) {
    const size_t idx = static_cast<size_t>(c);
    if (stamp[idx] != epoch) {
      stamp[idx] = epoch;
      weight_to[idx] = 0;
      touched.push_back(c);
    }
    weight_to[idx] += w;
  }

  double Get(int c) const {
    const size_t idx = static_cast<size_t>(c);
    return stamp[idx] == epoch ? weight_to[idx] : 0.0;
  }
};

/// Local-move sweeps per Louvain level (full Louvain) or per refinement
/// (the incremental refiner); sweeping stops earlier once no node moves.
inline constexpr int kMaxSweepsPerLevel = 20;

/// A move must beat the best gain so far by more than this.
inline constexpr double kMinModularityGain = 1e-6;

/// One Louvain local move: takes v out of its community and puts it into
/// the neighboring community with the largest modularity gain, staying put
/// unless a gain beats the best so far by more than `kMinModularityGain`.
/// Updates `label[v]` and `sigma_tot` (total weighted degree per community;
/// m2 is the graph's 2m). Returns true when v changed community.
/// Zero-degree nodes never move.
inline bool MoveToBestCommunity(const graph::WeightedGraph& g, uint32_t v,
                                double m2, std::vector<int>& label,
                                std::vector<double>& sigma_tot,
                                NeighborWeights& weights) {
  const double k_v = g.WeightedDegree(v);
  if (k_v <= 0) return false;
  weights.Begin();
  auto nbrs = g.Neighbors(v);
  auto ws = g.Weights(v);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == v) continue;  // self loops handled via degree
    weights.Add(label[nbrs[i]], ws[i]);
  }
  const int old_c = label[v];
  // Remove v from its community.
  sigma_tot[static_cast<size_t>(old_c)] -= k_v;
  double best_gain = 0;
  int best_c = old_c;
  const double w_old = weights.Get(old_c);
  for (int cand : weights.touched) {
    const double w_in = weights.Get(cand);
    // Delta modularity of joining cand (relative to staying isolated):
    //   w_in/m - k_v * sigma_tot[cand] / (2m^2) ... using 2m = m2:
    double gain = (w_in - w_old) / m2 * 2.0 -
                  k_v * (sigma_tot[static_cast<size_t>(cand)] -
                         sigma_tot[static_cast<size_t>(old_c)]) /
                      (m2 * m2) * 2.0;
    if (gain > best_gain + kMinModularityGain) {
      best_gain = gain;
      best_c = cand;
    }
  }
  sigma_tot[static_cast<size_t>(best_c)] += k_v;
  if (best_c == old_c) return false;
  label[v] = best_c;
  return true;
}

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_LOCAL_MOVE_H_
