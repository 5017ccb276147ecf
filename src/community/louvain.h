#ifndef CFNET_COMMUNITY_LOUVAIN_H_
#define CFNET_COMMUNITY_LOUVAIN_H_

#include <cstdint>
#include <vector>

#include "community/community_set.h"
#include "graph/weighted_graph.h"

namespace cfnet::community {

/// Seeds the node-visiting order. The level cap, the sweep cap and the
/// minimum gain are constants (louvain.cc, local_move.h).
struct LouvainConfig {
  uint64_t seed = 1;
};

struct LouvainResult {
  CommunitySet communities;     // disjoint partition (isolated nodes omitted)
  std::vector<int> labels;      // per-node community id (-1 for isolated)
  double modularity = 0;
  int levels = 0;
};

/// Louvain modularity optimization (Blondel et al. 2008) on a weighted
/// undirected graph — the baseline community detector run on the
/// co-investment projection of the investor graph.
LouvainResult RunLouvain(const graph::WeightedGraph& g,
                         const LouvainConfig& config = {});

/// Weighted modularity of a disjoint partition (labels; -1 = ignore node).
double Modularity(const graph::WeightedGraph& g, const std::vector<int>& labels);

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_LOUVAIN_H_
