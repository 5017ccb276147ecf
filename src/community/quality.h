#ifndef CFNET_COMMUNITY_QUALITY_H_
#define CFNET_COMMUNITY_QUALITY_H_

#include <cstdint>
#include <vector>

#include "community/community_set.h"
#include "graph/weighted_graph.h"

namespace cfnet::community {

/// Structural community-quality measures on the weighted co-investment
/// projection, complementing the paper's behavioural (shared-investment)
/// metrics.

/// Weighted conductance of a node set: cut(S, V\S) / min(vol(S), vol(V\S)).
/// Lower is better; 0 = perfectly separated, 1 = all edge weight leaves.
/// Returns 1.0 for empty/degenerate sets.
double Conductance(const graph::WeightedGraph& g,
                   const std::vector<uint32_t>& members);

/// Mean conductance over the communities of a set (ignoring empties).
double MeanConductance(const graph::WeightedGraph& g, const CommunitySet& set);

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_QUALITY_H_
