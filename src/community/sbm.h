#ifndef CFNET_COMMUNITY_SBM_H_
#define CFNET_COMMUNITY_SBM_H_

#include <cstdint>
#include <vector>

#include "community/community_set.h"
#include "graph/bipartite_graph.h"

namespace cfnet::community {

struct SbmConfig {
  int num_investor_blocks = 16;
  int num_company_blocks = 16;
  int max_sweeps = 30;
  uint64_t seed = 1;
};

struct SbmResult {
  CommunitySet investor_communities;
  std::vector<int> investor_labels;
  std::vector<int> company_labels;
  double log_posterior = 0;
  int sweeps = 0;
};

/// Bipartite Bernoulli stochastic block model, fit by iterated conditional
/// modes (MAP coordinate ascent): alternately reassign each investor to
/// the block maximizing its conditional posterior given company blocks,
/// and vice versa, with Beta-smoothed MAP edge-rate estimates per block
/// pair. This implements the §7 "community inference using stochastic
/// block models, extended to directed (bipartite) graphs" direction.
SbmResult RunSbm(const graph::BipartiteGraph& g, const SbmConfig& config = {});

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_SBM_H_
