#ifndef CFNET_COMMUNITY_MODEL_SELECTION_H_
#define CFNET_COMMUNITY_MODEL_SELECTION_H_

#include <cstdint>
#include <vector>

#include "community/coda.h"
#include "graph/bipartite_graph.h"

namespace cfnet::community {

/// Choosing CoDA's community count C by held-out likelihood — the standard
/// affiliation-model selection recipe (hold out 15% of the edges,
/// fit on the rest, score the held-out edges plus an equal sample of
/// non-edges under the fitted edge-probability model).
struct ModelSelectionConfig {
  /// Base CoDA settings; num_communities is overridden per candidate.
  CodaConfig coda;
  uint64_t seed = 1;
};

struct CandidateScore {
  int num_communities = 0;
  /// Mean per-pair held-out log-likelihood (edges + sampled non-edges);
  /// higher is better.
  double heldout_log_likelihood = 0;
  double train_log_likelihood = 0;
  size_t detected_communities = 0;
};

struct ModelSelectionResult {
  std::vector<CandidateScore> scores;  // in candidate order
  int best_num_communities = 0;
};

/// Evaluates each candidate C and returns the held-out-likelihood winner.
ModelSelectionResult SelectCodaCommunities(const graph::BipartiteGraph& g,
                                           const std::vector<int>& candidates,
                                           const ModelSelectionConfig& config = {});

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_MODEL_SELECTION_H_
