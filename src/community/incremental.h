#ifndef CFNET_COMMUNITY_INCREMENTAL_H_
#define CFNET_COMMUNITY_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "community/community_set.h"
#include "graph/weighted_graph.h"

namespace cfnet::community {

/// Knobs for incremental Louvain refinement. The frontier rule and the
/// fallback guard are documented in DESIGN.md §15; the refinement shares
/// full Louvain's sweep cap and minimum gain (local_move.h), and its
/// fallback runs `RunLouvain(g)`.
struct IncrementalCommunityConfig {
  /// Fallback guard: if refined modularity drops more than this below the
  /// previous epoch's, the refinement is discarded and the full algorithm
  /// reruns. Negative values force the fallback (used in tests).
  double modularity_drop_tolerance = 0.02;
};

struct RefineResult {
  std::vector<int> labels;  // per node, -1 = isolated
  CommunitySet communities;
  double modularity = 0;
  /// True when the guard rejected the refinement and the full algorithm
  /// produced this result instead.
  bool full_rebuild = false;
  size_t frontier_size = 0;
  size_t active_nodes = 0;  // largest worklist swept (the frontier first)
  int sweeps = 0;
};

/// Carries the previous epoch's labels across an index remap: new-space
/// labels with unmapped (brand-new) nodes set to -1. `old_to_new` uses
/// `graph::BipartiteGraph::kInvalidIndex` for dropped nodes.
std::vector<int> MapLabels(const std::vector<int>& previous_labels,
                           const std::vector<uint32_t>& old_to_new,
                           size_t new_num_nodes);

/// Incremental Louvain: seeds from `seed_labels` (the previous partition,
/// remapped; -1 entries get fresh singletons), then runs Louvain's local
/// move over a worklist that starts as the frontier and, each later sweep,
/// holds the neighbors of the vertices that moved. No aggregation levels:
/// the refinement stays in the graph's own label space. Falls back to
/// `RunLouvain` when the refined modularity drops more than the configured
/// tolerance below `previous_modularity`.
RefineResult RefineLouvain(const graph::WeightedGraph& g,
                           const std::vector<int>& seed_labels,
                           const std::vector<uint32_t>& frontier,
                           double previous_modularity,
                           const IncrementalCommunityConfig& config = {});

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_INCREMENTAL_H_
