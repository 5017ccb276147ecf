#ifndef CFNET_GRAPH_DELTA_H_
#define CFNET_GRAPH_DELTA_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/weighted_graph.h"

namespace cfnet::graph {

/// One edge mutation against the bipartite investor graph, in external-id
/// space (the crawl's ids, not dense indices — deltas are extracted from
/// append-only snapshot shards before any graph exists to index into).
struct EdgeDelta {
  uint64_t left_id = 0;
  uint64_t right_id = 0;
  bool add = true;  // false = remove

  bool operator==(const EdgeDelta&) const = default;
};

struct DeltaMergeStats {
  size_t rows_reused = 0;    // untouched left rows spliced through
  size_t rows_rebuilt = 0;   // rows gallop-merged with their delta run
  size_t edges_added = 0;
  size_t edges_removed = 0;
  /// Deltas that changed nothing (add of a present edge, remove of an
  /// absent one) — the common case when re-crawled records are re-emitted.
  size_t noop_deltas = 0;
};

/// A right node touched by at least one effective delta. Either index is
/// `BipartiteGraph::kInvalidIndex` when the node is absent on that side
/// (brand-new right / right whose last in-edge was removed).
struct TouchedRight {
  uint32_t old_index = BipartiteGraph::kInvalidIndex;
  uint32_t new_index = BipartiteGraph::kInvalidIndex;
};

struct DeltaMergeResult {
  BipartiteGraph graph;  // bit-identical to FromEdges(old edges ± deltas)
  DeltaMergeStats stats;
  /// Old dense index -> new dense index; kInvalidIndex for dropped nodes.
  /// The remaps are monotonic (both sides assign dense ids in sorted
  /// external-id order), which is what lets untouched adjacency spans be
  /// reused: a remapped sorted row stays sorted.
  std::vector<uint32_t> old_to_new_left;
  std::vector<uint32_t> old_to_new_right;
  /// Rights with an effective delta, ascending by external id.
  std::vector<TouchedRight> touched_rights;
  /// New-dense indices of lefts that participated in a delta, sorted.
  std::vector<uint32_t> touched_lefts;
};

/// Merges an edge-delta batch into the bipartite CSR. The batch is first
/// normalized: sorted by (left, right), one op per pair, the last op in
/// batch order wins. One counting pass over the normalized deltas then
/// sizes the new id spaces, untouched rows are copied through the
/// monotonic remap (memcpy when the remap is identity over the row's
/// range), and each touched row is gallop-merged with its sorted delta
/// run. The result is bit-identical to rebuilding via
/// `BipartiteGraph::FromEdges` on the merged edge set, at O(E) copy cost
/// instead of O(E log E) sort + hash cost.
DeltaMergeResult MergeBipartiteDelta(const BipartiteGraph& g,
                                     const std::vector<EdgeDelta>& deltas);

/// New-dense left indices whose co-investment projection row may differ
/// from the previous epoch: for every touched right, the investors of its
/// old set (when the old in-degree was within `max_right_degree`) and of
/// its new set (likewise), plus every delta participant. Vertices outside
/// the frontier provably keep their old projection row (modulo the index
/// remap). This is the seed set for incremental community refinement;
/// `UpdateProjection` derives its own (smaller) recompute set internally.
/// `max_right_degree` must match the value used for the projections;
/// 0 = no cap.
std::vector<uint32_t> ProjectionFrontier(const BipartiteGraph& old_graph,
                                         const DeltaMergeResult& merge,
                                         size_t max_right_degree);

/// Incrementally updates the co-investment projection. The projection is
/// the gated Gram matrix sum_c [in-degree(c) <= cap] x_c x_c^T over
/// company investor-indicator vectors, so a delta batch changes it by
/// sum over touched rights of (g_new x_new x_new^T - g_old x_old x_old^T)
/// — sparse in the delta edges. Those pairwise count increments are
/// generated per touched right, bucketed by row, and merged into the old
/// rows; weights are exact small-integer counts, so old + increment is
/// the bit-exact new count. Rows with no increment and no dropped-left
/// entry are spliced from `old_projection` through the left remap
/// (memcpy when the remap is identity over the row's range). The output
/// CSR is appended row-by-row (no zero-initialized resize). Bit-identical
/// to a full `ProjectLeft(merge.graph, max_right_degree)`.
WeightedGraph UpdateProjection(const WeightedGraph& old_projection,
                               const BipartiteGraph& old_graph,
                               const DeltaMergeResult& merge,
                               size_t max_right_degree);

}  // namespace cfnet::graph

#endif  // CFNET_GRAPH_DELTA_H_
