#ifndef CFNET_GRAPH_BIPARTITE_GRAPH_H_
#define CFNET_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace cfnet::graph {

class GraphDeltaOps;

/// Directed bipartite graph in CSR form: left nodes (investors) point to
/// right nodes (companies they invested in). This is the §5.1 investor
/// graph; external 64-bit ids are compacted to dense indices.
///
/// Neighbor lists are sorted and deduplicated, enabling O(d1+d2) pairwise
/// intersections (the shared-investment-size metric).
class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Builds from (left_id, right_id) pairs. Duplicate edges collapse.
  /// Left nodes with no edges never appear (the paper omits investors that
  /// made no investments); right nodes require at least one in-edge too.
  static BipartiteGraph FromEdges(
      const std::vector<std::pair<uint64_t, uint64_t>>& edges);

  size_t num_left() const { return left_ids_.size(); }
  size_t num_right() const { return right_ids_.size(); }
  size_t num_edges() const { return out_neighbors_.size(); }

  /// Companies of investor `l` (dense index), sorted ascending.
  std::span<const uint32_t> OutNeighbors(uint32_t l) const {
    return {out_neighbors_.data() + out_offsets_[l],
            out_offsets_[l + 1] - out_offsets_[l]};
  }
  /// Investors of company `r` (dense index), sorted ascending.
  std::span<const uint32_t> InNeighbors(uint32_t r) const {
    return {in_neighbors_.data() + in_offsets_[r],
            in_offsets_[r + 1] - in_offsets_[r]};
  }

  size_t OutDegree(uint32_t l) const {
    return out_offsets_[l + 1] - out_offsets_[l];
  }
  size_t InDegree(uint32_t r) const {
    return in_offsets_[r + 1] - in_offsets_[r];
  }

  uint64_t LeftId(uint32_t l) const { return left_ids_[l]; }
  uint64_t RightId(uint32_t r) const { return right_ids_[r]; }

  /// Dense index lookup, a binary search over the ids (dense indices follow
  /// external-id order); returns kInvalidIndex when absent.
  uint32_t LeftIndexOf(uint64_t id) const;
  uint32_t RightIndexOf(uint64_t id) const;

  static constexpr uint32_t kInvalidIndex = UINT32_MAX;

  /// Number of shared out-neighbors of two left nodes — the paper's
  /// "shared investment size" |C1 ∩ C2|.
  size_t SharedOutNeighbors(uint32_t l1, uint32_t l2) const;

  /// Subgraph keeping only left nodes with out-degree >= min_degree
  /// (the §5.2 cleaning step: investors with >= 4 investments).
  BipartiteGraph FilterLeftByMinDegree(size_t min_degree) const;

 private:
  /// Incremental maintenance (graph/delta.cc) assembles merged CSRs in
  /// place instead of round-tripping through an edge vector.
  friend class GraphDeltaOps;

  void BuildInverse();

  std::vector<uint64_t> left_ids_;   // ascending
  std::vector<uint64_t> right_ids_;  // ascending
  std::vector<size_t> out_offsets_;   // size num_left()+1
  std::vector<uint32_t> out_neighbors_;
  std::vector<size_t> in_offsets_;    // size num_right()+1
  std::vector<uint32_t> in_neighbors_;
};

/// Degree-distribution summary used by the Figure 3 reproduction.
struct DegreeSummary {
  double mean = 0;
  double median = 0;
  size_t max = 0;
  /// For each threshold k: fraction of nodes with degree >= k and the
  /// fraction of all edges those nodes account for (§5.1 concentration).
  struct Concentration {
    size_t k = 0;
    double node_fraction = 0;
    double edge_fraction = 0;
  };
  std::vector<Concentration> concentration;
};

/// Summarizes the left (investor) out-degree distribution; thresholds sets
/// the concentration rows (default 3,4,5 as in the paper).
DegreeSummary SummarizeOutDegrees(const BipartiteGraph& g,
                                  std::vector<size_t> thresholds = {3, 4, 5});

}  // namespace cfnet::graph

#endif  // CFNET_GRAPH_BIPARTITE_GRAPH_H_
