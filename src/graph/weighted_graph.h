#ifndef CFNET_GRAPH_WEIGHTED_GRAPH_H_
#define CFNET_GRAPH_WEIGHTED_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/parallel.h"

namespace cfnet::graph {

class GraphDeltaOps;

/// Canonicalizes one adjacency row in place: entries sorted by neighbor
/// index, duplicate neighbors merged by summing their weights. The single
/// normalization rule shared by `WeightedGraph::FromEdges` and the
/// incremental delta-merge path (graph/delta), so both produce the same
/// CSR bytes for the same logical edge set.
void CanonicalizeAdjacency(std::vector<std::pair<uint32_t, double>>& row);

/// The `max_right_degree` of the serving tier's co-investment projection:
/// `serve::BuildServingSnapshot` projects with it and
/// `core::EpochMaintainer::Config` defaults to it, so a full build and an
/// incrementally maintained epoch describe the same graph.
inline constexpr size_t kServingMaxRightDegree = 500;

/// Undirected weighted graph in CSR form (each edge stored in both
/// directions). Node indices correspond to the left side of the bipartite
/// graph it was projected from.
///
/// Used by the community-detection baselines (Louvain, label propagation):
/// projecting the investor->company bipartite graph gives investor-investor
/// edges weighted by co-investment count.
class WeightedGraph {
 public:
  WeightedGraph() = default;

  /// Co-investment projection onto left nodes: weight(i,j) = number of
  /// companies i and j both invested in. Companies with in-degree above
  /// `max_right_degree` are skipped (0 = no cap) — the standard guard
  /// against quadratic blowup on super-popular items.
  ///
  /// The upper-triangle rows are sharded into morsels over `par.pool`; each
  /// morsel accumulates co-investment counts in a dense touched-list scratch
  /// (no hash map) and the CSR is assembled directly from the per-row
  /// results, so the projection is bit-identical for any thread count and
  /// morsel size. Adjacency lists come out sorted by neighbor index.
  static WeightedGraph ProjectLeft(const BipartiteGraph& g,
                                   size_t max_right_degree = 0,
                                   const ParallelOptions& par = {});

  /// Builds directly from undirected weighted edges over [0, num_nodes).
  static WeightedGraph FromEdges(
      size_t num_nodes,
      const std::vector<std::tuple<uint32_t, uint32_t, double>>& edges);

  size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of undirected edges.
  size_t num_edges() const { return neighbors_.size() / 2; }

  std::span<const uint32_t> Neighbors(uint32_t v) const {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  std::span<const double> Weights(uint32_t v) const {
    return {weights_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Sum of incident edge weights of `v`.
  double WeightedDegree(uint32_t v) const { return weighted_degree_[v]; }
  /// Total weight 2m = sum over nodes of weighted degree.
  double TotalWeight2m() const { return total_weight_2m_; }

 private:
  /// Incremental maintenance (graph/delta.cc) splices untouched rows and
  /// recomputes frontier rows straight into the private CSR arrays.
  friend class GraphDeltaOps;

  void FinishBuild(size_t num_nodes,
                   std::vector<std::tuple<uint32_t, uint32_t, double>>& edges);
  /// Fills weighted_degree_ / total_weight_2m_ from the built CSR.
  void ComputeDegrees();

  std::vector<size_t> offsets_;
  std::vector<uint32_t> neighbors_;
  std::vector<double> weights_;
  std::vector<double> weighted_degree_;
  double total_weight_2m_ = 0;
};

}  // namespace cfnet::graph

#endif  // CFNET_GRAPH_WEIGHTED_GRAPH_H_
