#ifndef CFNET_GRAPH_CENTRALITY_H_
#define CFNET_GRAPH_CENTRALITY_H_

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.h"
#include "util/parallel.h"

namespace cfnet::graph {

/// Centrality measures over the (undirected, weighted) co-investment
/// projection. Success prediction (§7) reads k-core numbers and PageRank,
/// and the serving tier ranks investors by PageRank.

/// K-core decomposition (unweighted): per-node core number — the maximal
/// k such that the node belongs to a subgraph of minimum degree k.
std::vector<int> CoreNumbers(const WeightedGraph& g);

/// PageRank with uniform teleport (damping d), on edge weights. Nodes of
/// weighted degree <= 0 are dangling: their mass is spread uniformly.
///
/// Pull form: each iteration, row v sums share[u] * w(u, v) over its
/// neighbours u in ascending order, starting from the teleport base, with
/// share[u] = d * rank[u] / deg(u). Rows write disjoint outputs and run as
/// morsels over `par.pool`; one serial pass in ascending v then folds the
/// L1 change, the dangling mass and the next shares. The rank is therefore
/// bit-identical for every pool width and morsel size, and (the adjacency
/// being sorted and symmetric) to scattering each source's share into its
/// neighbours in ascending source order, on every graph with finite weights.
std::vector<double> PageRank(const WeightedGraph& g, double damping = 0.85,
                             int max_iterations = 100, double tolerance = 1e-9,
                             const ParallelOptions& par = {});

}  // namespace cfnet::graph

#endif  // CFNET_GRAPH_CENTRALITY_H_
