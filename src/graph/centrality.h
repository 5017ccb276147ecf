#ifndef CFNET_GRAPH_CENTRALITY_H_
#define CFNET_GRAPH_CENTRALITY_H_

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.h"
#include "util/parallel.h"

namespace cfnet::graph {

/// Centrality measures over the (undirected, weighted) co-investment
/// projection. Success prediction (§7) reads k-core numbers and PageRank,
/// the serving tier ranks investors by PageRank, and `bench_graph` times
/// betweenness.

/// Brandes betweenness centrality on the unweighted skeleton, normalized
/// to [0,1] by (n-1)(n-2)/2. Exact when `sample_sources` = 0; otherwise a
/// scaled estimate from sampled sources (Brandes & Pich 2007).
///
/// Parallelized over sources (Brandes fan-out): each source runs its BFS +
/// dependency accumulation in private scratch, and deltas are committed in
/// ascending source order (ordered reduction) — bit-identical to the
/// 1-thread run for any pool width or morsel size.
std::vector<double> BetweennessCentrality(const WeightedGraph& g,
                                          size_t sample_sources = 0,
                                          uint64_t seed = 1,
                                          const ParallelOptions& par = {});

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
