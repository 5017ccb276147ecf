#include "graph/centrality.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cfnet::graph {
namespace {

/// Star: center 0, leaves 1..4.
WeightedGraph Star5() {
  return WeightedGraph::FromEdges(
      5, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}, {0, 4, 1.0}});
}

TEST(CoreNumbersTest, CliquePlusTail) {
  // Triangle 0-1-2 (core 2) with a tail 2-3-4 (core 1) and isolated 5.
  WeightedGraph g = WeightedGraph::FromEdges(
      6,
      {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  std::vector<int> core = CoreNumbers(g);
  EXPECT_EQ(core[0], 2);
  EXPECT_EQ(core[1], 2);
  EXPECT_EQ(core[2], 2);
  EXPECT_EQ(core[3], 1);
  EXPECT_EQ(core[4], 1);
  EXPECT_EQ(core[5], 0);
}

TEST(CoreNumbersTest, CompleteGraph) {
  std::vector<std::tuple<uint32_t, uint32_t, double>> edges;
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = i + 1; j < 6; ++j) edges.emplace_back(i, j, 1.0);
  }
  std::vector<int> core = CoreNumbers(WeightedGraph::FromEdges(6, edges));
  for (int c : core) EXPECT_EQ(c, 5);
}

TEST(PageRankTest, SumsToOneAndRanksHubs) {
  WeightedGraph g = Star5();
  std::vector<double> pr = PageRank(g);
  double sum = 0;
  for (double x : pr) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(pr[0], pr[1] * 2);  // hub clearly dominates
  for (int v = 2; v < 5; ++v) EXPECT_NEAR(pr[v], pr[1], 1e-9);
}

TEST(PageRankTest, DanglingMassRedistributed) {
  // One edge 0-1 plus isolated nodes 2,3 (dangling in the weighted sense).
  WeightedGraph g = WeightedGraph::FromEdges(4, {{0, 1, 1.0}});
  std::vector<double> pr = PageRank(g);
  double sum = 0;
  for (double x : pr) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(pr[0], pr[2]);
  EXPECT_NEAR(pr[2], pr[3], 1e-9);
  EXPECT_GT(pr[2], 0.0);
}

/// The push-form PageRank that `PageRank` replaced, kept as its reference:
/// each non-dangling source scatters its share into its neighbours, in
/// ascending source order.
std::vector<double> PushPageRank(const WeightedGraph& g, double damping = 0.85,
                                 int max_iterations = 100,
                                 double tolerance = 1e-9) {
  const size_t n = g.num_nodes();
  std::vector<double> rank(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
  if (n == 0) return rank;
  std::vector<double> next(n, 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    double dangling = 0;
    for (uint32_t v = 0; v < n; ++v) {
      if (g.WeightedDegree(v) <= 0) dangling += rank[v];
    }
    double base = (1.0 - damping) / static_cast<double>(n) +
                  damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (uint32_t v = 0; v < n; ++v) {
      double wd = g.WeightedDegree(v);
      if (wd <= 0) continue;
      auto nbrs = g.Neighbors(v);
      auto ws = g.Weights(v);
      double share = damping * rank[v] / wd;
      for (size_t i = 0; i < nbrs.size(); ++i) {
        next[nbrs[i]] += share * ws[i];
      }
    }
    double diff = 0;
    for (uint32_t v = 0; v < n; ++v) diff += std::fabs(next[v] - rank[v]);
    rank.swap(next);
    if (diff < tolerance) break;
  }
  return rank;
}

/// Co-investment projection of a heavy-tailed investor->company graph.
WeightedGraph HeavyTailedProjection(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t inv = 1; inv <= 600; ++inv) {
    const int64_t degree = rng.PowerLaw(1, 40, 2.1);
    for (int64_t d = 0; d < degree; ++d) {
      edges.emplace_back(inv,
                         1000 + static_cast<uint64_t>(rng.Zipf(800, 0.8)));
    }
  }
  return WeightedGraph::ProjectLeft(BipartiteGraph::FromEdges(edges));
}

TEST(PageRankTest, PullMatchesPushReferenceBitForBit) {
  // Duplicate edges (one given reversed), non-integer weights, a self-loop
  // and an isolated node 7.
  const WeightedGraph odd = WeightedGraph::FromEdges(
      8, {{0, 1, 0.3},
          {1, 0, 0.7},
          {1, 2, 1.25},
          {2, 1, 0.1},
          {2, 3, 2.5},
          {3, 3, 0.4},
          {3, 4, 0.9},
          {4, 5, 1e-3},
          {0, 5, 3.14159},
          {5, 6, 0.2},
          {6, 5, 0.2}});
  const WeightedGraph heavy = HeavyTailedProjection(5);
  ASSERT_GT(heavy.num_edges(), 1000u);
  ThreadPool pool(3);
  const ParallelOptions par{&pool, 5};
  for (const WeightedGraph* g : {&odd, &heavy}) {
    for (double damping : {0.85, 0.6}) {
      const std::vector<double> reference = PushPageRank(*g, damping);
      EXPECT_EQ(PageRank(*g, damping), reference);
      EXPECT_EQ(PageRank(*g, damping, 100, 1e-9, par), reference);
    }
    // A capped run stops mid-convergence at the same bits too.
    EXPECT_EQ(PageRank(*g, 0.85, 7), PushPageRank(*g, 0.85, 7));
  }
}

TEST(CentralityTest, EmptyAndTinyGraphs) {
  WeightedGraph empty;
  EXPECT_TRUE(CoreNumbers(empty).empty());
  EXPECT_TRUE(PageRank(empty).empty());

  WeightedGraph one = WeightedGraph::FromEdges(1, {});
  EXPECT_EQ(CoreNumbers(one), std::vector<int>{0});
  EXPECT_EQ(PageRank(one).size(), 1u);
}

}  // namespace
}  // namespace cfnet::graph
