#include "graph/bipartite_graph.h"

#include <gtest/gtest.h>

#include "graph/weighted_graph.h"

namespace cfnet::graph {
namespace {

BipartiteGraph Sample() {
  // investors 10,20,30 -> companies 1,2,3,4
  return BipartiteGraph::FromEdges({
      {10, 1}, {10, 2},
      {20, 1}, {20, 2}, {20, 3},
      {30, 3}, {30, 4},
  });
}

TEST(BipartiteGraphTest, BasicDimensions) {
  BipartiteGraph g = Sample();
  EXPECT_EQ(g.num_left(), 3u);
  EXPECT_EQ(g.num_right(), 4u);
  EXPECT_EQ(g.num_edges(), 7u);
}

TEST(BipartiteGraphTest, EmptyGraph) {
  BipartiteGraph g = BipartiteGraph::FromEdges({});
  EXPECT_EQ(g.num_left(), 0u);
  EXPECT_EQ(g.num_right(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(BipartiteGraphTest, DuplicateEdgesCollapse) {
  BipartiteGraph g = BipartiteGraph::FromEdges({{1, 5}, {1, 5}, {1, 5}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutDegree(0), 1u);
}

TEST(BipartiteGraphTest, IdMappingsRoundTrip) {
  BipartiteGraph g = Sample();
  for (uint64_t id : {10ull, 20ull, 30ull}) {
    uint32_t idx = g.LeftIndexOf(id);
    ASSERT_NE(idx, BipartiteGraph::kInvalidIndex);
    EXPECT_EQ(g.LeftId(idx), id);
  }
  for (uint64_t id : {1ull, 2ull, 3ull, 4ull}) {
    uint32_t idx = g.RightIndexOf(id);
    ASSERT_NE(idx, BipartiteGraph::kInvalidIndex);
    EXPECT_EQ(g.RightId(idx), id);
  }
  EXPECT_EQ(g.LeftIndexOf(999), BipartiteGraph::kInvalidIndex);
  EXPECT_EQ(g.RightIndexOf(999), BipartiteGraph::kInvalidIndex);
}

TEST(BipartiteGraphTest, AbsentIdsResolveInvalidBelowBetweenAndAbove) {
  BipartiteGraph g = Sample();
  for (uint64_t id : {0ull, 9ull, 15ull, 25ull, 31ull, ~0ull}) {
    EXPECT_EQ(g.LeftIndexOf(id), BipartiteGraph::kInvalidIndex) << id;
  }
  for (uint64_t id : {0ull, 5ull, 10ull, 20ull, 30ull, ~0ull}) {
    EXPECT_EQ(g.RightIndexOf(id), BipartiteGraph::kInvalidIndex) << id;
  }
  // Left ids 10, 20, 30 leave gaps below, between and above them; right
  // ids 1..4 are contiguous, so only below and above.
  EXPECT_EQ(g.RightIndexOf(1), 0u);
  EXPECT_EQ(g.RightIndexOf(4), 3u);
  BipartiteGraph empty = BipartiteGraph::FromEdges({});
  EXPECT_EQ(empty.LeftIndexOf(10), BipartiteGraph::kInvalidIndex);
  EXPECT_EQ(empty.RightIndexOf(1), BipartiteGraph::kInvalidIndex);
}

TEST(BipartiteGraphTest, NeighborsSortedAndConsistent) {
  BipartiteGraph g = Sample();
  // For every out-edge there must be the matching in-edge and vice versa.
  size_t out_total = 0;
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    auto nbrs = g.OutNeighbors(l);
    out_total += nbrs.size();
    for (size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
    for (uint32_t r : nbrs) {
      auto in = g.InNeighbors(r);
      EXPECT_NE(std::find(in.begin(), in.end(), l), in.end());
    }
  }
  size_t in_total = 0;
  for (uint32_t r = 0; r < g.num_right(); ++r) {
    auto in = g.InNeighbors(r);
    in_total += in.size();
    for (size_t i = 1; i < in.size(); ++i) EXPECT_LT(in[i - 1], in[i]);
  }
  EXPECT_EQ(out_total, g.num_edges());
  EXPECT_EQ(in_total, g.num_edges());
}

TEST(BipartiteGraphTest, SharedOutNeighbors) {
  BipartiteGraph g = Sample();
  uint32_t i10 = g.LeftIndexOf(10);
  uint32_t i20 = g.LeftIndexOf(20);
  uint32_t i30 = g.LeftIndexOf(30);
  EXPECT_EQ(g.SharedOutNeighbors(i10, i20), 2u);  // companies 1,2
  EXPECT_EQ(g.SharedOutNeighbors(i20, i30), 1u);  // company 3
  EXPECT_EQ(g.SharedOutNeighbors(i10, i30), 0u);
  EXPECT_EQ(g.SharedOutNeighbors(i10, i10), 2u);  // self intersection
}

TEST(BipartiteGraphTest, FilterLeftByMinDegree) {
  BipartiteGraph g = Sample();
  BipartiteGraph filtered = g.FilterLeftByMinDegree(3);
  EXPECT_EQ(filtered.num_left(), 1u);  // only investor 20 has degree 3
  EXPECT_EQ(filtered.LeftId(0), 20u);
  EXPECT_EQ(filtered.num_edges(), 3u);
  // Companies with no remaining investors disappear.
  EXPECT_EQ(filtered.num_right(), 3u);
  EXPECT_EQ(filtered.RightIndexOf(4), BipartiteGraph::kInvalidIndex);
}

TEST(BipartiteGraphTest, DegreeSummary) {
  BipartiteGraph g = BipartiteGraph::FromEdges({
      {1, 1},                          // degree 1
      {2, 1}, {2, 2},                  // degree 2
      {3, 1}, {3, 2}, {3, 3}, {3, 4},  // degree 4
  });
  DegreeSummary s = SummarizeOutDegrees(g, {2, 4});
  EXPECT_DOUBLE_EQ(s.mean, 7.0 / 3);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_EQ(s.max, 4u);
  ASSERT_EQ(s.concentration.size(), 2u);
  EXPECT_DOUBLE_EQ(s.concentration[0].node_fraction, 2.0 / 3);
  EXPECT_DOUBLE_EQ(s.concentration[0].edge_fraction, 6.0 / 7);
  EXPECT_DOUBLE_EQ(s.concentration[1].node_fraction, 1.0 / 3);
  EXPECT_DOUBLE_EQ(s.concentration[1].edge_fraction, 4.0 / 7);
}

// --- weighted projection ------------------------------------------------------

TEST(WeightedGraphTest, ProjectLeftCountsCoInvestments) {
  BipartiteGraph g = Sample();
  WeightedGraph p = WeightedGraph::ProjectLeft(g);
  EXPECT_EQ(p.num_nodes(), 3u);
  EXPECT_EQ(p.num_edges(), 2u);  // (10,20) and (20,30)
  uint32_t i10 = g.LeftIndexOf(10);
  uint32_t i20 = g.LeftIndexOf(20);
  auto nbrs = p.Neighbors(i10);
  auto ws = p.Weights(i10);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0], i20);
  EXPECT_DOUBLE_EQ(ws[0], 2.0);  // two shared companies
  EXPECT_DOUBLE_EQ(p.WeightedDegree(i20), 3.0);  // 2 with i10, 1 with i30
  EXPECT_DOUBLE_EQ(p.TotalWeight2m(), 6.0);
}

TEST(WeightedGraphTest, ProjectSkipsHugeCompanies) {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t i = 1; i <= 20; ++i) edges.emplace_back(i, 100);  // hub
  edges.emplace_back(1, 200);
  edges.emplace_back(2, 200);
  BipartiteGraph g = BipartiteGraph::FromEdges(edges);
  WeightedGraph capped = WeightedGraph::ProjectLeft(g, /*max_right_degree=*/10);
  EXPECT_EQ(capped.num_edges(), 1u);  // only the small company contributes
  WeightedGraph full = WeightedGraph::ProjectLeft(g);
  EXPECT_EQ(full.num_edges(), 20u * 19 / 2);
}

TEST(WeightedGraphTest, FromEdgesBuildsSymmetricAdjacency) {
  WeightedGraph g = WeightedGraph::FromEdges(3, {{0, 1, 2.5}, {1, 2, 1.0}});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 3.5);
  EXPECT_DOUBLE_EQ(g.TotalWeight2m(), 7.0);
  auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 1u);
  EXPECT_EQ(n0[0], 1u);
}

}  // namespace
}  // namespace cfnet::graph
