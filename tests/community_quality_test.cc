#include <gtest/gtest.h>

#include "community/compare.h"
#include "community/model_selection.h"
#include "community/quality.h"
#include "graph/bipartite_graph.h"
#include "graph/weighted_graph.h"
#include "util/rng.h"

namespace cfnet::community {
namespace {

/// Two 5-cliques bridged by one weak edge (same as community_test).
graph::WeightedGraph TwoCliques() {
  std::vector<std::tuple<uint32_t, uint32_t, double>> edges;
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = i + 1; j < 5; ++j) {
      edges.emplace_back(i, j, 1.0);
      edges.emplace_back(i + 5, j + 5, 1.0);
    }
  }
  edges.emplace_back(4, 5, 0.1);
  return graph::WeightedGraph::FromEdges(10, edges);
}

TEST(ConductanceTest, CliqueIsWellSeparated) {
  graph::WeightedGraph g = TwoCliques();
  // Clique volume: 5 nodes x degree 4 (node 4 has +0.1) = 20.1; cut 0.1.
  EXPECT_NEAR(Conductance(g, {0, 1, 2, 3, 4}), 0.1 / 20.1, 1e-12);
  // A split community leaks heavily.
  EXPECT_GT(Conductance(g, {0, 1, 7}), 0.5);
}

TEST(ConductanceTest, DegenerateSets) {
  graph::WeightedGraph g = TwoCliques();
  EXPECT_DOUBLE_EQ(Conductance(g, {}), 1.0);
  // The whole graph: complement volume 0 -> defined as 1.
  std::vector<uint32_t> all;
  for (uint32_t v = 0; v < 10; ++v) all.push_back(v);
  EXPECT_DOUBLE_EQ(Conductance(g, all), 1.0);
}

TEST(ConductanceTest, MeanOverSet) {
  graph::WeightedGraph g = TwoCliques();
  CommunitySet set;
  set.num_nodes = 10;
  set.communities = {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}};
  EXPECT_LT(MeanConductance(g, set), 0.01);
  CommunitySet bad;
  bad.num_nodes = 10;
  bad.communities = {{0, 5}, {1, 6}};
  EXPECT_GT(MeanConductance(g, bad), 0.9);
}

/// Planted bipartite blocks for the model-selection sweep.
graph::BipartiteGraph PlantedBlocks(int blocks, int investors_per_block,
                                    int companies_per_block, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (int b = 0; b < blocks; ++b) {
    for (int i = 0; i < investors_per_block; ++i) {
      uint64_t inv = static_cast<uint64_t>(b * investors_per_block + i + 1);
      for (int c = 0; c < companies_per_block; ++c) {
        if (rng.Bernoulli(0.75)) {
          edges.emplace_back(
              inv, 1000 + static_cast<uint64_t>(b * companies_per_block + c));
        }
      }
    }
  }
  return graph::BipartiteGraph::FromEdges(edges);
}

TEST(ModelSelectionTest, PrefersAdequateCapacity) {
  graph::BipartiteGraph g = PlantedBlocks(5, 14, 10, 31);
  ModelSelectionConfig config;
  config.coda.max_iterations = 30;
  config.seed = 5;
  ModelSelectionResult result =
      SelectCodaCommunities(g, {1, 5, 12}, config);
  ASSERT_EQ(result.scores.size(), 3u);
  // C=1 cannot represent 5 blocks: it must score worst.
  double score_c1 = result.scores[0].heldout_log_likelihood;
  EXPECT_GT(result.scores[1].heldout_log_likelihood, score_c1);
  EXPECT_NE(result.best_num_communities, 1);
}

TEST(ModelSelectionTest, ScoresAreFiniteAndOrdered) {
  graph::BipartiteGraph g = PlantedBlocks(3, 12, 8, 37);
  ModelSelectionConfig config;
  config.coda.max_iterations = 20;
  ModelSelectionResult result = SelectCodaCommunities(g, {2, 3, 6}, config);
  for (const auto& s : result.scores) {
    EXPECT_LT(s.heldout_log_likelihood, 0);
    EXPECT_GT(s.heldout_log_likelihood, -30);
  }
  // Best is the argmax of the reported scores.
  double best = -1e300;
  int best_c = 0;
  for (const auto& s : result.scores) {
    if (s.heldout_log_likelihood > best) {
      best = s.heldout_log_likelihood;
      best_c = s.num_communities;
    }
  }
  EXPECT_EQ(result.best_num_communities, best_c);
}

TEST(ModelSelectionTest, TinyGraphHandled) {
  graph::BipartiteGraph g =
      graph::BipartiteGraph::FromEdges({{1, 10}, {2, 10}});
  ModelSelectionResult result = SelectCodaCommunities(g, {2, 4});
  EXPECT_TRUE(result.scores.empty());  // too few edges to split
}

}  // namespace
}  // namespace cfnet::community

namespace cfnet::community {
namespace {

// --- cover comparison (planted-recovery scoring) -----------------------------

CommunitySet MakeCover(size_t n, std::vector<std::vector<uint32_t>> comms) {
  CommunitySet set;
  set.num_nodes = n;
  set.communities = std::move(comms);
  return set;
}

TEST(ComparePairwiseTest, IdenticalCoversScorePerfectly) {
  CommunitySet a = MakeCover(6, {{0, 1, 2}, {3, 4, 5}});
  PairwiseAgreement agreement = ComparePairwise(a, a);
  EXPECT_DOUBLE_EQ(agreement.precision, 1.0);
  EXPECT_DOUBLE_EQ(agreement.recall, 1.0);
  EXPECT_DOUBLE_EQ(agreement.f1, 1.0);
  EXPECT_EQ(agreement.truth_pairs, 6u);  // 2 * C(3,2)
}

TEST(ComparePairwiseTest, MergedCoverHasPerfectRecallLowPrecision) {
  CommunitySet truth = MakeCover(6, {{0, 1, 2}, {3, 4, 5}});
  CommunitySet merged = MakeCover(6, {{0, 1, 2, 3, 4, 5}});
  PairwiseAgreement agreement = ComparePairwise(merged, truth);
  EXPECT_DOUBLE_EQ(agreement.recall, 1.0);       // all truth pairs together
  EXPECT_NEAR(agreement.precision, 6.0 / 15, 1e-12);
  EXPECT_GT(agreement.f1, 0.5);
}

TEST(ComparePairwiseTest, SplitCoverHasPerfectPrecisionLowRecall) {
  CommunitySet truth = MakeCover(6, {{0, 1, 2, 3, 4, 5}});
  CommunitySet split = MakeCover(6, {{0, 1}, {2, 3}, {4, 5}});
  PairwiseAgreement agreement = ComparePairwise(split, truth);
  EXPECT_DOUBLE_EQ(agreement.precision, 1.0);
  EXPECT_NEAR(agreement.recall, 3.0 / 15, 1e-12);
}

TEST(ComparePairwiseTest, OverlappingPairsDeduplicated) {
  // Node 1 sits in both communities; pair (0,1) appears once.
  CommunitySet a = MakeCover(3, {{0, 1}, {1, 2}});
  PairwiseAgreement self = ComparePairwise(a, a);
  EXPECT_EQ(self.detected_pairs, 2u);
  EXPECT_DOUBLE_EQ(self.f1, 1.0);
}

TEST(ComparePairwiseTest, DisjointCoversScoreZero) {
  CommunitySet truth = MakeCover(8, {{0, 1}, {2, 3}});
  CommunitySet detected = MakeCover(8, {{4, 5}, {6, 7}});
  PairwiseAgreement agreement = ComparePairwise(detected, truth);
  EXPECT_DOUBLE_EQ(agreement.f1, 0.0);
}

TEST(ComparePairwiseTest, SampledModeApproximatesExact) {
  // Large identical covers: sampling must still report ~1.0 agreement.
  std::vector<uint32_t> big;
  for (uint32_t v = 0; v < 4000; ++v) big.push_back(v);
  CommunitySet a = MakeCover(4000, {big});
  PairwiseAgreement agreement =
      ComparePairwise(a, a, /*max_pairs_per_side=*/5000, /*seed=*/3);
  EXPECT_DOUBLE_EQ(agreement.precision, 1.0);
  EXPECT_DOUBLE_EQ(agreement.recall, 1.0);
}

}  // namespace
}  // namespace cfnet::community
