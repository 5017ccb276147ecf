#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "community/coda.h"
#include "community/incremental.h"
#include "community/label_propagation.h"
#include "community/louvain.h"
#include "community/model_selection.h"
#include "community/random_baseline.h"
#include "community/sbm.h"
#include "core/epoch_maintainer.h"
#include "fnv_digest.h"
#include "graph/bipartite_graph.h"
#include "graph/delta.h"
#include "graph/weighted_graph.h"
#include "util/rng.h"

namespace cfnet::community {
namespace {

/// Planted bipartite world: `blocks` disjoint groups of investors, each
/// investing densely inside its own pool of companies, plus light noise.
graph::BipartiteGraph PlantedBipartite(int blocks, int investors_per_block,
                                       int companies_per_block,
                                       double in_density, double noise,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  const uint64_t total_companies =
      static_cast<uint64_t>(blocks * companies_per_block);
  for (int b = 0; b < blocks; ++b) {
    for (int i = 0; i < investors_per_block; ++i) {
      uint64_t inv = static_cast<uint64_t>(b * investors_per_block + i + 1);
      for (int c = 0; c < companies_per_block; ++c) {
        uint64_t comp =
            1000 + static_cast<uint64_t>(b * companies_per_block + c);
        if (rng.Bernoulli(in_density)) edges.emplace_back(inv, comp);
      }
      // Noise edges to arbitrary companies.
      for (uint64_t n = 0; n < 2; ++n) {
        if (rng.Bernoulli(noise)) {
          edges.emplace_back(inv, 1000 + rng.NextUint64(total_companies));
        }
      }
    }
  }
  return graph::BipartiteGraph::FromEdges(edges);
}

/// Fraction of planted co-members that the detected assignment also puts
/// together (pairwise recall over sampled pairs).
double PairwiseRecall(const CommunitySet& detected, int blocks,
                      int investors_per_block,
                      const graph::BipartiteGraph& g) {
  // Build node -> set of detected communities.
  std::vector<std::set<size_t>> member_of(g.num_left());
  for (size_t ci = 0; ci < detected.communities.size(); ++ci) {
    for (uint32_t v : detected.communities[ci]) member_of[v].insert(ci);
  }
  size_t together = 0;
  size_t total = 0;
  for (int b = 0; b < blocks; ++b) {
    for (int i = 0; i < investors_per_block; ++i) {
      for (int j = i + 1; j < investors_per_block; ++j) {
        uint64_t id_a = static_cast<uint64_t>(b * investors_per_block + i + 1);
        uint64_t id_b = static_cast<uint64_t>(b * investors_per_block + j + 1);
        uint32_t a = g.LeftIndexOf(id_a);
        uint32_t bb = g.LeftIndexOf(id_b);
        if (a == graph::BipartiteGraph::kInvalidIndex ||
            bb == graph::BipartiteGraph::kInvalidIndex) {
          continue;
        }
        ++total;
        bool shared = false;
        for (size_t ci : member_of[a]) shared |= member_of[bb].count(ci) > 0;
        if (shared) ++together;
      }
    }
  }
  return total == 0 ? 0 : static_cast<double>(together) / static_cast<double>(total);
}

// --- CoDA -----------------------------------------------------------------

TEST(CodaTest, RecoversPlantedBlocks) {
  graph::BipartiteGraph g = PlantedBipartite(4, 12, 10, 0.8, 0.2, 5);
  CodaConfig config;
  config.num_communities = 4;
  config.max_iterations = 60;
  config.seed = 3;
  CodaResult result = Coda(config).Fit(g);
  EXPECT_GE(result.investor_communities.communities.size(), 3u);
  double recall = PairwiseRecall(result.investor_communities, 4, 12, g);
  EXPECT_GT(recall, 0.8);
  // Companies group too.
  EXPECT_GE(result.company_communities.communities.size(), 3u);
}

TEST(CodaTest, LogLikelihoodNonDecreasing) {
  graph::BipartiteGraph g = PlantedBipartite(3, 10, 8, 0.7, 0.3, 7);
  CodaConfig config;
  config.num_communities = 3;
  config.max_iterations = 30;
  CodaResult result = Coda(config).Fit(g);
  ASSERT_GE(result.log_likelihood_trace.size(), 2u);
  for (size_t i = 1; i < result.log_likelihood_trace.size(); ++i) {
    EXPECT_GE(result.log_likelihood_trace[i],
              result.log_likelihood_trace[i - 1] - 1e-6)
        << "iteration " << i;
  }
  EXPECT_EQ(result.final_log_likelihood, result.log_likelihood_trace.back());
}

TEST(CodaTest, ConvergesBeforeMaxIterations) {
  graph::BipartiteGraph g = PlantedBipartite(2, 8, 6, 0.9, 0.1, 9);
  CodaConfig config;
  config.num_communities = 2;
  config.max_iterations = 200;
  config.tolerance = 1e-3;
  CodaResult result = Coda(config).Fit(g);
  EXPECT_LT(result.iterations, 200);
}

TEST(CodaTest, EmptyGraph) {
  graph::BipartiteGraph g = graph::BipartiteGraph::FromEdges({});
  CodaResult result = Coda(CodaConfig{}).Fit(g);
  EXPECT_TRUE(result.investor_communities.communities.empty());
}

TEST(CodaTest, DeterministicPerSeed) {
  graph::BipartiteGraph g = PlantedBipartite(3, 10, 8, 0.8, 0.2, 11);
  CodaConfig config;
  config.num_communities = 3;
  config.max_iterations = 20;
  config.num_threads = 1;  // parallel row order does not matter, but be safe
  CodaResult a = Coda(config).Fit(g);
  CodaResult b = Coda(config).Fit(g);
  EXPECT_EQ(a.final_log_likelihood, b.final_log_likelihood);
  ASSERT_EQ(a.investor_communities.communities.size(),
            b.investor_communities.communities.size());
}

TEST(CodaTest, OverlappingMembershipPossible) {
  // A bridge investor invests in both blocks' companies.
  graph::BipartiteGraph g = PlantedBipartite(2, 10, 8, 0.9, 0.0, 13);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    for (uint32_t r : g.OutNeighbors(l)) {
      edges.emplace_back(g.LeftId(l), g.RightId(r));
    }
  }
  for (int c = 0; c < 8; ++c) {
    edges.emplace_back(500, 1000 + static_cast<uint64_t>(c));      // block 0
    edges.emplace_back(500, 1000 + static_cast<uint64_t>(8 + c));  // block 1
  }
  graph::BipartiteGraph g2 = graph::BipartiteGraph::FromEdges(edges);
  CodaConfig config;
  config.num_communities = 2;
  config.max_iterations = 60;
  CodaResult result = Coda(config).Fit(g2);
  uint32_t bridge = g2.LeftIndexOf(500);
  int memberships = 0;
  for (const auto& comm : result.investor_communities.communities) {
    if (std::binary_search(comm.begin(), comm.end(), bridge)) ++memberships;
  }
  EXPECT_GE(memberships, 2) << "bridge investor should join both communities";
}

// --- Louvain ----------------------------------------------------------------

graph::WeightedGraph TwoCliques() {
  // Nodes 0-4 clique, 5-9 clique, one weak bridge.
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

TEST(LouvainTest, SeparatesTwoCliques) {
  LouvainResult result = RunLouvain(TwoCliques());
  EXPECT_EQ(result.communities.communities.size(), 2u);
  EXPECT_GT(result.modularity, 0.4);
  // All of 0-4 share a label; all of 5-9 share another.
  for (int v = 1; v < 5; ++v) EXPECT_EQ(result.labels[v], result.labels[0]);
  for (int v = 6; v < 10; ++v) EXPECT_EQ(result.labels[v], result.labels[5]);
  EXPECT_NE(result.labels[0], result.labels[5]);
}

TEST(LouvainTest, IsolatedNodesUnassigned) {
  graph::WeightedGraph g =
      graph::WeightedGraph::FromEdges(4, {{0, 1, 1.0}});  // 2,3 isolated
  LouvainResult result = RunLouvain(g);
  EXPECT_EQ(result.labels[2], -1);
  EXPECT_EQ(result.labels[3], -1);
  EXPECT_EQ(result.labels[0], result.labels[1]);
}

TEST(LouvainTest, EmptyGraph) {
  graph::WeightedGraph g;
  LouvainResult result = RunLouvain(g);
  EXPECT_TRUE(result.communities.communities.empty());
}

TEST(ModularityTest, KnownValues) {
  graph::WeightedGraph g = TwoCliques();
  std::vector<int> perfect(10, 0);
  for (int v = 5; v < 10; ++v) perfect[static_cast<size_t>(v)] = 1;
  std::vector<int> single(10, 0);
  EXPECT_GT(Modularity(g, perfect), Modularity(g, single));
  EXPECT_NEAR(Modularity(g, single), 0.0, 1e-9);
}

// --- label propagation ---------------------------------------------------------

TEST(LabelPropagationTest, SeparatesTwoCliques) {
  LabelPropagationResult result = RunLabelPropagation(TwoCliques());
  EXPECT_EQ(result.communities.communities.size(), 2u);
  for (int v = 1; v < 5; ++v) EXPECT_EQ(result.labels[v], result.labels[0]);
  for (int v = 6; v < 10; ++v) EXPECT_EQ(result.labels[v], result.labels[5]);
}

TEST(LabelPropagationTest, TerminatesOnStableLabels) {
  LabelPropagationResult result = RunLabelPropagation(TwoCliques());
  EXPECT_LT(result.iterations, 50);
}

// --- SBM -------------------------------------------------------------------------

TEST(SbmTest, RecoversPlantedBlocks) {
  graph::BipartiteGraph g = PlantedBipartite(3, 15, 12, 0.7, 0.05, 17);
  SbmConfig config;
  config.num_investor_blocks = 3;
  config.num_company_blocks = 3;
  config.seed = 2;
  SbmResult result = RunSbm(g, config);
  double recall = PairwiseRecall(result.investor_communities, 3, 15, g);
  EXPECT_GT(recall, 0.8);
  EXPECT_LT(result.sweeps, config.max_sweeps + 1);
  EXPECT_LT(result.log_posterior, 0);
}

TEST(SbmTest, LabelsCoverAllNodes) {
  graph::BipartiteGraph g = PlantedBipartite(2, 10, 8, 0.8, 0.1, 19);
  SbmResult result = RunSbm(g);
  EXPECT_EQ(result.investor_labels.size(), g.num_left());
  EXPECT_EQ(result.company_labels.size(), g.num_right());
}

// --- random baseline --------------------------------------------------------------

TEST(RandomBaselineTest, PartitionsAllNodes) {
  CommunitySet set = RandomCommunities(1000, 10, 3);
  size_t total = 0;
  std::set<uint32_t> seen;
  for (const auto& c : set.communities) {
    total += c.size();
    for (uint32_t v : c) {
      EXPECT_TRUE(seen.insert(v).second) << "node in two communities";
    }
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(set.communities.size(), 10u);
  EXPECT_NEAR(set.AverageSize(), 100, 40);
}

TEST(CommunitySetTest, FromLabelsAndPrune) {
  CommunitySet set = CommunitySet::FromLabels({0, 1, 0, -1, 2, 2, 2});
  ASSERT_EQ(set.communities.size(), 3u);
  set.PruneSmall(2);
  ASSERT_EQ(set.communities.size(), 2u);  // singleton label-1 removed
}


// --- pinned outputs ------------------------------------------------------------
// Digests of every bit the community kernels produce (labels, modularity
// bits, the refiner's counters, CoDA factors), pinned so that a kernel
// refactor which moves any bit fails here. The pins are portable: the build
// is -std=c++20 with GNU extensions off, so GCC contracts no FMAs, and the
// CoDA SIMD kernels are bit-identical to scalar.

class Digest : public FnvDigest {
 public:
  void Labels(const std::vector<int>& labels) {
    Word(labels.size());
    for (int l : labels) Word(static_cast<uint64_t>(static_cast<int64_t>(l)));
  }
  void Doubles(const std::vector<double>& xs) {
    Word(xs.size());
    for (double x : xs) Bits(x);
  }
  void Communities(const CommunitySet& set) {
    Word(set.num_nodes);
    Word(set.communities.size());
    for (const auto& c : set.communities) {
      Word(c.size());
      for (uint32_t v : c) Word(v);
    }
  }
  void Projection(const graph::WeightedGraph& g) {
    Word(g.num_nodes());
    for (uint32_t v = 0; v < g.num_nodes(); ++v) {
      auto nbrs = g.Neighbors(v);
      auto ws = g.Weights(v);
      Word(nbrs.size());
      for (size_t i = 0; i < nbrs.size(); ++i) {
        Word(nbrs[i]);
        Bits(ws[i]);
      }
      Bits(g.WeightedDegree(v));
    }
    Bits(g.TotalWeight2m());
  }
  void Bipartite(const graph::BipartiteGraph& g) {
    Word(g.num_left());
    Word(g.num_right());
    for (uint32_t l = 0; l < g.num_left(); ++l) {
      Word(g.LeftId(l));
      for (uint32_t r : g.OutNeighbors(l)) Word(r);
    }
    for (uint32_t r = 0; r < g.num_right(); ++r) Word(g.RightId(r));
  }
};

/// Investors over companies of Zipfian popularity, so a projection cap of 8
/// drops the popular companies that a cap of 500 keeps.
std::vector<std::pair<uint64_t, uint64_t>> SeededInvestments(uint64_t seed,
                                                              int edges) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (int i = 0; i < edges; ++i) {
    out.emplace_back(1 + rng.NextUint64(300),
                     1000 + static_cast<uint64_t>(rng.Zipf(150, 1.1)));
  }
  return out;
}

/// A seeded batch of removals of present edges and additions that reach
/// new investors and companies.
std::vector<graph::EdgeDelta> SeededBatch(const graph::BipartiteGraph& g,
                                          Rng& rng, size_t size) {
  std::vector<graph::EdgeDelta> batch;
  for (size_t i = 0; i < size; ++i) {
    if (rng.NextUint64(3) == 0 && g.num_left() > 0) {
      const uint32_t l = static_cast<uint32_t>(rng.NextUint64(g.num_left()));
      auto row = g.OutNeighbors(l);
      if (row.empty()) continue;
      const uint32_t r = row[rng.NextUint64(row.size())];
      batch.push_back({g.LeftId(l), g.RightId(r), /*add=*/false});
    } else {
      batch.push_back({1 + rng.NextUint64(340),
                       1000 + static_cast<uint64_t>(rng.Zipf(170, 1.1)),
                       /*add=*/true});
    }
  }
  return batch;
}

TEST(PinnedOutputsTest, LouvainAndLabelPropagation) {
  struct Pin {
    size_t cap;
    uint64_t louvain;
    uint64_t label_propagation;
  };
  const Pin pins[] = {{8, 0xf0d96d47cf5098f5ull, 0x72db5a2b69a0aa3bull},
                      {500, 0xa8810ac8caa9cf54ull, 0xaceec99747a7b7e0ull}};
  for (const Pin& pin : pins) {
    Digest louvain;
    Digest lp;
    for (uint64_t seed : {3u, 17u}) {
      graph::WeightedGraph g = graph::WeightedGraph::ProjectLeft(
          graph::BipartiteGraph::FromEdges(SeededInvestments(seed, 1500)),
          pin.cap);
      LouvainResult l = RunLouvain(g, {.seed = seed});
      louvain.Labels(l.labels);
      louvain.Bits(l.modularity);
      louvain.Word(static_cast<uint64_t>(l.levels));
      LabelPropagationResult p = RunLabelPropagation(g, {.seed = seed});
      lp.Labels(p.labels);
      lp.Bits(Modularity(g, p.labels));
      lp.Word(static_cast<uint64_t>(p.iterations));
    }
    EXPECT_EQ(louvain.value(), pin.louvain)
        << "cap " << pin.cap << std::hex << " louvain 0x" << louvain.value();
    EXPECT_EQ(lp.value(), pin.label_propagation)
        << "cap " << pin.cap << std::hex << " lp 0x" << lp.value();
  }
}

TEST(PinnedOutputsTest, RefineLouvainChainWithFallbacks) {
  constexpr size_t kCap = 8;
  Rng rng(20261017);
  graph::BipartiteGraph g =
      graph::BipartiteGraph::FromEdges(SeededInvestments(29, 1200));
  graph::WeightedGraph proj = graph::WeightedGraph::ProjectLeft(g, kCap);
  LouvainResult base = RunLouvain(proj);
  std::vector<int> labels = base.labels;
  double modularity = base.modularity;
  // A tight guard, so the chain takes both the refined and the fallback
  // path (14 of the 30 rounds fall back).
  IncrementalCommunityConfig config;
  config.modularity_drop_tolerance = 0.004;

  Digest digest;
  int fallbacks = 0;
  for (int round = 0; round < 30; ++round) {
    graph::DeltaMergeResult merge = graph::MergeBipartiteDelta(
        g, SeededBatch(g, rng, 1 + rng.NextUint64(60)));
    std::vector<uint32_t> frontier =
        graph::ProjectionFrontier(g, merge, kCap);
    graph::WeightedGraph next = graph::UpdateProjection(proj, g, merge, kCap);
    RefineResult refined = RefineLouvain(
        next, MapLabels(labels, merge.old_to_new_left, merge.graph.num_left()),
        frontier, modularity, config);
    digest.Labels(refined.labels);
    digest.Communities(refined.communities);
    digest.Bits(refined.modularity);
    digest.Word(static_cast<uint64_t>(refined.sweeps));
    digest.Word(refined.active_nodes);
    digest.Word(refined.frontier_size);
    digest.Word(refined.full_rebuild);
    fallbacks += refined.full_rebuild;
    g = std::move(merge.graph);
    proj = std::move(next);
    labels = std::move(refined.labels);
    modularity = refined.modularity;
  }
  EXPECT_GE(fallbacks, 1);
  EXPECT_LT(fallbacks, 30);
  EXPECT_EQ(digest.value(), 0xdb63ea167417b3c6ull)
      << std::hex << "0x" << digest.value();
}

TEST(PinnedOutputsTest, EpochMaintainerFullBuildAndAdvance) {
  core::EpochMaintainer::Config config;
  config.max_right_degree = 16;
  core::EpochMaintainer maintainer(config);
  Digest digest;
  auto add = [&](const core::EpochArtifacts& a) {
    digest.Bipartite(a.graph);
    digest.Projection(a.projection);
    digest.Labels(a.community_labels);
    digest.Communities(a.communities);
    digest.Bits(a.modularity);
    const core::EpochBuildReport& r = maintainer.last_report();
    digest.Word(r.incremental);
    digest.Word(r.fell_back_full);
    digest.Word(r.delta_edges);
    digest.Word(r.noop_deltas);
    digest.Word(r.frontier_size);
    digest.Word(r.rows_reused);
    digest.Word(r.rows_rebuilt);
  };
  add(maintainer.FullBuild(SeededInvestments(41, 1500)));
  Rng rng(41);
  // Batch sizes reach past the full-rebuild threshold (a quarter of the
  // merged edges) once: the last.
  for (size_t size : {1u, 12u, 40u, 0u, 90u, 600u}) {
    add(maintainer.Advance(
        SeededBatch(maintainer.artifacts().graph, rng, size)));
  }
  EXPECT_FALSE(maintainer.last_report().incremental);
  EXPECT_EQ(digest.value(), 0xbe526c468ff28446ull)
      << std::hex << "0x" << digest.value();
}

TEST(PinnedOutputsTest, CodaFitFactors) {
  CodaConfig config;
  config.num_communities = 6;
  config.max_iterations = 12;
  config.num_threads = 2;
  config.seed = 5;
  CodaResult result = Coda(config).Fit(
      graph::BipartiteGraph::FromEdges(SeededInvestments(53, 1500)));
  Digest digest;
  digest.Doubles(result.f);
  digest.Doubles(result.h);
  digest.Doubles(result.log_likelihood_trace);
  digest.Bits(result.final_log_likelihood);
  digest.Word(static_cast<uint64_t>(result.iterations));
  digest.Communities(result.investor_communities);
  digest.Communities(result.company_communities);
  EXPECT_EQ(digest.value(), 0x986bc61d137e8310ull)
      << std::hex << "0x" << digest.value();
}

/// The shape of the `analyze` workload's CoDA input: investors with at least
/// 4 investments and power-law out-degrees (960 of them) over companies of
/// Zipfian popularity (4,235), 10,406 edges; 30% of each investor's picks
/// come from one of 40 planted portfolios.
graph::BipartiteGraph AnalyzeShapeGraph() {
  Rng rng(1);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t investor = 1; investor <= 1350; ++investor) {
    const int64_t degree = rng.PowerLaw(3, 250, 2.3);
    const uint64_t group = rng.NextUint64(40);
    for (int64_t k = 0; k < degree; ++k) {
      const uint64_t company =
          rng.Bernoulli(0.3)
              ? group * 60 + rng.NextUint64(60)
              : static_cast<uint64_t>(rng.Zipf(7000, 0.6)) - 1;
      edges.emplace_back(investor, 100000 + company);
    }
  }
  return graph::BipartiteGraph::FromEdges(edges).FilterLeftByMinDegree(4);
}

// The earlier CoDA pins fit C <= 24 for <= 12 iterations, while rows are
// still dense and the line search rejects few candidates. This one runs the
// `analyze` fit (C = 96, 25 iterations), which ends with most of F and H
// exactly zero and most Armijo candidates rejected.
TEST(PinnedOutputsTest, CodaFitAtAnalyzeShape) {
  const graph::BipartiteGraph g = AnalyzeShapeGraph();
  ASSERT_EQ(g.num_left(), 960u);
  ASSERT_EQ(g.num_right(), 4235u);
  ASSERT_EQ(g.num_edges(), 10406u);
  for (int threads : {1, 3}) {
    CodaConfig config;
    config.num_communities = 96;
    config.max_iterations = 25;
    config.num_threads = threads;
    config.seed = 7;
    CodaResult result = Coda(config).Fit(g);
    EXPECT_EQ(result.iterations, 25);
    const double zero_f =
        static_cast<double>(std::count(result.f.begin(), result.f.end(), 0.0)) /
        static_cast<double>(result.f.size());
    EXPECT_GT(zero_f, 0.9) << threads << " threads";
    Digest digest;
    digest.Doubles(result.f);
    digest.Doubles(result.h);
    digest.Doubles(result.log_likelihood_trace);
    digest.Bits(result.final_log_likelihood);
    digest.Word(static_cast<uint64_t>(result.iterations));
    digest.Communities(result.investor_communities);
    digest.Communities(result.company_communities);
    EXPECT_EQ(digest.value(), 0x7d52dea719429b75ull)
        << threads << " threads" << std::hex << " 0x" << digest.value();
  }
}

// The block-skipping kernels give the dense kernels' bits only while every
// F and H entry is finite with no sign bit (simd.h); the projection onto
// [0, 1000] must never yield -0 or NaN.
TEST(CodaTest, FactorsStayFiniteWithoutNegativeZero) {
  const graph::BipartiteGraph g = AnalyzeShapeGraph();
  for (int communities : {96, 6}) {
    for (int threads : {1, 3}) {
      CodaConfig config;
      config.num_communities = communities;
      config.max_iterations = 25;
      config.num_threads = threads;
      config.seed = 7;
      const CodaResult result = Coda(config).Fit(g);
      size_t zeros = 0;
      for (const std::vector<double>* factors : {&result.f, &result.h}) {
        for (double x : *factors) {
          ASSERT_TRUE(std::isfinite(x)) << communities << " communities, "
                                        << threads << " threads";
          ASSERT_FALSE(std::signbit(x)) << communities << " communities, "
                                        << threads << " threads";
          zeros += x == 0.0;
        }
      }
      EXPECT_GT(zeros, 0u) << "no entry was projected onto 0";
    }
  }
}

TEST(PinnedOutputsTest, SbmLabelsAndPosterior) {
  SbmResult result = RunSbm(
      graph::BipartiteGraph::FromEdges(SeededInvestments(61, 1500)),
      {.num_investor_blocks = 6, .num_company_blocks = 5, .seed = 7});
  Digest digest;
  digest.Labels(result.investor_labels);
  digest.Labels(result.company_labels);
  digest.Communities(result.investor_communities);
  digest.Bits(result.log_posterior);
  digest.Word(static_cast<uint64_t>(result.sweeps));
  EXPECT_EQ(digest.value(), 0x90d67c951ab6a6c8ull)
      << std::hex << "0x" << digest.value();
}

TEST(PinnedOutputsTest, CodaModelSelectionScores) {
  ModelSelectionConfig config;
  config.coda.max_iterations = 8;
  config.coda.num_threads = 2;
  config.seed = 3;
  ModelSelectionResult result = SelectCodaCommunities(
      graph::BipartiteGraph::FromEdges(SeededInvestments(67, 1500)),
      {2, 4, 8}, config);
  Digest digest;
  for (const CandidateScore& s : result.scores) {
    digest.Word(static_cast<uint64_t>(s.num_communities));
    digest.Bits(s.heldout_log_likelihood);
    digest.Bits(s.train_log_likelihood);
    digest.Word(s.detected_communities);
  }
  digest.Word(static_cast<uint64_t>(result.best_num_communities));
  EXPECT_EQ(result.scores.size(), 3u);
  EXPECT_EQ(digest.value(), 0xb2f100e7a396ea4eull)
      << std::hex << "0x" << digest.value();
}

}  // namespace
}  // namespace cfnet::community
