// Determinism and correctness of the parallel graph-analytics kernels:
// every ParallelOptions-taking kernel must produce bit-identical results
// for any thread count and any morsel size, and the bitset-accelerated
// intersection path must agree exactly with the sorted-merge fallback.

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "community/coda.h"
#include "community/label_propagation.h"
#include "community/louvain.h"
#include "core/community_metrics.h"
#include "graph/bipartite_graph.h"
#include "graph/centrality.h"
#include "graph/weighted_graph.h"
#include "stats/stats.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace cfnet {
namespace {

/// Heavy-tailed synthetic investor->company graph. One investor (id 1) gets
/// a large portfolio so the bitset intersection path (degree >= 64) is
/// exercised alongside the sorted-merge fallback.
graph::BipartiteGraph HeavyTailed(uint64_t seed, size_t investors = 400,
                                  size_t companies = 600) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (size_t i = 0; i < investors; ++i) {
    const size_t degree =
        i == 0 ? 120 : static_cast<size_t>(rng.PowerLaw(1, 40, 2.1));
    for (size_t d = 0; d < degree; ++d) {
      edges.emplace_back(
          i + 1, 100000 + static_cast<uint64_t>(rng.UniformInt(
                     0, static_cast<int64_t>(companies) - 1)));
    }
  }
  return graph::BipartiteGraph::FromEdges(edges);
}

/// Flattens a weighted graph into a comparable (offset, neighbor, weight)
/// triple-set so EXPECT_EQ reports structural differences.
struct FlatGraph {
  std::vector<size_t> degrees;
  std::vector<uint32_t> neighbors;
  std::vector<double> weights;

  bool operator==(const FlatGraph&) const = default;
};

FlatGraph Flatten(const graph::WeightedGraph& g) {
  FlatGraph flat;
  for (uint32_t v = 0; v < g.num_nodes(); ++v) {
    auto nbrs = g.Neighbors(v);
    auto ws = g.Weights(v);
    flat.degrees.push_back(nbrs.size());
    flat.neighbors.insert(flat.neighbors.end(), nbrs.begin(), nbrs.end());
    flat.weights.insert(flat.weights.end(), ws.begin(), ws.end());
  }
  return flat;
}

/// The (threads, morsel_size) grid each kernel is checked over, against the
/// sequential reference (pool = nullptr).
struct GridPoint {
  size_t threads;
  size_t morsel;
};

constexpr GridPoint kGrid[] = {
    {1, 0}, {2, 0}, {4, 0}, {2, 3}, {4, 7}, {4, 1 << 14},
};

TEST(GraphParallelTest, ProjectionIdenticalAcrossThreadsAndMorsels) {
  graph::BipartiteGraph g = HeavyTailed(11);
  FlatGraph reference = Flatten(graph::WeightedGraph::ProjectLeft(g));
  ASSERT_FALSE(reference.neighbors.empty());
  for (const GridPoint& p : kGrid) {
    ThreadPool pool(p.threads);
    ParallelOptions par{&pool, p.morsel};
    EXPECT_EQ(Flatten(graph::WeightedGraph::ProjectLeft(g, 0, par)), reference)
        << "threads=" << p.threads << " morsel=" << p.morsel;
  }
  // The degree cap must survive parallelization too.
  FlatGraph capped = Flatten(graph::WeightedGraph::ProjectLeft(g, 25));
  ThreadPool pool(4);
  ParallelOptions par{&pool, 5};
  EXPECT_EQ(Flatten(graph::WeightedGraph::ProjectLeft(g, 25, par)), capped);
}

TEST(GraphParallelTest, CentralityBitIdenticalAcrossThreadsAndMorsels) {
  graph::BipartiteGraph g = HeavyTailed(12, 150, 200);
  graph::WeightedGraph proj = graph::WeightedGraph::ProjectLeft(g);
  ASSERT_GT(proj.num_nodes(), 0u);

  const std::vector<double> pr = graph::PageRank(proj);
  for (const GridPoint& p : kGrid) {
    ThreadPool pool(p.threads);
    ParallelOptions par{&pool, p.morsel};
    // EXPECT_EQ (not NEAR): PageRank's rows are disjoint writes and its
    // sums fold serially, so it promises bit-identity.
    EXPECT_EQ(graph::PageRank(proj, 0.85, 100, 1e-9, par), pr);
  }
}

TEST(GraphParallelTest, SharedInvestmentSizesIdenticalAcrossSharding) {
  graph::BipartiteGraph g = HeavyTailed(13);
  // Community containing the high-degree investor (dense index of id 1)
  // plus a spread of ordinary ones.
  std::vector<uint32_t> members;
  for (uint32_t l = 0; l < g.num_left(); l += 3) members.push_back(l);
  ASSERT_GE(members.size(), 64u);

  const std::vector<double> all =
      core::SharedInvestmentSizes(g, members);  // all-pairs path
  ASSERT_EQ(all.size(), members.size() * (members.size() - 1) / 2);
  const std::vector<double> sampled =
      core::SharedInvestmentSizes(g, members, 500, 3);  // sampled path
  ASSERT_EQ(sampled.size(), 500u);
  for (const GridPoint& p : kGrid) {
    ThreadPool pool(p.threads);
    ParallelOptions par{&pool, p.morsel};
    EXPECT_EQ(core::SharedInvestmentSizes(g, members, 2000000, 1, par), all)
        << "threads=" << p.threads << " morsel=" << p.morsel;
    EXPECT_EQ(core::SharedInvestmentSizes(g, members, 500, 3, par), sampled);
  }
}

TEST(GraphParallelTest, BitsetIntersectionMatchesBruteForce) {
  graph::BipartiteGraph g = HeavyTailed(14);
  std::vector<uint32_t> members;
  for (uint32_t l = 0; l < std::min<size_t>(g.num_left(), 50); ++l) {
    members.push_back(l);
  }
  ASSERT_GE(g.OutDegree(members[0]), 64u);  // row 0 takes the bitset path
  const std::vector<double> sizes = core::SharedInvestmentSizes(g, members);
  size_t pos = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j, ++pos) {
      auto a = g.OutNeighbors(members[i]);
      auto b = g.OutNeighbors(members[j]);
      std::vector<uint32_t> shared;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(shared));
      ASSERT_EQ(sizes[pos], static_cast<double>(shared.size()))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(GraphParallelTest, MetricsMatchBruteForceOnHeavyMembers) {
  // A realistic heavy-tailed graph (power-law portfolios over Zipfian
  // companies) and its heaviest investors: high-high pairs take the
  // AND+popcount path, mixed pairs probe a bitset row from either side, and
  // low-low pairs fall back to the sorted merge.
  Rng rng(20260806);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t i = 0; i < 3000; ++i) {
    const int64_t degree = rng.PowerLaw(1, 400, 2.2);
    for (int64_t d = 0; d < degree; ++d) {
      edges.emplace_back(i + 1, 1000000 + static_cast<uint64_t>(
                                              rng.Zipf(4000, 0.75)));
    }
  }
  // Two heavy investors also hold a company above every Zipf draw, so it
  // takes the highest right index and the AND+popcount path must count the
  // last bitset word.
  {
    const graph::BipartiteGraph drawn = graph::BipartiteGraph::FromEdges(edges);
    size_t added = 0;
    for (uint32_t l = 0; l < drawn.num_left() && added < 2; ++l) {
      if (drawn.OutDegree(l) < 64) continue;
      edges.emplace_back(drawn.LeftId(l), 1000000 + 4001);
      ++added;
    }
    ASSERT_EQ(added, 2u);
  }
  const graph::BipartiteGraph g = graph::BipartiteGraph::FromEdges(edges);

  std::vector<std::pair<size_t, uint32_t>> by_degree;
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    if (g.OutDegree(l) >= 4) by_degree.emplace_back(g.OutDegree(l), l);
  }
  std::sort(by_degree.rbegin(), by_degree.rend());
  ASSERT_GE(by_degree.size(), 300u);
  by_degree.resize(300);
  std::vector<uint32_t> members;
  for (const auto& [degree, l] : by_degree) members.push_back(l);
  std::sort(members.begin(), members.end());
  auto heavy = [&g](uint32_t l) { return g.OutDegree(l) >= 64; };
  ASSERT_GE(std::count_if(members.begin(), members.end(), heavy), 10);

  // The added company is the highest right index, so the two heavy members
  // holding it share a company in the last bitset word.
  const uint32_t last = static_cast<uint32_t>(g.num_right() - 1);
  ASSERT_EQ(g.RightId(last), 1000000u + 4001);
  ASSERT_EQ(std::count_if(members.begin(), members.end(),
                          [&](uint32_t l) {
                            auto n = g.OutNeighbors(l);
                            return heavy(l) &&
                                   std::binary_search(n.begin(), n.end(), last);
                          }),
            2);

  const std::vector<double> sizes = core::SharedInvestmentSizes(g, members);
  ASSERT_EQ(sizes.size(), members.size() * (members.size() - 1) / 2);
  size_t pos = 0;
  size_t heavy_first = 0;
  size_t heavy_second = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j, ++pos) {
      heavy_first += heavy(members[i]) && !heavy(members[j]) ? 1 : 0;
      heavy_second += !heavy(members[i]) && heavy(members[j]) ? 1 : 0;
      ASSERT_EQ(sizes[pos], static_cast<double>(g.SharedOutNeighbors(
                                members[i], members[j])))
          << "pair (" << i << ", " << j << ")";
    }
  }
  EXPECT_GT(heavy_first, 0u);   // the row's own bitset is probed
  EXPECT_GT(heavy_second, 0u);  // the partner's bitset is probed

  // 40-investor communities over every investor; the reference counts each
  // community's companies in a std::map and folds the percents in
  // community order.
  community::CommunitySet set;
  set.num_nodes = g.num_left();
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    if (set.communities.empty() || set.communities.back().size() == 40) {
      set.communities.emplace_back();
    }
    set.communities.back().push_back(l);
  }
  double sum = 0;
  for (const auto& community : set.communities) {
    std::map<uint32_t, size_t> investors_of;
    for (uint32_t l : community) {
      for (uint32_t c : g.OutNeighbors(l)) ++investors_of[c];
    }
    if (investors_of.empty()) continue;
    size_t shared = 0;
    for (const auto& [c, count] : investors_of) shared += count >= 2 ? 1 : 0;
    sum += 100.0 * static_cast<double>(shared) /
           static_cast<double>(investors_of.size());
  }
  EXPECT_EQ(core::MeanSharedInvestorCompanyPercent(g, set, 2),
            sum / static_cast<double>(set.communities.size()));
}

TEST(GraphParallelTest, GlobalSampleAndPercentIdenticalAcrossSharding) {
  graph::BipartiteGraph g = HeavyTailed(15);
  const std::vector<double> sample =
      core::GlobalSharedInvestmentSample(g, 2000, 5);
  ASSERT_EQ(sample.size(), 2000u);

  community::CommunitySet set;
  set.num_nodes = g.num_left();
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    if (set.communities.empty() || set.communities.back().size() == 16) {
      set.communities.emplace_back();
    }
    set.communities.back().push_back(l);
  }
  const double percent = core::MeanSharedInvestorCompanyPercent(g, set);
  ASSERT_GT(percent, 0.0);
  for (const GridPoint& p : kGrid) {
    ThreadPool pool(p.threads);
    ParallelOptions par{&pool, p.morsel};
    EXPECT_EQ(core::GlobalSharedInvestmentSample(g, 2000, 5, par), sample);
    EXPECT_EQ(core::MeanSharedInvestorCompanyPercent(g, set, 2, par), percent);
  }
}

TEST(GraphParallelTest, CommunityLabelsIndependentOfProjectionThreads) {
  // Louvain and label propagation are sequential kernels, but they consume
  // the parallel projection: labels must not depend on how it was built.
  graph::BipartiteGraph g = HeavyTailed(16);
  graph::WeightedGraph ref = graph::WeightedGraph::ProjectLeft(g);
  community::LouvainResult louvain_ref = community::RunLouvain(ref);
  community::LabelPropagationResult lp_ref = community::RunLabelPropagation(ref);
  ASSERT_FALSE(louvain_ref.labels.empty());
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    ParallelOptions par{&pool, 9};
    graph::WeightedGraph proj = graph::WeightedGraph::ProjectLeft(g, 0, par);
    EXPECT_EQ(community::RunLouvain(proj).labels, louvain_ref.labels);
    EXPECT_EQ(community::RunLabelPropagation(proj).labels, lp_ref.labels);
  }
}

// The virtual-lane contract promises BYTE-identical outputs with the vector
// backends active vs the scalar fallback, at any thread/morsel count. These
// run the full pipelines both ways; EXPECT_EQ on doubles is deliberate.

TEST(GraphParallelTest, CodaFitBitIdenticalSimdOnOff) {
  graph::BipartiteGraph g = HeavyTailed(21, 120, 150);
  community::CodaConfig config;
  config.num_communities = 24;
  config.max_iterations = 4;
  config.seed = 7;
  for (int threads : {1, 3}) {
    config.num_threads = threads;
    community::Coda coda(config);
    community::CodaResult on = coda.Fit(g);
    community::CodaResult off;
    {
      simd::ScopedForceScalar force;
      off = coda.Fit(g);
    }
    EXPECT_EQ(on.f, off.f) << "threads=" << threads;
    EXPECT_EQ(on.h, off.h) << "threads=" << threads;
    EXPECT_EQ(on.log_likelihood_trace, off.log_likelihood_trace);
    EXPECT_EQ(on.final_log_likelihood, off.final_log_likelihood);
    EXPECT_EQ(on.threshold_used, off.threshold_used);
  }
}

TEST(GraphParallelTest, MetricsAndStatsBitIdenticalSimdOnOff) {
  graph::BipartiteGraph g = HeavyTailed(22);
  std::vector<uint32_t> members;
  for (uint32_t l = 0; l < g.num_left(); l += 3) members.push_back(l);

  std::vector<double> x;
  Rng rng(23);
  for (size_t i = 0; i < 4097; ++i) x.push_back(rng.Uniform(-2.0, 2.0));

  ThreadPool pool(3);
  ParallelOptions par{&pool, 7};
  auto weighted_degrees = [](const graph::WeightedGraph& wg) {
    std::vector<double> d;
    for (uint32_t v = 0; v < wg.num_nodes(); ++v) {
      d.push_back(wg.WeightedDegree(v));
    }
    return d;
  };
  const std::vector<double> sizes_on =
      core::SharedInvestmentSizes(g, members, 2000000, 1, par);
  const std::vector<double> degrees_on =
      weighted_degrees(graph::WeightedGraph::ProjectLeft(g));
  const stats::Summary summary_on = stats::Summarize(x);

  simd::ScopedForceScalar force;
  EXPECT_EQ(core::SharedInvestmentSizes(g, members, 2000000, 1, par),
            sizes_on);
  EXPECT_EQ(weighted_degrees(graph::WeightedGraph::ProjectLeft(g)),
            degrees_on);
  const stats::Summary summary_off = stats::Summarize(x);
  EXPECT_EQ(summary_on.mean, summary_off.mean);
  EXPECT_EQ(summary_on.stddev, summary_off.stddev);
}

TEST(GraphParallelTest, FilterLeftDirectCsrMatchesRebuild) {
  graph::BipartiteGraph g = HeavyTailed(17);
  for (size_t min_degree : {2u, 4u, 9u}) {
    graph::BipartiteGraph filtered = g.FilterLeftByMinDegree(min_degree);
    // Reference: re-running FromEdges over the kept edges must give the
    // same graph the direct CSR construction produced.
    std::vector<std::pair<uint64_t, uint64_t>> kept;
    for (uint32_t l = 0; l < g.num_left(); ++l) {
      if (g.OutDegree(l) < min_degree) continue;
      for (uint32_t r : g.OutNeighbors(l)) {
        kept.emplace_back(g.LeftId(l), g.RightId(r));
      }
    }
    graph::BipartiteGraph reference = graph::BipartiteGraph::FromEdges(kept);
    ASSERT_EQ(filtered.num_left(), reference.num_left());
    ASSERT_EQ(filtered.num_right(), reference.num_right());
    ASSERT_EQ(filtered.num_edges(), reference.num_edges());
    for (uint32_t l = 0; l < filtered.num_left(); ++l) {
      ASSERT_EQ(filtered.LeftId(l), reference.LeftId(l));
      auto fa = filtered.OutNeighbors(l);
      auto fb = reference.OutNeighbors(l);
      ASSERT_EQ(std::vector<uint32_t>(fa.begin(), fa.end()),
                std::vector<uint32_t>(fb.begin(), fb.end()));
    }
    for (uint32_t r = 0; r < filtered.num_right(); ++r) {
      ASSERT_EQ(filtered.RightId(r), reference.RightId(r));
      auto ia = filtered.InNeighbors(r);
      auto ib = reference.InNeighbors(r);
      ASSERT_EQ(std::vector<uint32_t>(ia.begin(), ia.end()),
                std::vector<uint32_t>(ib.begin(), ib.end()));
    }
    // Index maps must resolve the remapped ids.
    for (uint32_t l = 0; l < filtered.num_left(); ++l) {
      EXPECT_EQ(filtered.LeftIndexOf(filtered.LeftId(l)), l);
    }
  }
}

}  // namespace
}  // namespace cfnet
