// Incremental graph & community maintenance (DESIGN.md §15): delta-CSR
// merge differential tests against FromEdges, frontier projection updates
// checked bit-identical to ProjectLeft, seeded Louvain refinement with its
// fallback guard, the EpochMaintainer full-vs-delta policy, and the
// platform's segment-consuming AdvanceEpoch over real crawl snapshots.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "community/incremental.h"
#include "community/louvain.h"
#include "core/columnar_records.h"
#include "core/epoch_maintainer.h"
#include "core/investor_graph.h"
#include "core/platform.h"
#include "graph/bipartite_graph.h"
#include "graph/delta.h"
#include "graph/weighted_graph.h"
#include "net/fault_plan.h"
#include "util/rng.h"

namespace cfnet {
namespace {

using graph::BipartiteGraph;
using graph::DeltaMergeResult;
using graph::EdgeDelta;
using graph::WeightedGraph;

using EdgeSet = std::set<std::pair<uint64_t, uint64_t>>;

std::vector<std::pair<uint64_t, uint64_t>> ToEdges(const EdgeSet& set) {
  return {set.begin(), set.end()};
}

void ApplyDeltas(EdgeSet& set, const std::vector<EdgeDelta>& deltas) {
  for (const EdgeDelta& d : deltas) {
    if (d.add) {
      set.insert({d.left_id, d.right_id});
    } else {
      set.erase({d.left_id, d.right_id});
    }
  }
}

/// Full structural equality of two bipartite CSRs, external ids included.
void ExpectSameGraph(const BipartiteGraph& a, const BipartiteGraph& b) {
  ASSERT_EQ(a.num_left(), b.num_left());
  ASSERT_EQ(a.num_right(), b.num_right());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (uint32_t l = 0; l < a.num_left(); ++l) {
    ASSERT_EQ(a.LeftId(l), b.LeftId(l));
    auto na = a.OutNeighbors(l);
    auto nb = b.OutNeighbors(l);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "row mismatch at left index " << l;
  }
  for (uint32_t r = 0; r < a.num_right(); ++r) {
    ASSERT_EQ(a.RightId(r), b.RightId(r));
    auto na = a.InNeighbors(r);
    auto nb = b.InNeighbors(r);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "inverse row mismatch at right index " << r;
  }
}

std::vector<double> Flatten(const WeightedGraph& g) {
  std::vector<double> flat;
  flat.push_back(static_cast<double>(g.num_nodes()));
  for (uint32_t v = 0; v < g.num_nodes(); ++v) {
    auto nbrs = g.Neighbors(v);
    auto ws = g.Weights(v);
    flat.push_back(static_cast<double>(nbrs.size()));
    for (size_t i = 0; i < nbrs.size(); ++i) {
      flat.push_back(static_cast<double>(nbrs[i]));
      flat.push_back(ws[i]);
    }
    flat.push_back(g.WeightedDegree(v));
  }
  flat.push_back(g.TotalWeight2m());
  return flat;
}

// ---------------------------------------------------------------------------
// Delta-CSR merge

TEST(DeltaMergeTest, HandcraftedMergeMatchesFromEdges) {
  // Base: investors 10,20,30 over companies 100..103.
  const std::vector<std::pair<uint64_t, uint64_t>> base = {
      {10, 100}, {10, 101}, {20, 101}, {20, 102}, {30, 102}, {30, 103}};
  BipartiteGraph g = BipartiteGraph::FromEdges(base);

  std::vector<EdgeDelta> deltas;
  deltas.push_back({40, 104, true});   // brand-new left AND right
  deltas.push_back({10, 102, true});   // new edge between existing nodes
  deltas.push_back({30, 103, false});  // removes company 103 entirely
  deltas.push_back({20, 101, true});   // noop: already present
  deltas.push_back({10, 999, false});  // noop: never existed
  deltas.push_back({15, 100, true});   // new left between existing lefts

  DeltaMergeResult merge = graph::MergeBipartiteDelta(g, deltas);

  EdgeSet truth(base.begin(), base.end());
  ApplyDeltas(truth, deltas);
  BipartiteGraph expected = BipartiteGraph::FromEdges(ToEdges(truth));
  ExpectSameGraph(merge.graph, expected);

  EXPECT_EQ(merge.stats.noop_deltas, 2u);
  EXPECT_EQ(merge.stats.edges_added, 3u);
  EXPECT_EQ(merge.stats.edges_removed, 1u);
  // Left 20's row is untouched (its only delta was a noop).
  EXPECT_GE(merge.stats.rows_reused, 1u);

  // The remaps carry old indices to new ones consistently.
  ASSERT_EQ(merge.old_to_new_left.size(), g.num_left());
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    const uint32_t nl = merge.old_to_new_left[l];
    if (nl == BipartiteGraph::kInvalidIndex) continue;
    EXPECT_EQ(merge.graph.LeftId(nl), g.LeftId(l));
  }
  ASSERT_EQ(merge.old_to_new_right.size(), g.num_right());
  for (uint32_t r = 0; r < g.num_right(); ++r) {
    const uint32_t nr = merge.old_to_new_right[r];
    if (nr == BipartiteGraph::kInvalidIndex) {
      EXPECT_EQ(g.RightId(r), 103u);  // the dropped company
      continue;
    }
    EXPECT_EQ(merge.graph.RightId(nr), g.RightId(r));
  }
}

TEST(DeltaMergeTest, BatchIsNormalizedLastOpWins) {
  BipartiteGraph g = BipartiteGraph::FromEdges({{3, 50}, {9, 60}});
  const std::vector<EdgeDelta> deltas = {
      {5, 100, true},
      {1, 100, false},
      {1, 100, true},   // later op on the same pair wins
      {5, 100, true},   // duplicate op collapses
      {3, 50, true},
      {3, 50, false}};  // remove wins for (3, 50)
  DeltaMergeResult merge = graph::MergeBipartiteDelta(g, deltas);
  ExpectSameGraph(merge.graph,
                  BipartiteGraph::FromEdges({{1, 100}, {5, 100}, {9, 60}}));
  // One op per pair survives normalization, and each of the three changes
  // the graph: no op is left over to count as a no-op.
  EXPECT_EQ(merge.stats.edges_added, 2u);
  EXPECT_EQ(merge.stats.edges_removed, 1u);
  EXPECT_EQ(merge.stats.noop_deltas, 0u);
}

TEST(DeltaMergeTest, EmptyBatchReusesEveryRow) {
  const std::vector<std::pair<uint64_t, uint64_t>> base = {
      {1, 100}, {1, 101}, {2, 100}, {3, 102}};
  BipartiteGraph g = BipartiteGraph::FromEdges(base);
  DeltaMergeResult merge = graph::MergeBipartiteDelta(g, {});
  ExpectSameGraph(merge.graph, g);
  EXPECT_EQ(merge.stats.rows_rebuilt, 0u);
  EXPECT_EQ(merge.stats.rows_reused, g.num_left());
  EXPECT_TRUE(merge.touched_rights.empty());
  EXPECT_TRUE(merge.touched_lefts.empty());
}

TEST(DeltaMergeTest, AllNoopBatchIsStructurallyIdentity) {
  const std::vector<std::pair<uint64_t, uint64_t>> base = {
      {1, 100}, {2, 101}, {3, 102}};
  BipartiteGraph g = BipartiteGraph::FromEdges(base);
  std::vector<EdgeDelta> deltas = {{1, 100, true},    // present add
                                   {9, 999, false}};  // absent remove
  DeltaMergeResult merge = graph::MergeBipartiteDelta(g, deltas);
  ExpectSameGraph(merge.graph, g);
  EXPECT_EQ(merge.stats.noop_deltas, 2u);
  EXPECT_EQ(merge.stats.rows_rebuilt, 0u);
}

/// Randomized 50-round chained sweep: the incrementally maintained graph,
/// projection and refined partition are checked against batch ground truth
/// (FromEdges / ProjectLeft / RunLouvain on the accumulated edge set) every
/// round. Covers cap crossings (max_right_degree 8 with Zipfian company
/// popularity), node births/deaths and noop-heavy batches.
TEST(DeltaMergeTest, RandomizedChainedSweepMatchesBatchGroundTruth) {
  constexpr size_t kMaxRightDegree = 8;
  constexpr int kRounds = 50;
  Rng rng(20260809);

  EdgeSet truth;
  for (int i = 0; i < 400; ++i) {
    truth.insert({1 + rng.Next() % 120, 1000 + rng.Next() % 60});
  }
  BipartiteGraph g = BipartiteGraph::FromEdges(ToEdges(truth));
  WeightedGraph proj = WeightedGraph::ProjectLeft(g, kMaxRightDegree);
  community::LouvainResult base = community::RunLouvain(proj);
  std::vector<int> labels = base.labels;
  double modularity = base.modularity;

  for (int round = 0; round < kRounds; ++round) {
    std::vector<EdgeDelta> deltas;
    const size_t batch = 1 + rng.Next() % 25;
    for (size_t i = 0; i < batch; ++i) {
      const uint64_t l = 1 + rng.Next() % 140;   // some ids never seen before
      const uint64_t r = 1000 + rng.Next() % 70;
      deltas.push_back({l, r, rng.Next() % 3 != 0});  // ~1/3 removals
    }

    DeltaMergeResult merge = graph::MergeBipartiteDelta(g, deltas);
    ApplyDeltas(truth, deltas);
    BipartiteGraph expected = BipartiteGraph::FromEdges(ToEdges(truth));
    ExpectSameGraph(merge.graph, expected);

    std::vector<uint32_t> frontier =
        graph::ProjectionFrontier(g, merge, kMaxRightDegree);
    WeightedGraph inc_proj =
        graph::UpdateProjection(proj, g, merge, kMaxRightDegree);
    WeightedGraph full_proj =
        WeightedGraph::ProjectLeft(expected, kMaxRightDegree);
    ASSERT_EQ(Flatten(inc_proj), Flatten(full_proj)) << "round " << round;

    std::vector<int> seeds = community::MapLabels(
        labels, merge.old_to_new_left, merge.graph.num_left());
    community::RefineResult refined = community::RefineLouvain(
        inc_proj, seeds, frontier, modularity, {});
    community::LouvainResult full = community::RunLouvain(full_proj);
    // Documented tolerance (DESIGN.md §15): on adversarial near-random
    // graphs like this one, frontier-restricted refinement (no aggregation
    // levels) may trail a fresh multi-level Louvain by up to 0.1
    // modularity; on the heavy-tailed investor graphs it serves, the gap
    // stays within 0.05 (checked in bench_graph at every delta fraction).
    EXPECT_GE(refined.modularity, full.modularity - 0.10)
        << "round " << round;

    g = std::move(merge.graph);
    proj = std::move(inc_proj);
    labels = std::move(refined.labels);
    modularity = refined.modularity;
  }
}

// ---------------------------------------------------------------------------
// Incremental community refinement

BipartiteGraph TwoClusterGraph() {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t inv = 1; inv <= 6; ++inv) {
    for (uint64_t c = 100; c <= 103; ++c) {
      if ((inv + c) % 3 != 0) edges.emplace_back(inv, c);
    }
  }
  for (uint64_t inv = 11; inv <= 16; ++inv) {
    for (uint64_t c = 200; c <= 203; ++c) {
      if ((inv + c) % 4 != 0) edges.emplace_back(inv, c);
    }
  }
  return BipartiteGraph::FromEdges(edges);
}

TEST(RefineTest, NegativeToleranceForcesFullFallback) {
  BipartiteGraph g = TwoClusterGraph();
  WeightedGraph proj = WeightedGraph::ProjectLeft(g, 0);
  community::LouvainResult full = community::RunLouvain(proj);

  community::IncrementalCommunityConfig config;
  config.modularity_drop_tolerance = -1.0;  // any result "drops too much"
  std::vector<uint32_t> frontier = {0};
  community::RefineResult refined = community::RefineLouvain(
      proj, full.labels, frontier, full.modularity, config);
  EXPECT_TRUE(refined.full_rebuild);
  EXPECT_EQ(refined.labels, full.labels);
  EXPECT_DOUBLE_EQ(refined.modularity, full.modularity);
}

TEST(RefineTest, SeededRefinementKeepsFullQuality) {
  BipartiteGraph g = TwoClusterGraph();
  WeightedGraph proj = WeightedGraph::ProjectLeft(g, 0);
  community::LouvainResult full = community::RunLouvain(proj);

  // Perturb a couple of seeds and hand the refiner those vertices as the
  // frontier: it must recover within the drop tolerance without a rebuild.
  std::vector<int> seeds = full.labels;
  std::vector<uint32_t> frontier;
  for (uint32_t v = 0; v < 2 && v < seeds.size(); ++v) {
    seeds[v] = -1;
    frontier.push_back(v);
  }
  community::RefineResult louvain = community::RefineLouvain(
      proj, seeds, frontier, full.modularity, {});
  EXPECT_GE(louvain.modularity, full.modularity - 0.02);
  EXPECT_GT(louvain.active_nodes, 0u);
}

TEST(RefineTest, MapLabelsRemapsAndMarksNewNodes) {
  std::vector<int> previous = {0, 0, 1, 2};
  std::vector<uint32_t> old_to_new = {1, BipartiteGraph::kInvalidIndex, 0, 3};
  std::vector<int> mapped = community::MapLabels(previous, old_to_new, 5);
  ASSERT_EQ(mapped.size(), 5u);
  EXPECT_EQ(mapped[1], 0);   // old 0
  EXPECT_EQ(mapped[0], 1);   // old 2
  EXPECT_EQ(mapped[3], 2);   // old 3
  EXPECT_EQ(mapped[2], -1);  // brand-new node
  EXPECT_EQ(mapped[4], -1);  // brand-new node
}

// ---------------------------------------------------------------------------
// EpochMaintainer

std::vector<std::pair<uint64_t, uint64_t>> MaintainerEdges() {
  Rng rng(424242);
  EdgeSet set;
  for (int i = 0; i < 600; ++i) {
    set.insert({1 + rng.Next() % 150, 1000 + rng.Next() % 80});
  }
  return ToEdges(set);
}

TEST(EpochMaintainerTest, AdvanceMatchesFullRebuildAndReportsDeltaPath) {
  const auto edges = MaintainerEdges();
  core::EpochMaintainer::Config config;
  config.max_right_degree = 16;
  core::EpochMaintainer maintainer(config);
  maintainer.FullBuild(edges);
  ASSERT_TRUE(maintainer.has_epoch());
  EXPECT_FALSE(maintainer.last_report().incremental);

  std::vector<EdgeDelta> deltas = {{1, 1000, false},
                                   {500, 1001, true},
                                   {2, 2000, true}};
  const core::EpochArtifacts& arts = maintainer.Advance(deltas);
  EXPECT_TRUE(maintainer.last_report().incremental);
  EXPECT_GT(maintainer.last_report().rows_reused, 0u);

  EdgeSet truth(edges.begin(), edges.end());
  ApplyDeltas(truth, deltas);
  core::EpochMaintainer fresh(config);
  const core::EpochArtifacts& full = fresh.FullBuild(ToEdges(truth));
  ExpectSameGraph(arts.graph, full.graph);
  ASSERT_EQ(Flatten(arts.projection), Flatten(full.projection));
  EXPECT_GE(arts.modularity, full.modularity - 0.05);
}

TEST(EpochMaintainerTest, OversizedDeltaTakesFullRebuildPath) {
  core::EpochMaintainer::Config config;
  config.max_right_degree = 16;
  core::EpochMaintainer maintainer(config);
  maintainer.FullBuild(MaintainerEdges());

  // 400 new edges on ~584 are ~40% of the merged graph, well past the
  // quarter that sends a batch down the full-rebuild path.
  std::vector<EdgeDelta> deltas;
  for (uint64_t i = 0; i < 400; ++i) {
    deltas.push_back({300 + i, 3000 + i % 40, true});
  }
  maintainer.Advance(deltas);
  EXPECT_FALSE(maintainer.last_report().incremental);
  EXPECT_GT(maintainer.last_report().delta_edges, 0u);
}

// ---------------------------------------------------------------------------
// Platform AdvanceEpoch: deltas from unconsumed segments of real crawls.

TEST(PlatformEpochTest, AdvanceEpochBuildsThenAdvancesIncrementally) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  options.world.seed = 11;
  options.crawl.num_workers = 2;
  core::ExploratoryPlatform platform(options);

  // Crawl with CrunchBase hard-down: its fetches dead-letter, so the first
  // epoch sees only the AngelList investment edges.
  net::FaultPlan outage;
  outage.error_bursts = {{0, 365ll * 24 * 3600 * 1000000ll, 1.0}};
  platform.web().crunchbase().set_fault_plan(outage);
  ASSERT_TRUE(platform.CollectData().ok());
  ASSERT_GT(platform.crawl_report().dead_lettered_ids, 0);

  auto first = platform.AdvanceEpoch();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->full_rebuild);
  EXPECT_GT(first->records_parsed, 0u);
  ASSERT_NE(platform.epoch_maintainer(), nullptr);
  const size_t baseline_edges =
      platform.epoch_maintainer()->artifacts().graph.num_edges();
  EXPECT_GT(baseline_edges, 0u);

  // Nothing new: the next round is an empty incremental epoch that reads
  // no segment at all.
  const uint64_t reads_before_idle = platform.dfs().GetStats().read_ops;
  auto idle = platform.AdvanceEpoch();
  ASSERT_TRUE(idle.ok()) << idle.status();
  EXPECT_EQ(platform.dfs().GetStats().read_ops, reads_before_idle);
  EXPECT_FALSE(idle->full_rebuild);
  EXPECT_FALSE(idle->watermark_reset);
  EXPECT_EQ(idle->files_scanned, 0u);
  EXPECT_EQ(idle->records_parsed, 0u);
  EXPECT_TRUE(idle->build.incremental);
  EXPECT_EQ(idle->build.delta_edges, 0u);

  // CrunchBase recovers; the replay commits new segments, and the next
  // AdvanceEpoch consumes exactly those as deltas. They add a few percent
  // of the merged edges, so the batch stays on the delta path.
  platform.web().crunchbase().set_fault_plan({});
  ASSERT_TRUE(platform.crawler().ReplayDeadLetters().ok());
  auto replayed = platform.AdvanceEpoch();
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_FALSE(replayed->full_rebuild);
  EXPECT_GT(replayed->records_parsed, 0u);
  EXPECT_TRUE(replayed->build.incremental);
  EXPECT_GT(replayed->build.delta_edges, 0u);

  // The incrementally maintained graph equals the batch pipeline's.
  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok()) << inputs.status();
  BipartiteGraph batch =
      core::BuildInvestorGraph(platform.context(), inputs.value());
  ExpectSameGraph(platform.epoch_maintainer()->artifacts().graph, batch);
}

// A consumed segment that disappears is history rewritten under the epoch:
// here a flipped byte makes the salvage sweep in LoadInputs() quarantine a
// users segment AdvanceEpoch() already turned into edges. The next epoch
// must notice, rebuild from the live segments, and match the batch graph.
TEST(PlatformEpochTest, QuarantinedConsumedSegmentForcesFullRebuild) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  options.world.seed = 11;
  options.crawl.num_workers = 2;
  options.salvage_loads = true;
  core::ExploratoryPlatform platform(options);
  ASSERT_TRUE(platform.CollectData().ok());

  auto first = platform.AdvanceEpoch();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->full_rebuild);
  const size_t consumed_edges =
      platform.epoch_maintainer()->artifacts().graph.num_edges();

  dfs::MiniDfs& d = platform.dfs();
  const std::vector<std::string> users =
      core::SplitSnapshotFiles(d.List(platform.crawler().UserSnapshotDir()))
          .json;
  ASSERT_GT(users.size(), 1u);
  std::string bytes = *d.ReadFile(users.front());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(d.WriteFile(users.front(), bytes).ok());

  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok()) << inputs.status();
  ASSERT_FALSE(d.Exists(users.front())) << "sweep did not quarantine";
  BipartiteGraph batch =
      core::BuildInvestorGraph(platform.context(), inputs.value());
  EXPECT_LT(batch.num_edges(), consumed_edges);

  auto next = platform.AdvanceEpoch();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE(next->watermark_reset);
  EXPECT_TRUE(next->full_rebuild);
  ExpectSameGraph(platform.epoch_maintainer()->artifacts().graph, batch);

  // Once rebuilt, the surviving segments count as consumed again.
  const uint64_t reads = d.GetStats().read_ops;
  auto idle = platform.AdvanceEpoch();
  ASSERT_TRUE(idle.ok()) << idle.status();
  EXPECT_FALSE(idle->watermark_reset);
  EXPECT_FALSE(idle->full_rebuild);
  EXPECT_EQ(d.GetStats().read_ops, reads);
}

}  // namespace
}  // namespace cfnet
