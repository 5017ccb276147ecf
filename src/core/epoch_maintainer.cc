#include "core/epoch_maintainer.h"

#include <algorithm>
#include <chrono>

#include "community/incremental.h"
#include "util/logging.h"

namespace cfnet::core {
namespace {

/// Advance() takes the full-rebuild path when a batch's effective edges
/// exceed this fraction of the merged edge count.
constexpr double kFullRebuildDeltaFraction = 0.25;

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void EpochMaintainer::RunFullAnalytics() {
  artifacts_.projection = graph::WeightedGraph::ProjectLeft(
      artifacts_.graph, config_.max_right_degree);
  community::LouvainResult louvain =
      community::RunLouvain(artifacts_.projection);
  artifacts_.community_labels = std::move(louvain.labels);
  artifacts_.communities = std::move(louvain.communities);
  artifacts_.modularity = louvain.modularity;
}

const EpochArtifacts& EpochMaintainer::FullBuild(
    const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  const auto t0 = std::chrono::steady_clock::now();
  report_ = EpochBuildReport{};
  artifacts_.graph = graph::BipartiteGraph::FromEdges(edges);
  RunFullAnalytics();
  report_.build_ms = MsSince(t0);
  has_epoch_ = true;
  return artifacts_;
}

const EpochArtifacts& EpochMaintainer::Advance(
    const std::vector<graph::EdgeDelta>& deltas) {
  CFNET_CHECK(has_epoch_) << "Advance() requires a FullBuild() baseline";
  const auto t0 = std::chrono::steady_clock::now();
  EpochBuildReport report;

  graph::DeltaMergeResult merge =
      graph::MergeBipartiteDelta(artifacts_.graph, deltas);
  report.delta_edges = merge.stats.edges_added + merge.stats.edges_removed;
  report.noop_deltas = merge.stats.noop_deltas;
  report.rows_reused = merge.stats.rows_reused;
  report.rows_rebuilt = merge.stats.rows_rebuilt;

  const size_t merged_edges = std::max<size_t>(1, merge.graph.num_edges());
  const bool too_big =
      static_cast<double>(report.delta_edges) >
      kFullRebuildDeltaFraction * static_cast<double>(merged_edges);

  if (too_big) {
    artifacts_.graph = std::move(merge.graph);
    RunFullAnalytics();
    report.incremental = false;
  } else {
    report.incremental = true;
    std::vector<uint32_t> frontier = graph::ProjectionFrontier(
        artifacts_.graph, merge, config_.max_right_degree);
    report.frontier_size = frontier.size();

    graph::WeightedGraph projection = graph::UpdateProjection(
        artifacts_.projection, artifacts_.graph, merge,
        config_.max_right_degree);
    std::vector<int> seeds =
        community::MapLabels(artifacts_.community_labels,
                             merge.old_to_new_left, merge.graph.num_left());
    community::RefineResult refined = community::RefineLouvain(
        projection, seeds, frontier, artifacts_.modularity);
    report.fell_back_full = refined.full_rebuild;

    artifacts_.graph = std::move(merge.graph);
    artifacts_.projection = std::move(projection);
    artifacts_.community_labels = std::move(refined.labels);
    artifacts_.communities = std::move(refined.communities);
    artifacts_.modularity = refined.modularity;
  }

  report.build_ms = MsSince(t0);
  report_ = report;
  return artifacts_;
}

}  // namespace cfnet::core
