#ifndef CFNET_CORE_EPOCH_MAINTAINER_H_
#define CFNET_CORE_EPOCH_MAINTAINER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "community/louvain.h"
#include "graph/bipartite_graph.h"
#include "graph/delta.h"
#include "graph/weighted_graph.h"

namespace cfnet::core {

/// The serving-ready analytics of one epoch: the merged investor graph,
/// its co-investment projection and its Louvain partition. Exactly what
/// `serve::AssembleServingSnapshot` needs.
struct EpochArtifacts {
  graph::BipartiteGraph graph;
  graph::WeightedGraph projection;
  std::vector<int> community_labels;
  community::CommunitySet communities;
  double modularity = 0;
};

/// How the last epoch was produced.
struct EpochBuildReport {
  bool incremental = false;       // delta path (vs full rebuild)
  bool fell_back_full = false;    // refinement guard rejected the partition
  double build_ms = 0;
  size_t delta_edges = 0;         // effective adds + removes applied
  size_t noop_deltas = 0;
  size_t frontier_size = 0;
  size_t rows_reused = 0;         // bipartite rows spliced through the merge
  size_t rows_rebuilt = 0;
};

/// Maintains epoch artifacts across crawl rounds at delta cost: merges an
/// edge-delta batch into the bipartite CSR, updates the projection only on
/// the changed-neighborhood frontier, and refines the previous Louvain
/// partition. `Advance` output is bit-identical to a full rebuild for the
/// graph and projection; the partition's quality is guarded by the
/// refiner's default modularity-drop tolerance (0.02). A batch whose
/// effective edges exceed a quarter of the merged edge count takes the
/// full-rebuild path outright (its frontier would cover most of the graph
/// anyway).
class EpochMaintainer {
 public:
  struct Config {
    /// Projection popularity cap.
    size_t max_right_degree = graph::kServingMaxRightDegree;
  };

  EpochMaintainer() = default;
  explicit EpochMaintainer(Config config) : config_(std::move(config)) {}

  /// (Re)builds every artifact from a full edge set. The baseline epoch.
  const EpochArtifacts& FullBuild(
      const std::vector<std::pair<uint64_t, uint64_t>>& edges);

  /// Advances one epoch by an edge-delta batch. Requires a prior
  /// FullBuild/Advance. An empty batch is cheap (everything reused).
  const EpochArtifacts& Advance(const std::vector<graph::EdgeDelta>& deltas);

  bool has_epoch() const { return has_epoch_; }
  const EpochArtifacts& artifacts() const { return artifacts_; }
  const EpochBuildReport& last_report() const { return report_; }
  const Config& config() const { return config_; }

 private:
  void RunFullAnalytics();  // projection + Louvain from the graph

  Config config_;
  EpochArtifacts artifacts_;
  EpochBuildReport report_;
  bool has_epoch_ = false;
};

}  // namespace cfnet::core

#endif  // CFNET_CORE_EPOCH_MAINTAINER_H_
