#ifndef CFNET_SERVE_SERVING_SNAPSHOT_H_
#define CFNET_SERVE_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "community/community_set.h"
#include "graph/bipartite_graph.h"
#include "graph/weighted_graph.h"
#include "json/json.h"

namespace cfnet::serve {

/// Everything one query epoch needs, precomputed and immutable: the investor
/// graph, its co-investment projection, each investor's community and
/// centrality, a name index for search, and the facet payloads. Built once
/// per epoch (from a caller's core::EpochMaintainer artifacts, as
/// examples/serve_demo builds them after each AdvanceEpoch) and published
/// into an EpochStore, whose Publish numbers the epoch — queries only ever
/// read it, so they share it unlocked.
struct ServingSnapshot {
  /// Per-investor serving entry, indexed by the graph's dense left index.
  struct Investor {
    uint64_t id = 0;
    std::string name;
    std::string name_lower;  // search key
    int community = -1;      // disjoint (Louvain) community id, -1 isolated
    double centrality = 0;   // PageRank on the co-investment projection
  };

  uint64_t epoch = 0;
  /// Mixed from the graph shape + epoch; every response carries it so a
  /// torn epoch view (fields from two snapshots) is detectable.
  uint64_t content_fingerprint = 0;

  graph::BipartiteGraph graph;       // investor -> company
  graph::WeightedGraph projection;   // co-investment (left nodes)
  std::vector<Investor> investors;   // by dense left index
  std::vector<uint32_t> by_name;     // left indices sorted by name_lower
  std::vector<uint32_t> by_centrality;  // left indices, centrality desc
  std::vector<std::string> company_names;  // by dense right index

  json::Json facet_communities;  // precomputed facets.communities payload
  json::Json facet_centrality;   // precomputed facets.centrality payload
};

/// Name callbacks for BuildServingSnapshot and AssembleServingSnapshot.
struct SnapshotBuildOptions {
  /// Display names; defaults derive "investor-<id>" / "company-<id>".
  /// Assembly calls them serially, but from a pool thread of its own rather
  /// than the caller's thread, while PageRank runs: they must be safe to
  /// call there (a const lookup is).
  std::function<std::string(uint64_t id)> investor_name;
  std::function<std::string(uint64_t id)> company_name;
};

/// Builds a serving snapshot for `epoch` from the merged investor graph,
/// projected with `graph::kServingMaxRightDegree`. Deterministic per (graph,
/// options): Louvain communities, PageRank centrality, sorted name index,
/// facet payloads (the facets list each community's 5 most central
/// members).
std::unique_ptr<const ServingSnapshot> BuildServingSnapshot(
    uint64_t epoch, const graph::BipartiteGraph& g,
    const SnapshotBuildOptions& options = {});

/// Assembles a serving snapshot from analytics computed elsewhere (the
/// incremental path: core::EpochMaintainer maintains graph/projection/
/// partition across epochs at delta cost, and this finishes the serving
/// side — PageRank, investor entries, search/centrality indexes, facet
/// payloads, fingerprint). `projection`/`community_labels`/`communities`
/// must describe exactly `g`; the snapshot copies `g` and `projection`, and
/// keeps of the partition only each investor's community and the facets.
/// BuildServingSnapshot is equivalent to projecting + Louvain + this call.
/// Each call owns a 2-worker pool: one worker copies the graph and the
/// projection and builds the name tables while the caller and the other
/// worker run PageRank; the result is the same bits as a serial assembly.
std::unique_ptr<const ServingSnapshot> AssembleServingSnapshot(
    uint64_t epoch, const graph::BipartiteGraph& g,
    const graph::WeightedGraph& projection,
    const std::vector<int>& community_labels,
    const community::CommunitySet& communities,
    const SnapshotBuildOptions& options = {});

}  // namespace cfnet::serve

#endif  // CFNET_SERVE_SERVING_SNAPSHOT_H_
