#include "serve/serving_snapshot.h"

#include <algorithm>
#include <future>

#include "community/louvain.h"
#include "graph/centrality.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cfnet::serve {
namespace {

/// Members listed per community in the facets payload.
constexpr size_t kFacetTopMembers = 5;

/// Workers of the pool each assembly owns: one copies the artifacts and
/// builds the name tables while the other joins the caller on PageRank's
/// rows. Two, not the host's width, because the serving tier's 2 query
/// workers share the host.
constexpr size_t kAssemblyWorkers = 2;

std::string DefaultName(const char* prefix, uint64_t id) {
  return std::string(prefix) + "-" + std::to_string(id);
}

/// Fills every investor's id, names and community, the name index and the
/// company names: the part of a snapshot that PageRank does not feed.
void BuildNameTables(ServingSnapshot& snap,
                     const std::vector<int>& community_labels,
                     const SnapshotBuildOptions& options) {
  const graph::BipartiteGraph& graph = snap.graph;
  const size_t n = graph.num_left();
  snap.investors.resize(n);
  for (uint32_t l = 0; l < n; ++l) {
    ServingSnapshot::Investor& inv = snap.investors[l];
    inv.id = graph.LeftId(l);
    inv.name = options.investor_name ? options.investor_name(inv.id)
                                     : DefaultName("investor", inv.id);
    inv.name_lower = ToLower(inv.name);
    inv.community = l < community_labels.size() ? community_labels[l] : -1;
  }

  snap.by_name.resize(n);
  for (uint32_t l = 0; l < n; ++l) snap.by_name[l] = l;
  std::sort(snap.by_name.begin(), snap.by_name.end(),
            [&](uint32_t a, uint32_t b) {
              const auto& ia = snap.investors[a];
              const auto& ib = snap.investors[b];
              if (ia.name_lower != ib.name_lower) {
                return ia.name_lower < ib.name_lower;
              }
              return ia.id < ib.id;
            });

  snap.company_names.resize(graph.num_right());
  for (uint32_t r = 0; r < graph.num_right(); ++r) {
    const uint64_t id = graph.RightId(r);
    snap.company_names[r] = options.company_name
                                ? options.company_name(id)
                                : DefaultName("company", id);
  }
}

}  // namespace

std::unique_ptr<const ServingSnapshot> BuildServingSnapshot(
    uint64_t epoch, const graph::BipartiteGraph& g,
    const SnapshotBuildOptions& options) {
  graph::WeightedGraph projection =
      graph::WeightedGraph::ProjectLeft(g, graph::kServingMaxRightDegree);
  community::LouvainResult louvain = community::RunLouvain(projection);
  return AssembleServingSnapshot(epoch, g, projection, louvain.labels,
                                 louvain.communities, options);
}

std::unique_ptr<const ServingSnapshot> AssembleServingSnapshot(
    uint64_t epoch, const graph::BipartiteGraph& g,
    const graph::WeightedGraph& projection,
    const std::vector<int>& community_labels,
    const community::CommunitySet& communities,
    const SnapshotBuildOptions& options) {
  auto snap = std::make_unique<ServingSnapshot>();
  snap->epoch = epoch;

  // The copies and the name tables do not depend on PageRank: one pool
  // worker makes them while the caller and the other worker run PageRank's
  // rows over the caller's projection. The rest reads both.
  ThreadPool pool(kAssemblyWorkers);
  std::future<void> names = pool.Submit([&]() {
    snap->graph = g;
    snap->projection = projection;
    BuildNameTables(*snap, community_labels, options);
  });
  std::vector<double> centrality = graph::PageRank(
      projection, 0.85, 100, 1e-9, ParallelOptions{&pool});
  names.get();
  const graph::BipartiteGraph& graph = snap->graph;
  const size_t n = graph.num_left();

  for (uint32_t l = 0; l < n; ++l) {
    snap->investors[l].centrality = l < centrality.size() ? centrality[l] : 0.0;
  }
  snap->by_centrality = snap->by_name;  // any permutation works as input
  std::sort(snap->by_centrality.begin(), snap->by_centrality.end(),
            [&](uint32_t a, uint32_t b) {
              const auto& ia = snap->investors[a];
              const auto& ib = snap->investors[b];
              if (ia.centrality != ib.centrality) {
                return ia.centrality > ib.centrality;
              }
              return ia.id < ib.id;
            });

  // Facet payloads, precomputed so facet queries are pure JSON assembly.
  {
    json::Json entries = json::Json::MakeArray();
    for (size_t c = 0; c < communities.communities.size(); ++c) {
      const std::vector<uint32_t>& members = communities.communities[c];
      json::Json entry = json::Json::MakeObject();
      entry.Set("community", static_cast<int64_t>(c));
      entry.Set("size", static_cast<int64_t>(members.size()));
      double degree_sum = 0;
      for (uint32_t m : members) {
        degree_sum += static_cast<double>(graph.OutDegree(m));
      }
      entry.Set("mean_investments",
                members.empty()
                    ? 0.0
                    : degree_sum / static_cast<double>(members.size()));
      // Top members by centrality.
      std::vector<uint32_t> top(members.begin(), members.end());
      std::sort(top.begin(), top.end(), [&](uint32_t a, uint32_t b) {
        const auto& ia = snap->investors[a];
        const auto& ib = snap->investors[b];
        if (ia.centrality != ib.centrality) {
          return ia.centrality > ib.centrality;
        }
        return ia.id < ib.id;
      });
      if (top.size() > kFacetTopMembers) top.resize(kFacetTopMembers);
      json::Json names = json::Json::MakeArray();
      for (uint32_t m : top) names.Append(json::Json(snap->investors[m].name));
      entry.Set("top_members", std::move(names));
      entries.Append(std::move(entry));
    }
    json::Json payload = json::Json::MakeObject();
    payload.Set("num_communities",
                static_cast<int64_t>(communities.communities.size()));
    payload.Set("avg_size", communities.AverageSize());
    payload.Set("communities", std::move(entries));
    snap->facet_communities = std::move(payload);
  }
  {
    // Log-spaced investment-degree histogram: bucket k holds investors with
    // out-degree in [2^k, 2^(k+1)).
    std::vector<int64_t> buckets;
    for (uint32_t l = 0; l < n; ++l) {
      size_t d = graph.OutDegree(l);
      size_t b = 0;
      while ((size_t{1} << (b + 1)) <= d) ++b;
      if (buckets.size() <= b) buckets.resize(b + 1, 0);
      ++buckets[b];
    }
    json::Json rows = json::Json::MakeArray();
    for (size_t b = 0; b < buckets.size(); ++b) {
      json::Json row = json::Json::MakeObject();
      row.Set("min_degree", static_cast<int64_t>(size_t{1} << b));
      row.Set("investors", buckets[b]);
      rows.Append(std::move(row));
    }
    json::Json payload = json::Json::MakeObject();
    payload.Set("num_investors", static_cast<int64_t>(n));
    payload.Set("degree_histogram", std::move(rows));
    json::Json central = json::Json::MakeArray();
    for (size_t i = 0; i < snap->by_centrality.size() && i < 10; ++i) {
      const auto& inv = snap->investors[snap->by_centrality[i]];
      json::Json row = json::Json::MakeObject();
      row.Set("name", inv.name);
      row.Set("centrality", inv.centrality);
      central.Append(std::move(row));
    }
    payload.Set("most_central", std::move(central));
    snap->facet_centrality = std::move(payload);
  }

  uint64_t fp = Mix64(epoch);
  fp ^= Mix64(fp ^ graph.num_left());
  fp ^= Mix64(fp ^ graph.num_right());
  fp ^= Mix64(fp ^ graph.num_edges());
  fp ^= Mix64(fp ^ communities.communities.size());
  snap->content_fingerprint = fp;
  return snap;
}

}  // namespace cfnet::serve
