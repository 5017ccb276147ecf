#ifndef CFNET_CORE_INVESTOR_GRAPH_H_
#define CFNET_CORE_INVESTOR_GRAPH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/platform.h"
#include "dataflow/context.h"
#include "graph/bipartite_graph.h"

namespace cfnet::core {

/// §5.1's per-record edge rule: the investment edges one record contributes
/// (a user's AngelList portfolio, a CrunchBase company's round investors),
/// each packed into one key with the investor's low 32 bits above the
/// company's. BuildInvestorGraph and ExploratoryPlatform::AdvanceEpoch both
/// take their edges from here, so the two graphs match bit for bit.
std::vector<uint64_t> InvestmentEdges(const UserRecord& user);
std::vector<uint64_t> InvestmentEdges(const CrunchBaseRecord& round);

/// The (investor, company) ids of an InvestmentEdges key.
inline std::pair<uint64_t, uint64_t> UnpackEdge(uint64_t key) {
  return {key >> 32, key & 0xffffffffull};
}

/// §5.1 investor-graph generation: merges the AngelList-visible investment
/// edges (user profiles) with the CrunchBase round investors into a single
/// deduplicated edge set — "a parallel Spark query that merges AngelList
/// and CrunchBase data" — and builds the investor->company bipartite graph.
/// Investors with no investments never appear (by construction).
graph::BipartiteGraph BuildInvestorGraph(
    std::shared_ptr<dataflow::ExecutionContext> ctx,
    const AnalysisInputs& inputs);

/// How many edges each source contributed (for the merge's sanity stats).
struct EdgeProvenance {
  size_t angellist_edges = 0;
  size_t crunchbase_edges = 0;
  size_t merged_unique_edges = 0;
};

EdgeProvenance ComputeEdgeProvenance(
    std::shared_ptr<dataflow::ExecutionContext> ctx,
    const AnalysisInputs& inputs);

}  // namespace cfnet::core

#endif  // CFNET_CORE_INVESTOR_GRAPH_H_
