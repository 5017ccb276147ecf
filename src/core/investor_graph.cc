#include "core/investor_graph.h"

#include <vector>

#include "dataflow/dataset.h"

namespace cfnet::core {
namespace {

using dataflow::Dataset;

/// Packs an (investor, company) edge into one key for Distinct().
uint64_t PackEdge(uint64_t investor, uint64_t company) {
  return (investor << 32) | (company & 0xffffffffull);
}

Dataset<uint64_t> AngelListEdges(std::shared_ptr<dataflow::ExecutionContext> ctx,
                                 const AnalysisInputs& inputs) {
  return Dataset<UserRecord>::FromVector(ctx, inputs.users)
      .FlatMap([](const UserRecord& u) { return InvestmentEdges(u); });
}

Dataset<uint64_t> CrunchBaseEdges(std::shared_ptr<dataflow::ExecutionContext> ctx,
                                  const AnalysisInputs& inputs) {
  return Dataset<CrunchBaseRecord>::FromVector(ctx, inputs.crunchbase)
      .FlatMap([](const CrunchBaseRecord& r) { return InvestmentEdges(r); });
}

}  // namespace

std::vector<uint64_t> InvestmentEdges(const UserRecord& user) {
  std::vector<uint64_t> edges;
  edges.reserve(user.investment_company_ids.size());
  for (uint64_t c : user.investment_company_ids) {
    edges.push_back(PackEdge(user.id, c));
  }
  return edges;
}

std::vector<uint64_t> InvestmentEdges(const CrunchBaseRecord& round) {
  std::vector<uint64_t> edges;
  edges.reserve(round.round_investor_ids.size());
  for (uint64_t inv : round.round_investor_ids) {
    edges.push_back(PackEdge(inv, round.angellist_id));
  }
  return edges;
}

graph::BipartiteGraph BuildInvestorGraph(
    std::shared_ptr<dataflow::ExecutionContext> ctx,
    const AnalysisInputs& inputs) {
  auto merged = AngelListEdges(ctx, inputs)
                    .Union(CrunchBaseEdges(ctx, inputs))
                    .Distinct()
                    .Collect();
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(merged.size());
  for (uint64_t key : merged) edges.push_back(UnpackEdge(key));
  return graph::BipartiteGraph::FromEdges(edges);
}

EdgeProvenance ComputeEdgeProvenance(
    std::shared_ptr<dataflow::ExecutionContext> ctx,
    const AnalysisInputs& inputs) {
  EdgeProvenance p;
  auto al = AngelListEdges(ctx, inputs).Distinct();
  auto cb = CrunchBaseEdges(ctx, inputs).Distinct();
  p.angellist_edges = al.Count();
  p.crunchbase_edges = cb.Count();
  p.merged_unique_edges = al.Union(cb).Distinct().Count();
  return p;
}

}  // namespace cfnet::core
