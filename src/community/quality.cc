#include "community/quality.h"

#include <algorithm>
#include <unordered_set>

namespace cfnet::community {

double Conductance(const graph::WeightedGraph& g,
                   const std::vector<uint32_t>& members) {
  if (members.empty()) return 1.0;
  std::unordered_set<uint32_t> in_set(members.begin(), members.end());
  double cut = 0;
  double vol = 0;
  for (uint32_t v : members) {
    auto nbrs = g.Neighbors(v);
    auto ws = g.Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      vol += ws[i];
      if (!in_set.count(nbrs[i])) cut += ws[i];
    }
  }
  double complement_vol = g.TotalWeight2m() - vol;
  double denom = std::min(vol, complement_vol);
  if (denom <= 0) return 1.0;
  return cut / denom;
}

double MeanConductance(const graph::WeightedGraph& g, const CommunitySet& set) {
  if (set.communities.empty()) return 1.0;
  double sum = 0;
  size_t counted = 0;
  for (const auto& members : set.communities) {
    if (members.empty()) continue;
    sum += Conductance(g, members);
    ++counted;
  }
  return counted == 0 ? 1.0 : sum / static_cast<double>(counted);
}

}  // namespace cfnet::community
