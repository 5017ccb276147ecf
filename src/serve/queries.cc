#include "serve/queries.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "util/rng.h"
#include "util/string_util.h"

namespace cfnet::serve {
namespace {

std::string GetParam(const std::map<std::string, std::string>& params,
                     const std::string& key, const std::string& dflt = "") {
  auto it = params.find(key);
  return it == params.end() ? dflt : it->second;
}

int64_t GetIntParam(const std::map<std::string, std::string>& params,
                    const std::string& key, int64_t dflt) {
  auto it = params.find(key);
  if (it == params.end() || it->second.empty()) return dflt;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end == nullptr || *end != '\0') ? dflt : static_cast<int64_t>(v);
}

json::Json InvestorRow(const ServingSnapshot& snap, uint32_t l) {
  const ServingSnapshot::Investor& inv = snap.investors[l];
  json::Json row = json::Json::MakeObject();
  row.Set("id", static_cast<int64_t>(inv.id));
  row.Set("name", inv.name);
  row.Set("community", static_cast<int64_t>(inv.community));
  row.Set("centrality", inv.centrality);
  row.Set("investments", static_cast<int64_t>(snap.graph.OutDegree(l)));
  return row;
}

bool PassesFilters(const ServingSnapshot& snap, uint32_t l, int64_t community,
                   int64_t min_investments) {
  if (community >= 0 &&
      static_cast<int64_t>(snap.investors[l].community) != community) {
    return false;
  }
  return snap.graph.OutDegree(l) >=
         static_cast<size_t>(min_investments < 1 ? 1 : min_investments);
}

QueryOutcome SearchInvestors(const ServingSnapshot& snap,
                             const std::map<std::string, std::string>& params,
                             const QueryLimits& limits) {
  QueryOutcome out;
  const std::string q = ToLower(GetParam(params, "q"));
  const size_t k =
      static_cast<size_t>(std::max<int64_t>(1, GetIntParam(params, "k", 10)));
  const int64_t community = GetIntParam(params, "community", -1);
  const int64_t min_inv = GetIntParam(params, "min_investments", 1);

  std::vector<uint32_t> matches;
  size_t scanned = 0;
  if (q.empty()) {
    // No query: the most central investors passing the filters.
    for (uint32_t l : snap.by_centrality) {
      if (++scanned > limits.max_scan) {
        out.truncated = true;
        break;
      }
      if (PassesFilters(snap, l, community, min_inv)) {
        matches.push_back(l);
        if (matches.size() >= k) break;
      }
    }
  } else {
    // Prefix hits first via the sorted name index...
    auto begin = std::lower_bound(
        snap.by_name.begin(), snap.by_name.end(), q,
        [&](uint32_t l, const std::string& needle) {
          return snap.investors[l].name_lower < needle;
        });
    for (auto it = begin; it != snap.by_name.end(); ++it) {
      const std::string& name = snap.investors[*it].name_lower;
      if (name.compare(0, q.size(), q) != 0) break;
      if (++scanned > limits.max_scan) {
        out.truncated = true;
        break;
      }
      if (PassesFilters(snap, *it, community, min_inv)) {
        matches.push_back(*it);
      }
    }
    // ...then substring hits (full path only; the degraded path stays
    // prefix-only, which is the expensive-scan part of search).
    if (limits.allow_substring && !out.truncated) {
      for (uint32_t l : snap.by_name) {
        if (++scanned > limits.max_scan) {
          out.truncated = true;
          break;
        }
        const std::string& name = snap.investors[l].name_lower;
        const size_t pos = name.find(q);
        if (pos == std::string::npos || pos == 0) continue;  // prefix done
        if (PassesFilters(snap, l, community, min_inv)) matches.push_back(l);
      }
    }
  }

  std::sort(matches.begin(), matches.end(), [&](uint32_t a, uint32_t b) {
    const auto& ia = snap.investors[a];
    const auto& ib = snap.investors[b];
    if (ia.centrality != ib.centrality) return ia.centrality > ib.centrality;
    return ia.id < ib.id;
  });
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  if (matches.size() > k) matches.resize(k);

  json::Json rows = json::Json::MakeArray();
  for (uint32_t l : matches) rows.Append(InvestorRow(snap, l));
  out.body.Set("query", q);
  out.body.Set("results", std::move(rows));
  return out;
}

QueryOutcome InvestorProfile(const ServingSnapshot& snap,
                             const std::map<std::string, std::string>& params) {
  QueryOutcome out;
  const uint64_t id = static_cast<uint64_t>(GetIntParam(params, "id", 0));
  const uint32_t l = snap.graph.LeftIndexOf(id);
  if (l == graph::BipartiteGraph::kInvalidIndex) {
    out.status = 404;
    out.body.Set("error", "unknown investor id");
    return out;
  }
  out.body = InvestorRow(snap, l);
  json::Json portfolio = json::Json::MakeArray();
  size_t listed = 0;
  for (uint32_t r : snap.graph.OutNeighbors(l)) {
    if (++listed > 20) break;
    portfolio.Append(json::Json(snap.company_names[r]));
  }
  out.body.Set("portfolio", std::move(portfolio));
  return out;
}

/// Shared scorer for both recommendation endpoints: expands the seeds'
/// co-investment neighborhoods (optionally a damped second hop) and adds a
/// community-overlap bonus, then returns the top-k scored candidates.
QueryOutcome RecommendFromSeeds(const ServingSnapshot& snap,
                                std::vector<uint32_t> seeds,
                                const std::vector<uint32_t>& exclude_sorted,
                                size_t k, const QueryLimits& limits) {
  QueryOutcome out;
  // Heaviest seeds first so degraded truncation keeps the strongest signal.
  std::sort(seeds.begin(), seeds.end(), [&](uint32_t a, uint32_t b) {
    const double da = snap.projection.WeightedDegree(a);
    const double db = snap.projection.WeightedDegree(b);
    if (da != db) return da > db;
    return a < b;
  });
  if (seeds.size() > limits.max_seeds) {
    seeds.resize(limits.max_seeds);
    out.truncated = true;
  }

  auto excluded = [&](uint32_t v) {
    return std::binary_search(exclude_sorted.begin(), exclude_sorted.end(), v);
  };

  // Seed-community histogram for the overlap bonus.
  std::unordered_map<int, size_t> seed_communities;
  for (uint32_t s : seeds) {
    const int c = snap.investors[s].community;
    if (c >= 0) ++seed_communities[c];
  }

  std::unordered_map<uint32_t, double> score;
  std::vector<std::pair<double, uint32_t>> first_hop;  // for 2-hop expansion
  for (uint32_t s : seeds) {
    auto nbrs = snap.projection.Neighbors(s);
    auto ws = snap.projection.Weights(s);
    const size_t limit = std::min(nbrs.size(), limits.max_neighbors);
    if (limit < nbrs.size()) out.truncated = true;
    for (size_t i = 0; i < limit; ++i) {
      const uint32_t v = nbrs[i];
      if (excluded(v)) continue;
      score[v] += ws[i];
      first_hop.emplace_back(ws[i], v);
    }
  }

  if (limits.second_hop && !first_hop.empty()) {
    // Damped second hop from the strongest first-hop candidates: investors
    // two co-investments away still count, at a quarter of the weight.
    std::sort(first_hop.rbegin(), first_hop.rend());
    constexpr size_t kSecondHopSources = 32;
    constexpr double kDamping = 0.25;
    const size_t sources = std::min(first_hop.size(), kSecondHopSources);
    for (size_t i = 0; i < sources; ++i) {
      const auto [w1, u] = first_hop[i];
      auto nbrs = snap.projection.Neighbors(u);
      auto ws = snap.projection.Weights(u);
      const size_t limit = std::min(nbrs.size(), limits.max_neighbors);
      for (size_t j = 0; j < limit; ++j) {
        const uint32_t v = nbrs[j];
        if (excluded(v)) continue;
        score[v] += kDamping * std::min(w1, ws[j]);
      }
    }
  }

  if (!seeds.empty() && !seed_communities.empty()) {
    constexpr double kCommunityBonus = 1.0;
    for (auto& [v, sc] : score) {
      const int c = snap.investors[v].community;
      auto it = c >= 0 ? seed_communities.find(c) : seed_communities.end();
      if (it != seed_communities.end()) {
        sc += kCommunityBonus * static_cast<double>(it->second) /
              static_cast<double>(seeds.size());
      }
    }
  }

  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(score.size());
  for (const auto& [v, sc] : score) ranked.emplace_back(sc, v);
  std::sort(ranked.begin(), ranked.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return snap.investors[a.second].id < snap.investors[b.second].id;
            });
  if (ranked.size() > k) ranked.resize(k);

  json::Json rows = json::Json::MakeArray();
  for (const auto& [sc, v] : ranked) {
    json::Json row = InvestorRow(snap, v);
    row.Set("score", sc);
    rows.Append(std::move(row));
  }
  out.body.Set("seeds_used", static_cast<int64_t>(seeds.size()));
  out.body.Set("candidates_scored", static_cast<int64_t>(score.size()));
  out.body.Set("recommendations", std::move(rows));
  return out;
}

QueryOutcome RecommendForStartup(
    const ServingSnapshot& snap,
    const std::map<std::string, std::string>& params,
    const QueryLimits& limits) {
  const uint64_t startup_id =
      static_cast<uint64_t>(GetIntParam(params, "startup_id", 0));
  const size_t k =
      static_cast<size_t>(std::max<int64_t>(1, GetIntParam(params, "k", 10)));
  const uint32_t r = snap.graph.RightIndexOf(startup_id);
  if (r == graph::BipartiteGraph::kInvalidIndex) {
    QueryOutcome out;
    out.status = 404;
    out.body.Set("error", "unknown startup id");
    return out;
  }
  auto investors = snap.graph.InNeighbors(r);
  std::vector<uint32_t> seeds(investors.begin(), investors.end());
  std::vector<uint32_t> exclude = seeds;  // already invested: don't recommend
  std::sort(exclude.begin(), exclude.end());
  QueryOutcome out = RecommendFromSeeds(snap, std::move(seeds), exclude, k,
                                        limits);
  out.body.Set("startup", snap.company_names[r]);
  out.body.Set("existing_investors", static_cast<int64_t>(investors.size()));
  return out;
}

QueryOutcome SimilarInvestors(const ServingSnapshot& snap,
                              const std::map<std::string, std::string>& params,
                              const QueryLimits& limits) {
  const uint64_t id =
      static_cast<uint64_t>(GetIntParam(params, "investor_id", 0));
  const size_t k =
      static_cast<size_t>(std::max<int64_t>(1, GetIntParam(params, "k", 10)));
  const uint32_t l = snap.graph.LeftIndexOf(id);
  if (l == graph::BipartiteGraph::kInvalidIndex) {
    QueryOutcome out;
    out.status = 404;
    out.body.Set("error", "unknown investor id");
    return out;
  }
  QueryOutcome out = RecommendFromSeeds(snap, {l}, {l}, k, limits);
  out.body.Set("investor", snap.investors[l].name);
  return out;
}

}  // namespace

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kSearch:
      return "search";
    case QueryClass::kRecommend:
      return "recommend";
    case QueryClass::kFacet:
      return "facet";
  }
  return "unknown";
}

QueryLimits DegradedLimits() {
  QueryLimits limits;
  limits.max_scan = 512;
  limits.allow_substring = false;
  limits.max_seeds = 8;
  limits.max_neighbors = 64;
  limits.second_hop = false;
  return limits;
}

QueryClass ClassifyEndpoint(const std::string& endpoint) {
  if (endpoint == "investors.recommend" || endpoint == "investors.similar") {
    return QueryClass::kRecommend;
  }
  if (endpoint == "facets.communities" || endpoint == "facets.centrality") {
    return QueryClass::kFacet;
  }
  return QueryClass::kSearch;
}

uint64_t FingerprintQuery(const std::string& endpoint,
                          const std::map<std::string, std::string>& params) {
  auto mix_string = [](uint64_t h, const std::string& s) {
    for (char c : s) h = Mix64(h ^ static_cast<uint8_t>(c));
    return Mix64(h ^ s.size());
  };
  uint64_t h = mix_string(0x9e3779b97f4a7c15ull, endpoint);
  for (const auto& [key, value] : params) {  // std::map: sorted, stable
    h = mix_string(h, key);
    h = mix_string(h, value);
  }
  return h;
}

QueryOutcome ExecuteQuery(const ServingSnapshot& snap,
                          const std::string& endpoint,
                          const std::map<std::string, std::string>& params,
                          const QueryLimits& limits) {
  QueryOutcome out;
  if (endpoint == "investors.search") {
    out = SearchInvestors(snap, params, limits);
  } else if (endpoint == "investors.profile") {
    out = InvestorProfile(snap, params);
  } else if (endpoint == "investors.recommend") {
    out = RecommendForStartup(snap, params, limits);
  } else if (endpoint == "investors.similar") {
    out = SimilarInvestors(snap, params, limits);
  } else if (endpoint == "facets.communities") {
    out.body = snap.facet_communities;
  } else if (endpoint == "facets.centrality") {
    out.body = snap.facet_centrality;
  } else {
    out.status = 404;
    out.body.Set("error", "unknown endpoint: " + endpoint);
  }
  // Every body carries the epoch + content fingerprint: a torn epoch view
  // (fields from two snapshots in one response) becomes detectable.
  out.body.Set("epoch", static_cast<int64_t>(snap.epoch));
  out.body.Set("fingerprint", static_cast<int64_t>(snap.content_fingerprint));
  return out;
}

}  // namespace cfnet::serve
