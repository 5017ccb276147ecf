#include "graph/centrality.h"

#include <algorithm>
#include <cmath>

namespace cfnet::graph {

std::vector<int> CoreNumbers(const WeightedGraph& g) {
  const size_t n = g.num_nodes();
  std::vector<int> degree(n);
  int max_degree = 0;
  for (uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<int>(g.Neighbors(v).size());
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort by degree (Batagelj-Zaversnik peeling).
  std::vector<std::vector<uint32_t>> buckets(static_cast<size_t>(max_degree) + 1);
  for (uint32_t v = 0; v < n; ++v) {
    buckets[static_cast<size_t>(degree[v])].push_back(v);
  }
  std::vector<int> core(n, 0);
  std::vector<char> removed(n, 0);
  int current = 0;
  for (int d = 0; d <= max_degree; ++d) {
    // Buckets can gain nodes below the current level as degrees drop.
    for (size_t i = 0; i < buckets[static_cast<size_t>(d)].size(); ++i) {
      uint32_t v = buckets[static_cast<size_t>(d)][i];
      if (removed[v] || degree[v] > d) continue;
      current = std::max(current, d);
      core[v] = current;
      removed[v] = 1;
      for (uint32_t u : g.Neighbors(v)) {
        if (!removed[u] && degree[u] > d) {
          --degree[u];
          if (degree[u] <= d) {
            buckets[static_cast<size_t>(d)].push_back(u);
          } else {
            buckets[static_cast<size_t>(degree[u])].push_back(u);
          }
        }
      }
    }
  }
  return core;
}

std::vector<double> PageRank(const WeightedGraph& g, double damping,
                             int max_iterations, double tolerance,
                             const ParallelOptions& par) {
  const size_t n = g.num_nodes();
  std::vector<double> rank(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
  if (n == 0) return rank;
  // share[u] is what u sends per unit of edge weight. It stays 0 for a
  // dangling u, whose products then add a signed zero, which leaves a row
  // sum started from the base unchanged.
  std::vector<double> share(n, 0.0);
  std::vector<double> next(n);
  double dangling = 0;
  auto fold = [&](uint32_t v, double r) {
    const double wd = g.WeightedDegree(v);
    if (wd <= 0) {
      dangling += r;
    } else {
      share[v] = damping * r / wd;
    }
  };
  for (uint32_t v = 0; v < n; ++v) fold(v, rank[v]);
  for (int iter = 0; iter < max_iterations; ++iter) {
    const double base = (1.0 - damping) / static_cast<double>(n) +
                        damping * dangling / static_cast<double>(n);
    ForEachMorsel(par, n, 64, [&](size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        auto nbrs = g.Neighbors(static_cast<uint32_t>(v));
        auto ws = g.Weights(static_cast<uint32_t>(v));
        double sum = base;
        for (size_t i = 0; i < nbrs.size(); ++i) sum += share[nbrs[i]] * ws[i];
        next[v] = sum;
      }
    });
    double diff = 0;
    dangling = 0;
    for (uint32_t v = 0; v < n; ++v) {
      diff += std::fabs(next[v] - rank[v]);
      fold(v, next[v]);
    }
    rank.swap(next);
    if (diff < tolerance) break;
  }
  return rank;
}

}  // namespace cfnet::graph
