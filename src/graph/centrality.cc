#include "graph/centrality.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.h"

namespace cfnet::graph {

namespace {

/// Sources for sampled centrality: all nodes when samples == 0 or >= n.
std::vector<uint32_t> PickSources(size_t n, size_t samples, uint64_t seed) {
  std::vector<uint32_t> sources;
  if (samples == 0 || samples >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), 0);
  } else {
    Rng rng(seed);
    for (size_t idx : rng.SampleWithoutReplacement(n, samples)) {
      sources.push_back(static_cast<uint32_t>(idx));
    }
  }
  return sources;
}

/// Per-slot scratch of one in-flight Brandes source. `order` doubles as
/// the BFS queue (a head cursor walks it), and survives until the ordered
/// commit folds the slot's contribution into the global score.
struct SourceScratch {
  std::vector<int> dist;
  std::vector<double> sigma;
  std::vector<double> delta;
  std::vector<uint32_t> order;  // nodes in non-decreasing distance

  void Resize(size_t n) {
    dist.resize(n);
    sigma.resize(n);
    delta.resize(n);
    order.reserve(n);
  }
};

size_t WaveSlots(const ParallelOptions& par) {
  return std::max<size_t>(1, par.threads() * 2);
}

}  // namespace

std::vector<double> BetweennessCentrality(const WeightedGraph& g,
                                          size_t sample_sources, uint64_t seed,
                                          const ParallelOptions& par) {
  const size_t n = g.num_nodes();
  std::vector<double> score(n, 0);
  if (n <= 2) return score;
  std::vector<uint32_t> sources = PickSources(n, sample_sources, seed);

  // Brandes fan-out: every source runs its forward BFS and backward
  // dependency accumulation in slot-private scratch. Predecessor lists are
  // recomputed from the distance array on the backward pass (dist[v] ==
  // dist[w] - 1) instead of materialized, which drops the vector-of-vectors
  // churn from the inner loop. Deltas commit in ascending source order so
  // the floating-point fold is identical for any pool width.
  const size_t slots = WaveSlots(par);
  std::vector<SourceScratch> scratch(slots);
  for (auto& sc : scratch) sc.Resize(n);
  RunOrderedWaves(
      par, sources.size(), slots,
      [&](size_t i, size_t slot) {
        SourceScratch& sc = scratch[slot];
        std::fill(sc.dist.begin(), sc.dist.end(), -1);
        std::fill(sc.sigma.begin(), sc.sigma.end(), 0.0);
        std::fill(sc.delta.begin(), sc.delta.end(), 0.0);
        sc.order.clear();
        const uint32_t s = sources[i];
        sc.dist[s] = 0;
        sc.sigma[s] = 1;
        sc.order.push_back(s);
        for (size_t head = 0; head < sc.order.size(); ++head) {
          uint32_t v = sc.order[head];
          for (uint32_t u : g.Neighbors(v)) {
            if (sc.dist[u] == -1) {
              sc.dist[u] = sc.dist[v] + 1;
              sc.order.push_back(u);
            }
            if (sc.dist[u] == sc.dist[v] + 1) sc.sigma[u] += sc.sigma[v];
          }
        }
        for (auto it = sc.order.rbegin(); it != sc.order.rend(); ++it) {
          uint32_t w = *it;
          const double coeff = (1.0 + sc.delta[w]) / sc.sigma[w];
          for (uint32_t v : g.Neighbors(w)) {
            if (sc.dist[v] == sc.dist[w] - 1) {
              sc.delta[v] += sc.sigma[v] * coeff;
            }
          }
        }
      },
      [&](size_t i, size_t slot) {
        const SourceScratch& sc = scratch[slot];
        const uint32_t s = sources[i];
        for (uint32_t w : sc.order) {
          if (w != s) score[w] += sc.delta[w];
        }
      });

  // Undirected double-counting plus sampling scale-up plus normalization.
  const double scale_up =
      static_cast<double>(n) / static_cast<double>(sources.size());
  const double pairs =
      static_cast<double>(n - 1) * static_cast<double>(n - 2) / 2.0;
  for (double& x : score) x = x * scale_up / 2.0 / pairs;
  return score;
}

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
