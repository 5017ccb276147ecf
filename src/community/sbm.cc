#include "community/sbm.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace cfnet::community {
namespace {

/// Beta(a, b) prior on block-pair edge rates: the uniform Beta(1, 1).
constexpr double kPriorA = 1.0;
constexpr double kPriorB = 1.0;

double SafeLog(double x) { return std::log(std::max(x, 1e-300)); }

}  // namespace

SbmResult RunSbm(const graph::BipartiteGraph& g, const SbmConfig& config) {
  SbmResult result;
  const size_t nl = g.num_left();
  const size_t nr = g.num_right();
  const int bk = std::max(1, config.num_investor_blocks);
  const int bl = std::max(1, config.num_company_blocks);
  result.investor_communities.num_nodes = nl;
  if (nl == 0 || nr == 0) return result;

  Rng rng(config.seed);
  std::vector<int> zl(nl);
  std::vector<int> zr(nr);
  for (auto& z : zl) z = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(bk)));
  for (auto& z : zr) z = static_cast<int>(rng.NextUint64(static_cast<uint64_t>(bl)));

  // Block statistics.
  std::vector<int64_t> size_l(static_cast<size_t>(bk), 0);
  std::vector<int64_t> size_r(static_cast<size_t>(bl), 0);
  std::vector<int64_t> m(static_cast<size_t>(bk) * static_cast<size_t>(bl), 0);
  auto mat = [&](int k, int l) -> int64_t& {
    return m[static_cast<size_t>(k) * static_cast<size_t>(bl) +
             static_cast<size_t>(l)];
  };
  for (size_t u = 0; u < nl; ++u) ++size_l[static_cast<size_t>(zl[u])];
  for (size_t v = 0; v < nr; ++v) ++size_r[static_cast<size_t>(zr[v])];
  for (uint32_t u = 0; u < nl; ++u) {
    for (uint32_t v : g.OutNeighbors(u)) ++mat(zl[u], zr[v]);
  }

  std::vector<int64_t> edges_to_block(static_cast<size_t>(std::max(bk, bl)), 0);

  for (int sweep = 0; sweep < config.max_sweeps; ++sweep) {
    bool changed = false;

    // --- investor phase ---------------------------------------------------
    for (uint32_t u = 0; u < nl; ++u) {
      std::fill(edges_to_block.begin(), edges_to_block.begin() + bl, 0);
      for (uint32_t v : g.OutNeighbors(u)) {
        ++edges_to_block[static_cast<size_t>(zr[v])];
      }
      // Remove u from its block.
      int old_k = zl[u];
      --size_l[static_cast<size_t>(old_k)];
      for (int l = 0; l < bl; ++l) mat(old_k, l) -= edges_to_block[static_cast<size_t>(l)];

      int best_k = old_k;
      double best_score = -1e300;
      for (int k = 0; k < bk; ++k) {
        double score = 0;
        for (int l = 0; l < bl; ++l) {
          double pairs = static_cast<double>(size_l[static_cast<size_t>(k)]) *
                         static_cast<double>(size_r[static_cast<size_t>(l)]);
          double p = (static_cast<double>(mat(k, l)) + kPriorA) /
                     (pairs + kPriorA + kPriorB);
          p = std::clamp(p, 1e-9, 1.0 - 1e-9);
          double e = static_cast<double>(edges_to_block[static_cast<size_t>(l)]);
          double non_e = static_cast<double>(size_r[static_cast<size_t>(l)]) - e;
          score += e * SafeLog(p) + non_e * SafeLog(1.0 - p);
        }
        if (score > best_score) {
          best_score = score;
          best_k = k;
        }
      }
      if (best_k != old_k) changed = true;
      zl[u] = best_k;
      ++size_l[static_cast<size_t>(best_k)];
      for (int l = 0; l < bl; ++l) mat(best_k, l) += edges_to_block[static_cast<size_t>(l)];
    }

    // --- company phase -----------------------------------------------------
    for (uint32_t v = 0; v < nr; ++v) {
      std::fill(edges_to_block.begin(), edges_to_block.begin() + bk, 0);
      for (uint32_t u : g.InNeighbors(v)) {
        ++edges_to_block[static_cast<size_t>(zl[u])];
      }
      int old_l = zr[v];
      --size_r[static_cast<size_t>(old_l)];
      for (int k = 0; k < bk; ++k) mat(k, old_l) -= edges_to_block[static_cast<size_t>(k)];

      int best_l = old_l;
      double best_score = -1e300;
      for (int l = 0; l < bl; ++l) {
        double score = 0;
        for (int k = 0; k < bk; ++k) {
          double pairs = static_cast<double>(size_l[static_cast<size_t>(k)]) *
                         static_cast<double>(size_r[static_cast<size_t>(l)]);
          double p = (static_cast<double>(mat(k, l)) + kPriorA) /
                     (pairs + kPriorA + kPriorB);
          p = std::clamp(p, 1e-9, 1.0 - 1e-9);
          double e = static_cast<double>(edges_to_block[static_cast<size_t>(k)]);
          double non_e = static_cast<double>(size_l[static_cast<size_t>(k)]) - e;
          score += e * SafeLog(p) + non_e * SafeLog(1.0 - p);
        }
        if (score > best_score) {
          best_score = score;
          best_l = l;
        }
      }
      if (best_l != old_l) changed = true;
      zr[v] = best_l;
      ++size_r[static_cast<size_t>(best_l)];
      for (int k = 0; k < bk; ++k) mat(k, best_l) += edges_to_block[static_cast<size_t>(k)];
    }

    result.sweeps = sweep + 1;
    if (!changed) break;
  }

  // MAP-rate log-likelihood of the final assignment.
  double ll = 0;
  for (int k = 0; k < bk; ++k) {
    for (int l = 0; l < bl; ++l) {
      double pairs = static_cast<double>(size_l[static_cast<size_t>(k)]) *
                     static_cast<double>(size_r[static_cast<size_t>(l)]);
      if (pairs <= 0) continue;
      double edges = static_cast<double>(mat(k, l));
      double p = std::clamp((edges + kPriorA) / (pairs + kPriorA + kPriorB),
                            1e-9, 1.0 - 1e-9);
      ll += edges * SafeLog(p) + (pairs - edges) * SafeLog(1.0 - p);
    }
  }
  result.log_posterior = ll;
  result.investor_labels = zl;
  result.company_labels = zr;
  result.investor_communities = CommunitySet::FromLabels(zl);
  return result;
}

}  // namespace cfnet::community
