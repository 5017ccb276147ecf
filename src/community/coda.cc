#include "community/coda.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace cfnet::community {
namespace {

constexpr double kMinDot = 1e-10;

/// Backtracking line search: first step, shrink factor and extra tries.
constexpr double kInitialStep = 0.25;
constexpr double kStepBeta = 0.5;
constexpr int kMaxBacktracks = 8;
/// Affiliation clamp for numeric safety (bigCLAM's cap).
constexpr double kMaxAffiliation = 1000;
/// Communities smaller than this are discarded in the output.
constexpr size_t kMinCommunitySize = 3;

/// Per-worker buffers for one row update, sized once for the maximum degree
/// on either side so the row loop never reallocates. `dots`/`terms` gather a
/// company's filed edge values (the H phase reads them through
/// `in_edge_slot`), `cand_dots`/`cand_terms` hold the edge values at the
/// line-search candidate.
struct RowScratch {
  std::vector<double> nbr_sum;
  std::vector<double> rest;
  std::vector<double> grad;
  std::vector<double> candidate;
  std::vector<double> dots;
  std::vector<double> terms;
  std::vector<double> cand_dots;
  std::vector<double> cand_terms;

  RowScratch(int c, size_t max_degree)
      : nbr_sum(static_cast<size_t>(c)),
        rest(static_cast<size_t>(c)),
        grad(static_cast<size_t>(c)),
        candidate(static_cast<size_t>(c)),
        dots(max_degree),
        terms(max_degree),
        cand_dots(max_degree),
        cand_terms(max_degree) {}
};

}  // namespace

CodaResult Coda::Fit(const graph::BipartiteGraph& g) const {
  CodaResult result;
  const size_t nl = g.num_left();
  const size_t nr = g.num_right();
  const int c = std::max(1, config_.num_communities);
  result.investor_communities.num_nodes = nl;
  result.company_communities.num_nodes = nr;
  if (nl == 0 || nr == 0 || g.num_edges() == 0) return result;

  const double density = static_cast<double>(g.num_edges()) /
                         (static_cast<double>(nl) * static_cast<double>(nr));
  std::vector<double> f(nl * static_cast<size_t>(c));
  std::vector<double> h(nr * static_cast<size_t>(c));

  // Init so that an average dot product matches the graph density.
  const double init_mean =
      std::sqrt(std::max(density, 1e-12) / static_cast<double>(c));
  Rng rng(config_.seed);
  for (double& x : f) x = init_mean * rng.Uniform(0.5, 1.5);
  for (double& x : h) x = init_mean * rng.Uniform(0.5, 1.5);

  std::vector<double> sum_f(static_cast<size_t>(c), 0);
  std::vector<double> sum_h(static_cast<size_t>(c), 0);
  for (size_t u = 0; u < nl; ++u) {
    for (int k = 0; k < c; ++k) sum_f[static_cast<size_t>(k)] += f[u * c + k];
  }
  for (size_t v = 0; v < nr; ++v) {
    for (int k = 0; k < c; ++k) sum_h[static_cast<size_t>(k)] += h[v * c + k];
  }

  ThreadPool pool(config_.num_threads > 0
                      ? static_cast<size_t>(config_.num_threads)
                      : ThreadPool::DefaultParallelism());

  const size_t cs = static_cast<size_t>(c);

  // Each row's block mask (simd::BlockMaskF64), refreshed when the row
  // moves. Every entry is finite and >= +0 (the init is positive, and the
  // compare-select projection onto [0, kMaxAffiliation] yields neither -0
  // nor NaN), so the block-skipping kernels give the dense kernels' bits.
  std::vector<uint64_t> f_blocks(nl);
  std::vector<uint64_t> h_blocks(nr);
  for (size_t u = 0; u < nl; ++u) {
    f_blocks[u] = simd::BlockMaskF64(&f[u * cs], cs);
  }
  for (size_t v = 0; v < nr; ++v) {
    h_blocks[v] = simd::BlockMaskF64(&h[v * cs], cs);
  }

  // One-time max-degree reservation: every worker's scratch is sized for the
  // largest neighborhood on either side, so no row update reallocates.
  size_t max_degree = 1;
  for (uint32_t u = 0; u < nl; ++u) {
    max_degree = std::max(max_degree, g.OutNeighbors(u).size());
  }
  for (uint32_t v = 0; v < nr; ++v) {
    max_degree = std::max(max_degree, g.InNeighbors(v).size());
  }
  std::vector<RowScratch> scratches;
  scratches.reserve(pool.num_threads());
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    scratches.emplace_back(c, max_degree);
  }

  // Each edge's clamped dot and log term at the current F and H, in
  // out-edge (CSR) order: the order the log-likelihood sums them in.
  // Investor u's edges start at `out_edge_begin[u]`; `in_edge_slot` maps
  // company v's i-th in-edge (in-neighbors ascending, numbered company by
  // company) to its CSR position. Each phase files a moved row's final
  // values there, and the next phase's gradient pass reads them instead of
  // recomputing them: DotF64 multiplies elementwise, so F_u . H_v and
  // H_v . F_u fill the same lanes.
  const size_t ne = g.num_edges();
  std::vector<double> edge_dot(ne);
  std::vector<double> edge_term(ne);
  std::vector<size_t> out_edge_begin(nl + 1, 0);
  for (uint32_t u = 0; u < nl; ++u) {
    out_edge_begin[u + 1] = out_edge_begin[u] + g.OutNeighbors(u).size();
  }
  std::vector<size_t> in_edge_begin(nr + 1, 0);
  for (uint32_t v = 0; v < nr; ++v) {
    in_edge_begin[v + 1] = in_edge_begin[v] + g.InNeighbors(v).size();
  }
  std::vector<size_t> in_edge_slot(ne);
  {
    std::vector<size_t> cursor(in_edge_begin.begin(), in_edge_begin.end() - 1);
    size_t e = 0;
    for (uint32_t u = 0; u < nl; ++u) {
      const double* fu = &f[u * cs];
      for (uint32_t v : g.OutNeighbors(u)) {
        in_edge_slot[cursor[v]++] = e;
        edge_dot[e] = std::max(simd::DotF64(fu, &h[v * cs], cs), kMinDot);
        edge_term[e] = std::log1p(-std::exp(-edge_dot[e]));
        ++e;
      }
    }
  }

  // Local objective of one row x (F_u against its out-neighborhood, or H_v
  // against its in-neighborhood), with Y the other side's factor matrix
  // `other`, read in place:
  //   l(x) = sum_{nbr} log(1 - exp(-x . Y_nbr)) - x . rest
  // where rest = (column sums of the other side) - (sum over neighbors).
  // `dots`/`terms` hold the edges' filed values at x. Returns whether the
  // row moved; if so, x and *x_blocks hold the accepted candidate and
  // scratch.cand_dots/cand_terms its edges' values.
  auto update_row = [&](double* x, uint64_t* x_blocks, const double* other,
                        const uint64_t* other_blocks, const double* sum_other,
                        std::span<const uint32_t> nbrs, const double* dots,
                        const double* terms, RowScratch& scratch) {
    const size_t count = nbrs.size();
    // One pass over the neighbor rows: their sum, and the gradient's
    // sum_nbr Y / expm1(dot). It returns the edge terms of l(x).
    double* grad = scratch.grad.data();
    std::fill(scratch.nbr_sum.begin(), scratch.nbr_sum.end(), 0.0);
    std::fill(scratch.grad.begin(), scratch.grad.end(), 0.0);
    const double edge_terms = simd::AccumExpm1RowsF64(
        other, other_blocks, nbrs.data(), count, cs, dots, terms,
        1.0 / kMinDot, scratch.nbr_sum.data(), grad);
    simd::ClampedSubF64(scratch.rest.data(), sum_other, scratch.nbr_sum.data(),
                        cs);
    const double* rest = scratch.rest.data();
    const double base =
        edge_terms - simd::DotBlocksF64(x, rest, cs, *x_blocks);
    simd::SubF64(grad, rest, cs);  // gradient: sum_nbr Y / expm1 - rest

    double* candidate = scratch.candidate.data();
    double step = kInitialStep;
    for (int bt = 0; bt <= kMaxBacktracks; ++bt) {
      double cand_rest = 0;
      uint64_t cand_blocks = 0;
      double gdx =
          simd::ClampedStepDotF64(x, grad, rest, step, 0.0, kMaxAffiliation,
                                  candidate, &cand_rest, &cand_blocks, cs);
      if (gdx <= 0) break;  // projected step is not an ascent direction
      const double bar = base + 1e-4 * gdx;
      const double obj = simd::SumLogEdgeProbF64(
          candidate, cand_blocks, other, other_blocks, nbrs.data(), count, cs,
          kMinDot, cand_rest, bar, scratch.cand_dots.data(),
          scratch.cand_terms.data());
      if (obj >= bar) {  // Armijo
        std::copy(candidate, candidate + cs, x);
        *x_blocks = cand_blocks;
        return true;
      }
      step *= kStepBeta;
    }
    return false;  // no improving step found: leave the row unchanged
  };

  // Rows are independent within a phase (each writes only its own row, its
  // block mask and its own edges' slots, against the fixed other side), so
  // any worker assignment produces identical results. fn(i, scratch) gets a
  // worker-local RowScratch.
  auto parallel_rows = [&](size_t n, auto&& fn) {
    const size_t workers = pool.num_threads();
    std::vector<std::future<void>> futs;
    for (size_t w = 0; w < workers; ++w) {
      futs.push_back(pool.Submit([&, w]() {
        for (size_t i = w; i < n; i += workers) fn(i, scratches[w]);
      }));
    }
    for (auto& fu : futs) fu.get();
  };

  auto log_likelihood = [&]() {
    double ll = 0;
    double edge_dot_sum = 0;
    for (size_t e = 0; e < ne; ++e) {
      ll += edge_term[e];
      edge_dot_sum += edge_dot[e];
    }
    double all_pairs = simd::DotF64(sum_f.data(), sum_h.data(), cs);
    ll -= all_pairs - edge_dot_sum;
    return ll;
  };

  double prev_ll = log_likelihood();
  result.log_likelihood_trace.push_back(prev_ll);

  for (int iter = 0; iter < config_.max_iterations; ++iter) {
    // --- F phase (investor rows; H and sum_h fixed). ---------------------
    // A moved row files its edges' values at its new F_u (H is final for
    // this phase) for the H phase to read.
    parallel_rows(nl, [&](size_t u, RowScratch& scratch) {
      auto nbrs = g.OutNeighbors(static_cast<uint32_t>(u));
      const size_t e = out_edge_begin[u];
      if (update_row(&f[u * cs], &f_blocks[u], h.data(), h_blocks.data(),
                     sum_h.data(), nbrs, &edge_dot[e], &edge_term[e],
                     scratch)) {
        std::copy_n(scratch.cand_dots.begin(), nbrs.size(), &edge_dot[e]);
        std::copy_n(scratch.cand_terms.begin(), nbrs.size(), &edge_term[e]);
      }
    });
    std::fill(sum_f.begin(), sum_f.end(), 0.0);
    for (size_t u = 0; u < nl; ++u) {
      simd::AddF64(sum_f.data(), &f[u * cs], cs);
    }

    // --- H phase (company rows; F and sum_f fixed). ----------------------
    // F is final for this iteration, so each company's edge values at its
    // final row are the iteration's: a moved row files them for the
    // log-likelihood and the next F phase.
    parallel_rows(nr, [&](size_t v, RowScratch& scratch) {
      auto nbrs = g.InNeighbors(static_cast<uint32_t>(v));
      const size_t* slots = in_edge_slot.data() + in_edge_begin[v];
      for (size_t i = 0; i < nbrs.size(); ++i) {
        scratch.dots[i] = edge_dot[slots[i]];
        scratch.terms[i] = edge_term[slots[i]];
      }
      if (update_row(&h[v * cs], &h_blocks[v], f.data(), f_blocks.data(),
                     sum_f.data(), nbrs, scratch.dots.data(),
                     scratch.terms.data(), scratch)) {
        for (size_t i = 0; i < nbrs.size(); ++i) {
          edge_dot[slots[i]] = scratch.cand_dots[i];
          edge_term[slots[i]] = scratch.cand_terms[i];
        }
      }
    });
    std::fill(sum_h.begin(), sum_h.end(), 0.0);
    for (size_t v = 0; v < nr; ++v) {
      simd::AddF64(sum_h.data(), &h[v * cs], cs);
    }

    double ll = log_likelihood();
    result.log_likelihood_trace.push_back(ll);
    result.iterations = iter + 1;
    double denom = std::fabs(prev_ll) > 1e-12 ? std::fabs(prev_ll) : 1.0;
    if (ll - prev_ll < config_.tolerance * denom) {
      prev_ll = ll;
      break;
    }
    prev_ll = ll;
  }
  result.final_log_likelihood = prev_ll;

  // --- membership assignment -------------------------------------------
  // Density-based threshold delta = sqrt(-log(1 - eps)), eps = |E|/(|L||R|).
  const double eps = std::clamp(density, 1e-12, 1.0 - 1e-12);
  const double delta = std::sqrt(-std::log1p(-eps));
  result.threshold_used = delta;
  result.investor_communities.communities.assign(static_cast<size_t>(c), {});
  result.company_communities.communities.assign(static_cast<size_t>(c), {});
  for (uint32_t u = 0; u < nl; ++u) {
    for (int k = 0; k < c; ++k) {
      if (f[u * static_cast<size_t>(c) + k] >= delta) {
        result.investor_communities.communities[static_cast<size_t>(k)]
            .push_back(u);
      }
    }
  }
  for (uint32_t v = 0; v < nr; ++v) {
    for (int k = 0; k < c; ++k) {
      if (h[v * static_cast<size_t>(c) + k] >= delta) {
        result.company_communities.communities[static_cast<size_t>(k)]
            .push_back(v);
      }
    }
  }
  result.investor_communities.PruneSmall(kMinCommunitySize);
  result.company_communities.PruneSmall(kMinCommunitySize);
  result.num_factors = c;
  result.f = std::move(f);
  result.h = std::move(h);
  return result;
}

double CodaResult::EdgeProbability(uint32_t left, uint32_t right) const {
  if (num_factors == 0) return 0;
  const size_t c = static_cast<size_t>(num_factors);
  double dot = simd::DotF64(&f[left * c], &h[right * c], c);
  return -std::expm1(-std::max(dot, kMinDot));
}

}  // namespace cfnet::community
