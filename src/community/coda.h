#ifndef CFNET_COMMUNITY_CODA_H_
#define CFNET_COMMUNITY_CODA_H_

#include <cstdint>
#include <vector>

#include "community/community_set.h"
#include "graph/bipartite_graph.h"

namespace cfnet::community {

/// Configuration for CoDA (Communities through Directed Affiliations).
struct CodaConfig {
  /// Number of latent communities C. The paper runs SNAP's CoDA and
  /// obtains 96 investor communities.
  int num_communities = 96;
  int max_iterations = 50;       // full F/H sweeps
  double tolerance = 1e-4;       // relative log-likelihood improvement stop
  uint64_t seed = 1;
  /// Parallel row updates (F rows are independent given H, and vice versa).
  int num_threads = 0;  // 0 = hardware default
};

/// Result of a CoDA fit.
struct CodaResult {
  CommunitySet investor_communities;   // over left (investor) indices
  CommunitySet company_communities;    // over right (company) indices
  std::vector<double> log_likelihood_trace;  // per iteration
  int iterations = 0;
  double final_log_likelihood = 0;
  double threshold_used = 0;

  /// Fitted affiliation factors, row-major (num_left x C and num_right x C).
  /// Kept for held-out likelihood evaluation / model selection.
  int num_factors = 0;
  std::vector<double> f;  // outgoing (investor) affiliations
  std::vector<double> h;  // incoming (company) affiliations

  /// Model edge probability 1 - exp(-F_u . H_v) for dense indices (u, v).
  double EdgeProbability(uint32_t left, uint32_t right) const;
};

/// CoDA — the directed/bipartite affiliation-network community detector of
/// Yang, McAuley & Leskovec (WSDM'14), reimplemented from the paper.
///
/// Model: investor u has a nonnegative outgoing-affiliation vector F_u,
/// company v an incoming-affiliation vector H_v; an investment edge u->v
/// appears with probability 1 - exp(-F_u . H_v). The fit maximizes the
/// bipartite log-likelihood
///
///   L = sum_{(u,v) in E} log(1 - exp(-F_u.H_v)) - sum_{(u,v) notin E} F_u.H_v
///
/// by block-coordinate projected-gradient ascent with backtracking line
/// search, alternating full sweeps over F rows and H rows. The non-edge sum
/// is computed in O(C) per row via cached column sums of F and H.
///
/// After convergence, u joins community c iff F_uc exceeds a density-derived
/// threshold (likewise for companies via H), yielding overlapping
/// communities of investors that direct their investments at the same
/// latent group of companies — exactly the herding structure §5 measures.
class Coda {
 public:
  explicit Coda(CodaConfig config) : config_(config) {}

  /// Fits the model to the investor->company bipartite graph.
  CodaResult Fit(const graph::BipartiteGraph& g) const;

 private:
  CodaConfig config_;
};

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_CODA_H_
