#ifndef CFNET_COMMUNITY_COMPARE_H_
#define CFNET_COMMUNITY_COMPARE_H_

#include <cstdint>

#include "community/community_set.h"

namespace cfnet::community {

/// Agreement between two community covers — used to score how well each
/// detector recovers the synthetic world's *planted* communities (the
/// evaluation a real crawl can never run).

/// Pairwise co-membership precision/recall/F1: a node pair counts as
/// "together" in a cover when some community contains both. Works for
/// overlapping covers. Pairs are enumerated exhaustively when cheap and
/// sampled otherwise (seeded).
struct PairwiseAgreement {
  double precision = 0;  // together-in-detected that are together-in-truth
  double recall = 0;     // together-in-truth recovered by detected
  double f1 = 0;
  size_t truth_pairs = 0;
  size_t detected_pairs = 0;
};

PairwiseAgreement ComparePairwise(const CommunitySet& detected,
                                  const CommunitySet& truth,
                                  size_t max_pairs_per_side = 2000000,
                                  uint64_t seed = 1);

}  // namespace cfnet::community

#endif  // CFNET_COMMUNITY_COMPARE_H_
