#include "community/compare.h"

#include <algorithm>
#include <unordered_set>

#include "util/rng.h"

namespace cfnet::community {
namespace {

/// Sorted community-membership list per node.
std::vector<std::vector<uint32_t>> MembershipLists(const CommunitySet& set,
                                                   size_t num_nodes) {
  std::vector<std::vector<uint32_t>> member_of(num_nodes);
  for (uint32_t ci = 0; ci < set.communities.size(); ++ci) {
    for (uint32_t v : set.communities[ci]) {
      if (v < num_nodes) member_of[v].push_back(ci);
    }
  }
  for (auto& m : member_of) std::sort(m.begin(), m.end());
  return member_of;
}

bool Together(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

uint64_t PackPair(uint32_t a, uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Fraction of `cover`'s co-membership pairs that are also together in
/// `other_membership`; sets *pair_count to the number of distinct pairs
/// (exact in exhaustive mode, the multiset total when sampling).
double TogetherFraction(
    const CommunitySet& cover,
    const std::vector<std::vector<uint32_t>>& other_membership,
    size_t max_pairs, uint64_t seed, size_t* pair_count) {
  size_t total_pairs = 0;
  for (const auto& c : cover.communities) {
    total_pairs += c.size() * (c.size() - 1) / 2;
  }
  *pair_count = total_pairs;
  if (total_pairs == 0) return 0;

  if (total_pairs <= max_pairs) {
    // Exhaustive with dedup (overlapping communities repeat pairs).
    std::unordered_set<uint64_t> pairs;
    pairs.reserve(total_pairs * 2);
    for (const auto& c : cover.communities) {
      for (size_t i = 0; i < c.size(); ++i) {
        for (size_t j = i + 1; j < c.size(); ++j) {
          pairs.insert(PackPair(c[i], c[j]));
        }
      }
    }
    *pair_count = pairs.size();
    size_t together = 0;
    for (uint64_t p : pairs) {
      uint32_t a = static_cast<uint32_t>(p >> 32);
      uint32_t b = static_cast<uint32_t>(p & 0xffffffffull);
      if (a < other_membership.size() && b < other_membership.size() &&
          Together(other_membership[a], other_membership[b])) {
        ++together;
      }
    }
    return static_cast<double>(together) / static_cast<double>(pairs.size());
  }

  // Sampled: pick communities proportional to their pair counts.
  Rng rng(seed);
  std::vector<double> weights;
  weights.reserve(cover.communities.size());
  for (const auto& c : cover.communities) {
    weights.push_back(static_cast<double>(c.size() * (c.size() - 1) / 2));
  }
  size_t together = 0;
  for (size_t s = 0; s < max_pairs; ++s) {
    const auto& c = cover.communities[rng.Categorical(weights)];
    size_t i = static_cast<size_t>(rng.NextUint64(c.size()));
    size_t j = static_cast<size_t>(rng.NextUint64(c.size() - 1));
    if (j >= i) ++j;
    uint32_t a = c[i];
    uint32_t b = c[j];
    if (a < other_membership.size() && b < other_membership.size() &&
        Together(other_membership[a], other_membership[b])) {
      ++together;
    }
  }
  return static_cast<double>(together) / static_cast<double>(max_pairs);
}

}  // namespace

PairwiseAgreement ComparePairwise(const CommunitySet& detected,
                                  const CommunitySet& truth,
                                  size_t max_pairs_per_side, uint64_t seed) {
  PairwiseAgreement out;
  size_t num_nodes = std::max(detected.num_nodes, truth.num_nodes);
  auto truth_membership = MembershipLists(truth, num_nodes);
  auto detected_membership = MembershipLists(detected, num_nodes);

  out.recall = TogetherFraction(truth, detected_membership, max_pairs_per_side,
                                seed, &out.truth_pairs);
  out.precision = TogetherFraction(detected, truth_membership,
                                   max_pairs_per_side, seed + 1,
                                   &out.detected_pairs);
  if (out.precision + out.recall > 0) {
    out.f1 = 2 * out.precision * out.recall / (out.precision + out.recall);
  }
  return out;
}

}  // namespace cfnet::community
