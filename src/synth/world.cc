#include "synth/world.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cfnet::synth {
namespace {

constexpr const char* kNamePrefixes[] = {
    "Nova",  "Quant", "Hyper", "Blue",  "Deep",  "Agile", "Cloud", "Data",
    "Smart", "Open",  "Next",  "Peak",  "Flux",  "Iron",  "Solar", "Lunar",
    "Vertex", "Pulse", "Arc",   "Echo",  "Zen",   "Atlas", "Delta", "Metro"};

constexpr const char* kNameSuffixes[] = {
    "Labs",   "Works",   "Systems", "Analytics", "Robotics", "Health",
    "Pay",    "Social",  "Media",   "Logistics", "Grid",     "Mobile",
    "Cloud",  "Security", "Energy", "Foods",     "Travel",   "Learning",
    "Finance", "Games",  "Bio",     "Sense",     "Link",     "Stack"};

constexpr const char* kAmbiguousNames[] = {
    "Acme Labs",    "Apex Systems",  "Echo Media",   "Orbit Health",
    "Vector Works", "Prime Mobile",  "Nimbus Cloud", "Cobalt Analytics"};

/// Probability that a log-normal engagement count strictly exceeds its
/// median, accounting for the zero-inflated dead-account mass.
double AboveMedianProb(double zero_inflation) {
  return 0.5 * (1.0 - zero_inflation);
}

int64_t SampleEngagement(Rng& rng, double median, double sigma,
                         double zero_inflation) {
  // Dead accounts have exactly zero engagement; "valid" accounts follow a
  // log-normal whose median is the paper's split point (652 likes etc.).
  // Analyses compute medians over valid (nonzero) accounts, so the
  // above-median share over ALL accounts lands near the paper's 41-46%.
  if (rng.Bernoulli(zero_inflation)) return 0;
  double v = rng.LogNormal(std::log(median), sigma);
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(v)));
}

}  // namespace

World World::Generate(const WorldConfig& config) {
  World w;
  w.config_ = config;
  Rng rng(config.seed);

  const int64_t num_companies = std::max<int64_t>(100, config.NumCompanies());
  const int64_t num_users = std::max<int64_t>(200, config.NumUsers());

  // ---------------------------------------------------------------------
  // 1. Companies: identity, social cell, engagement, demo video.
  // ---------------------------------------------------------------------
  const double p_both = config.frac_both;
  const double p_fb_only = config.frac_facebook - config.frac_both;
  const double p_tw_only = config.frac_twitter - config.frac_both;
  const double p_social = p_fb_only + p_tw_only + p_both;
  CFNET_CHECK(p_fb_only >= 0 && p_tw_only >= 0 && p_social < 1.0);

  const double v1 = config.video_given_social;
  const double v0 = std::clamp(
      (config.frac_demo_video - p_social * v1) / (1.0 - p_social), 0.0, 1.0);

  w.companies_.resize(static_cast<size_t>(num_companies));
  for (int64_t i = 0; i < num_companies; ++i) {
    CompanyTruth& c = w.companies_[static_cast<size_t>(i)];
    c.id = static_cast<CompanyId>(i + 1);
    if (rng.Bernoulli(config.ambiguous_name_rate)) {
      c.name = kAmbiguousNames[rng.NextUint64(std::size(kAmbiguousNames))];
    } else {
      c.name = StrFormat(
          "%s%s %lld",
          kNamePrefixes[rng.NextUint64(std::size(kNamePrefixes))],
          kNameSuffixes[rng.NextUint64(std::size(kNameSuffixes))],
          static_cast<long long>(c.id));
    }
    c.currently_raising = rng.Bernoulli(config.frac_currently_raising);

    double u = rng.NextDouble();
    if (u < p_both) {
      c.social = SocialCell::kBoth;
    } else if (u < p_both + p_fb_only) {
      c.social = SocialCell::kFacebookOnly;
    } else if (u < p_both + p_fb_only + p_tw_only) {
      c.social = SocialCell::kTwitterOnly;
    } else {
      c.social = SocialCell::kNone;
    }

    if (c.has_facebook()) {
      c.facebook_likes =
          SampleEngagement(rng, config.fb_likes_median, config.fb_likes_sigma,
                           config.fb_zero_inflation);
    }
    if (c.has_twitter()) {
      c.twitter_tweets =
          SampleEngagement(rng, config.tw_tweets_median, config.tw_tweets_sigma,
                           config.tw_zero_inflation);
      c.twitter_followers = SampleEngagement(rng, config.tw_followers_median,
                                             config.tw_followers_sigma,
                                             config.tw_zero_inflation);
      c.twitter_followers_null = rng.Bernoulli(config.tw_followers_null_rate);
    }
    c.has_demo_video = rng.Bernoulli(c.social == SocialCell::kNone ? v0 : v1);
  }

  // ---------------------------------------------------------------------
  // 2. Funding success, calibrated to the Figure 6 cell-conditional rates.
  //
  // The per-company success probability is a cell base rate times odds
  // multipliers for above-median engagement and demo video. The base is
  // deflated by the analytic expectation of the multipliers within the
  // cell, so cell-conditional averages land on the paper's numbers.
  // ---------------------------------------------------------------------
  const double succ_fb_only =
      (config.success_fb_marginal * config.frac_facebook -
       config.success_both * config.frac_both) /
      p_fb_only;
  const double succ_tw_only =
      (config.success_tw_marginal * config.frac_twitter -
       config.success_both * config.frac_both) /
      p_tw_only;
  CFNET_CHECK(succ_fb_only > 0 && succ_tw_only > 0);

  const double q_likes = AboveMedianProb(config.fb_zero_inflation);
  const double q_tweets = AboveMedianProb(config.tw_zero_inflation);
  const double q_followers = AboveMedianProb(config.tw_zero_inflation);

  const double f_likes = 1.0 + q_likes * (config.boost_fb_likes_above_median - 1.0);
  const double f_tweets =
      1.0 + q_tweets * (config.boost_tw_tweets_above_median - 1.0);
  const double f_followers =
      1.0 + q_followers * (config.boost_tw_followers_above_median - 1.0);
  const double f_video_social = 1.0 + v1 * (config.boost_demo_video - 1.0);
  const double f_video_none = 1.0 + v0 * (config.boost_demo_video - 1.0);

  const double base_none = config.success_no_social / f_video_none;
  const double base_fb_only = succ_fb_only / (f_likes * f_video_social);
  const double base_tw_only =
      succ_tw_only / (f_tweets * f_followers * f_video_social);
  const double base_both = config.success_both /
                           (f_likes * f_tweets * f_followers * f_video_social);

  for (CompanyTruth& c : w.companies_) {
    double p = 0;
    switch (c.social) {
      case SocialCell::kNone:
        p = base_none;
        break;
      case SocialCell::kFacebookOnly:
        p = base_fb_only;
        break;
      case SocialCell::kTwitterOnly:
        p = base_tw_only;
        break;
      case SocialCell::kBoth:
        p = base_both;
        break;
    }
    if (c.has_facebook() && c.facebook_likes > config.fb_likes_median) {
      p *= config.boost_fb_likes_above_median;
    }
    if (c.has_twitter()) {
      if (c.twitter_tweets > config.tw_tweets_median) {
        p *= config.boost_tw_tweets_above_median;
      }
      if (c.twitter_followers > config.tw_followers_median) {
        p *= config.boost_tw_followers_above_median;
      }
    }
    if (c.has_demo_video) p *= config.boost_demo_video;
    c.raised_funding = rng.Bernoulli(std::min(p, 0.95));
    // CrunchBase has a funding profile exactly for funded companies — the
    // paper's 10,156 matched CrunchBase profiles are how success is derived.
    c.has_crunchbase = c.raised_funding;
    c.crunchbase_url_listed =
        c.has_crunchbase && rng.Bernoulli(config.cb_url_listed_rate);
    if (c.raised_funding) {
      c.funding_rounds = 1 + static_cast<int>(rng.Poisson(0.8));
      c.raised_amount_usd = rng.LogNormal(std::log(1.5e6), 1.0);
    }
  }

  // ---------------------------------------------------------------------
  // 3. Users and roles.
  // ---------------------------------------------------------------------
  w.users_.resize(static_cast<size_t>(num_users));
  std::vector<UserId> investors;
  std::vector<UserId> founders;
  for (int64_t i = 0; i < num_users; ++i) {
    UserTruth& u = w.users_[static_cast<size_t>(i)];
    u.id = static_cast<UserId>(i + 1);
    u.name = StrFormat("User %lld", static_cast<long long>(u.id));
    double r = rng.NextDouble();
    if (r < config.frac_investor) {
      u.role = UserRole::kInvestor;
      investors.push_back(u.id);
    } else if (r < config.frac_investor + config.frac_founder) {
      u.role = UserRole::kFounder;
      founders.push_back(u.id);
    } else if (r < config.frac_investor + config.frac_founder +
                       config.frac_employee) {
      u.role = UserRole::kEmployee;
    } else {
      u.role = UserRole::kOther;
    }
  }

  // ---------------------------------------------------------------------
  // 4. Investable companies (companies that appear in the bipartite
  //    investment graph). All funded companies are investable; the rest is
  //    sampled uniformly. A shuffled rank order drives Zipf popularity.
  // ---------------------------------------------------------------------
  const int64_t num_investable = std::max<int64_t>(
      10, static_cast<int64_t>(config.frac_companies_investable *
                               static_cast<double>(num_companies)));
  std::vector<CompanyId> investable;
  investable.reserve(static_cast<size_t>(num_investable));
  for (const CompanyTruth& c : w.companies_) {
    if (c.raised_funding) investable.push_back(c.id);
  }
  {
    std::vector<size_t> pool_idx(w.companies_.size());
    std::iota(pool_idx.begin(), pool_idx.end(), size_t{0});
    rng.Shuffle(pool_idx);
    for (size_t idx : pool_idx) {
      if (static_cast<int64_t>(investable.size()) >= num_investable) break;
      const CompanyTruth& c = w.companies_[idx];
      if (!c.raised_funding) investable.push_back(c.id);
    }
    rng.Shuffle(investable);  // rank order for popularity is random
  }

  // Zipf(s=0.62) over the shuffled rank order: popular head, but flat
  // enough that invested companies spread across most of the pool
  // (calibrates companies-with-investors to the paper's 59,953 and the
  // 2.6 investors/company average).
  const ZipfSampler investable_rank(static_cast<int64_t>(investable.size()),
                                    0.62);
  auto pick_investable = [&](Rng& r) -> CompanyId {
    return investable[static_cast<size_t>(investable_rank.Sample(r) - 1)];
  };

  // ---------------------------------------------------------------------
  // 5. Active investors and their target out-degrees.
  // ---------------------------------------------------------------------
  std::vector<UserId> active;
  std::vector<int64_t> degree_of_active;
  // Degrees cannot exceed a fraction of the investable pool (matters only
  // at very small scales, where the pool shrinks below the paper's ~1000
  // max out-degree).
  const int64_t degree_cap =
      std::max<int64_t>(3, static_cast<int64_t>(investable.size()) / 2);
  for (UserId inv : investors) {
    if (!rng.Bernoulli(config.frac_investors_active)) continue;
    active.push_back(inv);
    double u = rng.NextDouble();
    int64_t d;
    if (u < config.outdeg_p1) {
      d = 1;
    } else if (u < config.outdeg_p1 + config.outdeg_p2) {
      d = 2;
    } else {
      d = rng.PowerLaw(3, config.outdeg_max, config.outdeg_alpha);
    }
    degree_of_active.push_back(std::min(d, degree_cap));
  }

  // Community-membership candidates, most-active investors first. The
  // analysis pipeline only considers investors with >= 4 investments
  // (§5.2), so planted communities must live mostly in that cohort —
  // rank-weighted sampling over this order keeps them there while still
  // letting smaller investors join.
  std::vector<size_t> active_by_degree(active.size());
  std::iota(active_by_degree.begin(), active_by_degree.end(), size_t{0});
  std::sort(active_by_degree.begin(), active_by_degree.end(),
            [&](size_t a, size_t b) {
              return degree_of_active[a] > degree_of_active[b];
            });

  // ---------------------------------------------------------------------
  // 6. Planted communities. Communities 0..2 are the designated "strong"
  //    ones matching Figure 4's top curves; the rest sweep the herding
  //    range. Portfolio size is solved from the target mean pairwise
  //    shared-investment size: E[|Ci ∩ Cj|] ~ (herd*avg_deg)^2 / |P|.
  // ---------------------------------------------------------------------
  const int num_communities = std::max(4, config.num_communities);
  const int64_t avg_size = config.CommunitySize();
  constexpr int kMaxMembershipsPerInvestor = 3;
  w.communities_.resize(static_cast<size_t>(num_communities));
  std::vector<double> community_target_shared(
      static_cast<size_t>(num_communities), 0);
  std::vector<std::vector<size_t>> community_member_idx(
      static_cast<size_t>(num_communities));
  std::vector<int> memberships_of_active(active.size(), 0);
  const ZipfSampler member_rank(static_cast<int64_t>(active_by_degree.size()),
                                0.85);

  // Pass 1: herding intensity, target strength and membership.
  for (int ci = 0; ci < num_communities; ++ci) {
    CommunityTruth& comm = w.communities_[static_cast<size_t>(ci)];
    comm.id = ci;
    double target_shared;
    if (ci == 0) {
      comm.herd = 0.95;
      target_shared = config.strongest_shared_target;  // 2.1
    } else if (ci == 1) {
      comm.herd = 0.90;
      target_shared = 1.6;
    } else if (ci == 2) {
      comm.herd = 0.85;
      target_shared = 1.2;
    } else {
      double t = rng.NextDouble();
      comm.herd = config.herd_min + (config.herd_max - config.herd_min) * t;
      target_shared =
          0.02 + config.strongest_shared_target * std::pow(t, 2.5);
    }
    community_target_shared[static_cast<size_t>(ci)] = target_shared;

    int64_t size = std::max<int64_t>(
        4, static_cast<int64_t>(
               std::llround(rng.LogNormal(std::log(avg_size * 0.85), 0.55))));
    size = std::min<int64_t>(size, static_cast<int64_t>(active.size()) / 2);

    // Sample members: Zipf-weighted toward high-degree active investors,
    // capped at kMaxMembershipsPerInvestor communities per investor so the
    // head investors cannot dilute their herding budget across dozens of
    // groups.
    std::unordered_set<size_t> member_idx;
    int64_t attempts = 0;
    while (static_cast<int64_t>(member_idx.size()) < size &&
           attempts++ < size * 30) {
      size_t idx =
          active_by_degree[static_cast<size_t>(member_rank.Sample(rng) - 1)];
      if (memberships_of_active[idx] >= kMaxMembershipsPerInvestor) continue;
      if (member_idx.insert(idx).second) ++memberships_of_active[idx];
    }
    for (size_t idx : member_idx) {
      comm.members.push_back(active[idx]);
      w.users_[active[idx] - 1].communities.push_back(ci);
      community_member_idx[static_cast<size_t>(ci)].push_back(idx);
    }
  }

  // Pass 2: portfolio sizing from the members' actual herding budgets.
  // A member with degree d and n community memberships devotes
  // b = herd * d / n investments to each of its portfolios; expected
  // pairwise shared size is ~ mean(b)^2 / |P|, so |P| = mean(b)^2 / target.
  for (int ci = 0; ci < num_communities; ++ci) {
    CommunityTruth& comm = w.communities_[static_cast<size_t>(ci)];
    double sum_budget = 0;
    for (size_t idx : community_member_idx[static_cast<size_t>(ci)]) {
      int n = std::max(1, memberships_of_active[idx]);
      sum_budget += comm.herd * static_cast<double>(degree_of_active[idx]) /
                    static_cast<double>(n);
    }
    double k_bar =
        comm.members.empty()
            ? 1.0
            : sum_budget / static_cast<double>(comm.members.size());
    double target = community_target_shared[static_cast<size_t>(ci)];
    // CoDA reports the cohesive core of a planted community, whose pairwise
    // sharing runs ~2x above the community-wide average; deflate the
    // planted target accordingly so *detected* strengths match the paper.
    constexpr double kDetectedCoreInflation = 2.0;
    int64_t portfolio_size = std::max<int64_t>(
        4, static_cast<int64_t>(
               std::llround(k_bar * k_bar * kDetectedCoreInflation / target)));
    portfolio_size = std::min<int64_t>(portfolio_size,
                                       static_cast<int64_t>(investable.size()));
    std::unordered_set<CompanyId> pf;
    int64_t pf_attempts = 0;
    while (static_cast<int64_t>(pf.size()) < portfolio_size &&
           pf_attempts++ < portfolio_size * 20) {
      pf.insert(
          investable[rng.NextUint64(static_cast<uint64_t>(investable.size()))]);
    }
    comm.portfolio.assign(pf.begin(), pf.end());
  }

  // ---------------------------------------------------------------------
  // 7. Investments: each active investor mixes community-portfolio draws
  //    (herding) with global popularity-weighted draws.
  // ---------------------------------------------------------------------
  for (size_t ai = 0; ai < active.size(); ++ai) {
    UserTruth& u = w.users_[active[ai] - 1];
    const int64_t d = degree_of_active[ai];
    std::unordered_set<CompanyId> chosen;
    // Community draws first: each membership gets budget herd*d/n, drawn
    // without replacement from the community portfolio.
    for (int ci : u.communities) {
      const CommunityTruth& comm = w.communities_[static_cast<size_t>(ci)];
      if (comm.portfolio.empty()) continue;
      int64_t budget = std::max<int64_t>(
          1, std::llround(comm.herd * static_cast<double>(d) /
                          static_cast<double>(u.communities.size())));
      budget = std::min<int64_t>(
          {budget, static_cast<int64_t>(comm.portfolio.size()),
           d - static_cast<int64_t>(chosen.size())});
      if (budget <= 0) break;
      for (size_t pick_idx : rng.SampleWithoutReplacement(
               comm.portfolio.size(), static_cast<size_t>(budget))) {
        chosen.insert(comm.portfolio[pick_idx]);
      }
    }
    // Fill the remainder with global popularity-weighted picks.
    int64_t attempts = 0;
    const int64_t max_attempts = 8 * d + 20;
    while (static_cast<int64_t>(chosen.size()) < d && attempts++ < max_attempts) {
      chosen.insert(pick_investable(rng));
    }
    u.investments.assign(chosen.begin(), chosen.end());
    std::sort(u.investments.begin(), u.investments.end());
    u.investment_on_angellist.resize(u.investments.size());
    for (size_t e = 0; e < u.investments.size(); ++e) {
      // Edges into unfunded companies have no CrunchBase round to appear
      // in, so they must stay AngelList-visible to keep the merged edge
      // set equal to the ground truth.
      bool funded = w.companies_[u.investments[e] - 1].raised_funding;
      u.investment_on_angellist[e] =
          (!funded || rng.Bernoulli(config.al_visibility_of_investments)) ? 1
                                                                          : 0;
    }
  }

  // ---------------------------------------------------------------------
  // 8. Follow edges (company follows drive the BFS crawl; investors are
  //    prolific followers, paper: 247 on average).
  // ---------------------------------------------------------------------
  auto sample_follow_count = [&](double mean, double sigma) -> int64_t {
    double median = mean / std::exp(sigma * sigma / 2.0);
    return std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(rng.LogNormal(std::log(median), sigma))));
  };

  // Both follow loops dedupe with a stamp per followed id: `stamp[id] == s`
  // marks id as already followed by the user with stamp s (index + 1).
  const ZipfSampler company_rank(num_companies, 0.9);
  std::vector<size_t> company_stamp(static_cast<size_t>(num_companies) + 1, 0);
  for (size_t ui = 0; ui < w.users_.size(); ++ui) {
    UserTruth& u = w.users_[ui];
    const size_t stamp = ui + 1;
    int64_t want = (u.role == UserRole::kInvestor)
                       ? sample_follow_count(config.investor_follows_mean, 1.0)
                       : sample_follow_count(config.other_user_follows_mean, 1.2);
    // The loop stops at want + |investments| follows, so this reserve is
    // the list's final size unless the attempts run out first.
    std::vector<CompanyId>& follows = u.follows_companies;
    follows.reserve(static_cast<size_t>(want) + u.investments.size());
    follows.assign(u.investments.begin(), u.investments.end());
    for (CompanyId c : follows) company_stamp[c] = stamp;
    int64_t attempts = 0;
    const int64_t cap = want * 4 + 16;
    while (static_cast<int64_t>(follows.size()) <
               want + static_cast<int64_t>(u.investments.size()) &&
           attempts++ < cap) {
      // Mix popularity-weighted picks with uniform picks so every company
      // has followers (full BFS coverage needs the tail reachable).
      CompanyId pick;
      if (rng.Bernoulli(0.7)) {
        pick = static_cast<CompanyId>(company_rank.Sample(rng));
      } else {
        pick = static_cast<CompanyId>(rng.NextUint64(
                   static_cast<uint64_t>(num_companies)) + 1);
      }
      if (company_stamp[pick] != stamp) {
        company_stamp[pick] = stamp;
        follows.push_back(pick);
      }
    }
    std::sort(follows.begin(), follows.end());
  }

  // User->user follows: preferential toward investors (ecosystem hubs).
  std::vector<size_t> user_stamp(static_cast<size_t>(num_users) + 1, 0);
  for (size_t ui = 0; ui < w.users_.size(); ++ui) {
    UserTruth& u = w.users_[ui];
    const size_t stamp = ui + 1;
    int64_t want = sample_follow_count(config.user_user_follows_mean, 1.0);
    std::vector<UserId>& follows = u.follows_users;
    follows.reserve(static_cast<size_t>(want));
    int64_t attempts = 0;
    while (static_cast<int64_t>(follows.size()) < want && attempts++ < want * 4 + 8) {
      UserId pick;
      if (!investors.empty() && rng.Bernoulli(0.4)) {
        pick = investors[rng.NextUint64(investors.size())];
      } else {
        pick = static_cast<UserId>(rng.NextUint64(static_cast<uint64_t>(num_users)) + 1);
      }
      if (pick != u.id && user_stamp[pick] != stamp) {
        user_stamp[pick] = stamp;
        follows.push_back(pick);
      }
    }
    std::sort(follows.begin(), follows.end());
  }

  // ---------------------------------------------------------------------
  // 9. Founders per company.
  // ---------------------------------------------------------------------
  for (CompanyTruth& c : w.companies_) {
    if (founders.empty()) break;
    int n = 1 + static_cast<int>(rng.NextUint64(3));
    for (int i = 0; i < n; ++i) {
      c.founders.push_back(founders[rng.NextUint64(founders.size())]);
    }
    std::sort(c.founders.begin(), c.founders.end());
    c.founders.erase(std::unique(c.founders.begin(), c.founders.end()),
                     c.founders.end());
  }

  // ---------------------------------------------------------------------
  // 10. Inverted indices.
  // ---------------------------------------------------------------------
  w.company_followers_.resize(w.companies_.size());
  w.company_investors_.resize(w.companies_.size());
  {
    std::vector<size_t> followers(w.companies_.size(), 0);
    std::vector<size_t> investors_of(w.companies_.size(), 0);
    for (const UserTruth& u : w.users_) {
      for (CompanyId c : u.follows_companies) ++followers[c - 1];
      for (CompanyId c : u.investments) ++investors_of[c - 1];
    }
    for (size_t i = 0; i < w.companies_.size(); ++i) {
      w.company_followers_[i].reserve(followers[i]);
      w.company_investors_[i].reserve(investors_of[i]);
    }
  }
  for (const UserTruth& u : w.users_) {
    for (CompanyId c : u.follows_companies) {
      w.company_followers_[c - 1].push_back(u.id);
    }
    for (CompanyId c : u.investments) {
      w.company_investors_[c - 1].push_back(u.id);
    }
  }

  // ---------------------------------------------------------------------
  // 11. CrunchBase funding rounds. Every investment edge that is hidden
  //     from AngelList must appear in a round; others appear with
  //     cb_coverage probability. Companies with rounds but no recorded
  //     investors still expose amounts (funding data without backers).
  // ---------------------------------------------------------------------
  w.company_rounds_.resize(w.companies_.size());
  for (CompanyTruth& c : w.companies_) {
    if (!c.raised_funding) continue;
    // Which investor edges does CrunchBase know about?
    std::vector<UserId> cb_investors;
    for (UserId inv : w.company_investors_[c.id - 1]) {
      const UserTruth& u = w.users_[inv - 1];
      auto it = std::lower_bound(u.investments.begin(), u.investments.end(), c.id);
      size_t e = static_cast<size_t>(it - u.investments.begin());
      bool on_al = u.investment_on_angellist[e] != 0;
      if (!on_al || rng.Bernoulli(config.cb_coverage_of_investments)) {
        cb_investors.push_back(inv);
      }
    }
    rng.Shuffle(cb_investors);
    int nrounds = std::max(1, c.funding_rounds);
    double per_round = c.raised_amount_usd / nrounds;
    size_t cursor = 0;
    for (int r = 0; r < nrounds; ++r) {
      FundingRound round;
      round.company = c.id;
      round.round_index = r;
      round.amount_usd = per_round * rng.Uniform(0.6, 1.4);
      round.announced_on_micros =
          static_cast<int64_t>(rng.NextUint64(3ull * 365 * 24 * 3600)) * 1000000;
      size_t take = cb_investors.size() / static_cast<size_t>(nrounds);
      if (r == nrounds - 1) take = cb_investors.size() - cursor;
      for (size_t k = 0; k < take && cursor < cb_investors.size(); ++k) {
        round.investors.push_back(cb_investors[cursor++]);
      }
      w.company_rounds_[c.id - 1].push_back(w.rounds_.size());
      w.rounds_.push_back(std::move(round));
    }
  }

  return w;
}

WorldStats World::ComputeStats() const {
  WorldStats s;
  s.num_companies = static_cast<int64_t>(companies_.size());
  s.num_users = static_cast<int64_t>(users_.size());
  for (const CompanyTruth& c : companies_) {
    if (c.has_facebook()) ++s.companies_with_facebook;
    if (c.has_twitter()) ++s.companies_with_twitter;
    if (c.social == SocialCell::kBoth) ++s.companies_with_both;
    if (c.has_demo_video) ++s.companies_with_video;
    if (c.raised_funding) ++s.companies_funded;
    if (c.has_crunchbase) ++s.companies_with_crunchbase;
  }
  double total_follows = 0;
  for (const UserTruth& u : users_) {
    switch (u.role) {
      case UserRole::kInvestor:
        ++s.num_investors;
        total_follows += static_cast<double>(u.follows_companies.size());
        break;
      case UserRole::kFounder:
        ++s.num_founders;
        break;
      case UserRole::kEmployee:
        ++s.num_employees;
        break;
      case UserRole::kOther:
        break;
    }
    s.investment_edges += static_cast<int64_t>(u.investments.size());
    if (!u.investments.empty()) ++s.investing_investors;
  }
  for (const auto& inv : company_investors_) {
    if (!inv.empty()) ++s.companies_with_investors;
  }
  s.mean_investor_follows =
      s.num_investors == 0 ? 0 : total_follows / static_cast<double>(s.num_investors);
  return s;
}

World::DayReport World::EvolveOneDay(Rng& rng) {
  DayReport report;

  // Per-day rates. A campaign runs ~2 weeks on average; launches keep the
  // raising pool roughly stationary.
  constexpr double kCloseRate = 0.07;
  constexpr double kLaunchRate = 0.0004;
  constexpr double kRaisingEngagementDrift = 0.05;
  constexpr double kIdleEngagementDrift = 0.008;

  // Persistent per-company campaign momentum in [0.5, 1.5]: how well the
  // startup works its audience. It scales both engagement growth AND the
  // odds of a successful close — the genuine causal path from social
  // traction to funding that the §7 longitudinal study is designed to
  // detect (and that a one-shot correlation cannot isolate).
  auto momentum_of = [](CompanyId id) {
    return 0.5 + static_cast<double>((id * 2654435761ull) % 1000) / 1000.0;
  };

  // Adds one investment edge (uid -> cid) with all indices kept consistent;
  // no-op if the edge exists. When `round` is given, the edge may be (and,
  // if hidden from AngelList, must be) recorded there.
  auto add_investment = [&](UserId uid, CompanyId cid,
                            FundingRound* round) -> bool {
    UserTruth& u = users_[uid - 1];
    auto it = std::lower_bound(u.investments.begin(), u.investments.end(), cid);
    if (it != u.investments.end() && *it == cid) return false;
    size_t pos = static_cast<size_t>(it - u.investments.begin());
    bool on_al = round == nullptr ||
                 rng.Bernoulli(config_.al_visibility_of_investments);
    u.investments.insert(it, cid);
    u.investment_on_angellist.insert(
        u.investment_on_angellist.begin() + static_cast<long>(pos),
        on_al ? 1 : 0);
    company_investors_[cid - 1].push_back(uid);
    if (round != nullptr &&
        (!on_al || rng.Bernoulli(config_.cb_coverage_of_investments))) {
      round->investors.push_back(uid);
    }
    ++report.new_investments;
    return true;
  };

  for (CompanyTruth& c : companies_) {
    // --- campaign closes ---------------------------------------------------
    if (c.currently_raising && rng.Bernoulli(kCloseRate)) {
      c.currently_raising = false;
      ++report.campaigns_closed;
      // Success odds mirror the static calibration's social signal,
      // scaled by the company's campaign momentum.
      double p = 0.02;
      if (c.has_facebook()) p += 0.10;
      if (c.has_twitter()) p += 0.08;
      if (c.has_demo_video) p += 0.05;
      // Cubic in momentum (normalized to mean ~1 over U[0.5,1.5]) so the
      // traction -> funding path is strong enough to detect from a few
      // weeks of daily snapshots.
      double m = momentum_of(c.id);
      p *= m * m * m / 1.25;
      if (!c.raised_funding && rng.Bernoulli(p)) {
        ++report.campaigns_succeeded;
        c.raised_funding = true;
        c.has_crunchbase = true;
        c.crunchbase_url_listed = rng.Bernoulli(config_.cb_url_listed_rate);
        c.funding_rounds += 1;
        double amount = rng.LogNormal(std::log(8e5), 0.8);
        c.raised_amount_usd += amount;

        FundingRound round;
        round.company = c.id;
        round.round_index = c.funding_rounds - 1;
        round.amount_usd = amount;
        // New backers: a community herds into the deal when one of its
        // members already invests here; otherwise random investors.
        int backers = 1 + static_cast<int>(rng.NextUint64(5));
        const std::vector<UserId>& existing = company_investors_[c.id - 1];
        const CommunityTruth* herd_comm = nullptr;
        if (!existing.empty()) {
          const UserTruth& seed = users_[existing[0] - 1];
          if (!seed.communities.empty()) {
            herd_comm = &communities_[static_cast<size_t>(
                seed.communities[rng.NextUint64(seed.communities.size())])];
          }
        }
        for (int b = 0; b < backers; ++b) {
          UserId backer = 0;
          if (herd_comm != nullptr && rng.Bernoulli(herd_comm->herd)) {
            backer =
                herd_comm->members[rng.NextUint64(herd_comm->members.size())];
          } else {
            // Any investor-role user.
            for (int tries = 0; tries < 32 && backer == 0; ++tries) {
              UserId cand = static_cast<UserId>(
                  rng.NextUint64(static_cast<uint64_t>(users_.size())) + 1);
              if (users_[cand - 1].role == UserRole::kInvestor) backer = cand;
            }
          }
          if (backer != 0) add_investment(backer, c.id, &round);
        }
        company_rounds_[c.id - 1].push_back(rounds_.size());
        rounds_.push_back(std::move(round));
      }
    } else if (!c.currently_raising && !c.raised_funding &&
               rng.Bernoulli(kLaunchRate)) {
      // --- new campaign launches -------------------------------------------
      c.currently_raising = true;
      ++report.campaigns_launched;
    }

    // --- engagement drift (faster while fundraising, scaled by momentum) ----
    double drift =
        (c.currently_raising ? kRaisingEngagementDrift : kIdleEngagementDrift) *
        momentum_of(c.id);
    if (c.has_facebook() && c.facebook_likes > 0) {
      c.facebook_likes += static_cast<int64_t>(std::ceil(
          static_cast<double>(c.facebook_likes) *
          rng.Uniform(0.5 * drift, drift)));
    }
    if (c.has_twitter()) {
      if (c.twitter_followers > 0) {
        c.twitter_followers += static_cast<int64_t>(
            std::ceil(static_cast<double>(c.twitter_followers) *
                      rng.Uniform(0.5 * drift, drift)));
      }
      if (c.currently_raising && rng.Bernoulli(0.5)) ++c.twitter_tweets;
    }
  }
  return report;
}

}  // namespace cfnet::synth
