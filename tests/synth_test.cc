#include "synth/world.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "fnv_digest.h"

namespace cfnet::synth {
namespace {

WorldConfig TestConfig(double scale = 0.02) {
  WorldConfig config;
  config.scale = scale;
  config.seed = 42;
  return config;
}

class WorldFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World(World::Generate(TestConfig()));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static const World& world() { return *world_; }

 private:
  static World* world_;
};

World* WorldFixture::world_ = nullptr;

TEST_F(WorldFixture, PopulationCountsMatchScale) {
  WorldStats s = world().ComputeStats();
  EXPECT_EQ(s.num_companies, static_cast<int64_t>(744036 * 0.02));
  EXPECT_EQ(s.num_users, static_cast<int64_t>(1109441 * 0.02));
}

TEST_F(WorldFixture, SocialPresenceFractionsCalibrated) {
  WorldStats s = world().ComputeStats();
  double n = static_cast<double>(s.num_companies);
  EXPECT_NEAR(s.companies_with_facebook / n, 0.0507, 0.006);
  EXPECT_NEAR(s.companies_with_twitter / n, 0.0948, 0.008);
  EXPECT_NEAR(s.companies_with_both / n, 0.0437, 0.006);
  EXPECT_NEAR(s.companies_with_video / n, 0.0488, 0.006);
}

TEST_F(WorldFixture, RoleFractionsCalibrated) {
  WorldStats s = world().ComputeStats();
  double n = static_cast<double>(s.num_users);
  EXPECT_NEAR(s.num_investors / n, 0.043, 0.005);
  EXPECT_NEAR(s.num_founders / n, 0.183, 0.01);
  EXPECT_NEAR(s.num_employees / n, 0.442, 0.012);
}

TEST_F(WorldFixture, FundingRateAndCrunchBaseConsistent) {
  WorldStats s = world().ComputeStats();
  double n = static_cast<double>(s.num_companies);
  // Overall funding success ~1.37% (10,156 / 744,036 in the paper).
  EXPECT_NEAR(s.companies_funded / n, 0.0137, 0.004);
  // CrunchBase profiles exist exactly for funded companies.
  EXPECT_EQ(s.companies_funded, s.companies_with_crunchbase);
}

TEST_F(WorldFixture, NoSocialSuccessRateNearPaper) {
  int64_t none = 0;
  int64_t none_funded = 0;
  for (const auto& c : world().companies()) {
    if (c.social == SocialCell::kNone) {
      ++none;
      if (c.raised_funding) ++none_funded;
    }
  }
  EXPECT_NEAR(100.0 * none_funded / none, 0.4, 0.2);
}

TEST_F(WorldFixture, InvestmentDegreesCalibrated) {
  std::vector<size_t> degrees;
  for (const auto& u : world().users()) {
    if (!u.investments.empty()) degrees.push_back(u.investments.size());
  }
  ASSERT_GT(degrees.size(), 100u);
  double mean = 0;
  for (size_t d : degrees) mean += static_cast<double>(d);
  mean /= static_cast<double>(degrees.size());
  EXPECT_NEAR(mean, 3.3, 0.8);
  std::sort(degrees.begin(), degrees.end());
  EXPECT_EQ(degrees[degrees.size() / 2], 1u);  // median 1
  EXPECT_GT(degrees.back(), 50u);              // long tail
}

TEST_F(WorldFixture, InvestmentsSortedUniqueAndValid) {
  for (const auto& u : world().users()) {
    ASSERT_EQ(u.investments.size(), u.investment_on_angellist.size());
    for (size_t i = 0; i < u.investments.size(); ++i) {
      CompanyId c = u.investments[i];
      ASSERT_GE(c, 1u);
      ASSERT_LE(c, world().companies().size());
      if (i > 0) {
        ASSERT_LT(u.investments[i - 1], c);
      }
    }
    if (!u.investments.empty()) {
      EXPECT_EQ(u.role, UserRole::kInvestor);
    }
  }
}

TEST_F(WorldFixture, HiddenAngelListEdgesAppearInCrunchBaseRounds) {
  // Invariant: every investment edge missing from the AngelList profile is
  // recorded in some CrunchBase round of that company, so the paper's
  // two-source merge recovers the exact truth edge set.
  for (const auto& u : world().users()) {
    for (size_t i = 0; i < u.investments.size(); ++i) {
      if (u.investment_on_angellist[i]) continue;
      CompanyId c = u.investments[i];
      bool found = false;
      for (size_t round_idx : world().RoundsOf(c)) {
        const FundingRound& round = world().rounds()[round_idx];
        if (std::find(round.investors.begin(), round.investors.end(), u.id) !=
            round.investors.end()) {
          found = true;
          break;
        }
      }
      // Only funded companies have rounds; hidden edges into unfunded
      // companies would be unrecoverable. Verify they don't exist...
      // unless the company is unfunded, in which case the edge must be
      // AngelList-visible. (Checked by this assertion failing otherwise.)
      if (!world().companies()[c - 1].raised_funding) {
        ADD_FAILURE() << "hidden AL edge into unfunded company " << c;
      } else {
        EXPECT_TRUE(found) << "hidden AL edge (" << u.id << "," << c
                           << ") not in any CB round";
      }
    }
  }
}

TEST_F(WorldFixture, InvertedIndicesConsistent) {
  for (const auto& u : world().users()) {
    for (CompanyId c : u.follows_companies) {
      const auto& followers = world().FollowersOf(c);
      EXPECT_NE(std::find(followers.begin(), followers.end(), u.id),
                followers.end());
    }
    for (CompanyId c : u.investments) {
      const auto& investors = world().InvestorsOf(c);
      EXPECT_NE(std::find(investors.begin(), investors.end(), u.id),
                investors.end());
    }
  }
}

TEST_F(WorldFixture, EveryUserFollowsAtLeastOneCompany) {
  for (const auto& u : world().users()) {
    EXPECT_GE(u.follows_companies.size(), 1u);
  }
}

TEST_F(WorldFixture, CommunitiesPlantedWithPortfoliosAndMembers) {
  ASSERT_EQ(world().communities().size(), 96u);
  for (const auto& comm : world().communities()) {
    EXPECT_GE(comm.members.size(), 4u);
    EXPECT_GE(comm.portfolio.size(), 4u);
    EXPECT_GT(comm.herd, 0.0);
    EXPECT_LE(comm.herd, 1.0);
    for (UserId m : comm.members) {
      const UserTruth* u = world().FindUser(m);
      ASSERT_NE(u, nullptr);
      EXPECT_NE(std::find(u->communities.begin(), u->communities.end(),
                          comm.id),
                u->communities.end());
    }
  }
  // The designated strongest community herds at 0.95.
  EXPECT_DOUBLE_EQ(world().communities()[0].herd, 0.95);
}

TEST_F(WorldFixture, StrongCommunityHasHighCoInvestment) {
  const CommunityTruth& strong = world().communities()[0];
  // Mean pairwise shared investments should be near the 2.1 target.
  double total = 0;
  size_t pairs = 0;
  for (size_t i = 0; i < strong.members.size(); ++i) {
    const UserTruth* a = world().FindUser(strong.members[i]);
    for (size_t j = i + 1; j < strong.members.size(); ++j) {
      const UserTruth* b = world().FindUser(strong.members[j]);
      std::vector<CompanyId> shared;
      std::set_intersection(a->investments.begin(), a->investments.end(),
                            b->investments.begin(), b->investments.end(),
                            std::back_inserter(shared));
      total += static_cast<double>(shared.size());
      ++pairs;
    }
  }
  ASSERT_GT(pairs, 0u);
  EXPECT_GT(total / static_cast<double>(pairs), 1.0);
}

TEST_F(WorldFixture, FoundersAreFounderRoleUsers) {
  for (const auto& c : world().companies()) {
    EXPECT_GE(c.founders.size(), 1u);
    EXPECT_LE(c.founders.size(), 3u);
    for (UserId f : c.founders) {
      const UserTruth* u = world().FindUser(f);
      ASSERT_NE(u, nullptr);
      EXPECT_EQ(u->role, UserRole::kFounder);
    }
  }
}

TEST_F(WorldFixture, FundingRoundsBelongToFundedCompanies) {
  for (const auto& round : world().rounds()) {
    const CompanyTruth* c = world().FindCompany(round.company);
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->raised_funding);
    EXPECT_GT(round.amount_usd, 0.0);
  }
}

TEST(WorldGenerateTest, DeterministicPerSeed) {
  World a = World::Generate(TestConfig(0.005));
  World b = World::Generate(TestConfig(0.005));
  ASSERT_EQ(a.companies().size(), b.companies().size());
  for (size_t i = 0; i < a.companies().size(); i += 97) {
    EXPECT_EQ(a.companies()[i].name, b.companies()[i].name);
    EXPECT_EQ(a.companies()[i].raised_funding, b.companies()[i].raised_funding);
    EXPECT_EQ(a.companies()[i].facebook_likes, b.companies()[i].facebook_likes);
  }
  for (size_t i = 0; i < a.users().size(); i += 101) {
    EXPECT_EQ(a.users()[i].investments, b.users()[i].investments);
  }
}

TEST(WorldGenerateTest, DifferentSeedsDiffer) {
  WorldConfig c1 = TestConfig(0.005);
  WorldConfig c2 = TestConfig(0.005);
  c2.seed = 43;
  World a = World::Generate(c1);
  World b = World::Generate(c2);
  size_t diffs = 0;
  for (size_t i = 0; i < a.companies().size(); ++i) {
    if (a.companies()[i].social != b.companies()[i].social) ++diffs;
  }
  EXPECT_GT(diffs, 0u);
}

TEST(WorldGenerateTest, MinimumSizeFloor) {
  WorldConfig config = TestConfig(0.00001);  // would be ~7 companies
  World w = World::Generate(config);
  EXPECT_GE(w.companies().size(), 100u);
  EXPECT_GE(w.users().size(), 200u);
}

TEST(WorldGenerateTest, MedianEngagementNearConfigured) {
  World w = World::Generate(TestConfig(0.05));
  std::vector<int64_t> likes;
  for (const auto& c : w.companies()) {
    if (c.has_facebook() && c.facebook_likes > 0) {
      likes.push_back(c.facebook_likes);
    }
  }
  ASSERT_GT(likes.size(), 500u);
  std::sort(likes.begin(), likes.end());
  double median = static_cast<double>(likes[likes.size() / 2]);
  EXPECT_NEAR(median, 652, 652 * 0.15);
}

/// Folds every field of a generated world, and its three inverted indices,
/// into one FNV digest.
class WorldDigest : public FnvDigest {
 public:
  template <typename T>
  void Ints(const std::vector<T>& xs) {
    Word(xs.size());
    for (T x : xs) Word(static_cast<uint64_t>(x));
  }
  void Str(const std::string& s) {
    Word(s.size());
    for (unsigned char ch : s) Word(ch);
  }

  void Add(const World& w) {
    for (const CompanyTruth& c : w.companies()) {
      Word(c.id);
      Str(c.name);
      Word(c.currently_raising);
      Word(static_cast<uint64_t>(c.social));
      Word(c.has_demo_video);
      Word(c.raised_funding);
      Word(c.has_crunchbase);
      Word(c.crunchbase_url_listed);
      Word(static_cast<uint64_t>(c.facebook_likes));
      Word(static_cast<uint64_t>(c.twitter_tweets));
      Word(static_cast<uint64_t>(c.twitter_followers));
      Word(c.twitter_followers_null);
      Bits(c.raised_amount_usd);
      Word(static_cast<uint64_t>(c.funding_rounds));
      Ints(c.founders);
      Ints(w.FollowersOf(c.id));
      Ints(w.InvestorsOf(c.id));
      Ints(w.RoundsOf(c.id));
    }
    for (const UserTruth& u : w.users()) {
      Word(u.id);
      Str(u.name);
      Word(static_cast<uint64_t>(u.role));
      Ints(u.follows_companies);
      Ints(u.follows_users);
      Ints(u.investments);
      Ints(u.investment_on_angellist);
      Ints(u.communities);
    }
    for (const CommunityTruth& c : w.communities()) {
      Word(static_cast<uint64_t>(c.id));
      Bits(c.herd);
      Ints(c.members);
      Ints(c.portfolio);
    }
    for (const FundingRound& r : w.rounds()) {
      Word(r.company);
      Word(static_cast<uint64_t>(r.round_index));
      Bits(r.amount_usd);
      Word(static_cast<uint64_t>(r.announced_on_micros));
      Ints(r.investors);
    }
  }
};

TEST(WorldGenerateTest, PinnedDigest) {
  struct Pin {
    double scale;
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {{0.002, 42, 0xe2cf78097c131b6aull},
                      {0.002, 7, 0x2b0bcd47673ba746ull},
                      {0.012, 42, 0x86d3c744ad0d35d6ull},
                      {0.012, 7, 0xcdfba559072d396cull}};
  for (const Pin& pin : pins) {
    WorldConfig config = TestConfig(pin.scale);
    config.seed = pin.seed;
    WorldDigest digest;
    digest.Add(World::Generate(config));
    EXPECT_EQ(digest.value(), pin.digest)
        << "scale " << pin.scale << " seed " << pin.seed << std::hex << " 0x"
        << digest.value();
  }
}

}  // namespace
}  // namespace cfnet::synth
