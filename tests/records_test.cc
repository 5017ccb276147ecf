#include "core/records.h"

#include <gtest/gtest.h>

namespace cfnet::core {
namespace {

template <typename T>
T DecodeOrDie(const char* line) {
  Result<T> decoded = DecodeLine<T>(line);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return decoded.ok() ? std::move(decoded).value() : T{};
}

// --- StartupRecord -----------------------------------------------------------

TEST(StartupRecordTest, FullProfile) {
  StartupRecord r = DecodeOrDie<StartupRecord>(R"({
    "id": 42, "name": "NovaPay 42",
    "twitter_url": "https://twitter.com/startup42",
    "facebook_url": "https://www.facebook.com/fbpage42",
    "crunchbase_url": "https://www.crunchbase.com/organization/company-42",
    "video_url": "https://video.example.com/demo/42",
    "fundraising": true, "follower_count": 77
  })");
  EXPECT_EQ(r.id, 42u);
  EXPECT_EQ(r.name, "NovaPay 42");
  EXPECT_TRUE(r.has_twitter_url);
  EXPECT_TRUE(r.has_facebook_url);
  EXPECT_TRUE(r.has_crunchbase_url);
  EXPECT_TRUE(r.has_video);
  EXPECT_TRUE(r.fundraising);
  EXPECT_EQ(r.follower_count, 77);
}

TEST(StartupRecordTest, MissingOptionalFieldsDefaultCleanly) {
  StartupRecord r =
      DecodeOrDie<StartupRecord>(R"({"id": 7, "name": "X"})");
  EXPECT_EQ(r.id, 7u);
  EXPECT_FALSE(r.has_twitter_url);
  EXPECT_FALSE(r.has_facebook_url);
  EXPECT_FALSE(r.has_crunchbase_url);
  EXPECT_FALSE(r.has_video);
  EXPECT_FALSE(r.fundraising);
  EXPECT_EQ(r.follower_count, 0);
}

TEST(StartupRecordTest, EmptyUrlStringsCountAsAbsent) {
  StartupRecord r = DecodeOrDie<StartupRecord>(
      R"({"id": 1, "twitter_url": "", "video_url": ""})");
  EXPECT_FALSE(r.has_twitter_url);
  EXPECT_FALSE(r.has_video);
}

// --- UserRecord ----------------------------------------------------------------

TEST(UserRecordTest, RolesAndInvestments) {
  UserRecord r = DecodeOrDie<UserRecord>(R"({
    "id": 9, "roles": ["investor", "founder"],
    "investment_company_ids": [3, 1, 4],
    "following_startup_count": 250, "following_user_count": 12
  })");
  EXPECT_EQ(r.id, 9u);
  EXPECT_TRUE(r.is_investor);
  EXPECT_TRUE(r.is_founder);
  EXPECT_FALSE(r.is_employee);
  EXPECT_EQ(r.investment_company_ids, (std::vector<uint64_t>{3, 1, 4}));
  EXPECT_EQ(r.following_startup_count, 250);
  EXPECT_EQ(r.following_user_count, 12);
}

TEST(UserRecordTest, UnknownRolesIgnored) {
  UserRecord r =
      DecodeOrDie<UserRecord>(R"({"id": 2, "roles": ["other", "advisor"]})");
  EXPECT_FALSE(r.is_investor);
  EXPECT_FALSE(r.is_founder);
  EXPECT_FALSE(r.is_employee);
  EXPECT_TRUE(r.investment_company_ids.empty());
}

// --- CrunchBaseRecord -------------------------------------------------------------

TEST(CrunchBaseRecordTest, FlattensRoundInvestors) {
  CrunchBaseRecord r = DecodeOrDie<CrunchBaseRecord>(R"({
    "angellist_id": 11, "total_funding_usd": 2500000.5,
    "funding_rounds": [
      {"round_index": 0, "amount_usd": 1e6, "investor_ids": [100, 101]},
      {"round_index": 1, "amount_usd": 1.5e6, "investor_ids": [101, 102]}
    ]
  })");
  EXPECT_EQ(r.angellist_id, 11u);
  EXPECT_DOUBLE_EQ(r.total_funding_usd, 2500000.5);
  EXPECT_EQ(r.num_rounds, 2);
  EXPECT_EQ(r.round_investor_ids, (std::vector<uint64_t>{100, 101, 101, 102}));
  EXPECT_TRUE(r.funded());
}

TEST(CrunchBaseRecordTest, UnfundedWhenEmpty) {
  CrunchBaseRecord r =
      DecodeOrDie<CrunchBaseRecord>(R"({"angellist_id": 3})");
  EXPECT_FALSE(r.funded());
  EXPECT_EQ(r.num_rounds, 0);
  // Rounds without recorded investors still count as funding evidence.
  CrunchBaseRecord with_round = DecodeOrDie<CrunchBaseRecord>(
      R"({"angellist_id": 3, "funding_rounds": [{"round_index": 0}]})");
  EXPECT_TRUE(with_round.funded());
  EXPECT_TRUE(with_round.round_investor_ids.empty());
}

// --- FacebookRecord / TwitterRecord ---------------------------------------------

TEST(FacebookRecordTest, Fields) {
  FacebookRecord r =
      DecodeOrDie<FacebookRecord>(R"({"angellist_id": 5, "fan_count": 652})");
  EXPECT_EQ(r.angellist_id, 5u);
  EXPECT_EQ(r.fan_count, 652);
}

TEST(TwitterRecordTest, NullFollowerCountFlagged) {
  TwitterRecord null_followers = DecodeOrDie<TwitterRecord>(
      R"({"angellist_id": 6, "statuses_count": 343, "followers_count": null})");
  EXPECT_TRUE(null_followers.followers_count_null);
  EXPECT_EQ(null_followers.followers_count, 0);
  EXPECT_EQ(null_followers.statuses_count, 343);

  TwitterRecord with_followers = DecodeOrDie<TwitterRecord>(
      R"({"angellist_id": 6, "statuses_count": 10, "followers_count": 339})");
  EXPECT_FALSE(with_followers.followers_count_null);
  EXPECT_EQ(with_followers.followers_count, 339);
}

TEST(TwitterRecordTest, MissingFollowerFieldIsNullToo) {
  // A profile without the field at all behaves like a null count (the
  // table's "follower count is not null" row distinguishes them from 0).
  TwitterRecord r =
      DecodeOrDie<TwitterRecord>(R"({"angellist_id": 8, "statuses_count": 1})");
  EXPECT_TRUE(r.followers_count_null);
}

}  // namespace
}  // namespace cfnet::core
