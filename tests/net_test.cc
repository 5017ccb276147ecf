#include <set>

#include <gtest/gtest.h>

#include "net/social_web.h"
#include "net/urls.h"
#include "synth/world.h"

namespace cfnet::net {
namespace {

const synth::World& TestWorld() {
  static synth::World* world = []() {
    synth::WorldConfig config;
    config.scale = 0.004;  // ~3000 companies
    config.seed = 7;
    return new synth::World(synth::World::Generate(config));
  }();
  return *world;
}


/// Deterministic tests need exact request counts, so transient-error
/// injection is disabled unless a test exercises it explicitly.
ServiceConfig NoErrors(ServiceConfig config = {}) {
  config.transient_error_rate = 0;
  return config;
}

// --- rate limiter ------------------------------------------------------------

TEST(RateLimiterTest, AdmitsUpToWindowCapacity) {
  SlidingWindowRateLimiter limiter(3, 1000);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(limiter.Admit("tok", 100 + i).admitted);
  }
  auto d = limiter.Admit("tok", 103);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.retry_at_micros, 100 + 1000);
  EXPECT_EQ(limiter.AdmittedCount("tok"), 3);
}

TEST(RateLimiterTest, WindowSlides) {
  SlidingWindowRateLimiter limiter(2, 1000);
  EXPECT_TRUE(limiter.Admit("t", 0).admitted);
  EXPECT_TRUE(limiter.Admit("t", 500).admitted);
  EXPECT_FALSE(limiter.Admit("t", 900).admitted);
  EXPECT_TRUE(limiter.Admit("t", 1001).admitted);  // first call expired
  EXPECT_FALSE(limiter.Admit("t", 1400).admitted); // 500 + 1001 still active
  EXPECT_TRUE(limiter.Admit("t", 1501).admitted);
}

TEST(RateLimiterTest, TokensAreIndependent) {
  SlidingWindowRateLimiter limiter(1, 1000);
  EXPECT_TRUE(limiter.Admit("a", 0).admitted);
  EXPECT_TRUE(limiter.Admit("b", 0).admitted);
  EXPECT_FALSE(limiter.Admit("a", 1).admitted);
}

TEST(RateLimiterTest, OutOfOrderTimestamps) {
  SlidingWindowRateLimiter limiter(2, 1000);
  EXPECT_TRUE(limiter.Admit("t", 500).admitted);
  EXPECT_TRUE(limiter.Admit("t", 100).admitted);  // earlier worker clock
  auto d = limiter.Admit("t", 600);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.retry_at_micros, 1100);  // oldest (100) + window
}

// --- token registry ------------------------------------------------------------

TEST(TokenRegistryTest, AppCapEnforced) {
  TokenRegistry registry;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(registry.RegisterApp("alice").ok());
  }
  auto sixth = registry.RegisterApp("alice");
  EXPECT_FALSE(sixth.ok());
  EXPECT_TRUE(sixth.status().IsResourceExhausted());
  EXPECT_TRUE(registry.RegisterApp("bob").ok());  // other owners unaffected
}

TEST(TokenRegistryTest, ShortLivedTokenExpires) {
  TokenRegistry registry;
  std::string tok = registry.IssueShortLivedToken("u", 1000, 500);
  EXPECT_TRUE(registry.IsValid(tok, 1400));
  EXPECT_FALSE(registry.IsValid(tok, 1500));
  EXPECT_FALSE(registry.IsValid("garbage", 0));
}

TEST(TokenRegistryTest, ExchangeYieldsLongLived) {
  TokenRegistry registry;
  std::string short_tok = registry.IssueShortLivedToken("u", 0, 100);
  auto long_tok = registry.ExchangeForLongLived(short_tok, 50);
  ASSERT_TRUE(long_tok.ok());
  EXPECT_TRUE(registry.IsValid(*long_tok, 1e15));
  // Expired short token cannot be exchanged.
  auto late = registry.ExchangeForLongLived(short_tok, 200);
  EXPECT_FALSE(late.ok());
}

// --- AngelList ---------------------------------------------------------------

TEST(AngelListServiceTest, RaisingListingPaginates) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  int64_t t = 0;
  std::set<int64_t> ids;
  int64_t page = 1;
  int64_t last_page = 1;
  do {
    ApiResponse resp = al.Handle(
        ApiRequest("startups.raising", {{"page", std::to_string(page)}}), &t);
    ASSERT_TRUE(resp.ok());
    last_page = resp.body.Get("last_page").AsInt();
    for (const auto& s : resp.body.Get("startups").array()) {
      ids.insert(s.Get("id").AsInt());
    }
    ++page;
  } while (page <= last_page);
  // Every currently-raising company appears exactly once.
  size_t expected = 0;
  for (const auto& c : TestWorld().companies()) {
    if (c.currently_raising) ++expected;
  }
  EXPECT_EQ(ids.size(), expected);
  EXPECT_GT(t, 0);  // latency accrued onto the worker clock
}

TEST(AngelListServiceTest, StartupProfileFields) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  // Find a company with both social accounts and a CrunchBase link.
  const synth::CompanyTruth* target = nullptr;
  for (const auto& c : TestWorld().companies()) {
    if (c.social == synth::SocialCell::kBoth && c.crunchbase_url_listed) {
      target = &c;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  int64_t t = 0;
  ApiResponse resp = al.Handle(
      ApiRequest("startups.get", {{"id", std::to_string(target->id)}}), &t);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.body.Get("name").AsString(), target->name);
  EXPECT_EQ(resp.body.Get("twitter_url").AsString(), TwitterUrl(target->id));
  EXPECT_EQ(resp.body.Get("facebook_url").AsString(), FacebookUrl(target->id));
  EXPECT_EQ(resp.body.Get("crunchbase_url").AsString(),
            CrunchBaseUrl(target->id));
  EXPECT_GE(resp.body.Get("founder_ids").size(), 1u);
}

TEST(AngelListServiceTest, ProfileOmitsAbsentLinks) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  const synth::CompanyTruth* target = nullptr;
  for (const auto& c : TestWorld().companies()) {
    if (c.social == synth::SocialCell::kNone) {
      target = &c;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  int64_t t = 0;
  ApiResponse resp = al.Handle(
      ApiRequest("startups.get", {{"id", std::to_string(target->id)}}), &t);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.body.Has("twitter_url"));
  EXPECT_FALSE(resp.body.Has("facebook_url"));
}

TEST(AngelListServiceTest, UserProfileExposesOnlyVisibleInvestments) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  const synth::UserTruth* investor = nullptr;
  for (const auto& u : TestWorld().users()) {
    bool has_hidden = false;
    for (uint8_t v : u.investment_on_angellist) has_hidden |= v == 0;
    if (has_hidden) {
      investor = &u;
      break;
    }
  }
  ASSERT_NE(investor, nullptr) << "expected at least one partially-hidden "
                                  "portfolio in the test world";
  int64_t t = 0;
  ApiResponse resp = al.Handle(
      ApiRequest("users.get", {{"id", std::to_string(investor->id)}}), &t);
  ASSERT_TRUE(resp.ok());
  size_t visible = 0;
  for (uint8_t v : investor->investment_on_angellist) visible += v;
  EXPECT_EQ(resp.body.Get("investment_company_ids").size(), visible);
  EXPECT_LT(visible, investor->investments.size());
}

TEST(AngelListServiceTest, FollowersPaginationCoversAll) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  // Pick the most-followed company to force multiple pages.
  synth::CompanyId best = 1;
  size_t best_count = 0;
  for (const auto& c : TestWorld().companies()) {
    size_t n = TestWorld().FollowersOf(c.id).size();
    if (n > best_count) {
      best_count = n;
      best = c.id;
    }
  }
  ASSERT_GT(best_count, 50u);  // page size default
  int64_t t = 0;
  std::set<int64_t> seen;
  int64_t page = 1;
  int64_t last = 1;
  do {
    ApiResponse resp =
        al.Handle(ApiRequest("startups.followers",
                             {{"id", std::to_string(best)},
                              {"page", std::to_string(page)}}),
                  &t);
    ASSERT_TRUE(resp.ok());
    last = resp.body.Get("last_page").AsInt();
    for (const auto& f : resp.body.Get("follower_ids").array()) {
      seen.insert(f.AsInt());
    }
    ++page;
  } while (page <= last);
  EXPECT_EQ(seen.size(), best_count);
}

TEST(AngelListServiceTest, NotFoundAndBadEndpoint) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  int64_t t = 0;
  EXPECT_EQ(al.Handle(ApiRequest("startups.get", {{"id", "999999999"}}), &t)
                .status,
            404);
  EXPECT_EQ(al.Handle(ApiRequest("nope"), &t).status, 400);
  EXPECT_EQ(al.Handle(ApiRequest("startups.raising", {{"page", "99999"}}), &t)
                .status,
            404);
}

// --- CrunchBase ----------------------------------------------------------------

TEST(CrunchBaseServiceTest, FundedOrganizationFetchable) {
  CrunchBaseService cb(&TestWorld(), NoErrors({.latency_mean_micros = 120000}));
  const synth::CompanyTruth* funded = nullptr;
  for (const auto& c : TestWorld().companies()) {
    if (c.raised_funding) {
      funded = &c;
      break;
    }
  }
  ASSERT_NE(funded, nullptr);
  int64_t t = 0;
  ApiResponse resp = cb.Handle(
      ApiRequest("organizations.get",
                 {{"permalink", CrunchBasePermalink(funded->id)}}),
      &t);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.body.Get("angellist_url").AsString(),
            AngelListCompanyUrl(funded->id));
  EXPECT_GT(resp.body.Get("total_funding_usd").AsDouble(), 0.0);
  EXPECT_GE(resp.body.Get("funding_rounds").size(), 1u);
}

TEST(CrunchBaseServiceTest, UnfundedOrganizationIs404) {
  CrunchBaseService cb(&TestWorld(), NoErrors({.latency_mean_micros = 120000}));
  const synth::CompanyTruth* unfunded = nullptr;
  for (const auto& c : TestWorld().companies()) {
    if (!c.raised_funding) {
      unfunded = &c;
      break;
    }
  }
  ASSERT_NE(unfunded, nullptr);
  int64_t t = 0;
  ApiResponse resp = cb.Handle(
      ApiRequest("organizations.get",
                 {{"permalink", CrunchBasePermalink(unfunded->id)}}),
      &t);
  EXPECT_EQ(resp.status, 404);
}

TEST(CrunchBaseServiceTest, SearchByExactName) {
  CrunchBaseService cb(&TestWorld(), NoErrors({.latency_mean_micros = 120000}));
  const synth::CompanyTruth* funded = nullptr;
  for (const auto& c : TestWorld().companies()) {
    if (c.raised_funding) {
      funded = &c;
      break;
    }
  }
  ASSERT_NE(funded, nullptr);
  int64_t t = 0;
  ApiResponse resp = cb.Handle(
      ApiRequest("organizations.search", {{"name", funded->name}}), &t);
  ASSERT_TRUE(resp.ok());
  ASSERT_GE(resp.body.Get("results").size(), 1u);
  EXPECT_EQ(resp.body.Get("results").at(0).Get("name").AsString(),
            funded->name);
  // Unknown names return empty result sets.
  ApiResponse none = cb.Handle(
      ApiRequest("organizations.search", {{"name", "No Such Startup 0"}}), &t);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.body.Get("results").size(), 0u);
}

// --- Facebook --------------------------------------------------------------------

TEST(FacebookServiceTest, OAuthFlowAndPageFetch) {
  FacebookService fb(&TestWorld(), NoErrors({.latency_mean_micros = 90000, .requires_token = true}));
  int64_t t = 0;
  // Unauthenticated page fetch fails.
  const synth::CompanyTruth* with_fb = nullptr;
  for (const auto& c : TestWorld().companies()) {
    if (c.has_facebook()) {
      with_fb = &c;
      break;
    }
  }
  ASSERT_NE(with_fb, nullptr);
  ApiRequest page_req("page.get", {{"page_id", FacebookPageId(with_fb->id)}});
  EXPECT_EQ(fb.Handle(page_req, &t).status, 401);

  // Short-lived token works until it expires; long-lived forever.
  ApiResponse short_resp =
      fb.Handle(ApiRequest("oauth.token", {{"user", "crawler"}}), &t);
  ASSERT_TRUE(short_resp.ok());
  std::string short_tok = short_resp.body.Get("access_token").AsString();
  page_req.access_token = short_tok;
  EXPECT_TRUE(fb.Handle(page_req, &t).ok());

  ApiResponse long_resp =
      fb.Handle(ApiRequest("oauth.exchange", {{"token", short_tok}}), &t);
  ASSERT_TRUE(long_resp.ok());
  EXPECT_TRUE(long_resp.body.Get("long_lived").AsBool());
  std::string long_tok = long_resp.body.Get("access_token").AsString();

  // Advance past short-token expiry: short fails, long still works.
  t += FacebookService::kShortTokenTtlMicros + 1;
  page_req.access_token = short_tok;
  EXPECT_EQ(fb.Handle(page_req, &t).status, 401);
  page_req.access_token = long_tok;
  ApiResponse page = fb.Handle(page_req, &t);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.body.Get("fan_count").AsInt(), with_fb->facebook_likes);
  EXPECT_FALSE(page.body.Get("location").AsString().empty());
}

// --- Twitter ---------------------------------------------------------------------

TEST(TwitterServiceTest, RateLimitAndTokenSharding) {
  TwitterService tw(&TestWorld(),
                    NoErrors({.latency_mean_micros = 70000,
                              .requires_token = true,
                              .rate_limit_calls = 180,
                              .rate_limit_window_micros = 15ll * 60 * 1000000}));
  int64_t t = 0;
  ApiResponse reg =
      tw.Handle(ApiRequest("apps.register", {{"owner", "m0"}}), &t);
  ASSERT_TRUE(reg.ok());
  std::string tok = reg.body.Get("access_token").AsString();

  const synth::CompanyTruth* with_tw = nullptr;
  for (const auto& c : TestWorld().companies()) {
    if (c.has_twitter()) {
      with_tw = &c;
      break;
    }
  }
  ASSERT_NE(with_tw, nullptr);
  ApiRequest req("users.show",
                 {{"screen_name", TwitterScreenName(with_tw->id)}}, tok);

  // 180 calls pass; the 181st within the window is rejected with retry info.
  int64_t t0 = t;
  int ok_count = 0;
  ApiResponse last;
  for (int i = 0; i < 181; ++i) {
    // Keep all calls inside one 15-minute window.
    t = t0 + i;  // microseconds apart
    last = tw.Handle(req, &t);
    if (last.ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, 180);
  EXPECT_EQ(last.status, 429);
  EXPECT_GT(last.body.Get("retry_at_micros").AsInt(), t0);

  // A second token is unaffected.
  ApiResponse reg2 =
      tw.Handle(ApiRequest("apps.register", {{"owner", "m1"}}), &t);
  ASSERT_TRUE(reg2.ok());
  req.access_token = reg2.body.Get("access_token").AsString();
  EXPECT_TRUE(tw.Handle(req, &t).ok());

  // After the window passes, the first token admits again.
  t = t0 + 15ll * 60 * 1000000 + 1000;
  req.access_token = tok;
  EXPECT_TRUE(tw.Handle(req, &t).ok());
}

TEST(TwitterServiceTest, ProfileFieldsAndNullFollowers) {
  synth::WorldConfig config;
  config.scale = 0.004;
  config.seed = 11;
  config.tw_followers_null_rate = 0.5;  // make nulls common for the test
  synth::World world = synth::World::Generate(config);
  TwitterService tw(&world,
                    NoErrors({.latency_mean_micros = 70000,
                              .requires_token = true,
                              .rate_limit_calls = 180,
                              .rate_limit_window_micros = 15ll * 60 * 1000000}));
  int64_t t = 0;
  ApiResponse reg =
      tw.Handle(ApiRequest("apps.register", {{"owner", "m"}}), &t);
  std::string tok = reg.body.Get("access_token").AsString();

  bool saw_null = false;
  bool saw_value = false;
  for (const auto& c : world.companies()) {
    if (!c.has_twitter()) continue;
    ApiResponse resp = tw.Handle(
        ApiRequest("users.show", {{"screen_name", TwitterScreenName(c.id)}},
                   tok),
        &t);
    if (resp.status == 429) {
      t = resp.body.Get("retry_at_micros").AsInt();
      continue;
    }
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.body.Get("statuses_count").AsInt(), c.twitter_tweets);
    if (resp.body.Get("followers_count").is_null()) {
      saw_null = true;
    } else {
      saw_value = true;
    }
    if (saw_null && saw_value) break;
  }
  EXPECT_TRUE(saw_null);
  EXPECT_TRUE(saw_value);
}

TEST(TwitterServiceTest, AppCapReturns403) {
  TwitterService tw(&TestWorld(),
                    NoErrors({.latency_mean_micros = 70000,
                              .requires_token = true,
                              .rate_limit_calls = 180,
                              .rate_limit_window_micros = 15ll * 60 * 1000000}));
  int64_t t = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        tw.Handle(ApiRequest("apps.register", {{"owner", "solo"}}), &t).ok());
  }
  EXPECT_EQ(tw.Handle(ApiRequest("apps.register", {{"owner", "solo"}}), &t)
                .status,
            403);
}

// --- cross-cutting service behaviour ------------------------------------------

TEST(ApiServiceTest, TransientErrorsInjected) {
  ServiceConfig config;
  config.transient_error_rate = 0.5;
  AngelListService al(&TestWorld(), config);
  int64_t t = 0;
  int errors = 0;
  for (int i = 0; i < 200; ++i) {
    ApiResponse resp =
        al.Handle(ApiRequest("startups.get", {{"id", "1"}}), &t);
    if (resp.status == 503) ++errors;
  }
  EXPECT_GT(errors, 50);
  EXPECT_LT(errors, 150);
  EXPECT_EQ(al.stats().transient_errors.load(), errors);
}

TEST(ApiServiceTest, StatsCounters) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  int64_t t = 0;
  al.Handle(ApiRequest("startups.get", {{"id", "1"}}), &t);
  al.Handle(ApiRequest("startups.get", {{"id", "999999999"}}), &t);
  EXPECT_EQ(al.stats().total.load(), 2);
  EXPECT_EQ(al.stats().not_found.load(), 1);
}

TEST(UrlsTest, RoundTripHandles) {
  EXPECT_EQ(CompanyIdFromTwitterScreenName(TwitterScreenName(42)), 42u);
  EXPECT_EQ(CompanyIdFromFacebookPageId(FacebookPageId(42)), 42u);
  EXPECT_EQ(CompanyIdFromCrunchBasePermalink(CrunchBasePermalink(42)), 42u);
  EXPECT_EQ(CompanyIdFromTwitterScreenName("notahandle"), 0u);
  EXPECT_EQ(CompanyIdFromTwitterScreenName("startup"), 0u);
  EXPECT_EQ(CompanyIdFromTwitterScreenName("startup12x"), 0u);
}

}  // namespace
}  // namespace cfnet::net

namespace cfnet::net {
namespace {

TEST(ApiServiceTest, OutageWindowRejectsUntilItEnds) {
  AngelListService al(&TestWorld(), NoErrors({.latency_mean_micros = 80000}));
  FaultPlan outage;  // down for seconds 1..5 of virtual time
  outage.error_bursts = {{1000000, 5000000, 1.0}};
  al.set_fault_plan(outage);
  ApiRequest req("startups.get", {{"id", "1"}});

  int64_t t = 0;  // before the outage
  EXPECT_TRUE(al.Handle(req, &t).ok());

  t = 2000000;  // inside
  ApiResponse down = al.Handle(req, &t);
  EXPECT_EQ(down.status, 503);
  EXPECT_GT(al.stats().injected_errors.load(), 0);

  t = 6000000;  // after
  EXPECT_TRUE(al.Handle(req, &t).ok());
}

}  // namespace
}  // namespace cfnet::net
