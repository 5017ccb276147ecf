#include "crawler/crawler.h"

#include <set>

#include <gtest/gtest.h>

#include "crawler/periodic.h"
#include "dfs/commit.h"
#include "dfs/jsonl.h"
#include "net/social_web.h"
#include "synth/world.h"
#include "util/rng.h"

namespace cfnet::crawler {
namespace {

struct TestBed {
  std::unique_ptr<synth::World> world;
  std::unique_ptr<net::SocialWeb> web;
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::unique_ptr<Crawler> crawler;
};

TestBed MakeTestBed(double scale = 0.003, int workers = 4,
                    CrawlConfig config = {}) {
  TestBed bed;
  synth::WorldConfig wc;
  wc.scale = scale;
  wc.seed = 99;
  bed.world = std::make_unique<synth::World>(synth::World::Generate(wc));
  bed.web = std::make_unique<net::SocialWeb>(bed.world.get());
  bed.dfs = std::make_unique<dfs::MiniDfs>();
  config.num_workers = workers;
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
  return bed;
}

class CrawlerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bed_ = new TestBed(MakeTestBed());
    ASSERT_TRUE(bed_->crawler->Run().ok());
  }
  static void TearDownTestSuite() {
    delete bed_;
    bed_ = nullptr;
  }
  static TestBed& bed() { return *bed_; }

 private:
  static TestBed* bed_;
};

TestBed* CrawlerFixture::bed_ = nullptr;

TEST_F(CrawlerFixture, BfsDiscoversEssentiallyEverything) {
  const CrawlReport& report = bed().crawler->report();
  // Follow edges connect the graph densely, so the frontier BFS reaches
  // (essentially) every company and user, like the paper's >700K of 744K.
  EXPECT_GE(report.companies_crawled,
            static_cast<int64_t>(bed().world->companies().size() * 95 / 100));
  EXPECT_GE(report.users_crawled,
            static_cast<int64_t>(bed().world->users().size() * 95 / 100));
  EXPECT_GE(report.bfs_rounds, 2);
}

TEST_F(CrawlerFixture, CrunchBaseProfilesMatchFundedCompanies) {
  const CrawlReport& report = bed().crawler->report();
  int64_t funded = 0;
  for (const auto& c : bed().world->companies()) {
    if (c.raised_funding) ++funded;
  }
  // Backlink verification rejects false name matches; every funded company
  // that was crawled should be augmented (URL or unique-name search).
  EXPECT_LE(report.crunchbase_profiles, funded);
  EXPECT_GE(report.crunchbase_profiles, funded * 9 / 10);
  EXPECT_GT(report.crunchbase_matched_by_url, 0);
  EXPECT_GT(report.crunchbase_matched_by_search, 0);
}

TEST_F(CrawlerFixture, SocialProfileCountsMatchTruth) {
  const CrawlReport& report = bed().crawler->report();
  int64_t fb = 0;
  int64_t tw = 0;
  for (const auto& c : bed().world->companies()) {
    if (c.has_facebook()) ++fb;
    if (c.has_twitter()) ++tw;
  }
  // Transient errors may drop a handful.
  EXPECT_NEAR(static_cast<double>(report.facebook_profiles), fb, fb * 0.02 + 2);
  EXPECT_NEAR(static_cast<double>(report.twitter_profiles), tw, tw * 0.02 + 2);
}

TEST_F(CrawlerFixture, SnapshotsParseAndCoverCrawl) {
  auto files = bed().dfs->List(bed().crawler->StartupSnapshotDir());
  ASSERT_FALSE(files.empty());
  std::set<int64_t> ids;
  for (const auto& f : files) {
    auto records = dfs::ReadJsonLines(*bed().dfs, f);
    ASSERT_TRUE(records.ok()) << records.status();
    for (const auto& r : *records) {
      EXPECT_TRUE(r.Has("id"));
      EXPECT_TRUE(r.Has("name"));
      ids.insert(r.Get("id").AsInt());
    }
  }
  EXPECT_EQ(static_cast<int64_t>(ids.size()),
            bed().crawler->report().companies_crawled);
}

TEST_F(CrawlerFixture, TwitterSnapshotsCarryAngelListIds) {
  auto files = bed().dfs->List(bed().crawler->TwitterSnapshotDir());
  ASSERT_FALSE(files.empty());
  size_t records_seen = 0;
  for (const auto& f : files) {
    auto records = dfs::ReadJsonLines(*bed().dfs, f);
    ASSERT_TRUE(records.ok());
    for (const auto& r : *records) {
      ++records_seen;
      int64_t id = r.Get("angellist_id").AsInt();
      const synth::CompanyTruth* c =
          bed().world->FindCompany(static_cast<uint64_t>(id));
      ASSERT_NE(c, nullptr);
      EXPECT_TRUE(c->has_twitter());
      EXPECT_EQ(r.Get("statuses_count").AsInt(), c->twitter_tweets);
    }
  }
  EXPECT_EQ(records_seen,
            static_cast<size_t>(bed().crawler->report().twitter_profiles));
}

TEST_F(CrawlerFixture, ReportCountersPlausible) {
  const CrawlReport& report = bed().crawler->report();
  EXPECT_GT(report.fetch.requests, report.companies_crawled);
  EXPECT_GT(report.makespan_micros, 0);
  EXPECT_GT(report.wall_seconds, 0);
  EXPECT_EQ(report.twitter_tokens, 2 * 5);  // machines x apps
  EXPECT_EQ(report.fetch.failures, 0);      // retries absorb 503s
}

TEST(CrawlerTest, MaxBfsRoundsBoundsTheCrawl) {
  CrawlConfig config;
  config.max_bfs_rounds = 1;
  TestBed bed = MakeTestBed(0.003, 4, config);
  ASSERT_TRUE(bed.crawler->Run().ok());
  EXPECT_LE(bed.crawler->report().bfs_rounds, 1);
  EXPECT_LT(bed.crawler->report().companies_crawled,
            static_cast<int64_t>(bed.world->companies().size()));
}

TEST(CrawlerTest, SingleWorkerStillCompletes) {
  TestBed bed = MakeTestBed(0.002, 1);
  ASSERT_TRUE(bed.crawler->Run().ok());
  EXPECT_GE(bed.crawler->report().companies_crawled,
            static_cast<int64_t>(bed.world->companies().size() * 9 / 10));
}

TEST(CrawlerTest, MoreTokensReduceTwitterMakespan) {
  // With one token the Twitter crawl serializes behind the 180/15min
  // window; with 10 tokens rotation avoids most waiting.
  CrawlConfig one_token;
  one_token.num_twitter_machines = 1;
  one_token.twitter_apps_per_machine = 1;
  TestBed a = MakeTestBed(0.004, 4, one_token);
  ASSERT_TRUE(a.crawler->Run().ok());

  CrawlConfig many_tokens;
  many_tokens.num_twitter_machines = 2;
  many_tokens.twitter_apps_per_machine = 5;
  TestBed b = MakeTestBed(0.004, 4, many_tokens);
  ASSERT_TRUE(b.crawler->Run().ok());

  int64_t tw_count = a.crawler->report().twitter_profiles;
  ASSERT_GT(tw_count, 180);  // enough to hit the limit
  EXPECT_GT(a.crawler->report().fetch.rate_limit_waits,
            b.crawler->report().fetch.rate_limit_waits);
  EXPECT_GT(a.crawler->report().makespan_micros,
            b.crawler->report().makespan_micros);
}

TEST(CrawlerTest, SnapshotsCanBeDisabled) {
  CrawlConfig config;
  config.store_snapshots = false;
  TestBed bed = MakeTestBed(0.002, 4, config);
  ASSERT_TRUE(bed.crawler->Run().ok());
  EXPECT_TRUE(bed.dfs->List("/crawl/").empty());
  EXPECT_GT(bed.crawler->report().companies_crawled, 0);
}

TEST(FetchTest, RetriesTransientErrors) {
  synth::WorldConfig wc;
  wc.scale = 0.002;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig sc;
  sc.transient_error_rate = 0.5;
  net::AngelListService al(&world, sc);
  FetchPolicy policy;
  policy.max_retries = 10;
  FetchCounters counters;
  int64_t t = 0;
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    net::ApiResponse resp =
        FetchWithRetry(&al, net::ApiRequest("startups.get", {{"id", "1"}}),
                       nullptr, policy, &t, &counters);
    if (resp.ok()) ++ok;
  }
  EXPECT_EQ(ok, 50);  // retries hide a 50% error rate
  EXPECT_GT(counters.retries, 10);
}

TEST(FetchTest, TokenPoolRotation) {
  TokenPool pool({"a", "b", "c"});
  EXPECT_EQ(pool.current(), "a");
  pool.Rotate();
  EXPECT_EQ(pool.current(), "b");
  pool.Rotate();
  pool.Rotate();
  EXPECT_EQ(pool.current(), "a");
  TokenPool offset({"a", "b", "c"}, 2);
  EXPECT_EQ(offset.current(), "c");
}

}  // namespace
}  // namespace cfnet::crawler

namespace cfnet::crawler {
namespace {

// --- periodic cohort crawler (§7 daily tracking) ----------------------------

TEST(PeriodicCrawlerTest, DailySnapshotsTrackTheEvolvingCohort) {
  synth::WorldConfig wc;
  wc.scale = 0.003;
  wc.seed = 321;
  synth::World world = synth::World::Generate(wc);
  dfs::MiniDfs dfs;
  PeriodicCohortCrawler daily(&dfs);
  Rng rng(5);

  int64_t day0_raising = 0;
  for (int day = 0; day < 3; ++day) {
    net::SocialWeb web(&world);  // fresh services over the evolved world
    auto report = daily.CrawlDay(&web, day);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->day, day);
    EXPECT_GT(report->raising_companies, 0);
    EXPECT_EQ(report->profiles_stored, report->raising_companies);
    if (day == 0) day0_raising = report->raising_companies;

    auto records = daily.ReadDay(day);
    ASSERT_TRUE(records.ok());
    EXPECT_EQ(static_cast<int64_t>(records->size()), report->profiles_stored);
    for (const auto& r : *records) {
      EXPECT_EQ(r.Get("day").AsInt(), day);
      EXPECT_TRUE(r.Get("fundraising").AsBool());
    }
    world.EvolveOneDay(rng);
  }
  // Three dated snapshot files exist.
  EXPECT_EQ(dfs.List("/longitudinal/").size(), 3u);
  (void)day0_raising;
}

TEST(PeriodicCrawlerTest, TwitterEngagementAttachedWhenLinked) {
  synth::WorldConfig wc;
  wc.scale = 0.004;
  wc.seed = 33;
  // Boost the raising pool so some raising companies have Twitter.
  wc.frac_currently_raising = 0.05;
  synth::World world = synth::World::Generate(wc);
  dfs::MiniDfs dfs;
  PeriodicCohortCrawler daily(&dfs);
  net::SocialWeb web(&world);
  auto report = daily.CrawlDay(&web, 0);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->twitter_profiles, 0);
  auto records = daily.ReadDay(0);
  ASSERT_TRUE(records.ok());
  size_t with_followers = 0;
  for (const auto& r : *records) {
    if (r.Has("twitter_followers")) {
      ++with_followers;
      const synth::CompanyTruth* c = world.FindCompany(
          static_cast<synth::CompanyId>(r.Get("id").AsInt()));
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(r.Get("twitter_followers").AsInt(), c->twitter_followers);
    }
  }
  EXPECT_GT(with_followers, 0u);
}

// A commit that died before its rename leaves `<segment>.tmp` under the
// day's prefix; ReadDay reads the day's committed segments and nothing else.
TEST(PeriodicCrawlerTest, ReadDaySkipsOrphanedCommitTemp) {
  synth::WorldConfig wc;
  wc.scale = 0.003;
  wc.seed = 321;
  synth::World world = synth::World::Generate(wc);
  dfs::MiniDfs dfs;
  PeriodicCohortCrawler daily(&dfs);
  net::SocialWeb web(&world);
  auto report = daily.CrawlDay(&web, 0);
  ASSERT_TRUE(report.ok()) << report.status();

  const std::string orphan =
      dfs::TempPath(dfs::SegmentPath(daily.DayPrefix(0), 2));
  ASSERT_TRUE(dfs.WriteFile(orphan, "{\"id\":1,\"da").ok());  // torn, no footer
  auto records = daily.ReadDay(0);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(static_cast<int64_t>(records->size()), report->profiles_stored);
}

// --- world evolution invariants ------------------------------------------------

TEST(EvolveOneDayTest, IndicesStayConsistent) {
  synth::WorldConfig wc;
  wc.scale = 0.004;
  wc.seed = 77;
  synth::World world = synth::World::Generate(wc);
  Rng rng(9);
  synth::World::DayReport total;
  for (int day = 0; day < 30; ++day) {
    synth::World::DayReport r = world.EvolveOneDay(rng);
    total.campaigns_closed += r.campaigns_closed;
    total.campaigns_succeeded += r.campaigns_succeeded;
    total.new_investments += r.new_investments;
  }
  EXPECT_GT(total.campaigns_closed, 0);

  // Every user's investments stay sorted/unique with parallel flags, and
  // inverted indices stay in sync.
  for (const auto& u : world.users()) {
    ASSERT_EQ(u.investments.size(), u.investment_on_angellist.size());
    for (size_t i = 1; i < u.investments.size(); ++i) {
      ASSERT_LT(u.investments[i - 1], u.investments[i]);
    }
    for (synth::CompanyId c : u.investments) {
      const auto& investors = world.InvestorsOf(c);
      EXPECT_NE(std::find(investors.begin(), investors.end(), u.id),
                investors.end());
    }
  }
  // New rounds belong to funded companies and the hidden-edge invariant
  // still holds: AngelList-hidden edges appear in some round.
  for (const auto& round : world.rounds()) {
    EXPECT_TRUE(world.FindCompany(round.company)->raised_funding);
  }
  for (const auto& u : world.users()) {
    for (size_t i = 0; i < u.investments.size(); ++i) {
      if (u.investment_on_angellist[i]) continue;
      bool found = false;
      for (size_t round_idx : world.RoundsOf(u.investments[i])) {
        const auto& round = world.rounds()[round_idx];
        found |= std::find(round.investors.begin(), round.investors.end(),
                           u.id) != round.investors.end();
      }
      EXPECT_TRUE(found) << "hidden edge not recoverable after evolution";
    }
  }
}

TEST(EvolveOneDayTest, EngagementDriftsUpward) {
  synth::WorldConfig wc;
  wc.scale = 0.003;
  wc.seed = 55;
  synth::World world = synth::World::Generate(wc);
  int64_t before = 0;
  for (const auto& c : world.companies()) before += c.facebook_likes;
  Rng rng(3);
  for (int day = 0; day < 10; ++day) world.EvolveOneDay(rng);
  int64_t after = 0;
  for (const auto& c : world.companies()) after += c.facebook_likes;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace cfnet::crawler

namespace cfnet::crawler {
namespace {

TEST(CrawlerTest, PatientRetriesRideOutServiceOutage) {
  // AngelList goes down for 2 virtual minutes; a patient exponential
  // backoff (0.5s * (2^12 - 1) ~ 34 min of budget) waits the window out,
  // while an impatient one fails permanently.
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig al_config;
  al_config.latency_mean_micros = 80000;
  al_config.transient_error_rate = 0;
  net::AngelListService al(&world, al_config);
  net::FaultPlan outage;
  outage.error_bursts = {{30ll * 1000000, 150ll * 1000000, 1.0}};
  al.set_fault_plan(outage);

  FetchPolicy patient;
  patient.max_retries = 12;
  FetchCounters counters;
  int64_t t = 30ll * 1000000;  // the outage has just begun
  net::ApiResponse resp =
      FetchWithRetry(&al, net::ApiRequest("startups.get", {{"id", "1"}}),
                     nullptr, patient, &t, &counters);
  EXPECT_TRUE(resp.ok()) << "patient retry should outlast the outage";
  EXPECT_GT(t, 150ll * 1000000);  // clock advanced past the window
  EXPECT_GT(counters.retries, 3);
  EXPECT_GT(al.stats().injected_errors.load(), 3);

  // An impatient policy inside the same window fails.
  FetchPolicy impatient;
  impatient.max_retries = 2;
  int64_t t2 = 35ll * 1000000;
  net::ApiResponse fail =
      FetchWithRetry(&al, net::ApiRequest("startups.get", {{"id", "1"}}),
                     nullptr, impatient, &t2, &counters);
  EXPECT_EQ(fail.status, 503);
  EXPECT_GT(counters.failures, 0);
}

}  // namespace
}  // namespace cfnet::crawler
