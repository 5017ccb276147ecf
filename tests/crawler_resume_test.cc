// Crash-safe checkpointing tests: checkpoint payload roundtrip and
// corruption fallback, plus the acceptance scenario — a crawl killed
// mid-BFS under a fault plan resumes to exactly the uninterrupted result
// with zero duplicate snapshot records.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/checkpoint.h"
#include "crawler/crawler.h"
#include "dfs/commit.h"
#include "dfs/jsonl.h"
#include "net/fault_plan.h"
#include "net/social_web.h"
#include "synth/world.h"

namespace cfnet::crawler {
namespace {

constexpr int64_t kSecond = 1000000;

struct TestBed {
  std::unique_ptr<synth::World> world;
  std::unique_ptr<net::SocialWeb> web;
  std::unique_ptr<dfs::MiniDfs> dfs;
  std::unique_ptr<Crawler> crawler;
};

TestBed MakeTestBed(net::SocialWebConfig web_config = {},
                    CrawlConfig config = {}, double scale = 0.002) {
  TestBed bed;
  synth::WorldConfig wc;
  wc.scale = scale;
  wc.seed = 99;
  bed.world = std::make_unique<synth::World>(synth::World::Generate(wc));
  bed.web = std::make_unique<net::SocialWeb>(bed.world.get(), web_config);
  bed.dfs = std::make_unique<dfs::MiniDfs>();
  config.num_workers = 4;
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
  return bed;
}

/// Error-free services so run outcomes are exactly reproducible and any
/// faults come only from installed FaultPlans.
net::SocialWebConfig NoRandomErrors() {
  net::ServiceConfig plain;
  plain.transient_error_rate = 0;
  net::ServiceConfig with_token = plain;
  with_token.requires_token = true;
  net::SocialWebConfig wc;
  wc.angellist = plain;
  wc.crunchbase = plain;
  wc.facebook = with_token;
  wc.twitter = with_token;
  return wc;
}

/// Collects every "id" across the segments of a snapshot directory,
/// asserting none appears twice (exactly-once snapshot records).
std::set<int64_t> UniqueSnapshotIds(const dfs::MiniDfs& dfs,
                                    const std::string& dir) {
  std::set<int64_t> ids;
  for (const std::string& path : dfs.List(dir)) {
    auto records = dfs::ReadJsonLines(dfs, path);
    EXPECT_TRUE(records.ok()) << path;
    if (!records.ok()) continue;
    for (const json::Json& r : *records) {
      int64_t id = r.Get("id").AsInt();
      EXPECT_TRUE(ids.insert(id).second)
          << "duplicate snapshot record id " << id << " in " << dir;
    }
  }
  return ids;
}

CheckpointState SampleState() {
  CheckpointState st;
  st.phase = std::string(kPhaseCrunchBase);
  st.phase_cursor = 42;
  st.bfs_round = 7;
  st.company_frontier = {3, 1, 4};
  st.user_frontier = {15, 9};
  st.seen_companies = {1, 3, 4};
  st.seen_users = {9, 15};
  CrawledCompany cc;
  cc.id = 3;
  cc.name = "acme";
  cc.twitter_url = "https://twitter.com/acme";
  cc.crunchbase_url = "https://crunchbase.com/organization/acme";
  st.companies = {cc};
  st.twitter_tokens = {"tok-a", "tok-b"};
  st.facebook_token = "fb-long-lived";
  st.worker_clocks = {100, 250, 90};
  st.snapshot_segments = {"/crawl/angellist/startups/part-0-00000001.jsonl",
                          "/crawl/angellist/users/part-1-00000002.jsonl"};
  st.report.companies_crawled = 11;
  st.report.crunchbase_profiles = 5;
  st.report.fetch.requests = 123;
  st.report.fetch.retries = 4;
  st.report.breaker_trips = 2;
  st.report.checkpoint_writes = 3;
  st.report.dead_lettered_ids = 1;
  st.report.degraded_phases.push_back(
      {std::string(kPhaseTwitter), 3, 17, "budget exceeded"});
  return st;
}

TEST(CheckpointStoreTest, SerializeDeserializeRoundtrip) {
  CheckpointState st = SampleState();
  st.seq = 9;
  auto back = CheckpointStore::Deserialize(CheckpointStore::Serialize(st));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->seq, 9);
  EXPECT_EQ(back->phase, kPhaseCrunchBase);
  EXPECT_EQ(back->phase_cursor, 42);
  EXPECT_EQ(back->bfs_round, 7);
  EXPECT_EQ(back->company_frontier, st.company_frontier);
  EXPECT_EQ(back->user_frontier, st.user_frontier);
  EXPECT_EQ(back->seen_companies, st.seen_companies);
  EXPECT_EQ(back->seen_users, st.seen_users);
  ASSERT_EQ(back->companies.size(), 1u);
  EXPECT_EQ(back->companies[0].id, 3u);
  EXPECT_EQ(back->companies[0].name, "acme");
  EXPECT_EQ(back->companies[0].twitter_url, st.companies[0].twitter_url);
  EXPECT_EQ(back->twitter_tokens, st.twitter_tokens);
  EXPECT_EQ(back->facebook_token, "fb-long-lived");
  EXPECT_EQ(back->worker_clocks, st.worker_clocks);
  EXPECT_EQ(back->snapshot_segments, st.snapshot_segments);
  EXPECT_EQ(back->report.companies_crawled, 11);
  EXPECT_EQ(back->report.crunchbase_profiles, 5);
  EXPECT_EQ(back->report.fetch.requests, 123);
  EXPECT_EQ(back->report.fetch.retries, 4);
  EXPECT_EQ(back->report.breaker_trips, 2);
  EXPECT_EQ(back->report.checkpoint_writes, 3);
  ASSERT_EQ(back->report.degraded_phases.size(), 1u);
  EXPECT_EQ(back->report.degraded_phases[0].phase, kPhaseTwitter);
  EXPECT_EQ(back->report.degraded_phases[0].dead_lettered, 17);
}

TEST(CheckpointStoreTest, LoadRejectsTamperedAndTruncatedCheckpoints) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", /*keep=*/2);
  CheckpointState older = SampleState();
  older.bfs_round = 1;
  ASSERT_TRUE(store.Save(&older).ok());
  CheckpointState newer = SampleState();
  newer.bfs_round = 2;
  ASSERT_TRUE(store.Save(&newer).ok());
  const std::string newest = store.ListFiles().back();
  const std::string committed = *dfs.ReadFile(newest);

  // Flip one payload bit so the JSON still parses ("bfs_round":2 -> 3): only
  // the commit footer's CRC can catch it, and the load falls back.
  const size_t digit = committed.find("\"bfs_round\":2") + 12;
  ASSERT_EQ(committed[digit], '2');
  std::string tampered = committed;
  tampered[digit] ^= 0x01;
  ASSERT_TRUE(dfs.WriteFile(newest, tampered).ok());
  auto loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->bfs_round, 1);

  // Truncation (torn write) is also rejected.
  ASSERT_TRUE(
      dfs.WriteFile(newest, committed.substr(0, committed.size() / 2)).ok());
  loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->bfs_round, 1);

  // So is a well-committed file that is not a checkpoint.
  ASSERT_TRUE(dfs::CommitFile(&dfs, newest, "not a checkpoint").ok());
  loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->bfs_round, 1);
  EXPECT_FALSE(CheckpointStore::Deserialize("not a checkpoint").ok());
}

TEST(CheckpointStoreTest, SavePrunesAndLoadSkipsCorruptFiles) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", /*keep=*/2);

  CheckpointState a = SampleState();
  a.bfs_round = 1;
  ASSERT_TRUE(store.Save(&a).ok());
  CheckpointState b = SampleState();
  b.bfs_round = 2;
  ASSERT_TRUE(store.Save(&b).ok());
  CheckpointState c = SampleState();
  c.bfs_round = 3;
  ASSERT_TRUE(store.Save(&c).ok());

  // Only `keep` files survive, oldest pruned.
  std::vector<std::string> files = store.ListFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_LT(a.seq, b.seq);
  EXPECT_LT(b.seq, c.seq);

  // Newest wins while it is intact...
  auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->bfs_round, 3);

  // ...a torn newest file falls back to the previous checkpoint...
  ASSERT_TRUE(dfs.WriteFile(files.back(), "torn write").ok());
  auto fallback = store.LoadLatestValid();
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->bfs_round, 2);

  // ...and with every file corrupt there is nothing to resume from.
  ASSERT_TRUE(dfs.WriteFile(files.front(), "junk").ok());
  EXPECT_FALSE(store.LoadLatestValid().ok());
}

TEST(CheckpointStoreTest, SequenceContinuesAcrossStoreInstances) {
  dfs::MiniDfs dfs;
  CheckpointState a = SampleState();
  {
    CheckpointStore store(&dfs, "/ckpt", 2);
    ASSERT_TRUE(store.Save(&a).ok());
  }
  // A new incarnation must not reuse (and thereby clobber) sequence numbers.
  CheckpointStore store(&dfs, "/ckpt", 2);
  CheckpointState b = SampleState();
  ASSERT_TRUE(store.Save(&b).ok());
  EXPECT_GT(b.seq, a.seq);
  EXPECT_EQ(store.ListFiles().size(), 2u);
}

TEST(CrawlerResumeTest, ResumeWithoutCheckpointRunsFresh) {
  TestBed bed = MakeTestBed(NoRandomErrors());
  ASSERT_TRUE(bed.crawler->Resume().ok());
  const CrawlReport& report = bed.crawler->report();
  EXPECT_EQ(report.checkpoint_restores, 0);
  EXPECT_GT(report.checkpoint_writes, 0);
  EXPECT_GT(report.companies_crawled, 0);
  EXPECT_GT(report.twitter_profiles, 0);
}

// The acceptance scenario: a crawl killed mid-BFS (while riding out a
// scripted AngelList error burst) is resumed by a fresh Crawler instance
// and finishes with exactly the counts of an uninterrupted run, without
// duplicating a single snapshot record.
TEST(CrawlerResumeTest, KilledMidBfsResumesToUninterruptedResult) {
  net::FaultPlan burst;  // AngelList flaky for the first virtual seconds
  burst.error_bursts = {{0, 2 * kSecond, 1.0}};

  // Uninterrupted baseline.
  CrawlConfig config;
  config.checkpoint_every_rounds = 2;
  config.checkpoint_chunk = 64;
  TestBed clean = MakeTestBed(NoRandomErrors(), config);
  clean.web->angellist().set_fault_plan(burst);
  ASSERT_TRUE(clean.crawler->Run().ok());
  const CrawlReport& want = clean.crawler->report();
  ASSERT_GT(want.bfs_rounds, 3);  // the crash below lands mid-BFS

  // Same crawl, killed after BFS round 3 (checkpoint taken at round 2, so
  // round-3 work is lost and must be redone without duplication).
  TestBed bed = MakeTestBed(NoRandomErrors(), config);
  bed.web->angellist().set_fault_plan(burst);
  CrawlConfig crash_config = config;
  crash_config.crash_after_bfs_rounds = 3;
  crash_config.num_workers = 4;
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), crash_config);
  Status crashed = bed.crawler->Run();
  ASSERT_FALSE(crashed.ok());
  // The dying process flushes what it had buffered — the DFS is left with
  // records from beyond the last checkpoint, which resume must discard.
  bed.crawler.reset();

  // A fresh incarnation picks up from the latest checkpoint.
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
  ASSERT_TRUE(bed.crawler->Resume().ok());
  const CrawlReport& got = bed.crawler->report();

  EXPECT_EQ(got.checkpoint_restores, 1);
  EXPECT_EQ(got.companies_crawled, want.companies_crawled);
  EXPECT_EQ(got.users_crawled, want.users_crawled);
  EXPECT_EQ(got.bfs_rounds, want.bfs_rounds);
  EXPECT_EQ(got.crunchbase_profiles, want.crunchbase_profiles);
  EXPECT_EQ(got.crunchbase_matched_by_url, want.crunchbase_matched_by_url);
  EXPECT_EQ(got.crunchbase_misses, want.crunchbase_misses);
  EXPECT_EQ(got.facebook_profiles, want.facebook_profiles);
  EXPECT_EQ(got.twitter_profiles, want.twitter_profiles);
  EXPECT_TRUE(got.degraded_phases.empty());

  // Zero duplicate snapshot records, and full coverage: the resumed DFS
  // holds exactly the records of the uninterrupted run.
  std::set<int64_t> clean_startups = UniqueSnapshotIds(
      *clean.dfs, clean.crawler->StartupSnapshotDir());
  std::set<int64_t> resumed_startups =
      UniqueSnapshotIds(*bed.dfs, bed.crawler->StartupSnapshotDir());
  EXPECT_EQ(resumed_startups, clean_startups);
  std::set<int64_t> clean_users =
      UniqueSnapshotIds(*clean.dfs, clean.crawler->UserSnapshotDir());
  std::set<int64_t> resumed_users =
      UniqueSnapshotIds(*bed.dfs, bed.crawler->UserSnapshotDir());
  EXPECT_EQ(resumed_users, clean_users);
}

TEST(CrawlerResumeTest, CrashAfterPhaseSkipsCompletedWorkOnResume) {
  CrawlConfig config;
  config.crash_after_phase = std::string(kPhaseCrunchBase);
  TestBed bed = MakeTestBed(NoRandomErrors(), config);
  ASSERT_FALSE(bed.crawler->Run().ok());
  const int64_t cb_profiles = bed.crawler->report().crunchbase_profiles;
  ASSERT_GT(cb_profiles, 0);
  bed.crawler.reset();

  const int64_t al_requests = bed.web->angellist().stats().total.load();
  const int64_t cb_requests = bed.web->crunchbase().stats().total.load();

  CrawlConfig resume_config;
  bed.crawler = std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(),
                                          resume_config);
  ASSERT_TRUE(bed.crawler->Resume().ok());
  const CrawlReport& report = bed.crawler->report();

  // Completed phases are not re-fetched: AngelList and CrunchBase saw no
  // further traffic; their counters rode along in the checkpoint.
  EXPECT_EQ(bed.web->angellist().stats().total.load(), al_requests);
  EXPECT_EQ(bed.web->crunchbase().stats().total.load(), cb_requests);
  EXPECT_EQ(report.crunchbase_profiles, cb_profiles);
  EXPECT_EQ(report.checkpoint_restores, 1);
  EXPECT_GT(report.facebook_profiles, 0);
  EXPECT_GT(report.twitter_profiles, 0);
  // Checkpoint retention held.
  EXPECT_LE(bed.dfs->List("/checkpoints/").size(),
            static_cast<size_t>(resume_config.checkpoints_to_keep));
}

}  // namespace
}  // namespace cfnet::crawler
