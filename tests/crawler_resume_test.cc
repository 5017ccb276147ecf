// Crash-safe checkpointing tests: the step codec and fold, chain retention
// and the fallbacks past damaged steps, plus the acceptance scenario — a
// crawl killed mid-BFS under a fault plan resumes to exactly the
// uninterrupted result with zero duplicate snapshot records.

#include <algorithm>
#include <map>
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

/// A checkpoint file that verifies and decodes.
struct DecodedCheckpoint {
  std::string path;
  CheckpointStep step;
};

/// Every checkpoint step under `dir` that verifies and decodes, by seq.
std::map<int64_t, DecodedCheckpoint> DecodeCheckpoints(
    const dfs::MiniDfs& dfs, const std::string& dir) {
  std::map<int64_t, DecodedCheckpoint> steps;
  for (const std::string& path : dfs.List(dir)) {
    auto payload = dfs::ReadCommitted(dfs, path);
    if (!payload.ok()) continue;
    auto step = DecodeStep(*payload);
    if (step.ok()) steps[step->seq] = {path, std::move(step).value()};
  }
  return steps;
}

/// A base-shaped step with every field set.
CheckpointStep SampleStep() {
  CheckpointStep st;
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
  st.report.checkpoint_bytes = 4567;
  st.report.dead_lettered_ids = 1;
  st.report.degraded_phases.push_back(
      {std::string(kPhaseTwitter), 3, 17, "budget exceeded"});
  return st;
}

/// The step of BFS round `round`: `new_ids` user ids seen first (from
/// `first_id`, 3 apart; also the user frontier), company `first_id`, and
/// one new segment.
CheckpointStep RoundStep(int64_t round, uint64_t first_id, size_t new_ids) {
  CheckpointStep st;
  st.phase = std::string(kPhaseBfs);
  st.bfs_round = round;
  for (size_t i = 0; i < new_ids; ++i) {
    st.seen_users.push_back(first_id + 3 * i);
  }
  st.user_frontier = st.seen_users;
  CrawledCompany cc;
  cc.id = first_id;
  cc.name = "company-" + std::to_string(first_id);
  st.companies = {cc};
  st.seen_companies = {first_id};
  st.snapshot_segments = {dfs::SegmentPath("/crawl/angellist/users/part-0-",
                                           static_cast<uint64_t>(round))};
  return st;
}

/// Saves `st` as the crawler does: the store is handed every segment
/// committed so far, `*segments` grown by the ones `st` lists, and stamps
/// the difference from its last checkpoint back into `st`.
Status SaveListed(CheckpointStore& store, CheckpointStep* st,
                  std::vector<std::string>* segments) {
  for (const std::string& path : st->snapshot_segments) {
    auto at = std::lower_bound(segments->begin(), segments->end(), path);
    if (at == segments->end() || *at != path) segments->insert(at, path);
  }
  return store.Save(st, *segments);
}

TEST(CheckpointStoreTest, StepCodecRoundtrip) {
  CheckpointStep st = SampleStep();
  st.seq = 9;
  st.parent_seq = 8;
  st.retired_segments = {"/crawl/deadletter/crunchbase/part-0-00000001.jsonl"};
  auto back = DecodeStep(EncodeStep(st));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->seq, 9);
  EXPECT_EQ(back->parent_seq, 8);
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
  EXPECT_EQ(back->retired_segments, st.retired_segments);
  EXPECT_EQ(back->report.companies_crawled, 11);
  EXPECT_EQ(back->report.crunchbase_profiles, 5);
  EXPECT_EQ(back->report.fetch.requests, 123);
  EXPECT_EQ(back->report.fetch.retries, 4);
  EXPECT_EQ(back->report.breaker_trips, 2);
  EXPECT_EQ(back->report.checkpoint_writes, 3);
  EXPECT_EQ(back->report.checkpoint_bytes, 4567);
  ASSERT_EQ(back->report.degraded_phases.size(), 1u);
  EXPECT_EQ(back->report.degraded_phases[0].phase, kPhaseTwitter);
  EXPECT_EQ(back->report.degraded_phases[0].dead_lettered, 17);
  EXPECT_EQ(*back, st);  // and every field not named above
}

TEST(CheckpointStoreTest, FoldAppendsAddedStateAndReplacesTheRest) {
  CheckpointStep state = SampleStep();
  CheckpointStep step = RoundStep(8, 100, 2);
  step.seq = 12;
  step.retired_segments = {state.snapshot_segments[0]};
  FoldStep(step, &state);
  EXPECT_EQ(state.seq, 12);
  EXPECT_EQ(state.parent_seq, 0);
  EXPECT_EQ(state.phase, kPhaseBfs);
  EXPECT_EQ(state.bfs_round, 8);
  EXPECT_EQ(state.user_frontier, (std::vector<uint64_t>{100, 103}));
  EXPECT_EQ(state.seen_users, (std::vector<uint64_t>{9, 15, 100, 103}));
  EXPECT_EQ(state.seen_companies, (std::vector<uint64_t>{1, 3, 4, 100}));
  ASSERT_EQ(state.companies.size(), 2u);
  EXPECT_EQ(state.companies[1].id, 100u);
  EXPECT_EQ(state.snapshot_segments,
            (std::vector<std::string>{
                "/crawl/angellist/users/part-0-00000008.jsonl",
                "/crawl/angellist/users/part-1-00000002.jsonl"}));
  EXPECT_TRUE(state.retired_segments.empty());
  EXPECT_EQ(state.report, step.report);
}

TEST(CheckpointStoreTest, SaveStampsTheSegmentsGainedAndLost) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", /*keep=*/2);
  CheckpointStep a = RoundStep(1, 10, 1);
  ASSERT_TRUE(store.Save(&a, {"/s/part-0-1", "/s/part-1-1"}).ok());
  EXPECT_EQ(a.snapshot_segments,
            (std::vector<std::string>{"/s/part-0-1", "/s/part-1-1"}));
  EXPECT_TRUE(a.retired_segments.empty());
  CheckpointStep b = RoundStep(2, 20, 1);
  ASSERT_TRUE(store.Save(&b, {"/s/part-1-1", "/s/part-1-2"}).ok());
  EXPECT_EQ(b.parent_seq, a.seq);
  EXPECT_EQ(b.snapshot_segments, (std::vector<std::string>{"/s/part-1-2"}));
  EXPECT_EQ(b.retired_segments, (std::vector<std::string>{"/s/part-0-1"}));
  // The delta commits only that difference, and the fold restores the list.
  auto decoded = DecodeStep(*dfs::ReadCommitted(dfs, store.ListFiles().back()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->snapshot_segments, b.snapshot_segments);
  EXPECT_EQ(decoded->retired_segments, b.retired_segments);
  auto loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->snapshot_segments,
            (std::vector<std::string>{"/s/part-1-1", "/s/part-1-2"}));
}

TEST(CheckpointStoreTest, LoadRejectsTamperedAndTruncatedCheckpoints) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", /*keep=*/2);
  std::vector<std::string> segments;
  CheckpointStep older = SampleStep();
  older.bfs_round = 1;
  ASSERT_TRUE(SaveListed(store, &older, &segments).ok());
  CheckpointStep newer = SampleStep();
  newer.bfs_round = 2;
  ASSERT_TRUE(SaveListed(store, &newer, &segments).ok());
  ASSERT_EQ(newer.parent_seq, older.seq);
  const std::string newest = store.ListFiles().back();
  const std::string committed = *dfs.ReadFile(newest);

  // Flip one payload bit under the intact footer so the step still decodes
  // (bfs_round 2 -> 3; zig-zag 4 -> 6, after the phase and cursor 42): only
  // the commit footer's CRC can catch it, and the load falls back.
  const size_t at = committed.find("crunchbase\x54\x04");
  ASSERT_NE(at, std::string::npos);
  std::string tampered = committed;
  tampered[at + 11] ^= 0x02;
  auto still_decodes = DecodeStep(std::string_view(tampered).substr(
      0, tampered.size() - dfs::kCommitFooterSize));
  ASSERT_TRUE(still_decodes.ok()) << still_decodes.status();
  EXPECT_EQ(still_decodes->bfs_round, 3);
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
  EXPECT_FALSE(DecodeStep("not a checkpoint").ok());
}

// Retention counts chains: a chain goes once `keep` newer bases committed.
// A base is written when the deltas since the current one outweigh it.
TEST(CheckpointStoreTest, SavePrunesAndLoadSkipsCorruptFiles) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", /*keep=*/2);
  std::vector<std::string> segments;

  CheckpointStep a = RoundStep(1, 10, 1);  // the first step is a base
  ASSERT_TRUE(SaveListed(store, &a, &segments).ok());
  CheckpointStep b = RoundStep(2, 1000, 200);  // outweighs base a
  ASSERT_TRUE(SaveListed(store, &b, &segments).ok());
  CheckpointStep c = RoundStep(3, 5000, 1);  // so this is a base
  ASSERT_TRUE(SaveListed(store, &c, &segments).ok());
  CheckpointStep d = RoundStep(4, 9000, 2000);  // outweighs base c
  ASSERT_TRUE(SaveListed(store, &d, &segments).ok());
  EXPECT_EQ(a.parent_seq, 0);
  EXPECT_EQ(b.parent_seq, a.seq);
  EXPECT_EQ(c.parent_seq, 0);
  EXPECT_EQ(d.parent_seq, c.seq);
  EXPECT_LT(a.seq, b.seq);
  EXPECT_LT(b.seq, c.seq);
  EXPECT_LT(c.seq, d.seq);
  EXPECT_EQ(store.ListFiles().size(), 4u);  // two bases: nothing pruned yet

  CheckpointStep e = RoundStep(5, 50000, 1);  // base: chain a..b goes
  ASSERT_TRUE(SaveListed(store, &e, &segments).ok());
  EXPECT_EQ(e.parent_seq, 0);
  std::vector<std::string> files = store.ListFiles();
  ASSERT_EQ(files.size(), 3u);  // c, d, e: `keep` chains survive

  // Newest wins while it is intact, folded from its base...
  auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->bfs_round, 5);
  EXPECT_EQ(latest->seen_companies,
            (std::vector<uint64_t>{10, 1000, 5000, 9000, 50000}));

  // ...a torn newest base falls back to the previous chain's newest step...
  ASSERT_TRUE(dfs.WriteFile(files.back(), "torn write").ok());
  auto fallback = store.LoadLatestValid();
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->bfs_round, 4);
  EXPECT_EQ(fallback->seen_companies,
            (std::vector<uint64_t>{10, 1000, 5000, 9000}));

  // ...and with every file corrupt there is nothing to resume from.
  ASSERT_TRUE(dfs.WriteFile(files.front(), "junk").ok());
  ASSERT_TRUE(dfs.WriteFile(files[1], "junk").ok());
  EXPECT_FALSE(store.LoadLatestValid().ok());
}

TEST(CheckpointStoreTest, SequenceContinuesAcrossStoreInstances) {
  dfs::MiniDfs dfs;
  std::vector<std::string> segments;
  CheckpointStep a = SampleStep();
  {
    CheckpointStore store(&dfs, "/ckpt", 2);
    ASSERT_TRUE(SaveListed(store, &a, &segments).ok());
  }
  // A new incarnation must not reuse (and thereby clobber) sequence numbers,
  // and without a restored chain it starts with a base.
  CheckpointStore store(&dfs, "/ckpt", 2);
  CheckpointStep b = SampleStep();
  ASSERT_TRUE(SaveListed(store, &b, &segments).ok());
  EXPECT_GT(b.seq, a.seq);
  EXPECT_EQ(b.parent_seq, 0);
  EXPECT_EQ(store.ListFiles().size(), 2u);

  // One that restored a chain continues it.
  CheckpointStore resumed(&dfs, "/ckpt", 2);
  ASSERT_TRUE(resumed.LoadLatestValid().ok());
  CheckpointStep c = RoundStep(8, 100, 1);
  ASSERT_TRUE(SaveListed(resumed, &c, &segments).ok());
  EXPECT_EQ(c.parent_seq, b.seq);
}

/// Commits a base and deltas 2..n on it through `store`.
std::vector<CheckpointStep> SaveChain(CheckpointStore& store, int64_t n) {
  std::vector<CheckpointStep> steps;
  std::vector<std::string> segments;
  for (int64_t round = 1; round <= n; ++round) {
    // A large base keeps the small deltas below it: one chain.
    steps.push_back(RoundStep(round, static_cast<uint64_t>(round) * 100,
                              round == 1 ? 500 : 1));
    EXPECT_TRUE(SaveListed(store, &steps.back(), &segments).ok());
  }
  return steps;
}

TEST(CheckpointStoreTest, DamagedNewestDeltaFallsBackToItsParent) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", 2);
  std::vector<CheckpointStep> steps = SaveChain(store, 4);
  ASSERT_EQ(steps[3].parent_seq, steps[2].seq);
  ASSERT_TRUE(dfs.WriteFile(store.ListFiles().back(), "torn").ok());
  auto loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, steps[2].seq);
  EXPECT_EQ(loaded->bfs_round, 3);
}

TEST(CheckpointStoreTest, DamagedMiddleDeltaFallsBackToTheCheckpointBeforeIt) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", 2);
  std::vector<CheckpointStep> steps = SaveChain(store, 5);
  // Step 3 is damaged: steps 4 and 5 chain through it, so the newest
  // checkpoint with an intact chain is step 2.
  ASSERT_TRUE(dfs::CommitFile(&dfs, store.ListFiles()[2], "not a step").ok());
  auto loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, steps[1].seq);
  EXPECT_EQ(loaded->seen_companies, (std::vector<uint64_t>{100, 200}));
}

TEST(CheckpointStoreTest, DamagedBaseFallsBackToThePreviousChain) {
  dfs::MiniDfs dfs;
  CheckpointStore store(&dfs, "/ckpt", 2);
  CheckpointStep a = RoundStep(1, 10, 1);
  CheckpointStep b = RoundStep(2, 1000, 200);
  CheckpointStep c = RoundStep(3, 5000, 1);  // base
  CheckpointStep d = RoundStep(4, 9000, 1);
  std::vector<std::string> segments;
  for (CheckpointStep* st : {&a, &b, &c, &d}) {
    ASSERT_TRUE(SaveListed(store, st, &segments).ok());
  }
  ASSERT_EQ(c.parent_seq, 0);
  ASSERT_EQ(d.parent_seq, c.seq);
  const std::vector<std::string> files = store.ListFiles();
  ASSERT_EQ(files.size(), 4u);
  ASSERT_TRUE(dfs.WriteFile(files[2], "rotten base").ok());
  // A fresh store quarantines the damaged base; both ways the newest intact
  // checkpoint of the previous chain is restored.
  auto loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, b.seq);
  CheckpointStore restarted(&dfs, "/ckpt", 2);
  loaded = restarted.LoadLatestValid();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seq, b.seq);
  EXPECT_EQ(loaded->bfs_round, 2);
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
  // The crash came right after the checkpoint the resume restores.
  const int64_t bytes_before = bed.crawler->report().checkpoint_bytes;
  ASSERT_GT(bytes_before, 0);
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
  // Checkpoint retention held: at most `keep` chains, each led by a base.
  const std::map<int64_t, DecodedCheckpoint> steps =
      DecodeCheckpoints(*bed.dfs, "/checkpoints/");
  const int64_t bases = std::count_if(steps.begin(), steps.end(), [](auto& s) {
    return s.second.step.parent_seq == 0;
  });
  EXPECT_GE(bases, 1);
  EXPECT_LE(bases, resume_config.checkpoints_to_keep);
  EXPECT_EQ(static_cast<size_t>(bed.dfs->List("/checkpoints/").size()),
            steps.size());
  // checkpoint_bytes rode along too: the resumed run added its own steps'
  // bytes; the last step stores every byte committed before it, and its
  // own payload makes up the rest.
  EXPECT_GT(report.checkpoint_bytes, bytes_before);
  ASSERT_FALSE(steps.empty());
  const DecodedCheckpoint& last = steps.rbegin()->second;
  EXPECT_EQ(last.step.report.checkpoint_bytes +
                static_cast<int64_t>(
                    dfs::ReadCommitted(*bed.dfs, last.path)->size()),
            report.checkpoint_bytes);
}

// BFS sorts the crawled companies by id once it ends, possibly between two
// checkpoints (every 2 rounds here). Steps carry companies in discovery
// order, so a resume past BFS must rebuild the by-id order the augmentation
// cursors index.
TEST(CrawlerResumeTest, ResumeAfterBfsRestoresTheUninterruptedCompanyOrder) {
  CrawlConfig config;
  config.checkpoint_every_rounds = 2;
  config.checkpoint_chunk = 64;
  TestBed clean = MakeTestBed(NoRandomErrors(), config);
  ASSERT_TRUE(clean.crawler->Run().ok());

  CrawlConfig crash_config = config;
  crash_config.crash_after_phase = std::string(kPhaseBfs);
  TestBed bed = MakeTestBed(NoRandomErrors(), crash_config);
  ASSERT_FALSE(bed.crawler->Run().ok());
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
  ASSERT_TRUE(bed.crawler->Resume().ok());
  EXPECT_EQ(bed.crawler->report().checkpoint_restores, 1);
  EXPECT_EQ(bed.crawler->crawled_companies(),
            clean.crawler->crawled_companies());
  EXPECT_EQ(bed.crawler->report().crunchbase_profiles,
            clean.crawler->report().crunchbase_profiles);
  EXPECT_EQ(bed.crawler->report().twitter_profiles,
            clean.crawler->report().twitter_profiles);
}

// A damaged middle delta: the second incarnation falls back past it (and
// past the newest checkpoint, which chains through it), continues the chain
// from the restored checkpoint, and dies. The third restores that
// continuation, not the stale newer files, and has nothing left to crawl.
TEST(CrawlerResumeTest, FallbackResumeChainsFromTheRestoredCheckpoint) {
  CrawlConfig config;
  config.checkpoint_every_rounds = 2;
  config.checkpoint_chunk = 64;
  TestBed clean = MakeTestBed(NoRandomErrors(), config);
  ASSERT_TRUE(clean.crawler->Run().ok());
  const CrawlReport& want = clean.crawler->report();

  CrawlConfig first = config;
  first.crash_after_phase = std::string(kPhaseFacebook);
  TestBed bed = MakeTestBed(NoRandomErrors(), first);
  ASSERT_FALSE(bed.crawler->Run().ok());
  bed.crawler.reset();

  std::map<int64_t, DecodedCheckpoint> steps =
      DecodeCheckpoints(*bed.dfs, "/checkpoints/");
  ASSERT_FALSE(steps.empty());
  const int64_t stale = steps.rbegin()->first;
  const int64_t damaged = steps.rbegin()->second.step.parent_seq;
  ASSERT_NE(damaged, 0) << "the newest checkpoint should be a delta";
  ASSERT_EQ(steps.count(damaged), 1u);
  const int64_t restored = steps.at(damaged).step.parent_seq;
  ASSERT_NE(restored, 0) << "its parent should be a delta too";
  ASSERT_TRUE(dfs::CommitFile(bed.dfs.get(), steps.at(damaged).path,
                              "not a checkpoint")
                  .ok());

  CrawlConfig second = config;
  second.crash_after_phase = std::string(kPhaseTwitter);
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), second);
  ASSERT_FALSE(bed.crawler->Resume().ok());
  EXPECT_EQ(bed.crawler->report().checkpoint_restores, 1);
  bed.crawler.reset();
  steps = DecodeCheckpoints(*bed.dfs, "/checkpoints/");
  auto continued = steps.upper_bound(stale);
  ASSERT_NE(continued, steps.end());
  EXPECT_EQ(continued->second.step.parent_seq, restored);

  const int64_t traffic = bed.web->angellist().stats().total.load() +
                          bed.web->crunchbase().stats().total.load() +
                          bed.web->facebook().stats().total.load() +
                          bed.web->twitter().stats().total.load();
  bed.crawler =
      std::make_unique<Crawler>(bed.web.get(), bed.dfs.get(), config);
  ASSERT_TRUE(bed.crawler->Resume().ok());
  const CrawlReport& got = bed.crawler->report();
  EXPECT_EQ(got.checkpoint_restores, 2);
  EXPECT_EQ(bed.web->angellist().stats().total.load() +
                bed.web->crunchbase().stats().total.load() +
                bed.web->facebook().stats().total.load() +
                bed.web->twitter().stats().total.load(),
            traffic);
  EXPECT_EQ(got.companies_crawled, want.companies_crawled);
  EXPECT_EQ(got.users_crawled, want.users_crawled);
  EXPECT_EQ(got.crunchbase_profiles, want.crunchbase_profiles);
  EXPECT_EQ(got.facebook_profiles, want.facebook_profiles);
  EXPECT_EQ(got.twitter_profiles, want.twitter_profiles);
  EXPECT_EQ(UniqueSnapshotIds(*bed.dfs, bed.crawler->StartupSnapshotDir()),
            UniqueSnapshotIds(*clean.dfs, clean.crawler->StartupSnapshotDir()));
}

}  // namespace
}  // namespace cfnet::crawler
