// Fault-injection harness tests: scripted FaultPlan scenarios, circuit
// breaker behaviour, graceful phase degradation with dead-letter replay,
// and the TokenPool / FetchAllPages edge cases they exposed.

#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "crawler/crawler.h"
#include "crawler/fetch.h"
#include "dfs/jsonl.h"
#include "fnv_digest.h"
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

/// Error-free service overrides for every source, so crawl outcome counts
/// are exactly reproducible across runs (faults then come only from the
/// installed FaultPlan).
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

// --- TokenPool regressions (empty-pool UB, modulo-on-zero) ------------------

TEST(TokenPoolTest, EmptyPoolIsSafe) {
  TokenPool empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.current(), "");  // previously indexed out of bounds
  empty.Rotate();                  // previously % 0
  EXPECT_EQ(empty.current(), "");
}

TEST(TokenPoolTest, EmptyPoolWithStartOffsetIsSafe) {
  // TokenPool({}, k) used to compute k % tokens_.size() with size() == 0.
  TokenPool empty({}, 3);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.current(), "");
}

TEST(TokenPoolTest, StartOffsetWrapsAroundPool) {
  TokenPool pool({"a", "b", "c"}, 7);
  EXPECT_EQ(pool.current(), "b");  // 7 % 3 == 1
  pool.Rotate();
  EXPECT_EQ(pool.current(), "c");
}

TEST(TokenPoolTest, FetchWithEmptyPoolAgainstTokenServiceGets401) {
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig config;
  config.transient_error_rate = 0;
  config.requires_token = true;
  net::FacebookService fb(&world, config);

  TokenPool empty;
  FetchCounters counters;
  int64_t t = 0;
  net::ApiResponse resp =
      FetchWithRetry(&fb, net::ApiRequest("page.get", {{"page_id", "p1"}}),
                     &empty, {}, &t, &counters);
  EXPECT_EQ(resp.status, 401);  // empty token rejected, not a crash
}

// --- circuit breaker state machine ------------------------------------------

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndCoolsDown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown_micros = 10 * kSecond;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  int64_t t = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.AllowRequest(t));
    breaker.RecordFailure(t);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.AllowRequest(t + 1));  // still cooling down

  // Cooldown elapsed: one half-open probe is admitted; success re-closes.
  t += 11 * kSecond;
  EXPECT_TRUE(breaker.AllowRequest(t));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown_micros = 5 * kSecond;
  CircuitBreaker breaker(config);

  int64_t t = 0;
  breaker.RecordFailure(t);
  breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  t += 6 * kSecond;
  EXPECT_TRUE(breaker.AllowRequest(t));  // probe admitted
  breaker.RecordFailure(t);              // probe fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_FALSE(breaker.AllowRequest(t + 1));

  breaker.Reset();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(t));
  EXPECT_EQ(breaker.trips(), 2);  // monotonic metric survives Reset
}

TEST(CircuitBreakerTest, SuccessClosesOnlyAfterEnoughProbes) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_micros = kSecond;
  config.half_open_probes = 2;
  CircuitBreaker breaker(config);

  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.AllowRequest(2 * kSecond));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(2 * kSecond));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// --- scripted fault scenarios against a single service ----------------------

TEST(FaultPlanTest, ErrorBurstOpensBreakerAndFailsFast) {
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig config;
  config.transient_error_rate = 0;
  net::CrunchBaseService cb(&world, config);

  net::FaultPlan plan;
  plan.error_bursts = {{0, 3600 * kSecond, 1.0}};  // hard hour-long outage
  cb.set_fault_plan(plan);

  CircuitBreakerConfig bc;
  bc.failure_threshold = 3;
  CircuitBreaker breaker(bc);
  FetchCounters counters;
  int64_t t = 0;
  FetchPolicy policy;
  policy.max_retries = 2;
  policy.wait_for_breaker_probe = false;  // impatient: never probe, fail fast

  // Burn through the breaker: each fetch's attempts all hit the burst.
  net::ApiRequest req("organizations.get", {{"permalink", "org"}});
  net::ApiResponse first = FetchWithRetry(&cb, req, nullptr, policy, &t,
                                          &counters, &breaker);
  EXPECT_EQ(first.status, 503);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_GT(cb.stats().injected_errors.load(), 0);

  // While open, requests fail fast without touching the service.
  int64_t before = cb.stats().total.load();
  net::ApiResponse fast = FetchWithRetry(&cb, req, nullptr, policy, &t,
                                         &counters, &breaker);
  EXPECT_EQ(fast.status, 503);
  EXPECT_EQ(cb.stats().total.load(), before);
  EXPECT_GT(counters.breaker_fast_fails, 0);
}

TEST(FaultPlanTest, MalformedBodiesAreRetriedThen502) {
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig config;
  config.transient_error_rate = 0;
  net::AngelListService al(&world, config);

  net::FaultPlan plan;
  plan.malformed_bodies = {{0, 3600 * kSecond, 1.0}};
  al.set_fault_plan(plan);

  FetchCounters counters;
  int64_t t = 0;
  net::ApiResponse resp =
      FetchWithRetry(&al, net::ApiRequest("startups.get", {{"id", "1"}}),
                     nullptr, {}, &t, &counters);
  // Truncated 200s are treated as transport errors; exhausting retries
  // surfaces a 502, never a silently-broken body.
  EXPECT_EQ(resp.status, 502);
  EXPECT_GT(counters.malformed_retries, 0);
  EXPECT_GT(al.stats().malformed_responses.load(), 0);

  // Once the window closes, the same request parses fine.
  t = 3601 * kSecond;
  net::ApiResponse after =
      FetchWithRetry(&al, net::ApiRequest("startups.get", {{"id", "1"}}),
                     nullptr, {}, &t, &counters);
  EXPECT_TRUE(after.ok());
}

TEST(FaultPlanTest, AuthStormRevokesTokenAuthenticatedRequests) {
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig config;
  config.transient_error_rate = 0;
  config.requires_token = true;
  net::FacebookService fb(&world, config);

  // Mint a valid token before the storm begins.
  int64_t t = 0;
  net::ApiResponse tok =
      fb.Handle(net::ApiRequest("oauth.token", {{"user", "crawler"}}), &t);
  ASSERT_TRUE(tok.ok());
  std::string token = tok.body.Get("access_token").AsString();

  net::FaultPlan plan;
  plan.auth_storms = {{10 * kSecond, 3600 * kSecond, 1.0}};
  fb.set_fault_plan(plan);

  t = 20 * kSecond;  // inside the storm
  net::ApiRequest req("page.get", {{"page_id", "p1"}});
  req.access_token = token;
  net::ApiResponse resp = fb.Handle(req, &t);
  EXPECT_EQ(resp.status, 401);
  EXPECT_GT(fb.stats().injected_auth_failures.load(), 0);

  t = 3601 * kSecond;  // storm over, same token works again
  net::ApiRequest again("page.get", {{"page_id", "p1"}});
  again.access_token = token;
  EXPECT_NE(fb.Handle(again, &t).status, 401);
}

TEST(FaultPlanTest, LatencySpikeMultipliesRequestTime) {
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig config;
  config.transient_error_rate = 0;
  config.latency_jitter = 0;  // deterministic latency for exact comparison
  net::AngelListService plain(&world, config);
  net::AngelListService spiked(&world, config);

  net::FaultPlan plan;
  plan.latency_spikes = {{0, 3600 * kSecond, 8.0}};
  spiked.set_fault_plan(plan);

  int64_t t_plain = 0;
  int64_t t_spiked = 0;
  net::ApiRequest req("startups.get", {{"id", "1"}});
  ASSERT_TRUE(plain.Handle(req, &t_plain).ok());
  ASSERT_TRUE(spiked.Handle(req, &t_spiked).ok());
  EXPECT_EQ(t_spiked, 8 * t_plain);
}

TEST(FaultPlanTest, FractionalRatesAreSeededAndReproducible) {
  net::FaultPlan plan;
  plan.error_bursts = {{0, 1000 * kSecond, 0.5}};
  net::FaultInjector a(plan);
  net::FaultInjector b(plan);
  int hits = 0;
  for (int i = 0; i < 200; ++i) {
    net::FaultDecision da = a.Evaluate(i * 1000);
    net::FaultDecision db = b.Evaluate(i * 1000);
    EXPECT_EQ(da.inject_error, db.inject_error);  // same seed, same stream
    hits += da.inject_error ? 1 : 0;
  }
  EXPECT_GT(hits, 50);   // roughly half...
  EXPECT_LT(hits, 150);  // ...but never all or none
}

// --- FetchAllPages error paths ----------------------------------------------

/// Endpoint script for pagination edge cases: responses keyed by page.
class ScriptedService : public net::ApiService {
 public:
  explicit ScriptedService(std::vector<net::ApiResponse> pages)
      : net::ApiService("scripted", nullptr, PlainConfig()),
        pages_(std::move(pages)) {}

 protected:
  net::ApiResponse Dispatch(const net::ApiRequest& request,
                            int64_t /*now_micros*/) override {
    int64_t page = request.GetIntParam("page", 1);
    if (page < 1 || page > static_cast<int64_t>(pages_.size())) {
      return net::ApiResponse::Error(404, "page out of range");
    }
    return pages_[static_cast<size_t>(page - 1)];
  }

 private:
  static net::ServiceConfig PlainConfig() {
    net::ServiceConfig config;
    config.transient_error_rate = 0;
    config.latency_mean_micros = 1000;
    return config;
  }
  std::vector<net::ApiResponse> pages_;
};

json::Json PageBody(int64_t page, int64_t last_page) {
  json::Json body = json::Json::MakeObject();
  body.Set("page", page);
  body.Set("last_page", last_page);
  return body;
}

TEST(FetchAllPagesTest, NonRetryableErrorMidPaginationStopsAndSurfaces) {
  ScriptedService svc({net::ApiResponse::Ok(PageBody(1, 3)),
                       net::ApiResponse::Error(404, "page vanished"),
                       net::ApiResponse::Ok(PageBody(3, 3))});
  FetchCounters counters;
  int64_t t = 0;
  std::vector<int64_t> seen;
  net::ApiResponse resp = FetchAllPages(
      &svc,
      [](int64_t page) {
        return net::ApiRequest("list", {{"page", std::to_string(page)}});
      },
      nullptr, {}, &t, &counters,
      [&](const json::Json& body) { seen.push_back(body.Get("page").AsInt()); });
  EXPECT_EQ(resp.status, 404);  // error is surfaced, not swallowed
  EXPECT_EQ(seen, std::vector<int64_t>({1}));  // page 3 never fetched
  EXPECT_EQ(counters.retries, 0);  // 404 is not retryable
}

TEST(FetchAllPagesTest, ShrinkingLastPageStopsEarly) {
  // The listing shrinks while we paginate (entities disappear mid-crawl):
  // page 1 claims 3 pages, page 2 says there are only 2 left.
  ScriptedService svc({net::ApiResponse::Ok(PageBody(1, 3)),
                       net::ApiResponse::Ok(PageBody(2, 2)),
                       net::ApiResponse::Ok(PageBody(3, 3))});
  FetchCounters counters;
  int64_t t = 0;
  std::vector<int64_t> seen;
  net::ApiResponse resp = FetchAllPages(
      &svc,
      [](int64_t page) {
        return net::ApiRequest("list", {{"page", std::to_string(page)}});
      },
      nullptr, {}, &t, &counters,
      [&](const json::Json& body) { seen.push_back(body.Get("page").AsInt()); });
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(seen, std::vector<int64_t>({1, 2}));  // page 3 not requested
}

// --- graceful degradation + dead-letter replay (acceptance) -----------------

TEST(FaultInjectionCrawlTest, BreakerTripsDegradePhaseAndReplayRecovers) {
  // Baseline: identical world/services, no faults.
  CrawlConfig clean_config;
  TestBed clean = MakeTestBed(NoRandomErrors(), clean_config);
  ASSERT_TRUE(clean.crawler->Run().ok());
  const CrawlReport& clean_report = clean.crawler->report();
  ASSERT_GT(clean_report.crunchbase_profiles, 0);

  // Faulted run: CrunchBase is hard-down for the whole crawl.
  TestBed bed = MakeTestBed(NoRandomErrors(), clean_config);
  net::FaultPlan outage;
  outage.error_bursts = {{0, 365ll * 24 * 3600 * kSecond, 1.0}};
  bed.web->crunchbase().set_fault_plan(outage);

  ASSERT_TRUE(bed.crawler->Run().ok());  // crawl survives the dead source
  const CrawlReport& report = bed.crawler->report();

  // The breaker opened past its budget and the phase degraded.
  EXPECT_GT(bed.crawler->crunchbase_breaker().trips(), kBreakerTripBudget);
  EXPECT_GT(report.breaker_trips, 0);
  ASSERT_EQ(report.degraded_phases.size(), 1u);
  EXPECT_EQ(report.degraded_phases[0].phase, kPhaseCrunchBase);
  EXPECT_GT(report.degraded_phases[0].dead_lettered, 0);
  EXPECT_EQ(report.crunchbase_profiles, 0);
  EXPECT_GT(report.dead_lettered_ids, 0);
  EXPECT_GT(report.fetch.breaker_waits, 0);  // cooldowns were waited out

  // The unaffected phases are intact.
  EXPECT_EQ(report.companies_crawled, clean_report.companies_crawled);
  EXPECT_EQ(report.facebook_profiles, clean_report.facebook_profiles);
  EXPECT_EQ(report.twitter_profiles, clean_report.twitter_profiles);

  // Every skipped entity is in the dead-letter log, replayable.
  EXPECT_FALSE(bed.dfs->List(bed.crawler->DeadLetterDir(kPhaseCrunchBase)).empty());

  // Faults clear; replaying the dead letters restores full coverage.
  bed.web->crunchbase().set_fault_plan({});
  ASSERT_TRUE(bed.crawler->ReplayDeadLetters().ok());
  const CrawlReport& replayed = bed.crawler->report();
  EXPECT_EQ(replayed.crunchbase_profiles, clean_report.crunchbase_profiles);
  EXPECT_EQ(replayed.crunchbase_misses, clean_report.crunchbase_misses);
  EXPECT_GT(replayed.dead_letters_replayed, 0);
  EXPECT_TRUE(bed.dfs->List(bed.crawler->DeadLetterDir(kPhaseCrunchBase)).empty());
}

TEST(FaultInjectionCrawlTest, CrawlStartingInsideOutageWindowCompletes) {
  // AngelList is in a maintenance window when the crawl starts (worker
  // clocks begin at 0, inside [0, 20s)); patient backoff rides it out and
  // the BFS proceeds once the window closes.
  CrawlConfig config;
  config.fetch.max_retries = 12;  // patient: ~0.5s * (2^12 - 1) of budget
  TestBed bed = MakeTestBed(NoRandomErrors(), config);
  net::FaultPlan outage;
  outage.error_bursts = {{0, 20 * kSecond, 1.0}};
  bed.web->angellist().set_fault_plan(outage);

  ASSERT_TRUE(bed.crawler->Run().ok());
  const CrawlReport& report = bed.crawler->report();
  EXPECT_GT(report.companies_crawled, 0);
  EXPECT_GT(report.users_crawled, 0);
  EXPECT_GT(report.fetch.retries, 0);
  EXPECT_GT(bed.web->angellist().stats().injected_errors.load(), 0);
  EXPECT_GT(report.makespan_micros, 20 * kSecond);
}

// --- pinned one-worker crawl -------------------------------------------------
// With one worker the request order, and so every latency and transient-error
// draw, is fixed. These pins cover the retry schedule, the rotate-then-wait
// answer to Twitter's rate limit and the commit protocol's storage ops.

TEST(FaultInjectionCrawlTest, OneWorkerCrawlCountersArePinned) {
  synth::WorldConfig wc;
  wc.scale = 0.01;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::SocialWeb web(&world);
  dfs::MiniDfs dfs;
  CrawlConfig config;
  config.num_workers = 1;
  config.num_twitter_machines = 1;
  config.twitter_apps_per_machine = 2;
  Crawler crawler(&web, &dfs, config);
  ASSERT_TRUE(crawler.Run().ok());
  const CrawlReport& r = crawler.report();
  EXPECT_GT(r.fetch.token_rotations, 0);
  EXPECT_GT(r.fetch.rate_limit_waits, 0);

  EXPECT_EQ(r.companies_crawled, 7440);
  EXPECT_EQ(r.users_crawled, 11094);
  EXPECT_EQ(r.bfs_rounds, 4);
  EXPECT_EQ(r.crunchbase_profiles, 88);
  EXPECT_EQ(r.crunchbase_matched_by_url, 68);
  EXPECT_EQ(r.crunchbase_matched_by_search, 20);
  EXPECT_EQ(r.crunchbase_ambiguous_skipped, 0);
  EXPECT_EQ(r.crunchbase_backlink_mismatches, 17);
  EXPECT_EQ(r.crunchbase_misses, 7335);
  EXPECT_EQ(r.facebook_profiles, 391);
  EXPECT_EQ(r.twitter_profiles, 732);
  EXPECT_EQ(r.twitter_tokens, 2);
  EXPECT_EQ(r.fetch.requests, 61942);
  EXPECT_EQ(r.fetch.retries, 247);
  EXPECT_EQ(r.fetch.rate_limit_waits, 4);
  EXPECT_EQ(r.fetch.token_rotations, 8);
  EXPECT_EQ(r.fetch.failures, 0);
  EXPECT_EQ(r.fetch.malformed_retries, 0);
  EXPECT_EQ(r.fetch.breaker_fast_fails, 0);
  EXPECT_EQ(r.fetch.breaker_waits, 0);
  EXPECT_EQ(r.makespan_micros, 7136470919);
  EXPECT_EQ(r.breaker_trips, 0);
  EXPECT_EQ(r.checkpoint_writes, 29);
  EXPECT_EQ(r.checkpoint_restores, 0);
  EXPECT_EQ(r.checkpoint_bytes, 242680);
  EXPECT_EQ(r.dead_lettered_ids, 0);
  EXPECT_EQ(r.dead_letters_replayed, 0);
  EXPECT_EQ(r.storage_temps_removed, 0);
  EXPECT_EQ(r.storage_quarantined, 0);
  EXPECT_TRUE(r.degraded_phases.empty());
  const dfs::DfsStats stats = dfs.GetStats();
  EXPECT_EQ(stats.mutation_ops, 122u);
  EXPECT_EQ(stats.read_ops, 61u);

  // The namespace the crawl leaves behind, byte for byte: every path in
  // List order with its raw stored bytes, commit footers included. (These
  // reads bump read_ops, so they come after the op-count pins.)
  EXPECT_EQ(stats.num_files, 61u);
  EXPECT_EQ(stats.logical_bytes, 4099915u);
  FnvDigest digest;
  auto text = [&digest](const std::string& s) {
    digest.Word(s.size());
    for (unsigned char ch : s) digest.Word(ch);
  };
  for (const std::string& path : dfs.List("/")) {
    auto bytes = dfs.ReadFile(path);
    ASSERT_TRUE(bytes.ok()) << path << ": " << bytes.status();
    text(path);
    text(*bytes);
  }
  EXPECT_EQ(digest.value(), 0x41016f0022f94ef1ull)
      << std::hex << "0x" << digest.value();
}

// Every attempt of a fetch under a total outage costs one latency, and the
// waits between them double from half a second: 0.5 + 1 + 2 + 4 s.
TEST(FetchRetryTest, RetriesWaitHalfASecondDoubling) {
  synth::WorldConfig wc;
  wc.scale = 0.002;
  wc.seed = 99;
  synth::World world = synth::World::Generate(wc);
  net::ServiceConfig config;
  config.transient_error_rate = 0;
  config.latency_jitter = 0;
  net::AngelListService al(&world, config);
  net::FaultPlan outage;
  outage.error_bursts = {{0, 365ll * 24 * 3600 * kSecond, 1.0}};
  al.set_fault_plan(outage);

  FetchPolicy policy;
  policy.max_retries = 4;
  FetchCounters counters;
  int64_t t = 0;
  net::ApiResponse resp =
      FetchWithRetry(&al, net::ApiRequest("startups.get", {{"id", "1"}}),
                     nullptr, policy, &t, &counters);
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(counters.retries, 4);
  EXPECT_EQ(counters.failures, 1);
  EXPECT_EQ(t, 5 * config.latency_mean_micros + 7'500'000);
}

}  // namespace
}  // namespace cfnet::crawler
