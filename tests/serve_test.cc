#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/investor_graph.h"
#include "core/platform.h"
#include "fnv_digest.h"
#include "graph/centrality.h"
#include "serve/cache.h"
#include "serve/epoch_store.h"
#include "serve/load_gen.h"
#include "serve/queries.h"
#include "serve/service.h"
#include "serve/serving_snapshot.h"
#include "util/rng.h"

namespace cfnet::serve {
namespace {

/// Two co-investment clusters with distinct name prefixes, plus a bridge
/// investor — small enough to reason about by hand, rich enough that
/// communities, recommendations and prefix search all have signal.
graph::BipartiteGraph TestGraph() {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  // Cluster A: investors 1..4 across companies 101..103.
  for (uint64_t inv = 1; inv <= 4; ++inv) {
    for (uint64_t c = 101; c <= 103; ++c) {
      if ((inv + c) % 4 != 0) edges.emplace_back(inv, c);
    }
  }
  // Cluster B: investors 5..8 across companies 104..106.
  for (uint64_t inv = 5; inv <= 8; ++inv) {
    for (uint64_t c = 104; c <= 106; ++c) {
      if ((inv + c) % 5 != 0) edges.emplace_back(inv, c);
    }
  }
  // Bridge: investor 9 invests on both sides.
  edges.emplace_back(9, 101);
  edges.emplace_back(9, 104);
  return graph::BipartiteGraph::FromEdges(edges);
}

std::string TestInvestorName(uint64_t id) {
  static const char* kNames[] = {"",        "alice",  "alan",  "albert",
                                 "amelia",  "bob",    "bella", "boris",
                                 "bernard", "bridget"};
  if (id < sizeof(kNames) / sizeof(kNames[0])) return kNames[id];
  return "investor-" + std::to_string(id);
}

std::unique_ptr<const ServingSnapshot> MakeSnapshot(uint64_t epoch) {
  SnapshotBuildOptions opts;
  opts.investor_name = TestInvestorName;
  return BuildServingSnapshot(epoch, TestGraph(), opts);
}

// ---------------------------------------------------------------------------
// Query execution (no service): correctness of the endpoints themselves.

class QueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { snap_ = MakeSnapshot(1).release(); }
  static void TearDownTestSuite() {
    delete snap_;
    snap_ = nullptr;
  }
  static const ServingSnapshot& snap() { return *snap_; }

 private:
  static const ServingSnapshot* snap_;
};
const ServingSnapshot* QueryTest::snap_ = nullptr;

TEST_F(QueryTest, SearchPrefixMatchesNames) {
  QueryOutcome out =
      ExecuteQuery(snap(), "investors.search", {{"q", "al"}, {"k", "10"}});
  ASSERT_EQ(out.status, 200);
  const json::Json& rows = out.body.Get("results");
  ASSERT_GE(rows.size(), 3u);  // alice, alan, albert
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows.at(i).Get("name").AsString().substr(0, 2), "al");
  }
  // Ranked by centrality, descending.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows.at(i - 1).Get("centrality").AsDouble(),
              rows.at(i).Get("centrality").AsDouble());
  }
}

TEST_F(QueryTest, SearchEmptyQueryReturnsMostCentral) {
  QueryOutcome out = ExecuteQuery(snap(), "investors.search", {{"k", "3"}});
  ASSERT_EQ(out.status, 200);
  EXPECT_EQ(out.body.Get("results").size(), 3u);
}

TEST_F(QueryTest, SearchCommunityFilterMatchesExactly) {
  const int community = snap().investors[0].community;
  ASSERT_GE(community, 0);
  std::vector<int64_t> members;
  for (const ServingSnapshot::Investor& inv : snap().investors) {
    if (inv.community == community) {
      members.push_back(static_cast<int64_t>(inv.id));
    }
  }
  std::sort(members.begin(), members.end());
  QueryOutcome out = ExecuteQuery(
      snap(), "investors.search",
      {{"community", std::to_string(community)}, {"k", "100"}});
  ASSERT_EQ(out.status, 200);
  const json::Json& rows = out.body.Get("results");
  std::vector<int64_t> ids;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows.at(i).Get("community").AsInt(), community);
    ids.push_back(rows.at(i).Get("id").AsInt());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, members);

  // The parameter is 64-bit: a value equal to the community modulo 2^32 is
  // another community, and no investor belongs to it.
  QueryOutcome wrapped = ExecuteQuery(
      snap(), "investors.search",
      {{"community", std::to_string((int64_t{1} << 32) + community)},
       {"k", "100"}});
  ASSERT_EQ(wrapped.status, 200);
  EXPECT_EQ(wrapped.body.Get("results").size(), 0u);
}

TEST_F(QueryTest, ProfileUnknownIdIs404) {
  QueryOutcome out = ExecuteQuery(snap(), "investors.profile", {{"id", "999"}});
  EXPECT_EQ(out.status, 404);
}

TEST_F(QueryTest, RecommendExcludesExistingInvestors) {
  QueryOutcome out = ExecuteQuery(snap(), "investors.recommend",
                                  {{"startup_id", "101"}, {"k", "10"}});
  ASSERT_EQ(out.status, 200);
  // Existing investors of 101 must not be recommended back.
  std::vector<uint64_t> existing;
  const uint32_t r = snap().graph.RightIndexOf(101);
  for (uint32_t l : snap().graph.InNeighbors(r)) {
    existing.push_back(snap().graph.LeftId(l));
  }
  const json::Json& rows = out.body.Get("recommendations");
  EXPECT_GT(rows.size(), 0u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t id = static_cast<uint64_t>(rows.at(i).Get("id").AsInt());
    for (uint64_t e : existing) EXPECT_NE(id, e);
  }
  // Scores are sorted descending.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows.at(i - 1).Get("score").AsDouble(),
              rows.at(i).Get("score").AsDouble());
  }
}

TEST_F(QueryTest, SimilarExcludesSelf) {
  QueryOutcome out = ExecuteQuery(snap(), "investors.similar",
                                  {{"investor_id", "1"}, {"k", "10"}});
  ASSERT_EQ(out.status, 200);
  const json::Json& rows = out.body.Get("recommendations");
  EXPECT_GT(rows.size(), 0u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_NE(rows.at(i).Get("id").AsInt(), 1);
  }
}

TEST_F(QueryTest, FacetsArePrecomputed) {
  QueryOutcome communities = ExecuteQuery(snap(), "facets.communities", {});
  ASSERT_EQ(communities.status, 200);
  EXPECT_GT(communities.body.Get("communities").size(), 0u);
  QueryOutcome centrality = ExecuteQuery(snap(), "facets.centrality", {});
  ASSERT_EQ(centrality.status, 200);
  EXPECT_GT(centrality.body.Get("most_central").size(), 0u);
}

// Both facet payloads of a snapshot whose largest communities outgrow the
// listed top members, byte for byte.
TEST(ServingSnapshotTest, PinnedFacetPayloads) {
  Rng rng(31);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (int i = 0; i < 900; ++i) {
    const uint64_t inv = 1 + rng.NextUint64(160);
    edges.emplace_back(inv, 1000 + (inv % 8) * 20 + rng.NextUint64(20));
  }
  auto snap = BuildServingSnapshot(3, graph::BipartiteGraph::FromEdges(edges));
  int64_t largest = 0;
  for (const json::Json& row :
       snap->facet_communities.Get("communities").array()) {
    largest = std::max(largest, row.Get("size").AsInt());
  }
  ASSERT_GT(largest, 5);  // more members than the facets list
  FnvDigest digest;
  for (const json::Json* facet :
       {&snap->facet_communities, &snap->facet_centrality}) {
    const std::string text = facet->Dump();
    digest.Word(text.size());
    for (char c : text) digest.Word(static_cast<unsigned char>(c));
  }
  EXPECT_EQ(digest.value(), 0x17bb97115b010f70ull)
      << std::hex << "0x" << digest.value();
}

// Every field of a snapshot that assembly computes, on a heavy-tailed graph
// large enough that PageRank runs for dozens of iterations and its rows
// split into many morsels: each investor's id, search key, community and
// centrality bits, both indexes, the company names and both facet payloads.
TEST(ServingSnapshotTest, PinnedWholeSnapshot) {
  Rng rng(47);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t inv = 1; inv <= 2400; ++inv) {
    const int64_t degree = rng.PowerLaw(1, 60, 2.1);
    for (int64_t d = 0; d < degree; ++d) {
      edges.emplace_back(
          inv, 50000 + static_cast<uint64_t>(rng.Zipf(3000, 0.75)));
    }
  }
  // Mixed-case names that collide once lowered, so the search key and the
  // id tie-break both shape `by_name`.
  SnapshotBuildOptions opts;
  opts.investor_name = [](uint64_t id) {
    static const char* kStems[] = {"Ada", "bo", "Cy", "dee", "Eve", "fa"};
    return std::string(kStems[id % 6]) + (id % 4 == 0 ? "X" : "x") +
           std::to_string(id % 211);
  };
  opts.company_name = [](uint64_t id) {
    return "co-" + std::to_string(id * 7919 % 10007);
  };
  auto snap = BuildServingSnapshot(5, graph::BipartiteGraph::FromEdges(edges),
                                   opts);
  ASSERT_GE(snap->investors.size(), 2000u);
  // PageRank stops on its tolerance after more than 40 iterations.
  EXPECT_NE(graph::PageRank(snap->projection, 0.85, 40),
            graph::PageRank(snap->projection));

  FnvDigest digest;
  auto text = [&digest](const std::string& s) {
    digest.Word(s.size());
    for (char c : s) digest.Word(static_cast<unsigned char>(c));
  };
  digest.Word(snap->investors.size());
  for (const ServingSnapshot::Investor& inv : snap->investors) {
    digest.Word(inv.id);
    text(inv.name_lower);
    digest.Word(static_cast<uint64_t>(static_cast<int64_t>(inv.community)));
    digest.Bits(inv.centrality);
  }
  for (const std::vector<uint32_t>* index :
       {&snap->by_name, &snap->by_centrality}) {
    digest.Word(index->size());
    for (uint32_t l : *index) digest.Word(l);
  }
  digest.Word(snap->company_names.size());
  for (const std::string& name : snap->company_names) text(name);
  text(snap->facet_communities.Dump());
  text(snap->facet_centrality.Dump());
  EXPECT_EQ(digest.value(), 0x777f7f60ba042553ull)
      << std::hex << "0x" << digest.value();
}

TEST_F(QueryTest, UnknownEndpointIs404) {
  QueryOutcome out = ExecuteQuery(snap(), "investors.frobnicate", {});
  EXPECT_EQ(out.status, 404);
}

TEST_F(QueryTest, EveryResponseCarriesEpochAndFingerprint) {
  for (const char* ep : {"investors.search", "facets.communities"}) {
    QueryOutcome out = ExecuteQuery(snap(), ep, {});
    EXPECT_EQ(out.body.Get("epoch").AsInt(), 1);
    EXPECT_EQ(static_cast<uint64_t>(out.body.Get("fingerprint").AsInt()),
              snap().content_fingerprint);
  }
}

TEST_F(QueryTest, DegradedLimitsClipButStillAnswer) {
  QueryOutcome out = ExecuteQuery(snap(), "investors.recommend",
                                  {{"startup_id", "101"}, {"k", "10"}},
                                  DegradedLimits());
  ASSERT_EQ(out.status, 200);
  EXPECT_GT(out.body.Get("recommendations").size(), 0u);
}

TEST_F(QueryTest, FingerprintIsParamOrderStable) {
  const uint64_t a = FingerprintQuery("investors.search", {{"q", "al"},
                                                           {"k", "5"}});
  const uint64_t b = FingerprintQuery("investors.search", {{"k", "5"},
                                                           {"q", "al"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, FingerprintQuery("investors.search", {{"q", "al"}}));
}

TEST_F(QueryTest, ClassifyEndpointRoutesClasses) {
  EXPECT_EQ(ClassifyEndpoint("investors.search"), QueryClass::kSearch);
  EXPECT_EQ(ClassifyEndpoint("investors.profile"), QueryClass::kSearch);
  EXPECT_EQ(ClassifyEndpoint("investors.recommend"), QueryClass::kRecommend);
  EXPECT_EQ(ClassifyEndpoint("investors.similar"), QueryClass::kRecommend);
  EXPECT_EQ(ClassifyEndpoint("facets.communities"), QueryClass::kFacet);
  EXPECT_EQ(ClassifyEndpoint("facets.centrality"), QueryClass::kFacet);
}

// ---------------------------------------------------------------------------
// Result cache.

TEST(ResultCacheTest, LeastRecentlyUsedEntryIsEvictedPastCapacity) {
  ResultCache cache;
  auto body = std::make_shared<const json::Json>(json::Json(1));
  for (uint64_t key = 0; key <= ResultCache::kCapacity; ++key) {
    cache.Insert(key, /*epoch=*/1, body);
  }
  EXPECT_EQ(cache.size(), 8192u);
  EXPECT_EQ(cache.Lookup(0, 1), nullptr);  // the first key went
  EXPECT_NE(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(ResultCache::kCapacity, 1), nullptr);
  EXPECT_EQ(cache.stats().lru_evictions.load(), 1);
}

// ---------------------------------------------------------------------------
// QueryService behavior under a manual clock.

/// Deterministic-time harness: one worker, a manual clock the execution hook
/// can advance, and direct access to the published store.
struct ServiceHarness {
  explicit ServiceHarness(QueryServiceConfig config = {}) {
    config.worker_threads = 1;
    config.now_fn = [this] { return clock.load(); };
    if (!config.execution_hook) {
      config.execution_hook = [this](QueryClass c, bool degraded) {
        if (hook) hook(c, degraded);
      };
    }
    store.Publish(MakeSnapshot(1));
    service = std::make_unique<QueryService>(&store, std::move(config));
  }

  std::atomic<int64_t> clock{0};
  std::function<void(QueryClass, bool)> hook;
  EpochStore<ServingSnapshot> store;
  std::unique_ptr<QueryService> service;
};

TEST(ServeServiceTest, ServesWithinDeadline) {
  ServiceHarness h;
  QueryRequest req("investors.search", {{"q", "al"}});
  QueryResponse resp = h.service->Call(std::move(req));
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.served());
  EXPECT_FALSE(resp.degraded);
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_EQ(h.service->stats(QueryClass::kSearch).served.load(), 1);
}

TEST(ServeServiceTest, ExpiredQueuedWorkIsShedBeforeExecution) {
  ServiceHarness h;
  std::atomic<bool> gate{false};
  std::atomic<int> execs{0};
  h.hook = [&](QueryClass, bool) {
    if (execs.fetch_add(1) == 0) {
      while (!gate.load()) std::this_thread::sleep_for(
          std::chrono::milliseconds(1));
      h.clock.fetch_add(50'000);  // blows past the 25ms search deadline
    }
  };
  std::promise<QueryResponse> first, second;
  h.service->SubmitAsync(QueryRequest("investors.search", {{"q", "al"}}),
                         [&](QueryResponse r) { first.set_value(std::move(r)); });
  h.service->SubmitAsync(QueryRequest("investors.search", {{"q", "bo"}}),
                         [&](QueryResponse r) { second.set_value(std::move(r)); });
  gate.store(true);

  QueryResponse r1 = first.get_future().get();
  QueryResponse r2 = second.get_future().get();
  // The first executed but finished past its deadline: a timeout, not served.
  EXPECT_EQ(r1.outcome, QueryResponse::Outcome::kTimeout);
  EXPECT_EQ(r1.status, 504);
  // The second expired while queued and was shed without executing.
  EXPECT_EQ(r2.outcome, QueryResponse::Outcome::kShedDeadline);
  EXPECT_EQ(r2.status, 503);
  EXPECT_EQ(execs.load(), 1);

  const ClassStats& cs = h.service->stats(QueryClass::kSearch);
  EXPECT_EQ(cs.timeouts.load(), 1);
  EXPECT_EQ(cs.shed_deadline.load(), 1);
  EXPECT_EQ(cs.served.load(), 0);
}

TEST(ServeServiceTest, FullQueueShedsAtAdmission) {
  QueryServiceConfig config;
  config.search.queue_capacity = 1;
  ServiceHarness h(std::move(config));
  std::atomic<bool> gate{false};
  h.hook = [&](QueryClass, bool) {
    while (!gate.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  };
  std::promise<QueryResponse> p1, p2, p3;
  h.service->SubmitAsync(QueryRequest("investors.search", {{"q", "al"}}),
                         [&](QueryResponse r) { p1.set_value(std::move(r)); });
  // Wait until the worker picked up the first request, so the queue is empty.
  while (h.service->stats(QueryClass::kSearch).queue_latency.count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.service->SubmitAsync(QueryRequest("investors.search", {{"q", "be"}}),
                         [&](QueryResponse r) { p2.set_value(std::move(r)); });
  h.service->SubmitAsync(QueryRequest("investors.search", {{"q", "bo"}}),
                         [&](QueryResponse r) { p3.set_value(std::move(r)); });

  // The third submission found the bounded queue full: shed inline.
  QueryResponse r3 = p3.get_future().get();
  EXPECT_EQ(r3.outcome, QueryResponse::Outcome::kShedQueueFull);
  EXPECT_EQ(r3.status, 503);
  gate.store(true);
  EXPECT_TRUE(p1.get_future().get().served());
  EXPECT_TRUE(p2.get_future().get().served());
  EXPECT_EQ(h.service->stats(QueryClass::kSearch).shed_queue_full.load(), 1);
}

TEST(ServeServiceTest, SlowClassDegradesAndRecovers) {
  QueryServiceConfig config;
  config.recommend.latency_budget_micros = 1000;
  config.recommend.breaker.failure_threshold = 3;
  config.recommend.breaker.cooldown_micros = 100'000;
  config.recommend.breaker.half_open_probes = 1;
  config.recommend.default_deadline_micros = 1'000'000;  // no timeouts here
  ServiceHarness h(std::move(config));
  std::atomic<bool> slow{true};
  h.hook = [&](QueryClass c, bool degraded) {
    if (c == QueryClass::kRecommend && !degraded && slow.load()) {
      h.clock.fetch_add(5000);  // full executions blow the 1ms budget
    }
  };
  auto recommend = [&](int i) {
    return h.service->Call(QueryRequest(
        "investors.recommend",
        {{"startup_id", std::to_string(101 + i % 6)}, {"k", "5"}}));
  };

  // Three slow full executions trip the breaker...
  for (int i = 0; i < 3; ++i) {
    QueryResponse resp = recommend(i);
    EXPECT_TRUE(resp.served());
    EXPECT_FALSE(resp.degraded);
  }
  EXPECT_EQ(h.service->breaker(QueryClass::kRecommend).state(),
            util::CircuitBreaker::State::kOpen);

  // ...after which the class serves degraded (marked) answers instead of
  // queueing more slow work.
  QueryResponse degraded = recommend(3);
  EXPECT_TRUE(degraded.served());
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.body->Get("degraded").AsBool());
  EXPECT_EQ(degraded.status, 200);
  EXPECT_GE(h.service->stats(QueryClass::kRecommend).degraded.load(), 1);

  // Search never tripped: the slow class cannot starve it.
  QueryResponse search =
      h.service->Call(QueryRequest("investors.search", {{"q", "al"}}));
  EXPECT_FALSE(search.degraded);

  // Past the cooldown, a fast probe closes the breaker again.
  slow.store(false);
  h.clock.fetch_add(200'000);
  QueryResponse probe = recommend(4);
  EXPECT_TRUE(probe.served());
  EXPECT_FALSE(probe.degraded);
  EXPECT_EQ(h.service->breaker(QueryClass::kRecommend).state(),
            util::CircuitBreaker::State::kClosed);
}

TEST(ServeServiceTest, RepeatQueryHitsCache) {
  ServiceHarness h;
  QueryRequest req("investors.search", {{"q", "al"}, {"k", "5"}});
  QueryResponse miss = h.service->Call(req);
  ASSERT_TRUE(miss.served());
  EXPECT_FALSE(miss.cache_hit);
  QueryResponse hit = h.service->Call(req);
  ASSERT_TRUE(hit.served());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(*hit.body, *miss.body);
  EXPECT_EQ(h.service->stats(QueryClass::kSearch).cache_hits.load(), 1);
}

TEST(ServeServiceTest, SnapshotSwapInvalidatesCache) {
  ServiceHarness h;
  QueryRequest req("investors.search", {{"q", "al"}});
  QueryResponse before = h.service->Call(req);
  ASSERT_TRUE(h.service->Call(req).cache_hit);

  h.store.Publish(MakeSnapshot(2));
  QueryResponse after = h.service->Call(req);
  // New epoch: the cached old-epoch entry is structurally unreachable.
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.body->Get("epoch").AsInt(), 2);
  EXPECT_EQ(before.epoch, 1u);
  // And the eager eviction dropped the dead entries.
  EXPECT_GE(h.service->cache().stats().epoch_evictions.load(), 1);
}

TEST(ServeServiceTest, NoSnapshotPublishedAnswers503) {
  EpochStore<ServingSnapshot> store;
  QueryServiceConfig config;
  config.worker_threads = 1;
  QueryService service(&store, std::move(config));
  QueryResponse resp =
      service.Call(QueryRequest("investors.search", {{"q", "al"}}));
  EXPECT_EQ(resp.status, 503);
}

TEST(ServeServiceTest, ShutdownShedsQueuedWork) {
  ServiceHarness h;
  std::atomic<bool> gate{false};
  h.hook = [&](QueryClass, bool) {
    while (!gate.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  };
  std::promise<QueryResponse> p1, p2;
  h.service->SubmitAsync(QueryRequest("investors.search", {{"q", "al"}}),
                         [&](QueryResponse r) { p1.set_value(std::move(r)); });
  while (h.service->stats(QueryClass::kSearch).queue_latency.count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h.service->SubmitAsync(QueryRequest("investors.search", {{"q", "bo"}}),
                         [&](QueryResponse r) { p2.set_value(std::move(r)); });
  std::thread shutdown([&] { h.service->Shutdown(); });
  // Shutdown() sheds the drained queue before it joins the workers, so p2
  // resolves while the only worker is still held in p1's hook; opening the
  // gate any earlier would let that worker dequeue and serve p2.
  const QueryResponse second = p2.get_future().get();
  gate.store(true);
  shutdown.join();
  EXPECT_TRUE(p1.get_future().get().served());
  EXPECT_EQ(second.outcome, QueryResponse::Outcome::kShedShutdown);
  // Post-shutdown submissions are shed inline, not lost.
  QueryResponse late =
      h.service->Call(QueryRequest("investors.search", {{"q", "al"}}));
  EXPECT_EQ(late.outcome, QueryResponse::Outcome::kShedShutdown);
}

TEST(ServeServiceTest, StatsJsonCarriesPerClassAccounting) {
  ServiceHarness h;
  h.service->Call(QueryRequest("investors.search", {{"q", "al"}}));
  h.service->Call(QueryRequest("facets.communities"));
  json::Json doc = h.service->StatsJson();
  EXPECT_EQ(doc.Get("classes").Get("search").Get("served").AsInt(), 1);
  EXPECT_EQ(doc.Get("classes").Get("facet").Get("served").AsInt(), 1);
  EXPECT_EQ(doc.Get("epochs").Get("current").AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Load generator smoke: personas produce well-formed requests, closed loop
// aggregates sanely, and no response is ever torn.

TEST(ServeLoadGenTest, ClosedLoopServesCleanTraffic) {
  EpochStore<ServingSnapshot> store;
  store.Publish(MakeSnapshot(1));
  QueryServiceConfig config;
  config.worker_threads = 2;
  QueryService service(&store, std::move(config));
  auto pin = store.Acquire();
  WorkloadGenerator gen(*pin, PersonaMix{});

  ClosedLoopConfig load;
  load.clients = 3;
  load.requests_per_client = 50;
  load.seed = 7;
  LoadResult result = RunClosedLoop(service, gen, load);
  EXPECT_EQ(result.issued, 150);
  EXPECT_EQ(result.served + result.timeouts + result.shed_queue_full +
                result.shed_deadline + result.shed_shutdown,
            result.issued);
  EXPECT_GT(result.served, 0);
  EXPECT_EQ(result.torn_responses, 0);
  EXPECT_EQ(result.epochs_seen, 1);
}

// ---------------------------------------------------------------------------
// Platform integration: a crawl feeds the serving tier end to end.

TEST(ServePlatformTest, CrawledGraphPublishesAndAnswers) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  options.world.seed = 11;
  options.crawl.num_workers = 2;
  core::ExploratoryPlatform platform(options);
  ASSERT_TRUE(platform.CollectData().ok());

  // Build a snapshot from the crawled graph, publish it under the store's
  // first epoch number and answer a query against it.
  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok()) << inputs.status();
  graph::BipartiteGraph g =
      core::BuildInvestorGraph(platform.context(), inputs.value());
  ASSERT_GT(g.num_left(), 0u);
  SnapshotBuildOptions build;
  const synth::World& world = platform.world();
  build.investor_name = [&world](uint64_t id) {
    const synth::UserTruth* u = world.FindUser(id);
    return u != nullptr ? u->name : "investor-" + std::to_string(id);
  };
  build.company_name = [&world](uint64_t id) {
    const synth::CompanyTruth* c = world.FindCompany(id);
    return c != nullptr ? c->name : "company-" + std::to_string(id);
  };
  EpochStore<ServingSnapshot> store;
  ASSERT_EQ(store.Publish(BuildServingSnapshot(1, g, build)), 1u);
  QueryService service(&store, {});
  QueryResponse resp = service.Call(QueryRequest("facets.communities"));
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.served());
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_EQ(resp.body->Get("epoch").AsInt(), 1);
  EXPECT_GT(resp.body->Get("communities").size(), 0u);
}

}  // namespace
}  // namespace cfnet::serve
