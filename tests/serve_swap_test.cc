#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/platform.h"
#include "net/fault_plan.h"
#include "serve/epoch_store.h"
#include "serve/service.h"
#include "serve/serving_snapshot.h"

namespace cfnet::serve {
namespace {

/// Self-checking payload: `check` is a pure function of (value, epoch), so a
/// reader that ever observes a half-written or reclaimed snapshot fails the
/// invariant instead of silently reading garbage.
struct Sealed {
  uint64_t value = 0;
  uint64_t epoch_tag = 0;
  uint64_t check = 0;
  std::vector<uint64_t> payload;  // forces real allocation per snapshot

  static std::unique_ptr<const Sealed> Make(uint64_t value, uint64_t epoch) {
    auto s = std::make_unique<Sealed>();
    s->value = value;
    s->epoch_tag = epoch;
    s->check = value * 0x9e3779b97f4a7c15ull + epoch;
    s->payload.assign(256, value);
    return s;
  }
  bool Consistent() const {
    if (check != value * 0x9e3779b97f4a7c15ull + epoch_tag) return false;
    for (uint64_t v : payload) {
      if (v != value) return false;
    }
    return true;
  }
};

TEST(EpochStoreTest, PublishRetiresAndReclaimsUnpinned) {
  EpochStore<Sealed> store;
  EXPECT_FALSE(store.Acquire());
  EXPECT_EQ(store.Publish(Sealed::Make(10, 1)), 1u);
  EXPECT_EQ(store.current_epoch(), 1u);
  EXPECT_EQ(store.Publish(Sealed::Make(20, 2)), 2u);
  // No pins were held: the first epoch was reclaimed by the second Publish.
  EXPECT_EQ(store.retired(), 1u);
  EXPECT_EQ(store.live_epochs(), 1u);
  auto pin = store.Acquire();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->value, 20u);
  EXPECT_EQ(pin.epoch(), 2u);
}

TEST(EpochStoreTest, PinnedEpochSurvivesSwap) {
  EpochStore<Sealed> store;
  store.Publish(Sealed::Make(10, 1));
  auto pin = store.Acquire();
  ASSERT_TRUE(pin);
  store.Publish(Sealed::Make(20, 2));
  store.Sweep();
  // The in-flight pin keeps epoch 1 alive and intact...
  EXPECT_EQ(pin->value, 10u);
  EXPECT_TRUE(pin->Consistent());
  EXPECT_EQ(store.live_epochs(), 2u);
  // ...while new readers see epoch 2.
  auto fresh = store.Acquire();
  EXPECT_EQ(fresh->value, 20u);
  // Once the pin drains, the retired epoch is reclaimed.
  pin = EpochStore<Sealed>::Pin{};
  EXPECT_EQ(store.live_pins(), 1);  // only `fresh`
  store.Sweep();
  EXPECT_EQ(store.live_epochs(), 1u);
  EXPECT_EQ(store.retired(), 1u);
}

/// Payload that records how often, and on which thread, it was destroyed.
struct FreeRecorder {
  FreeRecorder(std::atomic<int>* frees, std::thread::id* freed_on)
      : frees(frees), freed_on(freed_on) {}
  FreeRecorder(const FreeRecorder&) = delete;
  FreeRecorder& operator=(const FreeRecorder&) = delete;
  ~FreeRecorder() {
    *freed_on = std::this_thread::get_id();
    frees->fetch_add(1);
  }
  std::atomic<int>* frees;
  std::thread::id* freed_on;
};

// A reader that releases the last pin on a retired epoch does not free it:
// the epoch waits for the publisher's next Sweep, which frees it on the
// publisher's thread.
TEST(EpochStoreTest, PublisherFreesEpochsReadersReleased) {
  std::atomic<int> frees{0};
  std::thread::id freed_on;
  EpochStore<FreeRecorder> store;
  store.Publish(std::make_unique<const FreeRecorder>(&frees, &freed_on));

  std::promise<void> pinned;
  std::promise<void> published;
  std::future<void> pinned_done = pinned.get_future();
  std::future<void> published_done = published.get_future();
  std::thread reader([&] {
    EpochStore<FreeRecorder>::Pin pin = store.Acquire();
    EXPECT_EQ(pin.epoch(), 1u);
    pinned.set_value();
    published_done.wait();
  });  // the reader's pin, the last on epoch 1, drops as it exits
  pinned_done.wait();
  store.Publish(std::make_unique<const FreeRecorder>(&frees, &freed_on));
  published.set_value();
  reader.join();

  EXPECT_EQ(frees.load(), 0);
  EXPECT_EQ(store.live_epochs(), 2u);
  EXPECT_EQ(store.Sweep(), 1u);
  EXPECT_EQ(frees.load(), 1);
  EXPECT_EQ(freed_on, std::this_thread::get_id());
  EXPECT_EQ(store.retired(), 1u);
  EXPECT_EQ(store.live_epochs(), 1u);
}

/// The satellite's headline race: ~1000 concurrent queries against a
/// publisher hot-swapping snapshots. No torn reads, every pinned snapshot
/// internally consistent, all pins drained, every retired epoch reclaimed.
TEST(EpochStoreTest, SwapRacingConcurrentReadersNeverTears) {
  EpochStore<Sealed> store;
  store.Publish(Sealed::Make(1, 1));

  constexpr int kReaders = 8;
  constexpr int kAcquiresPerReader = 125;  // 1000 total pinned reads
  constexpr int kPublishes = 300;
  std::atomic<bool> stop_publisher{false};
  std::atomic<int64_t> torn{0};

  std::thread publisher([&] {
    for (uint64_t i = 2; i <= kPublishes && !stop_publisher.load(); ++i) {
      store.Publish(Sealed::Make(i, i));
      if (i % 16 == 0) std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kAcquiresPerReader; ++i) {
        auto pin = store.Acquire();
        if (!pin) continue;
        // Hold the pin across real work; the snapshot must stay intact
        // even if the publisher retires this epoch meanwhile.
        if (!pin->Consistent() || pin.epoch() != pin->epoch_tag) {
          torn.fetch_add(1);
        }
        if (i % 8 == 0) std::this_thread::yield();
        if (!pin->Consistent()) torn.fetch_add(1);
      }
    });
  }
  for (auto& r : readers) r.join();
  stop_publisher.store(true);
  publisher.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(store.live_pins(), 0);  // every pin refcount drained
  store.Sweep();
  // Everything but the current epoch was reclaimed.
  EXPECT_EQ(store.live_epochs(), 1u);
  EXPECT_EQ(store.retired(), store.published() - 1);
}

// ---------------------------------------------------------------------------
// Full service under swap: responses are never a mix of two snapshots, and
// the epoch-keyed cache never serves old-epoch bytes after invalidation.

graph::BipartiteGraph SwapGraph(uint64_t flavor) {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t inv = 1; inv <= 20; ++inv) {
    for (uint64_t c = 0; c < 4; ++c) {
      edges.emplace_back(inv, 100 + (inv * (flavor + 2) + c * 7) % 12);
    }
  }
  return graph::BipartiteGraph::FromEdges(edges);
}

std::unique_ptr<const ServingSnapshot> SwapSnapshot(uint64_t epoch) {
  SnapshotBuildOptions opts;
  opts.investor_name = [](uint64_t id) {
    return "investor-" + std::to_string(id);
  };
  return BuildServingSnapshot(epoch, SwapGraph(epoch), opts);
}

TEST(ServeSwapTest, QueriesRacingSwapsStayConsistentAndCacheStaysFresh) {
  EpochStore<ServingSnapshot> store;
  store.Publish(SwapSnapshot(1));
  QueryServiceConfig config;
  config.worker_threads = 4;
  config.recommend.default_deadline_micros = 5'000'000;
  config.search.default_deadline_micros = 5'000'000;
  config.facet.default_deadline_micros = 5'000'000;
  config.search.queue_capacity = 4096;
  config.recommend.queue_capacity = 4096;
  config.facet.queue_capacity = 4096;
  QueryService service(&store, std::move(config));

  // epoch -> content fingerprint, as observed in response bodies. Any epoch
  // mapping to two fingerprints (or a body disagreeing with its transport
  // epoch) is a torn view.
  std::mutex mu;
  std::map<uint64_t, uint64_t> epoch_fp;
  std::atomic<int64_t> torn{0};
  std::atomic<int64_t> answered{0};

  constexpr int kClients = 5;
  constexpr int kPerClient = 200;  // 1000 concurrent queries total
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        QueryRequest req;
        switch ((t + i) % 3) {
          case 0:
            req = QueryRequest("investors.search",
                               {{"q", "investor-1"}, {"k", "5"}});
            break;
          case 1:
            req = QueryRequest("investors.similar",
                               {{"investor_id", std::to_string(1 + i % 20)},
                                {"k", "5"}});
            break;
          default:
            req = QueryRequest("facets.communities");
        }
        QueryResponse resp = service.Call(std::move(req));
        if (resp.status != 200) continue;
        answered.fetch_add(1);
        const uint64_t body_epoch =
            static_cast<uint64_t>(resp.body->Get("epoch").AsInt());
        const uint64_t body_fp =
            static_cast<uint64_t>(resp.body->Get("fingerprint").AsInt());
        if (body_epoch != resp.epoch) {
          torn.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = epoch_fp.emplace(body_epoch, body_fp);
        if (!inserted && it->second != body_fp) torn.fetch_add(1);
      }
    });
  }

  // Publisher: hot-swap snapshots while the clients hammer the service.
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    uint64_t epoch = 2;
    while (!done.load()) {
      store.Publish(SwapSnapshot(epoch++));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& c : clients) c.join();
  done.store(true);
  publisher.join();
  service.Shutdown();

  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(epoch_fp.size(), 1u) << "publisher never swapped during the run";

  // Pins all drained; retired epochs reclaimable down to the current one.
  EXPECT_EQ(store.live_pins(), 0);
  store.Sweep();
  EXPECT_EQ(store.live_epochs(), 1u);

  // Cache stayed epoch-fresh: hits can only have come from live-epoch
  // entries, and after the final sweep a fresh query maps to the newest
  // epoch's fingerprint.
  EpochStore<ServingSnapshot>::Pin current = store.Acquire();
  ASSERT_TRUE(current);
  QueryServiceConfig verify_config;
  verify_config.worker_threads = 1;
  QueryService verify(&store, std::move(verify_config));
  QueryResponse fresh = verify.Call(
      QueryRequest("investors.search", {{"q", "investor-1"}, {"k", "5"}}));
  ASSERT_EQ(fresh.status, 200);
  EXPECT_EQ(fresh.epoch, current.epoch());
  EXPECT_EQ(static_cast<uint64_t>(fresh.body->Get("fingerprint").AsInt()),
            current->content_fingerprint);
}

// ---------------------------------------------------------------------------
// Incremental epoch publication under load: a real crawl round drives the
// platform's delta-scanned AdvanceEpoch, each epoch's maintained artifacts
// are assembled into a serving snapshot and hot-swapped while clients
// hammer the service — zero torn responses.

TEST(ServeSwapTest, IncrementalEpochsPublishUnderQueryLoadWithoutTearing) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.002;
  options.world.seed = 11;
  options.crawl.num_workers = 2;
  core::ExploratoryPlatform platform(options);

  // CrunchBase starts hard-down: its fetches dead-letter, so the baseline
  // epoch carries AngelList edges only and the replay later produces a
  // genuine delta batch.
  net::FaultPlan outage;
  outage.error_bursts = {{0, 365ll * 24 * 3600 * 1000000ll, 1.0}};
  platform.web().crunchbase().set_fault_plan(outage);
  ASSERT_TRUE(platform.CollectData().ok());

  EpochStore<ServingSnapshot> store;
  QueryServiceConfig config;
  config.worker_threads = 2;
  config.search.default_deadline_micros = 5'000'000;
  config.facet.default_deadline_micros = 5'000'000;
  config.search.queue_capacity = 4096;
  config.facet.queue_capacity = 4096;
  QueryService service(&store, std::move(config));

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

  // Publishes the maintainer's current artifacts as a serving snapshot. The
  // snapshot's embedded epoch must match the store's assignment (the torn
  // check compares body epoch against the pinned transport epoch), and the
  // store numbers epochs from 1.
  auto publish_epoch = [&]() {
    const core::EpochArtifacts& arts = platform.epoch_maintainer()->artifacts();
    const uint64_t epoch = store.published() + 1;
    ASSERT_EQ(store.Publish(AssembleServingSnapshot(
                  epoch, arts.graph, arts.projection, arts.community_labels,
                  arts.communities, build)),
              epoch);
  };

  auto first = platform.AdvanceEpoch();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->full_rebuild);
  publish_epoch();

  // Clients hammer the service across the swap.
  std::mutex mu;
  std::map<uint64_t, uint64_t> epoch_fp;
  std::atomic<int64_t> torn{0};
  std::atomic<int64_t> answered{0};
  std::atomic<bool> stop{false};
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load() || i < 50; ++i) {
        if (i >= 400) break;
        QueryRequest req = (t + i) % 2 == 0
                               ? QueryRequest("investors.search",
                                              {{"q", "a"}, {"k", "5"}})
                               : QueryRequest("facets.communities");
        QueryResponse resp = service.Call(std::move(req));
        if (resp.status != 200) continue;
        answered.fetch_add(1);
        const uint64_t body_epoch =
            static_cast<uint64_t>(resp.body->Get("epoch").AsInt());
        const uint64_t body_fp =
            static_cast<uint64_t>(resp.body->Get("fingerprint").AsInt());
        if (body_epoch != resp.epoch) {
          torn.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = epoch_fp.emplace(body_epoch, body_fp);
        if (!inserted && it->second != body_fp) torn.fetch_add(1);
      }
    });
  }

  // Mid-load: CrunchBase recovers, the dead letters replay, and the next
  // AdvanceEpoch publishes an incremental epoch.
  platform.web().crunchbase().set_fault_plan({});
  ASSERT_TRUE(platform.crawler().ReplayDeadLetters().ok());
  auto replayed = platform.AdvanceEpoch();
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_TRUE(replayed->build.incremental);
  EXPECT_GT(replayed->build.delta_edges, 0u);
  publish_epoch();

  stop.store(true);
  for (auto& c : clients) c.join();
  service.Shutdown();

  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(torn.load(), 0);

  EXPECT_EQ(store.live_pins(), 0);
  store.Sweep();
  EXPECT_EQ(store.live_epochs(), 1u);
}

}  // namespace
}  // namespace cfnet::serve
