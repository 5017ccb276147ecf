// Serving-tier walkthrough: crawl a small world while CrunchBase is down,
// publish the incrementally maintained investor graph as query epoch 1, and
// drive the overload-hardened service — a founder asking for investor
// recommendations, a prefix search, the community facets, a closed-loop
// burst of mixed personas. Then CrunchBase recovers, the dead letters
// replay, and the new edges are hot-swapped in as an incremental epoch 2
// while the service keeps answering.
//
// Exits non-zero when the burst sees a torn response, when the replayed
// epoch is not incremental or adds no edge, or when the post-swap answer's
// body epoch differs from the epoch it was served under.
//
// Usage: serve_demo [--scale=0.01] [--workers=4] [--seed=20160626]

#include <cstdio>
#include <string>

#include "core/platform.h"
#include "net/fault_plan.h"
#include "serve/epoch_store.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "serve/serving_snapshot.h"
#include "util/flags.h"

using namespace cfnet;

namespace {

serve::SnapshotBuildOptions NameResolvers(const synth::World& world) {
  serve::SnapshotBuildOptions build;
  build.investor_name = [&world](uint64_t id) {
    const synth::UserTruth* u = world.FindUser(id);
    return u != nullptr ? u->name : "investor-" + std::to_string(id);
  };
  build.company_name = [&world](uint64_t id) {
    const synth::CompanyTruth* c = world.FindCompany(id);
    return c != nullptr ? c->name : "company-" + std::to_string(id);
  };
  return build;
}

void ShowResponse(const char* title, const serve::QueryResponse& resp) {
  std::printf("\n-- %s (status %d%s%s, epoch %llu, %lld us)\n", title,
              resp.status, resp.degraded ? ", degraded" : "",
              resp.cache_hit ? ", cache hit" : "",
              static_cast<unsigned long long>(resp.epoch),
              static_cast<long long>(resp.total_micros));
  std::printf("%s\n", resp.body->Dump(2).c_str());
}

/// Advances the platform's epoch, assembles the maintainer's artifacts into
/// a query snapshot (adding PageRank centrality, the name index and the
/// facets) and publishes it under the store's next epoch number.
Result<core::ExploratoryPlatform::EpochAdvanceReport> PublishNextEpoch(
    core::ExploratoryPlatform& platform,
    const serve::SnapshotBuildOptions& build,
    serve::EpochStore<serve::ServingSnapshot>& store) {
  CFNET_ASSIGN_OR_RETURN(auto report, platform.AdvanceEpoch());
  const core::EpochArtifacts& arts = platform.epoch_maintainer()->artifacts();
  const uint64_t epoch = store.Publish(serve::AssembleServingSnapshot(
      store.published() + 1, arts.graph, arts.projection,
      arts.community_labels, arts.communities, build));
  std::printf(
      "epoch %llu (%s): %zu segments, %zu records read; %zu investors, "
      "%zu companies, %zu edges; %.1f ms\n",
      static_cast<unsigned long long>(epoch),
      report.build.incremental ? "incremental" : "full build",
      report.files_scanned, report.records_parsed, arts.graph.num_left(),
      arts.graph.num_right(), arts.graph.num_edges(), report.build.build_ms);
  if (report.build.incremental) {
    std::printf("  delta: %zu new edges, %zu investors on the frontier, "
                "%zu graph rows reused\n",
                report.build.delta_edges, report.build.frontier_size,
                report.build.rows_reused);
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  core::ExploratoryPlatform::Options options;
  options.world.scale = flags.GetDouble("scale", 0.01);
  options.world.seed = static_cast<uint64_t>(flags.GetInt("seed", 20160626));
  options.crawl.num_workers = static_cast<int>(flags.GetInt("workers", 4));

  std::printf("== cfnet serving tier demo ==\n");
  core::ExploratoryPlatform platform(options);

  // CrunchBase errors on every request for the whole crawl: its breaker
  // trips, the crawl degrades instead of failing, and every CrunchBase id
  // is dead-lettered for a later replay.
  net::FaultPlan outage;
  outage.error_bursts = {{0, 365ll * 24 * 3600 * 1000000ll, 1.0}};
  platform.web().crunchbase().set_fault_plan(outage);
  Status s = platform.CollectData();
  if (!s.ok()) {
    std::fprintf(stderr, "crawl failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const crawler::DegradedReport& d :
       platform.crawl_report().degraded_phases) {
    std::printf("degraded crawl: %s, %lld breaker trips, %lld ids "
                "dead-lettered (%s)\n",
                d.phase.c_str(), static_cast<long long>(d.breaker_trips),
                static_cast<long long>(d.dead_lettered), d.reason.c_str());
  }

  // Epoch 1: AdvanceEpoch builds the investor graph, its co-investment
  // projection and Louvain communities from every snapshot segment so far.
  serve::SnapshotBuildOptions build = NameResolvers(platform.world());
  serve::EpochStore<serve::ServingSnapshot> store;
  auto first = PublishNextEpoch(platform, build, store);
  if (!first.ok()) {
    std::fprintf(stderr, "epoch failed: %s\n",
                 first.status().ToString().c_str());
    return 1;
  }

  serve::QueryServiceConfig config;
  config.worker_threads = 2;
  serve::QueryService service(&store, config);

  // A founder: who should invest in this startup? Seeds are the startup's
  // existing investors; candidates come from co-investment + community
  // overlap, existing investors excluded.
  auto pin = store.Acquire();
  const uint64_t startup_id = pin->graph.RightId(0);
  ShowResponse(
      "founder: investors.recommend",
      service.Call(serve::QueryRequest(
          "investors.recommend",
          {{"startup_id", std::to_string(startup_id)}, {"k", "3"}})));

  // A job seeker: prefix search, ranked by centrality.
  const std::string prefix = pin->investors.front().name_lower.substr(0, 2);
  ShowResponse("job seeker: investors.search",
               service.Call(serve::QueryRequest(
                   "investors.search", {{"q", prefix}, {"k", "3"}})));

  // An investor: the community landscape (precomputed facet).
  ShowResponse("investor: facets.communities",
               service.Call(serve::QueryRequest("facets.communities")));

  // Overload behavior: a short closed-loop burst of mixed personas.
  serve::WorkloadGenerator gen(*pin, serve::PersonaMix{});
  pin = serve::EpochStore<serve::ServingSnapshot>::Pin{};
  serve::ClosedLoopConfig burst;
  burst.clients = 4;
  burst.duration_micros = 300'000;
  serve::LoadResult r = RunClosedLoop(service, gen, burst);
  std::printf(
      "\n-- burst: %lld requests, %lld served (%.0f rps goodput), "
      "p99 %lld us, %lld degraded, %lld shed, %lld torn\n",
      static_cast<long long>(r.issued), static_cast<long long>(r.served),
      r.goodput_rps, static_cast<long long>(r.latency_p99_micros),
      static_cast<long long>(r.degraded),
      static_cast<long long>(r.shed_queue_full + r.shed_deadline),
      static_cast<long long>(r.torn_responses));
  if (r.torn_responses != 0) {
    std::fprintf(stderr, "the burst saw torn responses\n");
    return 1;
  }

  // CrunchBase recovers. The replay commits the dead-lettered profiles as
  // new snapshot segments, and AdvanceEpoch reads only those: their round
  // investors become a delta batch on the maintained graph. The new epoch
  // is hot-swapped in while the service keeps answering; the epoch-keyed
  // cache makes the swap an implicit invalidation.
  std::printf("\n");
  platform.web().crunchbase().set_fault_plan({});
  s = platform.crawler().ReplayDeadLetters();
  if (!s.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("replayed %lld dead letters\n",
              static_cast<long long>(
                  platform.crawl_report().dead_letters_replayed));
  auto replayed = PublishNextEpoch(platform, build, store);
  if (!replayed.ok()) {
    std::fprintf(stderr, "epoch failed: %s\n",
                 replayed.status().ToString().c_str());
    return 1;
  }
  if (!replayed->build.incremental || replayed->build.delta_edges == 0) {
    std::fprintf(stderr, "the replayed epoch is not an incremental epoch "
                 "with new edges\n");
    return 1;
  }
  serve::QueryResponse after =
      service.Call(serve::QueryRequest("facets.communities"));
  ShowResponse("after hot-swap: facets.communities (fresh epoch)", after);
  const uint64_t body_epoch =
      static_cast<uint64_t>(after.body->Get("epoch").AsInt());
  if (!after.served() || after.epoch != store.current_epoch() ||
      body_epoch != after.epoch) {
    std::fprintf(stderr,
                 "post-swap answer: served %d, transport epoch %llu, body "
                 "epoch %llu, current epoch %llu\n",
                 after.served() ? 1 : 0,
                 static_cast<unsigned long long>(after.epoch),
                 static_cast<unsigned long long>(body_epoch),
                 static_cast<unsigned long long>(store.current_epoch()));
    return 1;
  }

  std::printf("\nservice stats:\n%s\n", service.StatsJson().Dump(2).c_str());
  return 0;
}
