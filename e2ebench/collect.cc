// `collect`: ExploratoryPlatform construction, then CollectData() with the
// shipped durability config (checkpointing on, checkpoint_chunk 1024,
// compaction on), repeated on fresh platforms, each over its own world drawn
// from the workload seed, for the whole window. The
// crawler, commit, checkpoint and compaction path does nearly all the work;
// analytics and serving do none.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"

namespace cfnet::e2ebench {
namespace {

template <typename T, typename IdFn>
bool IdsUnique(const std::vector<T>& records, IdFn id) {
  std::unordered_set<uint64_t> seen;
  seen.reserve(records.size());
  for (const T& r : records) {
    if (!seen.insert(id(r)).second) return false;
  }
  return true;
}

/// Records a crawl collected, per source. Request counts are not compared:
/// retries depend on how the workers interleave.
std::vector<int64_t> CrawledCounts(const crawler::CrawlReport& r) {
  return {r.companies_crawled, r.users_crawled, r.crunchbase_profiles,
          r.facebook_profiles, r.twitter_profiles};
}

/// Loads every snapshot back and checks it against the crawl report.
void CheckSnapshots(core::ExploratoryPlatform& p, Tracer& tracer,
                    uint64_t trace, WorkloadResult& result) {
  const crawler::CrawlReport& report = p.crawl_report();
  auto loaded = LoadInputs(p, &p.context()->pool(), tracer, trace,
                           /*parent=*/0, nullptr);
  result.Check("collect: all five snapshots load", loaded.ok());
  if (!loaded.ok()) return;
  const core::AnalysisInputs& in = loaded.value();
  result.Check(
      "collect: loaded record counts equal the CrawlReport counts",
      static_cast<int64_t>(in.startups.size()) == report.companies_crawled &&
          static_cast<int64_t>(in.users.size()) == report.users_crawled &&
          static_cast<int64_t>(in.crunchbase.size()) ==
              report.crunchbase_profiles &&
          static_cast<int64_t>(in.facebook.size()) ==
              report.facebook_profiles &&
          static_cast<int64_t>(in.twitter.size()) == report.twitter_profiles);
  auto id = [](const auto& r) { return r.id; };
  auto angellist_id = [](const auto& r) { return r.angellist_id; };
  result.Check("collect: ids are unique per record type",
               IdsUnique(in.startups, id) && IdsUnique(in.users, id) &&
                   IdsUnique(in.crunchbase, angellist_id) &&
                   IdsUnique(in.facebook, angellist_id) &&
                   IdsUnique(in.twitter, angellist_id));
  bool fresh = true;
  for (const std::string& dir : SnapshotDirs(p)) {
    fresh = fresh && ColumnarFresh(p.dfs(), dir);
  }
  result.Check("collect: all five columnar files are fresh", fresh);
  result.Check("collect: crawl was not degraded",
               report.degraded_phases.empty());
}

}  // namespace

WorkloadResult RunCollect(const Options& options, Tracer& tracer) {
  WorkloadResult result;
  result.blocking_root = "bench.collect";
  // Small enough that 20+ crawls fit a 20 s window, so p90 has samples
  // beyond it.
  const double scale = options.smoke ? 0.003 : 0.012;
  const int min_crawls = options.smoke ? 2 : 3;
  std::vector<double> setup_s;
  std::vector<double> collect_ms;
  std::vector<int64_t> crawled;  // record counts of the first crawl
  double recompact_ms = 0;

  const int64_t loop_start = NowNs();
  for (int i = 0; i < min_crawls ||
                  SecondsBetween(loop_start, NowNs()) < options.seconds;
       ++i) {
    const uint64_t trace = tracer.NextId();
    const int64_t t0 = NowNs();
    std::unique_ptr<core::ExploratoryPlatform> platform;
    {
      ScopedSpan span(tracer, "synth.generate", trace);
      platform = std::make_unique<core::ExploratoryPlatform>(PlatformOptions(
          WorldSeed(options, i), scale, /*checkpointing=*/true));
    }
    setup_s.push_back(SecondsBetween(t0, NowNs()));

    const dfs::DfsStats before = platform->dfs().GetStats();
    Status st;
    const int64_t c0 = NowNs();
    {
      ScopedSpan root(tracer, "bench.collect", trace);
      ScopedSpan span(tracer, "crawler.collect_data", trace, root.id());
      st = platform->CollectData();
    }
    collect_ms.push_back(MillisBetween(c0, NowNs()));
    result.Check("collect: CollectData() returns OK", st.ok());

    const crawler::CrawlReport& report = platform->crawl_report();
    if (i == 0) crawled = CrawledCounts(report);
    result.attempted += report.fetch.requests;
    result.failed += report.fetch.failures + report.dead_lettered_ids;
    AddCrawlLayers(report, before, platform->dfs().GetStats(), result);
    CheckSnapshots(*platform, tracer, trace, result);
    if (tracer.enabled() && i == 0) {
      recompact_ms = RecompactMs(*platform, tracer, result);
    }
  }

  const double p50 = Median(collect_ms);
  const double p90 = Percentile(collect_ms, 90);
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  result.end_to_end["freshness_p50_ms"] = {p50, "ms"};
  result.named["freshness_p90_ms"] = {p90, "ms"};
  result.named["collect_s"] = {p50 / 1e3, "s"};
  result.named["crawls"] = {static_cast<double>(collect_ms.size()), "count"};
  result.samples["collect_ms"] = collect_ms;
  result.samples["setup_s"] = setup_s;

  if (tracer.enabled()) {
    // Twin crawl of the first crawl's world with checkpointing off: the
    // difference is what checkpointing cost that crawl.
    auto twin = std::make_unique<core::ExploratoryPlatform>(PlatformOptions(
        WorldSeed(options, 0), scale, /*checkpointing=*/false));
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan span(tracer, "bench.twin_crawl", tracer.NextId());
      st = twin->CollectData();
    }
    const double twin_ms = MillisBetween(t0, NowNs());
    result.Check(
        "collect: twin crawl without checkpoints collects the same records",
        st.ok() && CrawledCounts(twin->crawl_report()) == crawled);
    result.layer["crawler.checkpoint_ms"] = {collect_ms[0] - twin_ms, "ms"};
    result.layer["core.compact_ms"] = {recompact_ms, "ms"};
  }
  return result;
}

}  // namespace cfnet::e2ebench
