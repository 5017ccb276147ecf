// Crawl, load and compaction helpers shared by the three workloads.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/columnar_records.h"
#include "core/records.h"
#include "dfs/columnar.h"

namespace cfnet::e2ebench {

core::ExploratoryPlatform::Options PlatformOptions(uint64_t world_seed,
                                                  double scale,
                                                  bool checkpointing) {
  core::ExploratoryPlatform::Options o;
  o.world.scale = scale;
  o.world.seed = world_seed;
  o.crawl.num_workers = 4;
  o.crawl.checkpointing = checkpointing;
  o.analytics_parallelism = 4;
  return o;
}

std::unique_ptr<core::ExploratoryPlatform> SetUpCrawledWorld(
    uint64_t world_seed, double scale, Tracer& tracer, WorkloadResult& result) {
  const uint64_t trace = tracer.NextId();
  std::unique_ptr<core::ExploratoryPlatform> platform;
  {
    ScopedSpan span(tracer, "synth.generate", trace);
    platform = std::make_unique<core::ExploratoryPlatform>(
        PlatformOptions(world_seed, scale, /*checkpointing=*/false));
  }
  const dfs::DfsStats before = platform->dfs().GetStats();
  Status st;
  {
    ScopedSpan span(tracer, "crawler.collect_data", trace);
    st = platform->CollectData();
  }
  result.Check("setup: CollectData() returns OK", st.ok());
  result.Check("setup: crawl was not degraded",
               platform->crawl_report().degraded_phases.empty());
  AddCrawlLayers(platform->crawl_report(), before, platform->dfs().GetStats(),
                 result);
  return platform;
}

Result<core::AnalysisInputs> LoadInputs(core::ExploratoryPlatform& p,
                                        ThreadPool* pool, Tracer& tracer,
                                        uint64_t trace, uint64_t parent,
                                        dfs::ScanReport* scan) {
  ScopedSpan span(tracer, "dfs.load", trace, parent);
  const crawler::Crawler& c = p.crawler();
  core::AnalysisInputs in;
  CFNET_ASSIGN_OR_RETURN(in.startups,
                         core::LoadSnapshotRecords<core::StartupRecord>(
                             p.dfs(), c.StartupSnapshotDir(), pool, false,
                             scan));
  CFNET_ASSIGN_OR_RETURN(in.users, core::LoadSnapshotRecords<core::UserRecord>(
                                       p.dfs(), c.UserSnapshotDir(), pool,
                                       false, scan));
  CFNET_ASSIGN_OR_RETURN(in.crunchbase,
                         core::LoadSnapshotRecords<core::CrunchBaseRecord>(
                             p.dfs(), c.CrunchBaseSnapshotDir(), pool, false,
                             scan));
  CFNET_ASSIGN_OR_RETURN(in.facebook,
                         core::LoadSnapshotRecords<core::FacebookRecord>(
                             p.dfs(), c.FacebookSnapshotDir(), pool, false,
                             scan));
  CFNET_ASSIGN_OR_RETURN(in.twitter,
                         core::LoadSnapshotRecords<core::TwitterRecord>(
                             p.dfs(), c.TwitterSnapshotDir(), pool, false,
                             scan));
  return in;
}

void AddCrawlLayers(const crawler::CrawlReport& report,
                    const dfs::DfsStats& before, const dfs::DfsStats& after,
                    WorkloadResult& result) {
  auto count = [&](const char* name, double v) {
    result.layer[name] = {v, "count"};
  };
  count("crawler.requests", static_cast<double>(report.fetch.requests));
  count("crawler.retries", static_cast<double>(report.fetch.retries));
  count("crawler.rate_limit_waits",
        static_cast<double>(report.fetch.rate_limit_waits));
  count("crawler.checkpoint_writes",
        static_cast<double>(report.checkpoint_writes));
  result.layer["crawler.sim_makespan_min"] = {
      static_cast<double>(report.makespan_micros) / 60e6, "min"};
  count("dfs.mutation_ops",
        static_cast<double>(after.mutation_ops - before.mutation_ops));
  count("dfs.read_ops", static_cast<double>(after.read_ops - before.read_ops));
  result.layer["dfs.stored_mb"] = {
      static_cast<double>(after.logical_bytes) / (1024.0 * 1024.0), "MiB"};
}

std::vector<std::string> SnapshotDirs(core::ExploratoryPlatform& p) {
  const crawler::Crawler& c = p.crawler();
  return {c.StartupSnapshotDir(), c.UserSnapshotDir(),
          c.CrunchBaseSnapshotDir(), c.FacebookSnapshotDir(),
          c.TwitterSnapshotDir()};
}

bool ColumnarFresh(const dfs::MiniDfs& dfs, const std::string& dir) {
  const std::string path = core::ColumnarPathFor(dir);
  if (!dfs.Exists(path)) return false;
  Result<uint32_t> stored = dfs::ReadColumnarFingerprint(dfs, path);
  return stored.ok() && stored.value() == core::SnapshotFingerprint(dfs, dir);
}

double RecompactMs(core::ExploratoryPlatform& p, Tracer& tracer,
                   WorkloadResult& result) {
  bool deleted = true;
  for (const std::string& dir : SnapshotDirs(p)) {
    for (const std::string& path :
         core::SplitSnapshotFiles(p.dfs().List(dir)).columnar) {
      deleted = deleted && p.dfs().Delete(path).ok();
    }
  }
  result.Check("compaction: columnar files deleted before re-compaction",
               deleted);
  const int64_t start = NowNs();
  Status st;
  {
    ScopedSpan span(tracer, "core.compact", tracer.NextId());
    st = p.CompactSnapshots();
  }
  const double ms = MillisBetween(start, NowNs());
  bool fresh = st.ok();
  for (const std::string& dir : SnapshotDirs(p)) {
    fresh = fresh && ColumnarFresh(p.dfs(), dir);
  }
  result.Check("compaction: re-compaction leaves five fresh columnar files",
               fresh);
  return ms;
}

}  // namespace cfnet::e2ebench
