// Reproduces the §3 dataset-collection statistics (companies/users/profiles
// gathered, role fractions) and evaluates crawl throughput: workers and
// Twitter-token sweeps over simulated makespan — the paper's claim that
// token sharding "tackles the rate limit issue effectively".
//
// With --json[=PATH] it instead measures what durability costs a crawl and
// writes BENCH_crawl.json: CollectData() wall time with checkpointing on
// and off at scales 0.05, 0.1, 0.2 and 0.4, median and min/max of 3 runs,
// in the crawl config of the e2e `collect` workload (4 workers, snapshots
// and compaction on); the on/off ratio; the checkpoint count and bytes per
// scale; and the log-log slope of each series.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "crawler/checkpoint.h"
#include "crawler/crawler.h"
#include "dfs/commit.h"
#include "net/social_web.h"
#include "util/string_util.h"
#include "util/table.h"

namespace cfnet::bench {
namespace {

/// Runs a fresh crawl of a small world with the given worker/token counts;
/// returns the report.
crawler::CrawlReport SweepCrawl(double scale, int workers, int machines,
                                int apps_per_machine) {
  synth::WorldConfig wc;
  wc.scale = scale;
  wc.seed = 20160626;
  synth::World world = synth::World::Generate(wc);
  net::SocialWeb web(&world);
  dfs::MiniDfs dfs;
  crawler::CrawlConfig config;
  config.num_workers = workers;
  config.num_twitter_machines = machines;
  config.twitter_apps_per_machine = apps_per_machine;
  config.store_snapshots = false;
  crawler::Crawler crawler(&web, &dfs, config);
  Status s = crawler.Run();
  CFNET_CHECK(s.ok()) << s.ToString();
  return crawler.report();
}

void BM_FullCrawl(benchmark::State& state) {
  for (auto _ : state) {
    crawler::CrawlReport report =
        SweepCrawl(0.002, static_cast<int>(state.range(0)), 2, 5);
    benchmark::DoNotOptimize(report.fetch.requests);
    state.counters["requests"] =
        static_cast<double>(report.fetch.requests);
  }
}
BENCHMARK(BM_FullCrawl)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// A platform in the crawl config of the e2e `collect` workload.
std::unique_ptr<core::ExploratoryPlatform> CollectPlatform(double scale,
                                                          bool checkpointing,
                                                          int keep) {
  core::ExploratoryPlatform::Options o;
  o.world.scale = scale;
  o.world.seed = 20160626;
  o.crawl.num_workers = 4;
  o.crawl.checkpointing = checkpointing;
  o.crawl.checkpoints_to_keep = keep;
  o.analytics_parallelism = 4;
  return std::make_unique<core::ExploratoryPlatform>(o);
}

/// Wall milliseconds of one CollectData() (world generation excluded).
double CollectMs(double scale, bool checkpointing) {
  auto platform = CollectPlatform(scale, checkpointing, /*keep=*/2);
  const auto start = std::chrono::steady_clock::now();
  Status s = platform->CollectData();
  CFNET_CHECK(s.ok()) << s.ToString();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Least-squares slope of log(y) against log(x).
double LogLogSlope(const std::vector<double>& x,
                   const std::vector<double>& y) {
  double mx = 0, my = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx += std::log(x[i]) / static_cast<double>(x.size());
    my += std::log(y[i]) / static_cast<double>(y.size());
  }
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxy += (std::log(x[i]) - mx) * (std::log(y[i]) - my);
    sxx += (std::log(x[i]) - mx) * (std::log(x[i]) - mx);
  }
  return sxy / sxx;
}

/// Checkpoint bytes of one crawl that keeps every chain, so each step it
/// committed can be read back: count, total, largest, and largest after
/// BFS (steps whose phase is past it). Retention does not change what is
/// written.
json::Json CheckpointBytes(double scale) {
  auto platform = CollectPlatform(scale, /*checkpointing=*/true,
                                  /*keep=*/1 << 30);
  CFNET_CHECK(platform->CollectData().ok());
  int64_t count = 0, bases = 0, total = 0, largest = 0, largest_post_bfs = 0;
  for (const std::string& path : platform->dfs().List("/checkpoints/")) {
    auto payload = dfs::ReadCommitted(platform->dfs(), path);
    CFNET_CHECK(payload.ok()) << path;
    auto step = crawler::DecodeStep(*payload);
    CFNET_CHECK(step.ok()) << path;
    const int64_t bytes = static_cast<int64_t>(payload->size());
    ++count;
    bases += step->parent_seq == 0 ? 1 : 0;
    total += bytes;
    largest = std::max(largest, bytes);
    if (step->phase != crawler::kPhaseBfs) {
      largest_post_bfs = std::max(largest_post_bfs, bytes);
    }
  }
  const crawler::CrawlReport& report = platform->crawl_report();
  CFNET_CHECK(report.checkpoint_writes == count &&
              report.checkpoint_bytes == total)
      << "every committed step was read back";
  json::Json o = json::Json::MakeObject();
  o.Set("checkpoints", count);
  o.Set("bases", bases);
  o.Set("checkpoint_bytes_total", total);
  o.Set("checkpoint_bytes_largest", largest);
  o.Set("checkpoint_bytes_largest_post_bfs", largest_post_bfs);
  return o;
}

constexpr double kScales[] = {0.05, 0.1, 0.2, 0.4};
constexpr int kReps = 3;

void RunCrawlScaling(const std::string& path) {
  json::Json rows = json::Json::MakeArray();
  std::vector<double> scales, on_medians, off_medians;
  for (double scale : kScales) {
    std::vector<double> on, off;
    for (int r = 0; r < kReps; ++r) {  // alternate so drift hits both
      on.push_back(CollectMs(scale, true));
      off.push_back(CollectMs(scale, false));
    }
    json::Json on_ms = Spread(on);
    json::Json off_ms = Spread(off);
    scales.push_back(scale);
    on_medians.push_back(on_ms.Get("median").AsDouble());
    off_medians.push_back(off_ms.Get("median").AsDouble());
    json::Json row = CheckpointBytes(scale);
    row.Set("scale", scale);
    row.Set("checkpointing_on_ms", std::move(on_ms));
    row.Set("checkpointing_off_ms", std::move(off_ms));
    row.Set("on_off_ratio", on_medians.back() / off_medians.back());
    std::printf("scale %.3g: on %.0f ms, off %.0f ms (%.2fx); %lld "
                "checkpoints, largest after BFS %lld bytes\n",
                scale, on_medians.back(), off_medians.back(),
                on_medians.back() / off_medians.back(),
                static_cast<long long>(row.Get("checkpoints").AsInt()),
                static_cast<long long>(
                    row.Get("checkpoint_bytes_largest_post_bfs").AsInt()));
    rows.Append(std::move(row));
  }
  json::Json doc = json::Json::MakeObject();
  doc.Set("bench", "crawl_scaling");
  doc.Set("config",
          "ExploratoryPlatform::CollectData(), world seed 20160626, 4 crawl "
          "workers, snapshots and compaction on, checkpoint_every_rounds 1, "
          "checkpoint_chunk 1024, checkpoints_to_keep 2; wall time excludes "
          "world generation; bytes from one extra crawl per scale that keeps "
          "every chain");
  doc.Set("reps", static_cast<int64_t>(kReps));
  doc.Set("scales", std::move(rows));
  json::Json slopes = json::Json::MakeObject();
  slopes.Set("checkpointing_on", LogLogSlope(scales, on_medians));
  slopes.Set("checkpointing_off", LogLogSlope(scales, off_medians));
  doc.Set("log_log_slope", std::move(slopes));
  WriteJsonDoc(path, doc);
}

}  // namespace
}  // namespace cfnet::bench

int main(int argc, char** argv) {
  using namespace cfnet;
  using namespace cfnet::bench;
  FlagParser flags(argc, argv);
  if (flags.Has("json")) {
    const std::string path = flags.GetString("json", "");
    RunCrawlScaling(path == "true" ? "BENCH_crawl.json" : path);
    return 0;
  }
  Testbed& bed = GetTestbed(flags);

  const auto& report = bed.platform->crawl_report();
  core::DatasetStatsResult stats = bed.suite->RunDatasetStats();
  const double scale = bed.scale;

  Section("§3 dataset statistics (scaled targets = paper x scale)");
  PrintComparison("AngelList companies",
                  StrFormat("%.0f", 744036 * scale),
                  WithThousandsSeparators(stats.companies));
  PrintComparison("AngelList users", StrFormat("%.0f", 1109441 * scale),
                  WithThousandsSeparators(stats.users));
  PrintComparison("CrunchBase profiles", StrFormat("%.0f", 10156 * scale),
                  WithThousandsSeparators(stats.crunchbase_profiles));
  PrintComparison("Facebook profiles", StrFormat("%.0f", 37761 * scale),
                  WithThousandsSeparators(stats.facebook_profiles));
  PrintComparison("Twitter profiles", StrFormat("%.0f", 70563 * scale),
                  WithThousandsSeparators(stats.twitter_profiles));
  PrintComparison("investors", "4.3%",
                  StrFormat("%.1f%%", stats.investor_pct));
  PrintComparison("founders", "18.3%", StrFormat("%.1f%%", stats.founder_pct));
  PrintComparison("prospective employees", "44.2%",
                  StrFormat("%.1f%%", stats.employee_pct));

  Section("crawl pipeline report");
  std::printf(
      "  %s API requests (%s retries, %s rate-limit waits, %s token "
      "rotations)\n",
      WithThousandsSeparators(report.fetch.requests).c_str(),
      WithThousandsSeparators(report.fetch.retries).c_str(),
      WithThousandsSeparators(report.fetch.rate_limit_waits).c_str(),
      WithThousandsSeparators(report.fetch.token_rotations).c_str());
  std::printf("  BFS rounds: %lld; CrunchBase matches: %lld by URL, %lld by "
              "unique-name search, %lld ambiguous skipped, %lld backlink "
              "mismatches rejected\n",
              static_cast<long long>(report.bfs_rounds),
              static_cast<long long>(report.crunchbase_matched_by_url),
              static_cast<long long>(report.crunchbase_matched_by_search),
              static_cast<long long>(report.crunchbase_ambiguous_skipped),
              static_cast<long long>(report.crunchbase_backlink_mismatches));
  std::printf("  simulated makespan: %.1f min; wall time: %.2f s; simulated "
              "throughput: %.1f req/s\n",
              static_cast<double>(report.makespan_micros) / 60e6,
              report.wall_seconds,
              report.makespan_micros > 0
                  ? 1e6 * static_cast<double>(report.fetch.requests) /
                        static_cast<double>(report.makespan_micros)
                  : 0.0);

  Section("worker sweep (simulated makespan, smaller world)");
  {
    AsciiTable table({"workers", "requests", "simulated makespan (min)",
                      "wall (s)", "speedup"});
    double base = 0;
    for (int workers : {1, 2, 4, 8, 16}) {
      crawler::CrawlReport r = SweepCrawl(0.01, workers, 2, 5);
      double mins = static_cast<double>(r.makespan_micros) / 60e6;
      if (workers == 1) base = mins;
      table.AddRow({std::to_string(workers),
                    WithThousandsSeparators(r.fetch.requests),
                    StrFormat("%.1f", mins), StrFormat("%.2f", r.wall_seconds),
                    StrFormat("%.1fx", base / mins)});
    }
    std::printf("%s", table.Render().c_str());
  }

  Section("Twitter token sweep (rate-limit handling, paper §3)");
  {
    AsciiTable table({"tokens", "rate-limit waits", "token rotations",
                      "simulated makespan (min)"});
    struct Setup {
      int machines;
      int apps;
    } setups[] = {{1, 1}, {1, 2}, {1, 5}, {2, 5}, {4, 5}};
    for (const auto& setup : setups) {
      crawler::CrawlReport r = SweepCrawl(0.01, 8, setup.machines, setup.apps);
      table.AddRow({std::to_string(setup.machines * setup.apps),
                    WithThousandsSeparators(r.fetch.rate_limit_waits),
                    WithThousandsSeparators(r.fetch.token_rotations),
                    StrFormat("%.1f",
                              static_cast<double>(r.makespan_micros) / 60e6)});
    }
    std::printf("%s", table.Render().c_str());
  }

  RunBenchmarks(argc, argv);
  return 0;
}
