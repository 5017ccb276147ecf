#ifndef CFNET_E2EBENCH_BENCH_H_
#define CFNET_E2EBENCH_BENCH_H_

// Shared types of the end-to-end benchmark: the options one run takes, the
// result a workload hands back, and the sample statistics every workload
// reports with.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/platform.h"
#include "crawler/crawler.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "trace.h"

namespace cfnet::e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Tiny worlds and short windows, for the benchmark's own self-test.
  bool smoke = false;
  /// Measure the serving tier's closed-loop saturation instead of running
  /// the workload (`serve_fresh` only).
  bool saturation = false;
};

/// A value with its unit, as printed.
struct Value {
  double value = 0;
  std::string unit;
};

/// What one pass of a workload (traced or not) produced.
struct WorkloadResult {
  /// Output checks by description; every one must pass for the run to
  /// count as correct. A check made repeatedly passes only if all did.
  std::map<std::string, bool> checks;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The end-to-end metrics (the names listed in BENCHMARK.json).
  std::map<std::string, Value> end_to_end;
  /// The same quantities under the names a reader of this workload expects
  /// (collect_s, analyze_pass_s, freshness_p50_ms, query_p99_ms, ...).
  std::map<std::string, Value> named;
  /// Raw samples behind the percentiles, saved with the results.
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer metrics the workload reports itself (counts taken at the
  /// layer boundaries, and timings not read off spans); the caller adds the
  /// span-derived timings and reports them for the traced run.
  std::map<std::string, Value> layer;
  /// Name of the span that roots each trace of the headline latency
  /// (collect_s, analyze_pass_s, freshness); the decomposition check
  /// accounts for those traces' time by the self time of their layer spans.
  std::string blocking_root;

  void Check(const std::string& what, bool ok) {
    auto [it, inserted] = checks.emplace(what, ok);
    if (!inserted) it->second = it->second && ok;
  }
};

/// The workload seed mixed into a 64-bit stream seed for one input.
uint64_t DeriveSeed(uint64_t workload_seed, uint64_t stream);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Seconds/milliseconds between two NowNs() readings.
double SecondsBetween(int64_t start_ns, int64_t end_ns);
double MillisBetween(int64_t start_ns, int64_t end_ns);

/// Exact percentile (linear interpolation between closest ranks) of the
/// samples; `q` in [0, 100]. Infinite samples sort last. 0 when empty.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

// --- crawl helpers shared by the workloads (crawl.cc) ---------------------

/// Seed of the synthetic world `collect` crawls on its `crawl`-th crawl.
/// Each crawl of a run draws its own world from the workload seed, so the
/// run's median spans many worlds and one unusual world cannot move it.
inline uint64_t WorldSeed(const Options& options, int crawl) {
  return DeriveSeed(DeriveSeed(options.seed, /*stream=*/1),
                    static_cast<uint64_t>(crawl));
}

/// The one world `analyze` and `serve_fresh` run on (the platform's default
/// seed). Across worlds of the same size, CoDA takes 0.3-0.4 s and snapshot
/// assembly (PageRank to convergence) 9-23 ms, which would swamp any change
/// a run is meant to show; there the workload seed draws the rest of the
/// inputs instead.
constexpr uint64_t kFixedWorldSeed = 20160626;

/// Platform options of every workload: 4 crawler workers, analytics
/// parallelism 4.
core::ExploratoryPlatform::Options PlatformOptions(uint64_t world_seed,
                                                  double scale,
                                                  bool checkpointing);

/// Builds a platform (span synth.generate) and crawls it with checkpointing
/// off (span crawler.collect_data), recording the crawl's layer counters.
/// The set-up of `analyze` and `serve_fresh`.
std::unique_ptr<core::ExploratoryPlatform> SetUpCrawledWorld(
    uint64_t world_seed, double scale, Tracer& tracer, WorkloadResult& result);

/// The five typed snapshots (span dfs.load around the five
/// LoadSnapshotRecords<T> calls), decoded on `pool`.
Result<core::AnalysisInputs> LoadInputs(core::ExploratoryPlatform& p,
                                        ThreadPool* pool, Tracer& tracer,
                                        uint64_t trace, uint64_t parent,
                                        dfs::ScanReport* scan);

/// Crawler and DFS counters of one crawl, as per-layer metrics.
void AddCrawlLayers(const crawler::CrawlReport& report,
                    const dfs::DfsStats& before, const dfs::DfsStats& after,
                    WorkloadResult& result);

/// Deletes the columnar files and re-runs CompactSnapshots() (span
/// core.compact); returns its wall time in ms and checks the files are
/// fresh again.
double RecompactMs(core::ExploratoryPlatform& p, Tracer& tracer,
                   WorkloadResult& result);

/// The five snapshot directories of a platform.
std::vector<std::string> SnapshotDirs(core::ExploratoryPlatform& p);

/// True when `dir` has a columnar file stamped with the live JSON shards'
/// fingerprint.
bool ColumnarFresh(const dfs::MiniDfs& dfs, const std::string& dir);

WorkloadResult RunCollect(const Options& options, Tracer& tracer);
WorkloadResult RunAnalyze(const Options& options, Tracer& tracer);
WorkloadResult RunServeFresh(const Options& options, Tracer& tracer);

/// Closed-loop saturation of the `serve_fresh` service (4 clients, 2
/// workers) on the same set-up, printed to stdout: once on epoch 1 alone,
/// once with the `serve_fresh` publisher running. The open-loop rate of
/// `serve_fresh` is set from it.
void ProbeSaturation(const Options& options);

}  // namespace cfnet::e2ebench

#endif  // CFNET_E2EBENCH_BENCH_H_
