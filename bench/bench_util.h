#ifndef CFNET_BENCH_BENCH_UTIL_H_
#define CFNET_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.h"
#include "core/platform.h"
#include "json/json.h"
#include "util/flags.h"

namespace cfnet::bench {

/// A fully-collected pipeline (world -> crawl -> parsed snapshots) shared by
/// the figure benches. Constructed once per process.
struct Testbed {
  std::unique_ptr<core::ExploratoryPlatform> platform;
  std::unique_ptr<core::AnalysisInputs> inputs;
  std::unique_ptr<core::ExperimentSuite> suite;
  double scale = 0;
};

/// Builds (or returns the cached) testbed. The default scale keeps every
/// bench under a few seconds; pass --scale=1.0 for a paper-sized run.
Testbed& GetTestbed(const FlagParser& flags, double default_scale = 0.05,
                    int coda_communities = 96, int coda_iterations = 25);

/// Investments drawn like the paper's AngelList investor graph: investor i
/// (ids 1..investors) draws a power-law portfolio size (1-400, exponent
/// 2.2), then that many Zipfian companies (exponent 0.75, ids 1000000 +
/// rank in [1, companies]). A portfolio may draw a company twice.
std::vector<std::pair<uint64_t, uint64_t>> DrawInvestments(size_t investors,
                                                           size_t companies,
                                                           uint64_t seed);

// The repetition runners are header-only: e2ebench compiles bench_util.cc
// into its own binary, and code added there moves that binary's layout
// (serve_fresh freshness read ~10% higher from that alone).

/// Wall milliseconds of one call of `fn`.
inline double TimeOnceMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Wall milliseconds of `reps` rounds over `fns`, one sample vector per
/// callable. After one untimed warm-up call of each, every round times each
/// callable once, in order, so a slow stretch of a shared host lands on all
/// of them rather than on one row: rows that are compared with each other
/// (a speedup, a share) are timed in the same rounds.
inline std::vector<std::vector<double>> TimeRoundsMs(
    const std::vector<std::function<void()>>& fns, int reps) {
  for (const std::function<void()>& fn : fns) fn();  // warm-up
  std::vector<std::vector<double>> ms(fns.size());
  for (int r = 0; r < reps; ++r) {
    for (size_t k = 0; k < fns.size(); ++k) ms[k].push_back(TimeOnceMs(fns[k]));
  }
  return ms;
}

/// Wall milliseconds of each of `reps` calls of `fn`, after one untimed
/// warm-up call.
inline std::vector<double> TimeRepsMs(const std::function<void()>& fn,
                                      int reps) {
  return TimeRoundsMs({fn}, reps)[0];
}

/// {"median", "min", "max"} of `samples` (the upper median for an even
/// count): how a BENCH_*.json row reports a repeated measurement.
inline json::Json Spread(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  json::Json o = json::Json::MakeObject();
  o.Set("median", samples[samples.size() / 2]);
  o.Set("min", samples.front());
  o.Set("max", samples.back());
  return o;
}

/// Prints "<name>: paper=<paper> measured=<measured>" rows consistently.
void PrintComparison(const std::string& name, const std::string& paper,
                     const std::string& measured);

/// Splits argv into (ours, benchmark's): google-benchmark aborts on unknown
/// flags, so only --benchmark_* flags are forwarded.
std::vector<char*> BenchmarkArgs(int argc, char** argv);

/// Runs google-benchmark with the filtered args (call after registering
/// benchmarks).
void RunBenchmarks(int argc, char** argv);

/// Prints a section header.
void Section(const std::string& title);

/// The machine the bench ran on: cpu count, architecture, and the SIMD
/// backend the numeric kernels dispatched to. Injected into every
/// BENCH_*.json by WriteJsonDoc so results are comparable across hosts.
json::Json MachineInfoJson();

/// Writes `doc` pretty-printed to `path` (with a `machine` metadata object
/// attached) and prints the destination — the shared tail of every
/// BENCH_*.json emitter.
void WriteJsonDoc(const std::string& path, const json::Json& doc);

}  // namespace cfnet::bench

#endif  // CFNET_BENCH_BENCH_UTIL_H_
