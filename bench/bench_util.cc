#include "bench/bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include <benchmark/benchmark.h>

#include "util/logging.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cfnet::bench {

Testbed& GetTestbed(const FlagParser& flags, double default_scale,
                    int coda_communities, int coda_iterations) {
  static Testbed* bed = nullptr;
  if (bed != nullptr) return *bed;
  bed = new Testbed();
  bed->scale = flags.GetDouble("scale", default_scale);

  core::ExploratoryPlatform::Options options;
  options.world.scale = bed->scale;
  options.world.seed = static_cast<uint64_t>(flags.GetInt("seed", 20160626));
  options.crawl.num_workers = static_cast<int>(flags.GetInt("workers", 8));

  std::printf("[testbed] generating world at scale %.3f (%lld companies, "
              "%lld users) and crawling...\n",
              bed->scale,
              static_cast<long long>(options.world.NumCompanies()),
              static_cast<long long>(options.world.NumUsers()));
  bed->platform = std::make_unique<core::ExploratoryPlatform>(options);
  Status s = bed->platform->CollectData();
  CFNET_CHECK(s.ok()) << "crawl failed: " << s.ToString();
  auto inputs = bed->platform->LoadInputs();
  CFNET_CHECK(inputs.ok()) << inputs.status().ToString();
  bed->inputs = std::make_unique<core::AnalysisInputs>(std::move(inputs).value());

  community::CodaConfig coda;
  coda.num_communities = static_cast<int>(
      flags.GetInt("communities", coda_communities));
  coda.max_iterations = static_cast<int>(
      flags.GetInt("coda_iterations", coda_iterations));
  bed->suite = std::make_unique<core::ExperimentSuite>(
      bed->platform->context(), *bed->inputs, coda);
  const auto& report = bed->platform->crawl_report();
  std::printf("[testbed] crawled %s companies / %s users; %s requests, "
              "simulated makespan %.1f min\n\n",
              WithThousandsSeparators(report.companies_crawled).c_str(),
              WithThousandsSeparators(report.users_crawled).c_str(),
              WithThousandsSeparators(report.fetch.requests).c_str(),
              static_cast<double>(report.makespan_micros) / 60e6);
  return *bed;
}

std::vector<std::pair<uint64_t, uint64_t>> DrawInvestments(size_t investors,
                                                           size_t companies,
                                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(investors * 4);
  for (size_t i = 0; i < investors; ++i) {
    const size_t degree = static_cast<size_t>(rng.PowerLaw(1, 400, 2.2));
    for (size_t d = 0; d < degree; ++d) {
      const uint64_t c = static_cast<uint64_t>(
          rng.Zipf(static_cast<int64_t>(companies), 0.75));
      edges.emplace_back(i + 1, 1000000 + c);
    }
  }
  return edges;
}

void PrintComparison(const std::string& name, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-58s paper: %-14s measured: %s\n", name.c_str(),
              paper.c_str(), measured.c_str());
}

void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

std::vector<char*> BenchmarkArgs(int argc, char** argv) {
  std::vector<char*> out;
  out.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) out.push_back(argv[i]);
  }
  return out;
}

void RunBenchmarks(int argc, char** argv) {
  std::vector<char*> args = BenchmarkArgs(argc, argv);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  Section("microbenchmarks (google-benchmark)");
  benchmark::RunSpecifiedBenchmarks();
}

json::Json MachineInfoJson() {
  json::Json machine = json::Json::MakeObject();
  machine.Set("cpu_count",
              static_cast<int64_t>(ThreadPool::DefaultParallelism()));
#if defined(__x86_64__) || defined(_M_X64)
  machine.Set("arch", "x86_64");
#elif defined(__aarch64__) || defined(_M_ARM64)
  machine.Set("arch", "arm64");
#else
  machine.Set("arch", "unknown");
#endif
  machine.Set("simd_backend", simd::SimdBackendName());
  return machine;
}

void WriteJsonDoc(const std::string& path, const json::Json& doc) {
  json::Json full = doc;
  full.Set("machine", MachineInfoJson());
  std::ofstream out(path);
  out << full.Dump(2) << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace cfnet::bench
