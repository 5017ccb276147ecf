// Substrate microbenchmarks: JSON parse/serialize throughput, MiniDFS
// write/read, and the sliding-window rate limiter.

#include <string>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dfs/dfs.h"
#include "json/json.h"
#include "net/rate_limiter.h"

namespace cfnet::bench {
namespace {

std::string SampleDocument() {
  json::Json j = json::Json::MakeObject();
  j.Set("id", 744036);
  j.Set("name", "Planetary Resources");
  j.Set("angellist_url", "https://angel.co/company/744036");
  j.Set("fundraising", true);
  j.Set("follower_count", 24750);
  j.Set("twitter_url", "https://twitter.com/startup744036");
  json::Json founders = json::Json::MakeArray();
  for (int i = 0; i < 3; ++i) founders.Append(1000 + i);
  j.Set("founder_ids", std::move(founders));
  json::Json rounds = json::Json::MakeArray();
  for (int r = 0; r < 3; ++r) {
    json::Json round = json::Json::MakeObject();
    round.Set("round_index", r);
    round.Set("amount_usd", 1.5e6 * (r + 1));
    json::Json investors = json::Json::MakeArray();
    for (int i = 0; i < 5; ++i) investors.Append(2000 + r * 5 + i);
    round.Set("investor_ids", std::move(investors));
    rounds.Append(std::move(round));
  }
  j.Set("funding_rounds", std::move(rounds));
  return j.Dump();
}

void BM_JsonParse(benchmark::State& state) {
  std::string doc = SampleDocument();
  for (auto _ : state) {
    auto parsed = json::Parse(doc);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_JsonParse);

void BM_JsonDump(benchmark::State& state) {
  auto parsed = json::Parse(SampleDocument());
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string out = parsed->Dump();
    benchmark::DoNotOptimize(out.data());
    bytes = static_cast<int64_t>(out.size());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_JsonDump);

void BM_DfsWrite(benchmark::State& state) {
  dfs::MiniDfs fs;
  std::string data(1 << 20, 'x');
  int i = 0;
  for (auto _ : state) {
    fs.WriteFile("/bench/file-" + std::to_string(i++ % 64), data).ok();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_DfsWrite);

void BM_DfsRead(benchmark::State& state) {
  dfs::MiniDfs fs;
  std::string data(1 << 20, 'y');
  fs.WriteFile("/bench/read", data).ok();
  for (auto _ : state) {
    auto content = fs.ReadFile("/bench/read");
    benchmark::DoNotOptimize(content.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_DfsRead);

void BM_RateLimiterAdmit(benchmark::State& state) {
  net::SlidingWindowRateLimiter limiter(180, 15ll * 60 * 1000000);
  int64_t now = 0;
  for (auto _ : state) {
    now += 5000000;  // 5s apart: always admitted
    benchmark::DoNotOptimize(limiter.Admit("token", now).admitted);
  }
}
BENCHMARK(BM_RateLimiterAdmit);

}  // namespace
}  // namespace cfnet::bench

int main(int argc, char** argv) {
  cfnet::bench::RunBenchmarks(argc, argv);
  return 0;
}
