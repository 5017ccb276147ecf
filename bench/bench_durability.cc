// Durable-storage overhead: what the atomic commit protocol (write-temp ->
// CRC footer -> read-back verify -> rename, one immutable segment per 1 MiB
// flush) costs over plain MiniDfs writes of the same flushes, and what
// footer verification costs on the snapshot scan path. The
// scan-side number is the one the durability contract bounds: verifying the
// committed segments' footers must stay under 10% of the time the verified
// scan takes, since every analysis load reads through ReadCommitted. Results
// go to --json=PATH (default BENCH_durability.json); --records=N, --shards=S
// and --reps=R size the run.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/records.h"
#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "json/json.h"
#include "util/crc32.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cfnet::bench {
namespace {

using core::StartupRecord;

/// Same synthetic startup line mix as bench_ingest, so the scan-side
/// overhead here is directly comparable to BENCH_ingest.json numbers.
json::Json MakeDoc(uint64_t i, Rng& rng) {
  json::Json doc = json::Json::MakeObject();
  doc.Set("id", static_cast<int64_t>(i + 1));
  doc.Set("name", "Startup \"" + std::to_string(i) + "\" Inc.\n");
  doc.Set("twitter_url",
          rng.NextDouble() < 0.6 ? "https://twitter.com/s" + std::to_string(i) : "");
  doc.Set("facebook_url",
          rng.NextDouble() < 0.5 ? "https://facebook.com/s" + std::to_string(i) : "");
  doc.Set("crunchbase_url",
          rng.NextDouble() < 0.4 ? "https://crunchbase.com/s" + std::to_string(i) : "");
  doc.Set("video_url", rng.NextDouble() < 0.2 ? "https://v/" + std::to_string(i) : "");
  doc.Set("fundraising", rng.NextDouble() < 0.3);
  doc.Set("follower_count", static_cast<int64_t>(rng.Next() % 100000));
  doc.Set("quality", static_cast<double>(rng.NextDouble() * 10.0));
  json::Json markets = json::Json::MakeArray();
  markets.Append("b2b");
  markets.Append("saas");
  doc.Set("markets", markets);
  return doc;
}

void RunDurabilityBench(const cfnet::FlagParser& flags) {
  const size_t n = static_cast<size_t>(flags.GetInt("records", 200000));
  const size_t shards = static_cast<size_t>(flags.GetInt("shards", 4));
  const std::string path = flags.GetString("json", "BENCH_durability.json");
  const int reps = static_cast<int>(flags.GetInt("reps", 5));

  Rng rng(20260806);
  std::vector<json::Json> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) docs.push_back(MakeDoc(i, rng));

  json::Json out_doc = json::Json::MakeObject();
  out_doc.Set("bench", "bench_durability");
  out_doc.Set("records", static_cast<int64_t>(n));
  out_doc.Set("shards", static_cast<int64_t>(shards));
  out_doc.Set("reps", static_cast<int64_t>(reps));
  json::Json workloads = json::Json::MakeArray();

  double corpus_mb = 0;  // set once the first writer pass sizes the corpus
  // Records a row of {median, min, max} ms over `reps` timed calls and
  // returns the median; throughput, from the median, only for rows that
  // process the whole corpus.
  auto emit = [&workloads, &corpus_mb, n](const std::string& name,
                                          std::vector<double> samples,
                                          bool whole_corpus = true) {
    json::Json ms = Spread(std::move(samples));
    const double median = ms.Get("median").AsDouble();
    std::printf("%-22s median %9.2f ms (min %.2f, max %.2f)", name.c_str(),
                median, ms.Get("min").AsDouble(), ms.Get("max").AsDouble());
    json::Json w = json::Json::MakeObject();
    w.Set("name", name);
    w.Set("ms", std::move(ms));
    if (whole_corpus) {
      w.Set("records_per_sec",
            median > 0 ? static_cast<double>(n) / median * 1e3 : 0.0);
      w.Set("mb_per_sec", median > 0 ? corpus_mb / median * 1e3 : 0.0);
      std::printf("  %8.2f MB/s  %7.1f krec/s", corpus_mb / median * 1e3,
                  static_cast<double>(n) / median);
    }
    std::printf("\n");
    workloads.Append(std::move(w));
    return median;
  };

  Section("Writer path: raw writes vs atomic commits (" + std::to_string(n) +
          " records, " + std::to_string(shards) + " shards)");

  // One full snapshot-writer pass into a fresh DFS. The committed pass runs
  // every record through JsonLinesWriter, which commits each 1 MiB flush as
  // its own segment; the raw baseline serializes the same 1 MiB flushes and
  // hands each to one plain MiniDfs::WriteFile under the same segment name,
  // so the difference is the protocol alone (footer, read-back, rename).
  constexpr size_t kFlushBytes = 1 << 20;
  auto write_pass = [&](bool commit, dfs::MiniDfs* keep,
                        std::vector<std::string>* keep_paths) {
    dfs::MiniDfs local;
    dfs::MiniDfs* target = keep != nullptr ? keep : &local;
    for (size_t s = 0; s < shards; ++s) {
      const std::string prefix =
          "/bench/startups/part-" + std::to_string(s) + "-";
      if (commit) {
        dfs::JsonLinesWriter writer(target, prefix, kFlushBytes);
        for (size_t i = s; i < n; i += shards) {
          CFNET_CHECK(writer.Write(docs[i]).ok());
        }
        CFNET_CHECK(writer.Flush().ok());
      } else {
        std::string buffer;
        uint64_t seq = 0;
        auto flush = [&]() {
          CFNET_CHECK(
              target->WriteFile(dfs::SegmentPath(prefix, ++seq), buffer).ok());
          buffer.clear();
        };
        for (size_t i = s; i < n; i += shards) {
          docs[i].AppendTo(buffer);
          buffer += '\n';
          if (buffer.size() >= kFlushBytes) flush();
        }
        if (!buffer.empty()) flush();
      }
      if (keep_paths != nullptr) {
        for (std::string& p : dfs::ListSegments(*target, prefix)) {
          keep_paths->push_back(std::move(p));
        }
      }
    }
  };

  // Size the corpus from the raw bytes (no footers).
  dfs::MiniDfs raw_dfs;
  std::vector<std::string> raw_paths;
  write_pass(/*commit=*/false, &raw_dfs, &raw_paths);
  uint64_t total_bytes = 0;
  for (const std::string& p : raw_paths) total_bytes += *raw_dfs.FileSize(p);
  corpus_mb = static_cast<double>(total_bytes) / 1e6;
  out_doc.Set("bytes", static_cast<int64_t>(total_bytes));

  dfs::MiniDfs committed_dfs;
  std::vector<std::string> committed_paths;
  write_pass(/*commit=*/true, &committed_dfs, &committed_paths);

  emit("write_raw",
       TimeRepsMs([&]() { write_pass(false, nullptr, nullptr); }, reps));
  emit("write_commit",
       TimeRepsMs([&]() { write_pass(true, nullptr, nullptr); }, reps));

  // Commit primitives on one 1 MiB segment's payload (what one flush
  // commits): a bare WriteFile vs the full protocol, whose extra cost is the
  // footer CRC plus the read-back verify (the rename is a map move).
  const std::string payload = *dfs::ReadCommitted(committed_dfs,
                                                  committed_paths[0]);
  double commit_vs_writefile = 0;
  {
    dfs::MiniDfs d;
    const double writefile_ms =
        emit("primitive_writefile", TimeRepsMs([&]() {
          CFNET_CHECK(d.WriteFile("/p", payload).ok());
        }, reps), /*whole_corpus=*/false);
    const double commit_ms = emit("primitive_commit", TimeRepsMs([&]() {
      CFNET_CHECK(dfs::CommitFile(&d, "/p", payload).ok());
    }, reps), /*whole_corpus=*/false);
    if (writefile_ms > 0) commit_vs_writefile = commit_ms / writefile_ms;
  }

  Section("Scan path: footer verification within the verified scan");

  auto scan = [&](ThreadPool* pool) {
    dfs::ScanOptions options;
    options.pool = pool;
    auto parts = dfs::ScanJsonLines<StartupRecord>(
        committed_dfs, committed_paths, core::DecodeLine<StartupRecord>,
        options);
    CFNET_CHECK(parts.ok());
    int64_t sum = 0;
    for (const auto& part : *parts) {
      for (const StartupRecord& r : part) sum += r.follower_count;
    }
    benchmark::DoNotOptimize(sum);
  };

  ThreadPool pool(4);
  const double scan_verified_ms = emit(
      "scan_footer_verified", TimeRepsMs([&]() { scan(&pool); }, reps));
  // The verification step alone, on the same committed bytes the scan loads:
  // one footer parse plus one CRC pass per segment.
  std::vector<std::string> committed_bytes;
  for (const std::string& p : committed_paths) {
    committed_bytes.push_back(*committed_dfs.ReadFile(p));
  }
  const double verify_ms = emit("footer_verify", TimeRepsMs([&]() {
    for (const std::string& bytes : committed_bytes) {
      uint64_t payload_len = 0;
      CFNET_CHECK(dfs::InspectFooter(bytes, &payload_len) ==
                  dfs::FooterState::kValid);
      benchmark::DoNotOptimize(payload_len);
    }
  }, reps));

  const double scan_overhead_pct =
      scan_verified_ms > 0 ? verify_ms / scan_verified_ms * 100.0 : 0.0;
  Section("CRC32 kernels: hardware folding vs table fallback");

  // One contiguous buffer the size of the corpus, so these MB/s numbers are
  // the checksum ceiling for the footer generation/verification above. The
  // dispatch path picks PCLMUL folding when the CPU has it; the fallback is
  // the slice-by-8 table kernel the folding must match bit for bit
  // (columnar_test pins that).
  std::string crc_buf;
  for (const std::string& p : raw_paths) crc_buf += *raw_dfs.ReadFile(p);
  uint32_t crc_sink = 0;
  const double crc_hw_ms = emit("crc32_dispatch", TimeRepsMs([&]() {
    crc_sink ^= Crc32Update(0, crc_buf);
    benchmark::DoNotOptimize(crc_sink);
  }, reps));
  const double crc_table_ms = emit("crc32_table", TimeRepsMs([&]() {
    crc_sink ^= Crc32FallbackUpdate(0, crc_buf);
    benchmark::DoNotOptimize(crc_sink);
  }, reps));
  const double crc_speedup = crc_hw_ms > 0 ? crc_table_ms / crc_hw_ms : 0.0;

  out_doc.Set("workloads", std::move(workloads));
  out_doc.Set("crc32_hardware_enabled", Crc32HardwareEnabled());
  out_doc.Set("crc32_hw_vs_table_speedup", crc_speedup);
  out_doc.Set("scan_footer_overhead_pct", scan_overhead_pct);
  out_doc.Set("commit_vs_writefile_ratio", commit_vs_writefile);
  std::printf("footer verification share of the scan: %.1f%% (budget <10%%)\n",
              scan_overhead_pct);
  std::printf("one segment through CommitFile:   %.2fx a bare WriteFile\n",
              commit_vs_writefile);
  std::printf("crc32 hardware path: %s, %.2fx vs table\n",
              Crc32HardwareEnabled() ? "enabled" : "disabled", crc_speedup);

  WriteJsonDoc(path, out_doc);
}

}  // namespace
}  // namespace cfnet::bench

int main(int argc, char** argv) {
  cfnet::FlagParser flags(argc, argv);
  cfnet::bench::RunDurabilityBench(flags);
  return 0;
}
