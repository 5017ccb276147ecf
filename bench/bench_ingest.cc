// Snapshot ingest throughput: the streaming zero-copy decoder
// (DecodeLine<StartupRecord>) sequentially and as the parallel sharded scan
// (ScanJsonLines) at several thread counts, plus the to_chars-based
// serialization path and the blocked columnar format (ColumnarWriter
// encode, ScanColumnBlocks at several thread counts, and a 64k/256k/1M
// block-rows sweep). MB/s is computed from each format's own on-disk bytes.
// Results are written as machine-readable JSON for before/after comparison
// (--json=PATH, default BENCH_ingest.json; --records=N and --shards=S set
// the workload size/layout).

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/columnar_records.h"
#include "core/records.h"
#include "dfs/columnar.h"
#include "dfs/dfs.h"
#include "dfs/jsonl.h"
#include "json/json.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cfnet::bench {
namespace {

using core::StartupRecord;

/// One synthetic startup snapshot line — field mix matching the crawler's
/// output (ids, urls, counters, the occasional escape, fields the decoder
/// skips) so the decode cost is representative.
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
  // Skipped by the decoder: exercises SkipValue on composites.
  json::Json markets = json::Json::MakeArray();
  markets.Append("b2b");
  markets.Append("saas");
  doc.Set("markets", markets);
  return doc;
}

void RunIngestBench(const cfnet::FlagParser& flags) {
  const size_t n = static_cast<size_t>(flags.GetInt("records", 200000));
  const size_t shards = static_cast<size_t>(flags.GetInt("shards", 4));
  const std::string path = flags.GetString("json", "BENCH_ingest.json");
  const int reps = static_cast<int>(flags.GetInt("reps", 5));

  // Build the snapshot corpus once.
  Rng rng(20260806);
  std::vector<json::Json> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) docs.push_back(MakeDoc(i, rng));

  dfs::MiniDfs dfs;
  std::vector<std::string> paths;
  uint64_t total_bytes = 0;
  for (size_t s = 0; s < shards; ++s) {
    // One segment per shard (the writer flushes only at the end), so the
    // scans below read the same files as before snapshots were segmented.
    const std::string prefix =
        "/bench/startups/part-" + std::to_string(s) + "-";
    dfs::JsonLinesWriter writer(&dfs, prefix,
                                std::numeric_limits<size_t>::max());
    for (size_t i = s; i < n; i += shards) {
      CFNET_CHECK(writer.Write(docs[i]).ok());
    }
    CFNET_CHECK(writer.Flush().ok());
    for (std::string& p : dfs::ListSegments(dfs, prefix)) {
      total_bytes += *dfs.FileSize(p);
      paths.push_back(std::move(p));
    }
  }
  const double json_mb = static_cast<double>(total_bytes) / 1e6;

  // The same records in the blocked columnar format (default 64k-row
  // blocks), written through the commit protocol like a real compaction.
  // Decoded records are moved, not copied, into the corpus: copying leaves
  // each freed original between live strings, and that heap layout slowed
  // the timed scans below by about a fifth on a 4-vCPU x86_64 host.
  std::vector<StartupRecord> records;
  records.reserve(n);
  std::string line;
  for (const json::Json& d : docs) {
    line.clear();
    d.AppendTo(line);
    records.push_back(core::DecodeLine<StartupRecord>(line).value());
  }
  auto write_columnar = [&](const std::string& col_path, size_t block_rows) {
    dfs::ColumnarWriteOptions copts;
    copts.block_rows = block_rows;
    dfs::ColumnarWriter<StartupRecord> writer(&dfs, col_path, copts);
    for (const StartupRecord& r : records) writer.Add(r);
    CFNET_CHECK(writer.Finish().ok());
    return *dfs.FileSize(col_path);
  };
  const std::string col_path = "/bench/startups-col/part-all.cfc";
  const uint64_t columnar_bytes = write_columnar(col_path, 64 * 1024);
  const double col_mb = static_cast<double>(columnar_bytes) / 1e6;

  json::Json out_doc = json::Json::MakeObject();
  out_doc.Set("bench", "bench_ingest");
  out_doc.Set("records", static_cast<int64_t>(n));
  out_doc.Set("shards", static_cast<int64_t>(shards));
  out_doc.Set("reps", static_cast<int64_t>(reps));
  out_doc.Set("bytes", static_cast<int64_t>(total_bytes));
  out_doc.Set("columnar_bytes", static_cast<int64_t>(columnar_bytes));
  out_doc.Set("columnar_compression_ratio",
              columnar_bytes > 0
                  ? static_cast<double>(total_bytes) /
                        static_cast<double>(columnar_bytes)
                  : 0.0);
  out_doc.Set("hardware_threads",
              static_cast<int64_t>(ThreadPool::DefaultParallelism()));
  json::Json workloads = json::Json::MakeArray();

  // Adds {median, min, max} ms over `reps` timed calls to `w`, with
  // records/s and MB/s from the median. MB/s is against the format's own
  // on-disk footprint, so JSON and columnar workloads stay comparable on
  // records/s but honest on bytes/s.
  auto timed = [n](json::Json w, json::Json ms, double mb) {
    const double median = ms.Get("median").AsDouble();
    w.Set("ms", std::move(ms));
    w.Set("records_per_sec",
          median > 0 ? static_cast<double>(n) / median * 1e3 : 0.0);
    w.Set("mb_per_sec", median > 0 ? mb / median * 1e3 : 0.0);
    return w;
  };
  // Records a named row in `workloads`; returns its ms spread.
  auto emit = [&workloads, &timed, n](const std::string& name,
                                      std::vector<double> samples, double mb) {
    json::Json ms = Spread(std::move(samples));
    const double median = ms.Get("median").AsDouble();
    std::printf("%-22s median %9.2f ms (min %.2f, max %.2f)  %8.2f MB/s  "
                "%9.1f krec/s\n",
                name.c_str(), median, ms.Get("min").AsDouble(),
                ms.Get("max").AsDouble(), mb / median * 1e3,
                static_cast<double>(n) / median);
    json::Json w = json::Json::MakeObject();
    w.Set("name", name);
    workloads.Append(timed(std::move(w), ms, mb));
    return ms;
  };

  Section("Snapshot ingest throughput (" + std::to_string(n) + " records, " +
          std::to_string(shards) + " shards)");

  // Serialization: Json::AppendTo into a reused buffer — the JsonLinesWriter
  // hot path, minus the segment commit into MiniDfs.
  std::string serialize_buf;
  emit("dump_serialize", TimeRepsMs([&]() {
    serialize_buf.clear();
    for (const json::Json& d : docs) {
      d.AppendTo(serialize_buf);
      serialize_buf += '\n';
    }
    benchmark::DoNotOptimize(serialize_buf.data());
  }, reps), json_mb);

  auto scan_startups = [&](ThreadPool* pool) {
    dfs::ScanOptions options;
    options.pool = pool;
    auto parts = dfs::ScanJsonLines<StartupRecord>(
        dfs, paths, core::DecodeLine<StartupRecord>, options);
    CFNET_CHECK(parts.ok());
    int64_t sum = 0;
    for (const auto& part : *parts) {
      for (const StartupRecord& r : part) sum += r.follower_count;
    }
    benchmark::DoNotOptimize(sum);
  };

  // Streaming decoder, single-threaded.
  const double stream_ms =
      emit("stream_decode",
           TimeRepsMs([&]() { scan_startups(nullptr); }, reps), json_mb)
          .Get("median")
          .AsDouble();

  // Parallel scan at fixed thread counts; speedups are against the 1-thread
  // scan's median.
  json::Json scaling = json::Json::MakeArray();
  double base_ms = 0;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    json::Json ms =
        emit("scan_threads_" + std::to_string(threads),
             TimeRepsMs([&]() { scan_startups(&pool); }, reps), json_mb);
    const double median = ms.Get("median").AsDouble();
    if (threads == 1) base_ms = median;
    json::Json s = json::Json::MakeObject();
    s.Set("threads", static_cast<int64_t>(threads));
    s.Set("ms", std::move(ms));
    s.Set("speedup_vs_1t", median > 0 ? base_ms / median : 0.0);
    scaling.Append(std::move(s));
  }

  // Columnar block scan: same records, binary columns instead of JSON text.
  auto scan_columnar = [&](const std::string& path_arg, ThreadPool* pool) {
    dfs::ScanOptions options;
    options.pool = pool;
    auto parts =
        dfs::ScanColumnBlocks<StartupRecord>(dfs, {path_arg}, options);
    CFNET_CHECK(parts.ok());
    int64_t sum = 0;
    for (const auto& part : *parts) {
      for (const StartupRecord& r : part) sum += r.follower_count;
    }
    benchmark::DoNotOptimize(sum);
  };

  const double col_ms =
      emit("columnar_scan",
           TimeRepsMs([&]() { scan_columnar(col_path, nullptr); }, reps),
           col_mb)
          .Get("median")
          .AsDouble();
  json::Json col_scaling = json::Json::MakeArray();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ThreadPool pool(threads);
    json::Json s = json::Json::MakeObject();
    s.Set("threads", static_cast<int64_t>(threads));
    s.Set("ms", emit("columnar_threads_" + std::to_string(threads),
                     TimeRepsMs([&]() { scan_columnar(col_path, &pool); },
                                reps),
                     col_mb));
    col_scaling.Append(std::move(s));
  }

  // Block-rows sweep: frame/dictionary amortisation vs salvage/parallelism
  // grain. Each size is written to its own file so MB/s tracks its actual
  // footprint.
  json::Json sweep = json::Json::MakeArray();
  for (size_t block_rows :
       {size_t{64} * 1024, size_t{256} * 1024, size_t{1024} * 1024}) {
    const std::string sweep_path =
        "/bench/startups-col-sweep/rows-" + std::to_string(block_rows) + ".cfc";
    const uint64_t sweep_bytes = write_columnar(sweep_path, block_rows);
    const double sweep_mb = static_cast<double>(sweep_bytes) / 1e6;
    json::Json ms = Spread(
        TimeRepsMs([&]() { scan_columnar(sweep_path, nullptr); }, reps));
    const double median = ms.Get("median").AsDouble();
    std::printf("block_rows %-9zu median %9.2f ms (min %.2f, max %.2f)  "
                "%8.2f MB/s  %9lu bytes\n",
                block_rows, median, ms.Get("min").AsDouble(),
                ms.Get("max").AsDouble(), sweep_mb / median * 1e3,
                static_cast<unsigned long>(sweep_bytes));
    json::Json s = json::Json::MakeObject();
    s.Set("block_rows", static_cast<int64_t>(block_rows));
    s.Set("bytes", static_cast<int64_t>(sweep_bytes));
    sweep.Append(timed(std::move(s), std::move(ms), sweep_mb));
  }

  out_doc.Set("workloads", std::move(workloads));
  out_doc.Set("scan_scaling", std::move(scaling));
  out_doc.Set("columnar_scaling", std::move(col_scaling));
  out_doc.Set("block_rows_sweep", std::move(sweep));
  out_doc.Set("columnar_vs_stream_speedup",
              col_ms > 0 ? stream_ms / col_ms : 0.0);
  std::printf("columnar_scan speedup vs stream_decode: %.2fx\n",
              col_ms > 0 ? stream_ms / col_ms : 0.0);

  WriteJsonDoc(path, out_doc);
}

}  // namespace
}  // namespace cfnet::bench

int main(int argc, char** argv) {
  cfnet::FlagParser flags(argc, argv);
  cfnet::bench::RunIngestBench(flags);
  return 0;
}
