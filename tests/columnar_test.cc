#include "dfs/columnar.h"

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/columnar_records.h"
#include "core/platform.h"
#include "core/records.h"
#include "dfs/commit.h"
#include "dfs/dfs.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace cfnet {
namespace {

using core::CrunchBaseRecord;
using core::FacebookRecord;
using core::StartupRecord;
using core::TwitterRecord;
using core::UserRecord;
using dfs::ByteReader;
using dfs::ColumnarWriter;
using dfs::MiniDfs;
using dfs::ScanColumnBlocks;
using dfs::ScanOptions;
using dfs::ScanReport;

/// --- primitive codecs -------------------------------------------------------

TEST(ColumnarCodecTest, VarintEdgeValuesRoundTrip) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             uint64_t{1} << 35,
                             std::numeric_limits<uint64_t>::max() - 1,
                             std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : values) dfs::AppendUVarint(buf, v);
  ByteReader r(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.ReadUVarint(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.done());
}

// The 10th byte of a varint carries bit 63 alone, so it must be 0 or 1.
// Larger values would be cut to 64 bits (FF x9 02 would read as 2^63 - 1,
// and FF x9 7F as FF x9 01) and must be rejected instead.
TEST(ColumnarCodecTest, ByteReaderRejectsOverflowingTenthByte) {
  const std::string nine_ff(9, '\xff');
  const std::string max_bytes = nine_ff + '\x01';
  uint64_t v = 0;
  ByteReader max(max_bytes);
  ASSERT_TRUE(max.ReadUVarint(&v));
  EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(max.done());
  for (char tenth : {'\x02', '\x7f', '\x80', '\xff'}) {
    const std::string bytes = nine_ff + tenth + '\x00';
    ByteReader r(bytes);
    EXPECT_FALSE(r.ReadUVarint(&v)) << static_cast<int>(tenth);
  }
}

TEST(ColumnarCodecTest, ZigZagEdgeValuesRoundTrip) {
  const int64_t values[] = {0,
                            -1,
                            1,
                            -2,
                            63,
                            -64,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (int64_t v : values) {
    EXPECT_EQ(dfs::ZigZagDecode(dfs::ZigZagEncode(v)), v);
  }
  // Small magnitudes must stay small on the wire (one varint byte).
  EXPECT_LT(dfs::ZigZagEncode(-1), 128u);
  EXPECT_LT(dfs::ZigZagEncode(63), 128u);
}

TEST(ColumnarCodecTest, ByteReaderRejectsTruncation) {
  std::string buf;
  dfs::AppendUVarint(buf, uint64_t{1} << 40);
  buf.pop_back();  // cut the varint short
  ByteReader r(buf);
  uint64_t v;
  EXPECT_FALSE(r.ReadUVarint(&v));

  ByteReader r2("abc");
  std::string_view raw;
  EXPECT_FALSE(r2.ReadRaw(4, &raw));
  uint32_t u32;
  EXPECT_FALSE(r2.ReadU32LE(&u32));
  double d;
  EXPECT_FALSE(r2.ReadF64LE(&d));
}

/// --- record blocks ----------------------------------------------------------

std::vector<StartupRecord> MakeStartups(size_t n) {
  std::vector<StartupRecord> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = 1000 + i * 3;
    rows[i].name = (i % 5 == 0) ? std::string("Repeated Name")
                                : "startup-" + std::to_string(i);
    rows[i].has_twitter_url = (i % 2) != 0;
    rows[i].has_facebook_url = (i % 3) == 0;
    rows[i].has_crunchbase_url = (i % 7) == 0;
    rows[i].has_video = (i % 11) == 0;
    rows[i].fundraising = (i % 4) == 0;
    rows[i].follower_count = static_cast<int64_t>(i) * 17 - 5;
  }
  return rows;
}

std::vector<UserRecord> MakeUsers(size_t n) {
  std::vector<UserRecord> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = 50 + i * 7;
    rows[i].is_investor = (i % 3) == 0;
    rows[i].is_founder = (i % 5) == 0;
    rows[i].is_employee = (i % 2) == 0;
    for (size_t k = 0; k < i % 6; ++k) {
      rows[i].investment_company_ids.push_back(900 + i + k * 13);
    }
    rows[i].following_startup_count = static_cast<int64_t>(i % 40);
    rows[i].following_user_count = static_cast<int64_t>(i % 23);
  }
  return rows;
}

template <typename T>
std::vector<T> FlattenParts(std::vector<std::vector<T>> parts) {
  std::vector<T> out;
  for (auto& p : parts) {
    for (auto& r : p) out.push_back(std::move(r));
  }
  return out;
}

template <typename T>
void RoundTrip(const std::vector<T>& rows, size_t block_rows) {
  MiniDfs dfs;
  dfs::ColumnarWriteOptions options;
  options.block_rows = block_rows;
  options.source_fingerprint = 0xfeedf00d;
  ColumnarWriter<T> writer(&dfs, "/col/part-all.cfc", options);
  for (const T& r : rows) writer.Add(r);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.rows_added(), rows.size());

  ScanReport report;
  ScanOptions scan;
  scan.report = &report;
  auto parts = ScanColumnBlocks<T>(dfs, {"/col/part-all.cfc"}, scan);
  ASSERT_TRUE(parts.ok()) << parts.status().message();
  const size_t expected_blocks = (rows.size() + block_rows - 1) / block_rows;
  EXPECT_EQ(parts->size(), expected_blocks) << "one partition per block";
  EXPECT_EQ(FlattenParts(std::move(*parts)), rows);
  EXPECT_EQ(report.columnar_files, 1u);
  EXPECT_EQ(report.columnar_blocks_scanned, expected_blocks);
  EXPECT_EQ(report.columnar_blocks_failed, 0u);
  EXPECT_EQ(report.footer_verified_files, 1u);
  EXPECT_EQ(report.records_dropped, 0u);

  auto info = dfs::InspectColumnarFile(&dfs, "/col/part-all.cfc");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->rows, rows.size());
  EXPECT_EQ(info->blocks, expected_blocks);
  EXPECT_EQ(info->source_fingerprint, 0xfeedf00du);
}

TEST(ColumnarRoundTripTest, StartupBlocksAndBoundaries) {
  // Row counts straddling the block boundary: empty, one row, exactly one
  // block, one over, several blocks with a partial tail.
  for (size_t n : {size_t{0}, size_t{1}, size_t{8}, size_t{9}, size_t{37}}) {
    RoundTrip(MakeStartups(n), /*block_rows=*/8);
  }
}

TEST(ColumnarRoundTripTest, UserListsRoundTrip) {
  RoundTrip(MakeUsers(100), /*block_rows=*/16);
}

TEST(ColumnarRoundTripTest, CrunchBaseDoublesBitExact) {
  std::vector<CrunchBaseRecord> rows(20);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].angellist_id = i + 1;
    rows[i].total_funding_usd = i == 0   ? 0.0
                                : i == 1 ? 0.1 + i
                                : i == 2 ? std::numeric_limits<double>::max()
                                         : 1e6 * i + 0.25;
    rows[i].num_rounds = static_cast<int64_t>(i % 7);
    for (size_t k = 0; k < i % 4; ++k) {
      rows[i].round_investor_ids.push_back(10'000 + i * 31 + k);
    }
  }
  RoundTrip(rows, /*block_rows=*/6);
}

TEST(ColumnarRoundTripTest, FacebookAndTwitter) {
  std::vector<FacebookRecord> fb(15);
  std::vector<TwitterRecord> tw(15);
  for (size_t i = 0; i < 15; ++i) {
    fb[i].angellist_id = i * 2 + 1;
    fb[i].fan_count = static_cast<int64_t>(i) * 1001 - 3;
    tw[i].angellist_id = i * 2 + 1;
    tw[i].statuses_count = static_cast<int64_t>(i) * 7;
    tw[i].followers_count = static_cast<int64_t>(i) * 19 - 1;
    tw[i].followers_count_null = (i % 4) == 0;
  }
  RoundTrip(fb, /*block_rows=*/4);
  RoundTrip(tw, /*block_rows=*/4);
}

TEST(ColumnarScanTest, TypeMismatchFailsStrict) {
  MiniDfs dfs;
  ColumnarWriter<StartupRecord> writer(&dfs, "/col/part-all.cfc");
  for (const StartupRecord& r : MakeStartups(5)) writer.Add(r);
  ASSERT_TRUE(writer.Finish().ok());
  auto as_users = ScanColumnBlocks<UserRecord>(dfs, {"/col/part-all.cfc"});
  ASSERT_FALSE(as_users.ok());
  EXPECT_EQ(as_users.status().code(), StatusCode::kCorruption);
}

TEST(ColumnarScanTest, ParallelScanMatchesSequential) {
  MiniDfs dfs;
  std::vector<StartupRecord> rows = MakeStartups(500);
  dfs::ColumnarWriteOptions options;
  options.block_rows = 32;
  ColumnarWriter<StartupRecord> writer(&dfs, "/col/part-all.cfc", options);
  for (const StartupRecord& r : rows) writer.Add(r);
  ASSERT_TRUE(writer.Finish().ok());
  ThreadPool pool(4);
  ScanOptions scan;
  scan.pool = &pool;
  auto parts = ScanColumnBlocks<StartupRecord>(dfs, {"/col/part-all.cfc"}, scan);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(FlattenParts(std::move(*parts)), rows);
}

// A committed file whose one block has a valid CRC but declares 2^26 rows
// over a 1-byte payload: every row takes at least one payload byte, so the
// frame is damage, and no scan sizes 2^26 records for it.
TEST(ColumnarScanTest, RowCountAbovePayloadBytesIsCorruption) {
  std::string file;
  dfs::AppendColumnarHeader(file, dfs::ColumnarTraits<StartupRecord>::kTypeName,
                            0);
  file.append(dfs::kBlockMagic);
  const size_t crc_begin = file.size();
  dfs::AppendUVarint(file, dfs::kMaxBlockRows);
  dfs::AppendUVarint(file, 1);
  file.push_back('\x02');
  dfs::AppendU32LE(file, Crc32(std::string_view(file).substr(crc_begin)));
  MiniDfs dfs;
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/col/part-all.cfc", file).ok());

  auto info = dfs::InspectColumnarFile(&dfs, "/col/part-all.cfc");
  EXPECT_EQ(info.status().code(), StatusCode::kCorruption) << info.status();
  auto strict = ScanColumnBlocks<StartupRecord>(dfs, {"/col/part-all.cfc"});
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
}

/// --- compaction + staleness -------------------------------------------------

TEST(CompactSnapshotTest, CompactionMatchesJsonAndGoesStaleOnNewSegment) {
  MiniDfs dfs;
  const std::string dir = "/snap/facebook/";
  std::string shard;
  for (int i = 0; i < 20; ++i) {
    shard += "{\"angellist_id\":" + std::to_string(100 + i) +
             ",\"fan_count\":" + std::to_string(i * 11) + "}\n";
  }
  ASSERT_TRUE(dfs::CommitFile(&dfs, dir + "part-0.jsonl", shard).ok());
  ASSERT_TRUE(
      core::CompactSnapshotDir<FacebookRecord>(&dfs, dir, nullptr, 8).ok());
  ASSERT_TRUE(dfs.Exists(core::ColumnarPathFor(dir)));

  auto json_parts = core::ScanSnapshotJson<FacebookRecord>(
      dfs, core::SplitSnapshotFiles(dfs.List(dir)).json, nullptr,
      /*salvage=*/false, nullptr);
  ASSERT_TRUE(json_parts.ok());
  std::vector<FacebookRecord> expected = FlattenParts(std::move(*json_parts));

  ScanReport report;
  auto cols = core::ScanSnapshotRecords<FacebookRecord>(dfs, dir, nullptr,
                                                        /*salvage=*/false,
                                                        &report);
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(FlattenParts(std::move(*cols)), expected);
  EXPECT_GT(report.columnar_blocks_scanned, 0u) << "columnar path not taken";

  // A new segment (what a dead-letter replay commits) must invalidate the
  // compaction: the loader falls back to JSON and sees the new record.
  ASSERT_TRUE(dfs::CommitFile(&dfs, dir + "part-1.jsonl",
                              "{\"angellist_id\":999,\"fan_count\":1}\n")
                  .ok());
  ScanReport stale_report;
  auto stale = core::ScanSnapshotRecords<FacebookRecord>(dfs, dir, nullptr,
                                                         /*salvage=*/false,
                                                         &stale_report);
  ASSERT_TRUE(stale.ok());
  std::vector<FacebookRecord> records = FlattenParts(std::move(*stale));
  ASSERT_EQ(records.size(), expected.size() + 1);
  EXPECT_EQ(records.back().angellist_id, 999u);
  EXPECT_EQ(stale_report.columnar_blocks_scanned, 0u)
      << "stale columnar file must not be read";

  // Re-compacting refreshes the fingerprint and columnar wins again.
  ASSERT_TRUE(
      core::CompactSnapshotDir<FacebookRecord>(&dfs, dir, nullptr, 8).ok());
  ScanReport fresh_report;
  auto fresh = core::ScanSnapshotRecords<FacebookRecord>(dfs, dir, nullptr,
                                                         /*salvage=*/false,
                                                         &fresh_report);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(FlattenParts(std::move(*fresh)), records);
  EXPECT_GT(fresh_report.columnar_blocks_scanned, 0u);
}

TEST(CompactSnapshotTest, CompactionIsIdempotent) {
  MiniDfs dfs;
  const std::string dir = "/snap/facebook/";
  ASSERT_TRUE(dfs::CommitFile(&dfs, dir + "part-0.jsonl",
                              "{\"angellist_id\":1,\"fan_count\":2}\n")
                  .ok());
  ASSERT_TRUE(core::CompactSnapshotDir<FacebookRecord>(&dfs, dir).ok());
  const uint64_t mutations = dfs.GetStats().mutation_ops;
  ASSERT_TRUE(core::CompactSnapshotDir<FacebookRecord>(&dfs, dir).ok());
  EXPECT_EQ(dfs.GetStats().mutation_ops, mutations)
      << "up-to-date compaction must not rewrite";
}

/// --- end-to-end platform differential --------------------------------------

TEST(ColumnarPlatformTest, CrawlCompactsAndLoadsByteEquivalentRecords) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.01;
  options.analytics_parallelism = 4;
  core::ExploratoryPlatform platform(options);
  ASSERT_TRUE(platform.CollectData().ok());

  // The crawl's post-flush hook compacted every snapshot dir.
  const std::string dirs[] = {platform.crawler().StartupSnapshotDir(),
                              platform.crawler().UserSnapshotDir(),
                              platform.crawler().CrunchBaseSnapshotDir(),
                              platform.crawler().FacebookSnapshotDir(),
                              platform.crawler().TwitterSnapshotDir()};
  for (const std::string& dir : dirs) {
    EXPECT_TRUE(platform.dfs().Exists(core::ColumnarPathFor(dir))) << dir;
  }

  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok());
  EXPECT_GT(platform.scan_report().columnar_blocks_scanned, 0u)
      << "LoadInputs did not take the columnar path";
  EXPECT_EQ(platform.scan_report().columnar_blocks_failed, 0u);

  // Differential: the columnar stream must equal the streaming-JSON stream
  // record for record.
  ThreadPool pool(4);
  auto check = [&](const std::string& dir, auto tag, const auto& typed) {
    using T = decltype(tag);
    auto parts = core::ScanSnapshotJson<T>(
        platform.dfs(), core::SplitSnapshotFiles(platform.dfs().List(dir)).json,
        &pool, /*salvage=*/false, nullptr);
    ASSERT_TRUE(parts.ok());
    EXPECT_EQ(typed, FlattenParts(std::move(*parts))) << dir;
  };
  check(dirs[0], StartupRecord{}, inputs->startups);
  check(dirs[1], UserRecord{}, inputs->users);
  check(dirs[2], CrunchBaseRecord{}, inputs->crunchbase);
  check(dirs[3], FacebookRecord{}, inputs->facebook);
  check(dirs[4], TwitterRecord{}, inputs->twitter);
  EXPECT_FALSE(inputs->startups.empty());
  EXPECT_FALSE(inputs->users.empty());
}

/// --- hardware CRC differential ----------------------------------------------

TEST(Crc32HardwareTest, MatchesTableFallbackOnRandomBuffers) {
  // Pinned vector (every CRC-32/IEEE implementation agrees on this one).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32FallbackUpdate(0, "123456789"), 0xCBF43926u);
  // The folding path is taken whenever the CPU has it, so the comparisons
  // below are not the table against itself.
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool has_clmul = __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("sse4.1");
#else
  const bool has_clmul = false;
#endif
  EXPECT_EQ(Crc32HardwareEnabled(), has_clmul);

  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 500; ++iter) {
    const size_t len = static_cast<size_t>(rng() % 4096);
    std::string buf(len, '\0');
    for (char& c : buf) c = static_cast<char>(rng() & 0xff);
    const uint32_t hw = Crc32(buf);
    ASSERT_EQ(hw, Crc32FallbackUpdate(0, buf)) << "len=" << len;
    // Incremental feeding at an arbitrary split point must agree too.
    const size_t cut = len == 0 ? 0 : static_cast<size_t>(rng() % len);
    const std::string_view view(buf);
    ASSERT_EQ(Crc32Update(Crc32Update(0, view.substr(0, cut)), view.substr(cut)),
              hw)
        << "len=" << len << " cut=" << cut;
  }
}

}  // namespace
}  // namespace cfnet
