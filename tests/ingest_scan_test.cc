#include "dfs/jsonl.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commit_fixture.h"
#include "core/columnar_records.h"
#include "core/platform.h"
#include "core/records.h"
#include "dfs/columnar.h"
#include "json/json.h"
#include "util/thread_pool.h"

namespace cfnet {
namespace {

using core::CrunchBaseRecord;
using core::FacebookRecord;
using core::StartupRecord;
using core::TwitterRecord;
using core::UserRecord;
using dfs::MiniDfs;
using dfs::ScanOptions;

std::vector<json::Json> Flatten(std::vector<std::vector<json::Json>> parts) {
  std::vector<json::Json> out;
  for (auto& p : parts) {
    for (auto& v : p) out.push_back(std::move(v));
  }
  return out;
}

TEST(ScanJsonLinesTest, MatchesReadJsonLinesAcrossShards) {
  MiniDfs dfs;
  CommitFixture(&dfs, "/snap/part-0", "{\"id\":1}\n{\"id\":2}\n");
  CommitFixture(&dfs, "/snap/part-1", "\n{\"id\":3}\n \n{\"id\":4}");
  CommitFixture(&dfs, "/snap/part-2", "");
  const std::vector<std::string> paths = {"/snap/part-0", "/snap/part-1",
                                          "/snap/part-2"};
  std::vector<json::Json> expected;
  for (const auto& p : paths) {
    auto records = dfs::ReadJsonLines(dfs, p);
    ASSERT_TRUE(records.ok());
    for (auto& r : *records) expected.push_back(std::move(r));
  }
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, paths, json::Parse);
  ASSERT_TRUE(scanned.ok());
  std::vector<json::Json> got = Flatten(std::move(*scanned));
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

TEST(ScanJsonLinesTest, ParallelScanPartitionsAndPreservesOrder) {
  MiniDfs dfs;
  std::string content;
  std::vector<int64_t> expected_ids;
  for (int64_t i = 0; i < 500; ++i) {
    content += "{\"id\":" + std::to_string(i) + "}\n";
    expected_ids.push_back(i);
  }
  CommitFixture(&dfs, "/snap/part-0", content);
  ThreadPool pool(4);
  ScanOptions options;
  options.pool = &pool;
  options.min_range_bytes = 64;  // force several ranges despite the tiny file
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                                json::Parse, options);
  ASSERT_TRUE(scanned.ok());
  EXPECT_GT(scanned->size(), 1u) << "expected a multi-range split";
  std::vector<int64_t> got;
  for (const auto& part : *scanned) {
    for (const auto& doc : part) got.push_back(doc.Get("id").AsInt());
  }
  EXPECT_EQ(got, expected_ids);
}

TEST(ScanJsonLinesTest, MalformedLineVerdictMatchesReadJsonLines) {
  MiniDfs dfs;
  CommitFixture(&dfs, "/snap/part-0", "{\"id\":1}\n{broken\n{\"id\":2}\n");
  auto sequential = dfs::ReadJsonLines(dfs, "/snap/part-0");
  ASSERT_FALSE(sequential.ok());
  ScanOptions options;
  options.min_range_bytes = 1;
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                                json::Parse, options);
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.status().ToString(), sequential.status().ToString());
}

TEST(ScanJsonLinesTest, EarliestFailingLineWinsAcrossRanges) {
  MiniDfs dfs;
  // Two malformed lines; the earlier one (file order) must be reported even
  // when a later range finishes first.
  std::string content;
  for (int i = 0; i < 50; ++i) content += "{\"id\":" + std::to_string(i) + "}\n";
  content += "{bad-early\n";
  for (int i = 0; i < 50; ++i) content += "{\"id\":" + std::to_string(i) + "}\n";
  content += "{bad-late\n";
  CommitFixture(&dfs, "/snap/part-0", content);
  ThreadPool pool(4);
  ScanOptions options;
  options.pool = &pool;
  options.min_range_bytes = 32;
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                                json::Parse, options);
  ASSERT_FALSE(scanned.ok());
  EXPECT_NE(scanned.status().ToString().find(":51:"), std::string::npos)
      << scanned.status().ToString();
}

TEST(ScanJsonLinesTest, EmptyInputsYieldOneEmptyPartition) {
  MiniDfs dfs;
  auto no_files = dfs::ScanJsonLines<json::Json>(dfs, {}, json::Parse);
  ASSERT_TRUE(no_files.ok());
  ASSERT_EQ(no_files->size(), 1u);
  EXPECT_TRUE((*no_files)[0].empty());

  CommitFixture(&dfs, "/snap/empty", "");
  auto empty_file = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/empty"},
                                                   json::Parse);
  ASSERT_TRUE(empty_file.ok());
  ASSERT_EQ(empty_file->size(), 1u);
  EXPECT_TRUE((*empty_file)[0].empty());
}

TEST(ScanJsonLinesTest, MissingFilePropagatesError) {
  MiniDfs dfs;
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/nope"},
                                                json::Parse);
  EXPECT_FALSE(scanned.ok());
}

/// --- corruption-aware scans (salvage mode) --------------------------------

std::vector<int64_t> ScanIds(const std::vector<std::vector<json::Json>>& parts) {
  std::vector<int64_t> ids;
  for (const auto& part : parts) {
    for (const auto& doc : part) ids.push_back(doc.Get("id").AsInt());
  }
  return ids;
}

TEST(ScanSalvageTest, DropsTruncatedFinalLineAndCountsIt) {
  MiniDfs dfs;
  // A shard torn mid-write: the last line is a torn prefix ({"id":3 never
  // got its closing brace or newline) and the footer never landed.
  ASSERT_TRUE(
      dfs.WriteFile("/snap/part-0", "{\"id\":1}\n{\"id\":2}\n{\"id\":3").ok());
  ScanOptions strict;
  auto failed = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                               json::Parse, strict);
  EXPECT_FALSE(failed.ok());

  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                                json::Parse, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(ScanIds(*scanned), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(report.files_scanned, 1u);
  EXPECT_EQ(report.footer_verified_files, 0u);
  EXPECT_EQ(report.records_dropped, 1u);
  // A missing footer is damage: the file is reported like any other.
  EXPECT_EQ(report.quarantined_paths,
            (std::vector<std::string>{"/snap/part-0"}));
}

TEST(ScanSalvageTest, SkipsLinesWithEmbeddedNulBytes) {
  MiniDfs dfs;
  // Garbage written over a shard, footer included.
  std::string content = "{\"id\":1}\n";
  content += std::string("{\"id\":2,\"name\":\"a\0b\"}", 22);  // NULs inside
  content += "\n{\"id\":3}\n";
  ASSERT_TRUE(dfs.WriteFile("/snap/part-0", content).ok());
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                                json::Parse, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  // The intact neighbours of the garbage line survive byte-identically.
  EXPECT_EQ(ScanIds(*scanned), (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(report.records_dropped, 1u);
}

TEST(ScanSalvageTest, CorruptMiddleBlockQuarantinesInReportOnly) {
  MiniDfs dfs;
  // A properly committed shard whose payload rotted after commit: the
  // footer CRC no longer matches.
  std::string payload = "{\"id\":1}\n{\"id\":2}\n{\"id\":3}\n";
  ASSERT_TRUE(dfs::CommitFile(&dfs, "/snap/part-0", payload).ok());
  std::string raw = *dfs.ReadFile("/snap/part-0");
  raw[11] = 'X';  // damage the middle record: {"id":2} -> {"Xd":2}... no:
  // index 11 lands inside the second line; any flip breaks the CRC.
  ASSERT_TRUE(dfs.WriteFile("/snap/part-0", raw).ok());

  // Strict mode refuses the file outright.
  auto strict = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                               json::Parse);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  // Salvage mode decodes what still parses and reports the file.
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLines<json::Json>(dfs, {"/snap/part-0"},
                                                json::Parse, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<int64_t> ids = ScanIds(*scanned);
  EXPECT_EQ(ids.size() + report.records_dropped, 3u);
  ASSERT_EQ(report.quarantined_paths.size(), 1u);
  EXPECT_EQ(report.quarantined_paths[0], "/snap/part-0");
  EXPECT_EQ(report.footer_verified_files, 0u);
}

TEST(ScanSalvageTest, FooterVerifiedFilesAreCountedAndStayStrict) {
  MiniDfs dfs;
  {
    dfs::JsonLinesWriter writer(&dfs, "/snap/part-0-");
    for (int i = 1; i <= 4; ++i) {
      json::Json r = json::Json::MakeObject();
      r.Set("id", i);
      ASSERT_TRUE(writer.Write(r).ok());
    }
    ASSERT_TRUE(writer.Flush().ok());
  }
  CommitFixture(&dfs, "/snap/part-1", "{\"id\":5}\n");
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanJsonLines<json::Json>(
      dfs, {dfs::SegmentPath("/snap/part-0-", 1), "/snap/part-1"}, json::Parse,
      salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(ScanIds(*scanned), (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_EQ(report.footer_verified_files, 2u);
  EXPECT_TRUE(report.quarantined_paths.empty());
  EXPECT_EQ(report.records_dropped, 0u);
  EXPECT_GT(report.bytes_scanned, 0u);
}

/// Writes `n` startup records (long names, so block payloads have bytes to
/// damage) as a committed columnar file of `block_rows`-row blocks.
std::vector<StartupRecord> WriteColumnarStartups(MiniDfs* dfs,
                                                 const std::string& path,
                                                 size_t n, size_t block_rows) {
  std::vector<StartupRecord> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].id = i + 1;
    rows[i].name = "padding-padding-padding-" + std::to_string(i);
    rows[i].follower_count = static_cast<int64_t>(i);
  }
  dfs::ColumnarWriteOptions options;
  options.block_rows = block_rows;
  dfs::ColumnarWriter<StartupRecord> writer(dfs, path, options);
  for (const StartupRecord& r : rows) writer.Add(r);
  EXPECT_TRUE(writer.Finish().ok());
  return rows;
}

TEST(ColumnarSalvageTest, BitFlippedBlockIsDroppedOthersSurvive) {
  MiniDfs dfs;
  const std::string path = "/snap/part-all.cfc";
  std::vector<StartupRecord> rows =
      WriteColumnarStartups(&dfs, path, /*n=*/20, /*block_rows=*/5);

  // Rot one byte inside the first block's dictionary (post-commit, so the
  // commit footer no longer verifies either).
  std::string raw = *dfs.ReadFile(path);
  const size_t pos = raw.find("padding-padding-padding-0");
  ASSERT_NE(pos, std::string::npos);
  raw[pos] ^= 0x20;
  ASSERT_TRUE(dfs.WriteFile(path, raw).ok());

  // Strict mode refuses the file outright (corrupt commit footer).
  auto strict = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  // Salvage drops exactly the damaged block and keeps the other three.
  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<StartupRecord> got;
  for (auto& part : *scanned) {
    for (auto& r : part) got.push_back(std::move(r));
  }
  ASSERT_EQ(got.size(), 15u);
  EXPECT_EQ(got.front(), rows[5]) << "surviving blocks keep their records";
  EXPECT_EQ(got.back(), rows[19]);
  EXPECT_EQ(report.columnar_blocks_scanned, 4u);
  EXPECT_EQ(report.columnar_blocks_failed, 1u);
  EXPECT_EQ(report.records_dropped, 5u);
  ASSERT_EQ(report.quarantined_paths.size(), 1u);
  EXPECT_EQ(report.quarantined_paths[0], path);
}

TEST(ColumnarSalvageTest, TruncatedFileKeepsWalkedPrefix) {
  MiniDfs dfs;
  const std::string path = "/snap/part-all.cfc";
  std::vector<StartupRecord> rows =
      WriteColumnarStartups(&dfs, path, /*n=*/20, /*block_rows=*/5);

  // Torn tail: the file loses its footer and half of the last block — the
  // kind of damage a writer killed mid-write leaves behind.
  std::string raw = *dfs.ReadFile(path);
  ASSERT_TRUE(dfs.WriteFile(path, raw.substr(0, raw.size() - 60)).ok());

  auto strict = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  dfs::ScanReport report;
  ScanOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  auto scanned = dfs::ScanColumnBlocks<StartupRecord>(dfs, {path}, salvage);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  std::vector<StartupRecord> got;
  for (auto& part : *scanned) {
    for (auto& r : part) got.push_back(std::move(r));
  }
  // Every fully-framed block before the tear decodes; the torn tail block is
  // gone. The exact count depends on where the tear lands, but the prefix
  // property must hold.
  ASSERT_GT(got.size(), 0u);
  ASSERT_LT(got.size(), rows.size());
  ASSERT_EQ(got.size() % 5, 0u) << "whole blocks only";
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], rows[i]);
  EXPECT_EQ(report.columnar_blocks_scanned, got.size() / 5);
  EXPECT_EQ(report.columnar_blocks_failed, 0u);
}

TEST(ColumnarSalvageTest, SnapshotLoadFallsBackToJsonOnColumnarRot) {
  MiniDfs dfs;
  const std::string dir = "/snap/facebook/";
  std::string shard;
  for (int i = 0; i < 12; ++i) {
    shard += "{\"angellist_id\":" + std::to_string(i + 1) +
             ",\"fan_count\":" + std::to_string(i * 3) + "}\n";
  }
  ASSERT_TRUE(dfs::CommitFile(&dfs, dir + "part-0.jsonl", shard).ok());
  ASSERT_TRUE(
      core::CompactSnapshotDir<FacebookRecord>(&dfs, dir, nullptr, 4).ok());

  // Rot the columnar file; the JSON shards are still intact.
  const std::string col = core::ColumnarPathFor(dir);
  std::string raw = *dfs.ReadFile(col);
  raw[raw.size() / 2] ^= 0x01;
  ASSERT_TRUE(dfs.WriteFile(col, raw).ok());

  // Strict load surfaces the damage...
  auto strict = core::ScanSnapshotRecords<FacebookRecord>(
      dfs, dir, nullptr, /*salvage=*/false, nullptr);
  ASSERT_FALSE(strict.ok());

  // ...salvage load abandons the rotted columnar file wholesale and returns
  // the complete stream from JSON (not a partial columnar decode).
  dfs::ScanReport report;
  auto parts = core::ScanSnapshotRecords<FacebookRecord>(
      dfs, dir, nullptr, /*salvage=*/true, &report);
  ASSERT_TRUE(parts.ok()) << parts.status();
  size_t total = 0;
  for (const auto& p : *parts) total += p.size();
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(report.records_dropped, 0u);
}

/// --- record decoders: pinned expectations --------------------------------

template <typename T>
struct RecordCase {
  const char* line;
  T want;
};

template <typename T>
void ExpectDecodes(const std::vector<RecordCase<T>>& cases) {
  for (const RecordCase<T>& c : cases) {
    Result<T> got = core::DecodeLine<T>(c.line);
    ASSERT_TRUE(got.ok()) << c.line << ": " << got.status();
    EXPECT_EQ(*got, c.want) << c.line;
  }
}

TEST(RecordDecodeTest, Startup) {
  ExpectDecodes<StartupRecord>({
      {"{}", {}},
      {R"({"id":7,"name":"Acme","twitter_url":"http://t",)"
       R"("facebook_url":"","crunchbase_url":"http://c",)"
       R"("video_url":"v","fundraising":true,"follower_count":12})",
       {.id = 7,
        .name = "Acme",
        .has_twitter_url = true,
        .has_crunchbase_url = true,
        .has_video = true,
        .fundraising = true,
        .follower_count = 12}},
      // Wrong types coerce: a double id truncates, the rest default.
      {R"({"id":7.9,"name":42,"twitter_url":null,"fundraising":"yes"})",
       {.id = 7, .name = ""}},
      {R"({"follower_count":"many","video_url":false})", {}},
      {R"({"id":1,"id":2})", {.id = 2, .name = ""}},  // last key wins
      {R"({"twitter_url":"x","twitter_url":""})", {}},
      {R"({"extra":{"nested":[1,2]},"id":5})", {.id = 5, .name = ""}},
      {R"({"name":"esc\n\u00e9"})", {.name = "esc\n\xc3\xa9"}},
  });
}

TEST(RecordDecodeTest, User) {
  ExpectDecodes<UserRecord>({
      {"{}", {}},
      {R"({"id":3,"roles":["investor","founder"],)"
       R"("investment_company_ids":[1,2,3],)"
       R"("following_startup_count":4,"following_user_count":5})",
       {.id = 3,
        .is_investor = true,
        .is_founder = true,
        .investment_company_ids = {1, 2, 3},
        .following_startup_count = 4,
        .following_user_count = 5}},
      {R"({"roles":["employee","other"],"roles":["founder"]})",
       {.is_founder = true, .investment_company_ids = {}}},
      {R"({"roles":"investor"})", {}},  // non-array roles: no flags
      {R"({"roles":[null,42,"investor"]})",
       {.is_investor = true, .investment_company_ids = {}}},
      {R"({"investment_company_ids":[1],"investment_company_ids":[2,3]})",
       {.investment_company_ids = {2, 3}}},
      {R"({"investment_company_ids":{"a":1}})", {}},  // non-array: empty
      {R"({"id":"x","following_user_count":2.7})",
       {.investment_company_ids = {}, .following_user_count = 2}},
  });
}

TEST(RecordDecodeTest, CrunchBase) {
  ExpectDecodes<CrunchBaseRecord>({
      {"{}", {}},
      {R"({"angellist_id":9,"total_funding_usd":1.5e6,)"
       R"("funding_rounds":[{"investor_ids":[1,2]},{"investor_ids":[3]}]})",
       {.angellist_id = 9,
        .total_funding_usd = 1.5e6,
        .num_rounds = 2,
        .round_investor_ids = {1, 2, 3}}},
      {R"({"funding_rounds":[]})", {}},
      {R"({"funding_rounds":[{},{"other":1},{"investor_ids":"x"}]})",
       {.num_rounds = 3, .round_investor_ids = {}}},
      // An object counts one round per distinct key; a scalar counts none.
      {R"({"funding_rounds":{"a":1,"b":2}})",
       {.num_rounds = 2, .round_investor_ids = {}}},
      {R"({"funding_rounds":{"a":1,"a":2}})",
       {.num_rounds = 1, .round_investor_ids = {}}},
      {R"({"funding_rounds":42})", {}},
      {R"({"funding_rounds":[{"investor_ids":[1],"investor_ids":[2,3]}]})",
       {.num_rounds = 1, .round_investor_ids = {2, 3}}},
      {R"({"funding_rounds":[{"investor_ids":[1]}],)"
       R"("funding_rounds":[{"investor_ids":[9]}]})",
       {.num_rounds = 1, .round_investor_ids = {9}}},
      {R"({"total_funding_usd":7})",
       {.total_funding_usd = 7.0, .round_investor_ids = {}}},
  });
}

TEST(RecordDecodeTest, Facebook) {
  ExpectDecodes<FacebookRecord>({
      {"{}", {}},
      {R"({"angellist_id":4,"fan_count":100})",
       {.angellist_id = 4, .fan_count = 100}},
      {R"({"fan_count":"lots","angellist_id":1.2})", {.angellist_id = 1}},
  });
}

TEST(RecordDecodeTest, Twitter) {
  ExpectDecodes<TwitterRecord>({
      {"{}", {.followers_count_null = true}},  // missing counts as null
      {R"({"angellist_id":2,"statuses_count":10,"followers_count":20})",
       {.angellist_id = 2, .statuses_count = 10, .followers_count = 20}},
      {R"({"followers_count":null})", {.followers_count_null = true}},
      {R"({"followers_count":"n/a"})", {}},  // non-null, coerces to 0
      {R"({"followers_count":null,"followers_count":5})",
       {.followers_count = 5}},
      {R"({"followers_count":5,"followers_count":null})",
       {.followers_count_null = true}},
  });
}

TEST(RecordDecodeTest, MalformedLineVerdict) {
  const std::string want =
      "Corruption: JSON parse error at offset 8: expected object key string";
  const char* line = R"({"id":1,)";
  EXPECT_EQ(core::DecodeLine<StartupRecord>(line).status().ToString(), want);
  EXPECT_EQ(core::DecodeLine<UserRecord>(line).status().ToString(), want);
  EXPECT_EQ(core::DecodeLine<CrunchBaseRecord>(line).status().ToString(), want);
  EXPECT_EQ(core::DecodeLine<FacebookRecord>(line).status().ToString(), want);
  EXPECT_EQ(core::DecodeLine<TwitterRecord>(line).status().ToString(), want);
  EXPECT_EQ(json::Parse(line).status().ToString(), want);
}

/// --- end-to-end: platform loaders on a crawled world ---------------------

TEST(PlatformIngestTest, LoadInputsHasOneRecordPerSnapshotLine) {
  core::ExploratoryPlatform::Options options;
  options.world.scale = 0.01;
  options.analytics_parallelism = 4;
  core::ExploratoryPlatform platform(options);
  ASSERT_TRUE(platform.CollectData().ok());
  auto inputs = platform.LoadInputs();
  ASSERT_TRUE(inputs.ok());

  // Every JSON line of `dir`'s shards, in shard order, yields one record in
  // the same position, keyed by that line's `id_field`.
  auto check_dir = [&](const std::string& dir, const auto& records,
                       const char* id_field, auto id_of) {
    std::vector<json::Json> lines;
    for (const std::string& shard :
         core::SplitSnapshotFiles(platform.dfs().List(dir)).json) {
      auto read = dfs::ReadJsonLines(platform.dfs(), shard);
      ASSERT_TRUE(read.ok()) << shard << ": " << read.status();
      for (json::Json& line : *read) lines.push_back(std::move(line));
    }
    ASSERT_EQ(records.size(), lines.size()) << dir;
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(id_of(records[i]),
                static_cast<uint64_t>(lines[i].Get(id_field).AsInt()))
          << dir << " line " << i;
    }
  };
  check_dir(platform.crawler().StartupSnapshotDir(), inputs->startups, "id",
            [](const StartupRecord& r) { return r.id; });
  check_dir(platform.crawler().UserSnapshotDir(), inputs->users, "id",
            [](const UserRecord& r) { return r.id; });
  check_dir(platform.crawler().CrunchBaseSnapshotDir(), inputs->crunchbase,
            "angellist_id",
            [](const CrunchBaseRecord& r) { return r.angellist_id; });
  check_dir(platform.crawler().FacebookSnapshotDir(), inputs->facebook,
            "angellist_id",
            [](const FacebookRecord& r) { return r.angellist_id; });
  check_dir(platform.crawler().TwitterSnapshotDir(), inputs->twitter,
            "angellist_id",
            [](const TwitterRecord& r) { return r.angellist_id; });
  EXPECT_FALSE(inputs->startups.empty());
  EXPECT_FALSE(inputs->users.empty());
}

}  // namespace
}  // namespace cfnet
