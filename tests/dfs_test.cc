#include "dfs/dfs.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "commit_fixture.h"
#include "dfs/jsonl.h"
#include "util/crc32.h"

namespace cfnet::dfs {
namespace {

DfsConfig SmallConfig() {
  DfsConfig config;
  config.num_datanodes = 4;
  config.block_size = 16;  // force multi-block files
  config.replication = 3;
  return config;
}

TEST(MiniDfsTest, WriteReadRoundTrip) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/a/b.txt", "hello world").ok());
  auto read = dfs.ReadFile("/a/b.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello world");
  EXPECT_TRUE(dfs.Exists("/a/b.txt"));
  EXPECT_FALSE(dfs.Exists("/a/missing"));
}

TEST(MiniDfsTest, EmptyFile) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/empty", "").ok());
  auto read = dfs.ReadFile("/empty");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "");
  EXPECT_EQ(*dfs.FileSize("/empty"), 0u);
}

TEST(MiniDfsTest, MultiBlockSplitting) {
  MiniDfs dfs(SmallConfig());
  std::string data(100, 'x');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>('a' + i % 26);
  ASSERT_TRUE(dfs.WriteFile("/big", data).ok());
  auto blocks = dfs.GetBlockLocations("/big");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ(blocks->size(), 7u);  // ceil(100/16)
  uint64_t total = 0;
  for (const auto& b : *blocks) {
    total += b.length;
    EXPECT_EQ(b.replicas.size(), 3u);
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(*dfs.ReadFile("/big"), data);
}

TEST(MiniDfsTest, OverwriteReplacesContent) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/f", "old content that spans blocks!").ok());
  ASSERT_TRUE(dfs.WriteFile("/f", "new").ok());
  EXPECT_EQ(*dfs.ReadFile("/f"), "new");
  // Old blocks must be freed.
  DfsStats stats = dfs.GetStats();
  EXPECT_EQ(stats.logical_bytes, 3u);
  EXPECT_EQ(stats.physical_bytes, 9u);  // 3 bytes x replication 3
}

TEST(MiniDfsTest, DeleteRemovesFileAndFreesBlocks) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/f", "data").ok());
  ASSERT_TRUE(dfs.Delete("/f").ok());
  EXPECT_FALSE(dfs.Exists("/f"));
  EXPECT_TRUE(dfs.Delete("/f").IsNotFound());
  EXPECT_EQ(dfs.GetStats().physical_bytes, 0u);
}

TEST(MiniDfsTest, ListByPrefix) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/crawl/a.jsonl", "1").ok());
  ASSERT_TRUE(dfs.WriteFile("/crawl/b.jsonl", "2").ok());
  ASSERT_TRUE(dfs.WriteFile("/other/c.jsonl", "3").ok());
  auto files = dfs.List("/crawl/");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/crawl/a.jsonl");
  EXPECT_EQ(files[1], "/crawl/b.jsonl");
  EXPECT_EQ(dfs.List("/nope/").size(), 0u);
}

TEST(MiniDfsTest, PathValidation) {
  MiniDfs dfs(SmallConfig());
  EXPECT_TRUE(dfs.WriteFile("relative", "x").IsInvalidArgument());
  EXPECT_TRUE(dfs.WriteFile("/dir/", "x").IsInvalidArgument());
  EXPECT_TRUE(dfs.ReadFile("").status().IsInvalidArgument());
  EXPECT_TRUE(dfs.ReadFile("/no/such").status().IsNotFound());
}

TEST(MiniDfsTest, ReadsSurviveSingleNodeFailure) {
  MiniDfs dfs(SmallConfig());
  std::string data(64, 'z');
  ASSERT_TRUE(dfs.WriteFile("/f", data).ok());
  ASSERT_TRUE(dfs.KillDataNode(0).ok());
  EXPECT_FALSE(dfs.IsDataNodeAlive(0));
  EXPECT_EQ(*dfs.ReadFile("/f"), data);  // replicas on other nodes
}

TEST(MiniDfsTest, ReadsSurviveReplicationMinusOneFailures) {
  MiniDfs dfs(SmallConfig());
  std::string data(64, 'q');
  ASSERT_TRUE(dfs.WriteFile("/f", data).ok());
  ASSERT_TRUE(dfs.KillDataNode(0).ok());
  ASSERT_TRUE(dfs.KillDataNode(1).ok());
  // Any block had 3 replicas over 4 nodes; with 2 nodes down at least one
  // replica survives.
  EXPECT_EQ(*dfs.ReadFile("/f"), data);
}

TEST(MiniDfsTest, UnderReplicationDetectedAndRepaired) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/f", std::string(40, 'r')).ok());
  ASSERT_TRUE(dfs.KillDataNode(0).ok());
  DfsStats before = dfs.GetStats();
  EXPECT_GT(before.under_replicated_blocks, 0u);
  size_t created = dfs.RunReplicationMonitor();
  EXPECT_GT(created, 0u);
  DfsStats after = dfs.GetStats();
  EXPECT_EQ(after.under_replicated_blocks, 0u);
  EXPECT_EQ(*dfs.ReadFile("/f"), std::string(40, 'r'));
}

TEST(MiniDfsTest, RepairThenOriginalNodeRevives) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/f", std::string(40, 'v')).ok());
  ASSERT_TRUE(dfs.KillDataNode(2).ok());
  dfs.RunReplicationMonitor();
  ASSERT_TRUE(dfs.ReviveDataNode(2).ok());
  // Revived node's stale copies don't break anything; file still reads.
  EXPECT_EQ(*dfs.ReadFile("/f"), std::string(40, 'v'));
  EXPECT_EQ(dfs.GetStats().under_replicated_blocks, 0u);
}

TEST(MiniDfsTest, WriteFailsWithNoLiveNodes) {
  DfsConfig config = SmallConfig();
  config.num_datanodes = 2;
  config.replication = 2;
  MiniDfs dfs(config);
  ASSERT_TRUE(dfs.KillDataNode(0).ok());
  ASSERT_TRUE(dfs.KillDataNode(1).ok());
  EXPECT_TRUE(dfs.WriteFile("/f", "x").IsUnavailable());
}

TEST(MiniDfsTest, ReplicationClampedToNodeCount) {
  DfsConfig config;
  config.num_datanodes = 2;
  config.replication = 5;
  MiniDfs dfs(config);
  ASSERT_TRUE(dfs.WriteFile("/f", "abc").ok());
  auto blocks = dfs.GetBlockLocations("/f");
  ASSERT_TRUE(blocks.ok());
  EXPECT_EQ((*blocks)[0].replicas.size(), 2u);
}

TEST(MiniDfsTest, StatsAggregate) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/a", std::string(20, 'a')).ok());
  ASSERT_TRUE(dfs.WriteFile("/b", std::string(10, 'b')).ok());
  DfsStats stats = dfs.GetStats();
  EXPECT_EQ(stats.num_files, 2u);
  EXPECT_EQ(stats.num_blocks, 3u);  // 20 -> 2 blocks, 10 -> 1 block
  EXPECT_EQ(stats.logical_bytes, 30u);
  EXPECT_EQ(stats.physical_bytes, 90u);
  EXPECT_EQ(stats.live_datanodes, 4);
}

TEST(MiniDfsTest, PlacementBalancesAcrossNodes) {
  DfsConfig config = SmallConfig();
  config.replication = 1;
  MiniDfs dfs(config);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        dfs.WriteFile("/f" + std::to_string(i), std::string(16, 'x')).ok());
  }
  // With least-used placement each node should hold ~10 blocks worth.
  DfsStats stats = dfs.GetStats();
  EXPECT_EQ(stats.physical_bytes, 40u * 16);
}

// --- JSON-lines layer -------------------------------------------------------

json::Json Numbered(int i) {
  json::Json j = json::Json::MakeObject();
  j.Set("i", i);
  return j;
}

TEST(JsonlTest, WriteAndReadBack) {
  MiniDfs dfs(SmallConfig());
  {
    JsonLinesWriter writer(&dfs, "/snap/part-0-", /*flush_bytes=*/32);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(writer.Write(Numbered(i)).ok());
    ASSERT_TRUE(writer.Flush().ok());
  }
  // Four 8-byte lines fill a 32-byte buffer: segments of 4, 4 and 2 lines,
  // listed in write order.
  const std::vector<std::string> segments = dfs.List("/snap/part-0-");
  EXPECT_EQ(segments, (std::vector<std::string>{
                          "/snap/part-0-00000001.jsonl",
                          "/snap/part-0-00000002.jsonl",
                          "/snap/part-0-00000003.jsonl"}));
  std::vector<json::Json> records;
  for (const std::string& path : segments) {
    auto segment = ReadJsonLines(dfs, path);
    ASSERT_TRUE(segment.ok()) << path << ": " << segment.status();
    records.insert(records.end(), segment->begin(), segment->end());
  }
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].Get("i").AsInt(), i);
  }
}

TEST(JsonlTest, DestructorFlushes) {
  MiniDfs dfs(SmallConfig());
  {
    JsonLinesWriter writer(&dfs, "/snap/d-");
    ASSERT_TRUE(writer.Write(Numbered(7)).ok());
  }
  auto records = ReadJsonLines(dfs, SegmentPath("/snap/d-", 1));
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records->size(), 1u);
}

// Committed files are immutable: every flush is exactly one CommitFile (temp
// write, read-back verify, rename) to a segment name that did not exist
// before, numbered on from the highest segment already under the prefix,
// and no earlier segment is read or rewritten.
TEST(JsonlTest, EveryFlushCommitsOneNewSegment) {
  MiniDfs dfs(SmallConfig());
  const std::string prefix = "/snap/part-0-";
  ASSERT_TRUE(CommitFile(&dfs, SegmentPath(prefix, 7), "{\"i\":-1}\n").ok());
  JsonLinesWriter writer(&dfs, prefix, /*flush_bytes=*/1);  // flush per line
  for (int i = 0; i < 5; ++i) {
    std::map<std::string, std::string> before;
    for (const std::string& path : dfs.List("/snap/")) {
      before[path] = *dfs.ReadFile(path);
    }
    const DfsStats start = dfs.GetStats();
    ASSERT_TRUE(writer.Write(Numbered(i)).ok());
    const DfsStats end = dfs.GetStats();
    EXPECT_EQ(end.mutation_ops - start.mutation_ops, 2u);  // temp + rename
    EXPECT_EQ(end.read_ops - start.read_ops, 1u);          // the verify

    const std::string fresh = SegmentPath(prefix, 8 + static_cast<uint64_t>(i));
    EXPECT_EQ(before.count(fresh), 0u);
    std::vector<std::string> expected_paths;
    for (const auto& [path, bytes] : before) expected_paths.push_back(path);
    expected_paths.push_back(fresh);
    EXPECT_EQ(dfs.List("/snap/"), expected_paths);
    for (const auto& [path, bytes] : before) {
      EXPECT_EQ(*dfs.ReadFile(path), bytes) << path << " was rewritten";
    }
    EXPECT_EQ(*ReadCommitted(dfs, fresh), Numbered(i).Dump() + "\n");
  }
}

TEST(JsonlTest, CorruptLineReported) {
  MiniDfs dfs(SmallConfig());
  CommitFixture(&dfs, "/bad.jsonl", "{\"ok\":1}\nnot json\n");
  auto records = ReadJsonLines(dfs, "/bad.jsonl");
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kCorruption);
  EXPECT_NE(records.status().message().find(":2:"), std::string::npos);
}

TEST(JsonlTest, MissingFileIsNotFound) {
  MiniDfs dfs(SmallConfig());
  EXPECT_TRUE(ReadJsonLines(dfs, "/nope.jsonl").status().IsNotFound());
}

TEST(JsonlTest, FooterlessFileIsDamage) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/raw.jsonl", "{\"ok\":1}\n").ok());
  EXPECT_EQ(ReadJsonLines(dfs, "/raw.jsonl").status().code(),
            StatusCode::kCorruption);
}

TEST(JsonlTest, LineWalkerSkipsBlankLinesAndStopsEarly) {
  const std::string text = "a\n \t\n\nb\nc";
  std::vector<std::pair<std::string, int64_t>> seen;
  auto record = [&](std::string_view line, int64_t line_no) {
    seen.emplace_back(std::string(line), line_no);
    return true;
  };
  ForEachJsonLine(text, record);
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, int64_t>>{
                      {"a", 1}, {"b", 4}, {"c", 5}}));

  // Returning false at "b" stops the walk before "c".
  seen.clear();
  ForEachJsonLine(
      text,
      [&](std::string_view line, int64_t line_no) {
        seen.emplace_back(std::string(line), line_no);
        return line != "b";
      },
      /*first_line=*/10);
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, int64_t>>{
                      {"a", 10}, {"b", 13}}));
}

}  // namespace
}  // namespace cfnet::dfs

namespace cfnet::dfs {
namespace {

// --- data integrity (checksums, corruption, scrubbing) ---------------------

TEST(DfsIntegrityTest, ReadFailsOverCorruptReplica) {
  MiniDfs dfs(SmallConfig());
  std::string data(40, 'k');
  ASSERT_TRUE(dfs.WriteFile("/f", data).ok());
  auto blocks = dfs.GetBlockLocations("/f");
  ASSERT_TRUE(blocks.ok());
  int victim = (*blocks)[0].replicas[0];
  ASSERT_TRUE(dfs.CorruptReplica("/f", 0, victim).ok());
  // Read still succeeds from the intact replicas and detects corruption.
  EXPECT_EQ(*dfs.ReadFile("/f"), data);
  EXPECT_GE(dfs.GetStats().corruption_events_detected, 1u);
}

TEST(DfsIntegrityTest, AllReplicasCorruptIsIOError) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/f", std::string(8, 'm')).ok());
  auto blocks = dfs.GetBlockLocations("/f");
  ASSERT_TRUE(blocks.ok());
  for (int node : (*blocks)[0].replicas) {
    ASSERT_TRUE(dfs.CorruptReplica("/f", 0, node).ok());
  }
  auto read = dfs.ReadFile("/f");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST(DfsIntegrityTest, ScrubRemovesCorruptCopiesAndMonitorRepairs) {
  MiniDfs dfs(SmallConfig());
  std::string data(48, 'p');
  ASSERT_TRUE(dfs.WriteFile("/f", data).ok());
  auto blocks = dfs.GetBlockLocations("/f");
  ASSERT_TRUE(blocks.ok());
  ASSERT_TRUE(dfs.CorruptReplica("/f", 1, (*blocks)[1].replicas[0]).ok());
  ASSERT_TRUE(dfs.CorruptReplica("/f", 2, (*blocks)[2].replicas[1]).ok());

  size_t removed = dfs.ScrubBlocks();
  EXPECT_EQ(removed, 2u);
  DfsStats after_scrub = dfs.GetStats();
  EXPECT_EQ(after_scrub.under_replicated_blocks, 2u);

  EXPECT_GT(dfs.RunReplicationMonitor(), 0u);
  DfsStats repaired = dfs.GetStats();
  EXPECT_EQ(repaired.under_replicated_blocks, 0u);
  EXPECT_EQ(*dfs.ReadFile("/f"), data);
  // Scrubbing again finds nothing.
  EXPECT_EQ(dfs.ScrubBlocks(), 0u);
}

TEST(DfsIntegrityTest, CorruptReplicaArgumentChecks) {
  MiniDfs dfs(SmallConfig());
  ASSERT_TRUE(dfs.WriteFile("/f", "abc").ok());
  EXPECT_TRUE(dfs.CorruptReplica("/missing", 0, 0).IsNotFound());
  EXPECT_EQ(dfs.CorruptReplica("/f", 9, 0).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(dfs.CorruptReplica("/f", 0, 99).IsInvalidArgument());
}

}  // namespace
}  // namespace cfnet::dfs

namespace cfnet {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  crc = Crc32Update(crc, data.substr(0, 10));
  crc = Crc32Update(crc, data.substr(10));
  EXPECT_EQ(crc, Crc32(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(1000, 'a');
  uint32_t original = Crc32(data);
  data[500] = static_cast<char>(data[500] ^ 1);
  EXPECT_NE(Crc32(data), original);
}

}  // namespace
}  // namespace cfnet
