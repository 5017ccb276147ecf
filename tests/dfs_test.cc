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

TEST(MiniDfsTest, WriteReadRoundTrip) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/a/b.txt", "hello world").ok());
  auto read = dfs.ReadFile("/a/b.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello world");
  EXPECT_TRUE(dfs.Exists("/a/b.txt"));
  EXPECT_FALSE(dfs.Exists("/a/missing"));
}

TEST(MiniDfsTest, EmptyFile) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/empty", "").ok());
  auto read = dfs.ReadFile("/empty");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "");
  EXPECT_EQ(*dfs.FileSize("/empty"), 0u);
}

TEST(MiniDfsTest, OverwriteReplacesContent) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/f", "old content, longer than the new").ok());
  ASSERT_TRUE(dfs.WriteFile("/f", "new").ok());
  EXPECT_EQ(*dfs.ReadFile("/f"), "new");
  DfsStats stats = dfs.GetStats();
  EXPECT_EQ(stats.num_files, 1u);
  EXPECT_EQ(stats.logical_bytes, 3u);
}

TEST(MiniDfsTest, DeleteRemovesFileAndFreesBlocks) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/f", "data").ok());
  ASSERT_TRUE(dfs.Delete("/f").ok());
  EXPECT_FALSE(dfs.Exists("/f"));
  EXPECT_TRUE(dfs.Delete("/f").IsNotFound());
  EXPECT_EQ(dfs.GetStats().num_files, 0u);
  EXPECT_EQ(dfs.GetStats().logical_bytes, 0u);
}

TEST(MiniDfsTest, ListByPrefix) {
  MiniDfs dfs;
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
  MiniDfs dfs;
  EXPECT_TRUE(dfs.WriteFile("relative", "x").IsInvalidArgument());
  EXPECT_TRUE(dfs.WriteFile("/dir/", "x").IsInvalidArgument());
  EXPECT_TRUE(dfs.ReadFile("").status().IsInvalidArgument());
  EXPECT_TRUE(dfs.ReadFile("/no/such").status().IsNotFound());
}

TEST(MiniDfsTest, StatsAggregate) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("/a", std::string(20, 'a')).ok());
  ASSERT_TRUE(dfs.WriteFile("/b", std::string(10, 'b')).ok());
  DfsStats stats = dfs.GetStats();
  EXPECT_EQ(stats.num_files, 2u);
  EXPECT_EQ(stats.logical_bytes, 30u);
}

// --- JSON-lines layer -------------------------------------------------------

json::Json Numbered(int i) {
  json::Json j = json::Json::MakeObject();
  j.Set("i", i);
  return j;
}

TEST(JsonlTest, WriteAndReadBack) {
  MiniDfs dfs;
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
  MiniDfs dfs;
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
  MiniDfs dfs;
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
  MiniDfs dfs;
  CommitFixture(&dfs, "/bad.jsonl", "{\"ok\":1}\nnot json\n");
  auto records = ReadJsonLines(dfs, "/bad.jsonl");
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kCorruption);
  EXPECT_NE(records.status().message().find(":2:"), std::string::npos);
}

TEST(JsonlTest, MissingFileIsNotFound) {
  MiniDfs dfs;
  EXPECT_TRUE(ReadJsonLines(dfs, "/nope.jsonl").status().IsNotFound());
}

TEST(JsonlTest, FooterlessFileIsDamage) {
  MiniDfs dfs;
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
