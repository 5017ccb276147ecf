#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace cfnet {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 200; ++i) {
    done.push_back(pool.Submit([&count]() { count.fetch_add(1); }));
  }
  for (std::future<void>& f : done) f.get();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.Submit([]() { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, ParallelismActuallyParallel) {
  // Each task arrives, then waits until both have: they can only both see
  // the other if two workers run them at once. The timeout only bounds a
  // failing run; a passing one never waits on the clock.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  auto rendezvous = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    return cv.wait_for(lock, std::chrono::seconds(60),
                       [&]() { return arrived == 2; });
  };
  std::future<bool> a = pool.Submit(rendezvous);
  std::future<bool> b = pool.Submit(rendezvous);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  auto fut = pool.Submit([]() { return 1; });
  EXPECT_EQ(fut.get(), 1);
}

// --- string utilities -------------------------------------------------------

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(StrTrim("  x  "), "x");
  EXPECT_EQ(StrTrim("\t\nhello world\r "), "hello world");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("https://x.com", "https://"));
  EXPECT_FALSE(StartsWith("http://x.com", "https://"));
  EXPECT_TRUE(EndsWith("file.jsonl", ".jsonl"));
  EXPECT_FALSE(EndsWith("file.json", ".jsonl"));
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC-123"), "abc-123");
}

TEST(StringUtilTest, LastUrlSegmentExtractsHandle) {
  // The paper's Twitter-handle extraction: "the string after the last '/'".
  EXPECT_EQ(LastUrlSegment("https://twitter.com/startup42"), "startup42");
  EXPECT_EQ(LastUrlSegment("https://twitter.com/startup42/"), "startup42");
  EXPECT_EQ(LastUrlSegment("plain"), "plain");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f%%", 12.345), "12.35%");
}

TEST(StringUtilTest, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(744036), "744,036");
  EXPECT_EQ(WithThousandsSeparators(-1234567), "-1,234,567");
}

// --- table -------------------------------------------------------------------

TEST(AsciiTableTest, RendersAlignedColumns) {
  AsciiTable t({"Name", "N"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| Name  | N  |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1  |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22 |"), std::string::npos);
}

TEST(AsciiTableTest, PadsShortRows) {
  AsciiTable t({"A", "B", "C"});
  t.AddRow({"x"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| x |   |   |"), std::string::npos);
}

// --- flags --------------------------------------------------------------------

TEST(FlagParserTest, ParsesKeyValueAndBool) {
  const char* argv[] = {"prog", "--scale=0.5", "--workers=12", "--verbose",
                        "positional", "--name=abc"};
  FlagParser flags(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags.GetInt("workers", 1), 12);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetInt("missing", 99), 99);
  EXPECT_FALSE(flags.Has("positional"));
}

// --- crc32 ----------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVectorAndComposes) {
  // The IEEE 802.3 check value every CRC-32 implementation must produce.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  uint32_t streamed = Crc32Update(Crc32Update(0, "1234"), "56789");
  EXPECT_EQ(streamed, 0xCBF43926u);
}

}  // namespace
}  // namespace cfnet
