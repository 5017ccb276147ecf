#include "dataflow/dataset.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cfnet::dataflow {
namespace {

std::shared_ptr<ExecutionContext> Ctx(size_t threads = 4) {
  return std::make_shared<ExecutionContext>(threads);
}

std::vector<int> Range(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(DatasetTest, CollectPreservesElements) {
  auto ctx = Ctx();
  auto ds = Dataset<int>::FromVector(ctx, Range(1000), 7);
  std::vector<int> out = ds.Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, Range(1000));
  EXPECT_EQ(ds.Count(), 1000u);
  EXPECT_EQ(ds.num_partitions(), 7u);
}

TEST(DatasetTest, RangePartitioningIsBalanced) {
  auto ctx = Ctx();
  auto ds = Dataset<int>::FromVector(ctx, Range(10), 3);
  // Partition sizes 4,3,3 and order preserved on Collect.
  EXPECT_EQ(ds.Collect(), Range(10));
}

TEST(DatasetTest, MapTransformsEveryElement) {
  auto ctx = Ctx();
  auto out = Dataset<int>::FromVector(ctx, Range(100))
                 .Map([](const int& x) { return x * 2; })
                 .Collect();
  std::sort(out.begin(), out.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], 2 * i);
}

TEST(DatasetTest, MapChangesType) {
  auto ctx = Ctx();
  auto out = Dataset<int>::FromVector(ctx, {1, 22, 333})
                 .Map([](const int& x) { return std::to_string(x); })
                 .Collect();
  EXPECT_EQ(out, (std::vector<std::string>{"1", "22", "333"}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  auto ctx = Ctx();
  size_t evens = Dataset<int>::FromVector(ctx, Range(1001))
                     .Filter([](const int& x) { return x % 2 == 0; })
                     .Count();
  EXPECT_EQ(evens, 501u);
}

TEST(DatasetTest, FlatMapExpandsAndContracts) {
  auto ctx = Ctx();
  auto out = Dataset<int>::FromVector(ctx, {0, 1, 2, 3})
                 .FlatMap([](const int& x) {
                   return std::vector<int>(static_cast<size_t>(x), x);
                 })
                 .Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 2, 3, 3, 3}));
}

TEST(DatasetTest, UnionConcatenates) {
  auto ctx = Ctx();
  auto a = Dataset<int>::FromVector(ctx, {1, 2});
  auto b = Dataset<int>::FromVector(ctx, {3});
  auto out = a.Union(b).Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(DatasetTest, DistinctRemovesDuplicates) {
  auto ctx = Ctx();
  std::vector<int> data;
  for (int i = 0; i < 500; ++i) data.push_back(i % 50);
  auto out = Dataset<int>::FromVector(ctx, data).Distinct().Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, Range(50));
}

TEST(DatasetTest, DistinctOnStrings) {
  auto ctx = Ctx();
  auto out = Dataset<std::string>::FromVector(ctx, {"a", "b", "a", "c", "b"})
                 .Distinct()
                 .Collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(DatasetTest, ReduceSums) {
  auto ctx = Ctx();
  int sum = Dataset<int>::FromVector(ctx, Range(101))
                .Reduce([](int a, int b) { return a + b; }, 0);
  EXPECT_EQ(sum, 5050);
}

TEST(DatasetTest, LazinessComputesOnce) {
  auto ctx = Ctx();
  std::atomic<int> calls{0};
  auto ds = Dataset<int>::FromVector(ctx, Range(10)).Map([&calls](const int& x) {
    calls.fetch_add(1);
    return x;
  });
  EXPECT_EQ(calls.load(), 0);  // lazy until an action
  ds.Count();
  EXPECT_EQ(calls.load(), 10);
  ds.Collect();  // memoized: no recompute
  EXPECT_EQ(calls.load(), 10);
}

TEST(DatasetTest, ChainedPipelineMatchesSerialReference) {
  auto ctx = Ctx(8);
  std::vector<int> data = Range(5000);
  auto result = Dataset<int>::FromVector(ctx, data, 16)
                    .Map([](const int& x) { return x * 3; })
                    .Filter([](const int& x) { return x % 2 == 0; })
                    .FlatMap([](const int& x) {
                      return std::vector<int>{x, x + 1};
                    })
                    .Collect();
  std::vector<int> expected;
  for (int x : data) {
    int y = x * 3;
    if (y % 2 == 0) {
      expected.push_back(y);
      expected.push_back(y + 1);
    }
  }
  std::sort(result.begin(), result.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result, expected);
}

// --- key-value operations ---------------------------------------------------

TEST(KeyValueTest, LeftOuterJoinKeepsUnmatched) {
  auto ctx = Ctx();
  auto left = Dataset<std::pair<int, std::string>>::FromVector(
      ctx, {{1, "a"}, {2, "b"}});
  auto right =
      Dataset<std::pair<int, int>>::FromVector(ctx, {{2, 20}});
  auto out = LeftOuterJoin(left, right).Collect();
  ASSERT_EQ(out.size(), 2u);
  for (const auto& [k, v] : out) {
    if (k == 1) {
      EXPECT_FALSE(v.second.second);  // unmatched flag
    } else {
      EXPECT_TRUE(v.second.second);
      EXPECT_EQ(v.second.first, 20);
    }
  }
}

TEST(KeyValueTest, LargeShuffleMatchesReference) {
  auto ctx = Ctx(8);
  std::vector<std::pair<int, int>> kvs;
  std::map<int, std::vector<int>> expected;
  for (int i = 0; i < 50000; ++i) {
    int k = (i * 7919) % 997;
    kvs.emplace_back(k, i);
    expected[k].push_back(i);
  }
  auto ds = Dataset<std::pair<int, int>>::FromVector(ctx, kvs, 32);

  // Distinct of the keys: every key exactly once.
  auto keys = ds.Map([](const std::pair<int, int>& kv) { return kv.first; })
                  .Distinct()
                  .Collect();
  std::sort(keys.begin(), keys.end());
  std::vector<int> expected_keys;
  for (const auto& [k, vs] : expected) expected_keys.push_back(k);
  EXPECT_EQ(keys, expected_keys);

  // Left outer join against half of the keys: a matched row carries the
  // right side's value, and an unmatched one keeps its left row.
  std::vector<std::pair<int, int>> right;
  for (int k : expected_keys) {
    if (k % 2 == 0) right.emplace_back(k, -k);
  }
  auto joined =
      LeftOuterJoin(ds, Dataset<std::pair<int, int>>::FromVector(ctx, right, 5))
          .Collect();
  ASSERT_EQ(joined.size(), kvs.size());
  std::map<int, std::vector<int>> left_rows;
  for (const auto& [k, v] : joined) {
    const auto& [left_value, match] = v;
    EXPECT_EQ(match.second, k % 2 == 0) << "key " << k;
    EXPECT_EQ(match.first, k % 2 == 0 ? -k : 0) << "key " << k;
    left_rows[k].push_back(left_value);
  }
  for (auto& [k, vs] : left_rows) std::sort(vs.begin(), vs.end());
  EXPECT_EQ(left_rows, expected);
}

TEST(EngineMetricsTest, CountsTasksAndShuffles) {
  auto ctx = Ctx(4);
  auto ds = Dataset<int>::FromVector(ctx, Range(100), 4)
                .Map([](const int& x) { return x % 5; });
  EXPECT_EQ(ds.Distinct().Count(), 5u);
  EXPECT_GT(ctx->metrics().tasks_launched.load(), 0u);
  EXPECT_EQ(ctx->metrics().shuffle_records.load(), 100u);
  EXPECT_GT(ctx->metrics().stages_run.load(), 0u);
}

}  // namespace
}  // namespace cfnet::dataflow
