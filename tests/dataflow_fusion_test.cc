// Tests for fused narrow-stage execution and the morsel-driven scheduler:
// fused chains must be observationally identical to op-by-op execution,
// run as a single engine stage, and stay deadlock-free when actions are
// invoked from inside pool workers.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataflow/dataset.h"
#include "util/thread_pool.h"

namespace cfnet::dataflow {
namespace {

std::shared_ptr<ExecutionContext> Ctx(size_t threads = 4) {
  return std::make_shared<ExecutionContext>(threads);
}

std::vector<int64_t> Range64(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(FusionTest, MapFilterMapChainMatchesReference) {
  auto ctx = Ctx();
  auto out = Dataset<int64_t>::FromVector(ctx, Range64(10000), 7)
                 .Map([](const int64_t& x) { return x * 3 + 1; })
                 .Filter([](const int64_t& x) { return x % 2 == 0; })
                 .Map([](const int64_t& x) { return x / 2; })
                 .Collect();
  std::vector<int64_t> expect;
  for (int64_t x = 0; x < 10000; ++x) {
    int64_t y = x * 3 + 1;
    if (y % 2 == 0) expect.push_back(y / 2);
  }
  EXPECT_EQ(out, expect);  // fused stage preserves source order
}

TEST(FusionTest, TypeChangingChainMatchesReference) {
  auto ctx = Ctx();
  auto out = Dataset<int64_t>::FromVector(ctx, Range64(500), 3)
                 .Map([](const int64_t& x) { return std::to_string(x); })
                 .Filter([](const std::string& s) { return s.size() == 2; })
                 .Map([](const std::string& s) { return s + "!"; })
                 .Collect();
  ASSERT_EQ(out.size(), 90u);  // 10..99
  EXPECT_EQ(out.front(), "10!");
  EXPECT_EQ(out.back(), "99!");
}

TEST(FusionTest, FlatMapIntoFilterMatchesReference) {
  auto ctx = Ctx();
  auto out = Dataset<int64_t>::FromVector(ctx, Range64(300), 5)
                 .FlatMap([](const int64_t& x) {
                   return std::vector<int64_t>{x, -x};
                 })
                 .Filter([](const int64_t& x) { return x > 0; })
                 .Map([](const int64_t& x) { return x * 10; })
                 .Collect();
  std::vector<int64_t> expect;
  for (int64_t x = 1; x < 300; ++x) expect.push_back(x * 10);
  EXPECT_EQ(out, expect);
}

TEST(FusionTest, ThreeOpChainRunsAsSingleStage) {
  auto ctx = Ctx();
  auto ds = Dataset<int64_t>::FromVector(ctx, Range64(50000), 4)
                .Map([](const int64_t& x) { return x + 1; })
                .Filter([](const int64_t& x) { return x % 3 != 0; })
                .Map([](const int64_t& x) { return x * 2; });
  ctx->metrics().Reset();
  EXPECT_GT(ds.Count(), 0u);
  // The whole narrow chain is one fused stage (Count adds no stage of its
  // own on an already-materialized dataset).
  EXPECT_EQ(ctx->metrics().stages_run.load(), 1u);
  EXPECT_EQ(ctx->metrics().fused_ops.load(), 3u);
  EXPECT_GE(ctx->metrics().morsels_run.load(), 1u);
  EXPECT_GT(ctx->metrics().stage_wall_ns.load(), 0u);
}

TEST(FusionTest, MorselSplittingPreservesOrderOnSkewedPartitions) {
  // One giant partition plus tiny ones, morsels far smaller than the big
  // partition: reassembly must restore source order exactly.
  auto ctx = Ctx(4);
  ctx->set_morsel_size(64);
  auto out = Dataset<int64_t>::FromVector(ctx, Range64(10000), 1)
                 .Union(Dataset<int64_t>::FromVector(ctx, {-1, -2, -3}, 3))
                 .Map([](const int64_t& x) { return x; })
                 .Filter([](const int64_t& x) { return x != -2; })
                 .Collect();
  std::vector<int64_t> expect = Range64(10000);
  expect.push_back(-1);
  expect.push_back(-3);
  EXPECT_EQ(out, expect);
  // The skewed partition really was split into many morsels.
  ctx->metrics().Reset();
  auto ds2 = Dataset<int64_t>::FromVector(ctx, Range64(10000), 1)
                 .Map([](const int64_t& x) { return x; });
  ds2.Count();
  EXPECT_GT(ctx->metrics().morsels_run.load(), 100u);
}

TEST(FusionTest, BranchedChainRecomputesSparkStyle) {
  auto ctx = Ctx();
  std::atomic<int> evals{0};
  auto mapped = Dataset<int64_t>::FromVector(ctx, Range64(100), 2)
                    .Map([&evals](const int64_t& x) {
                      evals.fetch_add(1, std::memory_order_relaxed);
                      return x * 2;
                    });
  mapped.Count();
  mapped.Count();  // memoized: the same impl does not recompute
  EXPECT_EQ(evals.load(), 100);
  // ...but a new downstream chain built *before* materialization re-runs the
  // narrow pipeline from the source (documented Spark-style semantics).
  std::atomic<int> evals2{0};
  auto mapped2 = Dataset<int64_t>::FromVector(ctx, Range64(100), 2)
                     .Map([&evals2](const int64_t& x) {
                       evals2.fetch_add(1, std::memory_order_relaxed);
                       return x;
                     });
  auto c1 = mapped2.Filter([](const int64_t& x) { return x % 2 == 0; }).Count();
  auto c2 = mapped2.Filter([](const int64_t& x) { return x % 2 != 0; }).Count();
  EXPECT_EQ(c1 + c2, 100u);
  EXPECT_EQ(evals2.load(), 200);
}

TEST(FusionTest, NestedActionInsidePoolWorkerDoesNotDeadlock) {
  // Evaluating a dataset from inside another dataset's task used to require
  // "call only from outside the pool"; caller-runs bulk execution makes it
  // safe even on a single-worker pool where no other thread can help.
  auto ctx = Ctx(1);
  auto inner_src = Dataset<int64_t>::FromVector(ctx, Range64(100), 2);
  auto out = Dataset<int64_t>::FromVector(ctx, Range64(8), 4)
                 .Map([inner_src](const int64_t& x) {
                   auto inner = inner_src
                                    .Filter([x](const int64_t& y) {
                                      return y % 8 == x;
                                    })
                                    .Count();
                   return x * 1000 + static_cast<int64_t>(inner);
                 })
                 .Collect();
  ASSERT_EQ(out.size(), 8u);
  for (int64_t x = 0; x < 8; ++x) {
    int64_t expect_count = 100 / 8 + (x < 100 % 8 ? 1 : 0);
    EXPECT_EQ(out[static_cast<size_t>(x)], x * 1000 + expect_count);
  }
}

TEST(FusionTest, RunBulkPropagatesFirstException) {
  cfnet::ThreadPool pool(2);
  EXPECT_THROW(
      pool.RunBulk(16,
                   [](size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Pool stays usable after a failed bulk.
  std::atomic<size_t> ran{0};
  pool.RunBulk(8, [&ran](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8u);
}

TEST(FusionTest, EmptyPartitionsAndEmptyChainOutput) {
  auto ctx = Ctx();
  // More partitions than elements: some partitions are empty.
  auto out = Dataset<int64_t>::FromVector(ctx, Range64(3), 8)
                 .Map([](const int64_t& x) { return x + 1; })
                 .Filter([](const int64_t& x) { return x < 0; })
                 .Collect();
  EXPECT_TRUE(out.empty());
  auto none = Dataset<int64_t>::FromVector(ctx, {}, 4)
                  .Map([](const int64_t& x) { return x; })
                  .Count();
  EXPECT_EQ(none, 0u);
}

}  // namespace
}  // namespace cfnet::dataflow
