#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

namespace cfnet {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextUint64InRange) {
  Rng rng(7);
  for (uint64_t n : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextUint64(n), n);
    }
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0;
  double ss = 0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(5.0, 2.0);
    sum += x;
    ss += x * x;
  }
  double mean = sum / n;
  double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(19);
  std::vector<double> xs;
  const int n = 30001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(rng.LogNormal(std::log(652), 1.5));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], 652, 652 * 0.08);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(31);
  for (double mean : {0.5, 4.0, 120.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, RespectsSupportAndMonotoneMass) {
  const double s = GetParam();
  Rng rng(37);
  const int64_t n = 50;
  std::vector<int64_t> counts(n + 1, 0);
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    int64_t k = rng.Zipf(n, s);
    ASSERT_GE(k, 1);
    ASSERT_LE(k, n);
    ++counts[static_cast<size_t>(k)];
  }
  // P(1) should dominate P(10) which dominates P(50) for s > 0.3.
  if (s >= 0.5) {
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[50]);
  }
  // Empirical ratio P(1)/P(2) should be near 2^s.
  if (counts[2] > 500) {
    double ratio = static_cast<double>(counts[1]) / counts[2];
    EXPECT_NEAR(ratio, std::pow(2.0, s), std::pow(2.0, s) * 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.5, 2.0));

TEST(RngTest, ZipfSingleElement) {
  Rng rng(41);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Zipf(1, 1.2), 1);
}

TEST(RngTest, PowerLawBoundsAndTail) {
  Rng rng(43);
  const int n = 40000;
  int64_t max_seen = 0;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.PowerLaw(3, 1000, 2.45);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 1000);
    max_seen = std::max(max_seen, v);
    sum += static_cast<double>(v);
  }
  EXPECT_GT(max_seen, 100);  // heavy tail reaches far
  // Continuous-approximation mean for alpha=2.45 on [3,1000] is ~8.9.
  EXPECT_NEAR(sum / n, 8.9, 1.2);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(47);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(59);
  for (size_t n : {size_t{10}, size_t{100}, size_t{10000}}) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, n / 2, n}) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<size_t> distinct(sample.begin(), sample.end());
      EXPECT_EQ(distinct.size(), k);
      for (size_t x : sample) EXPECT_LT(x, n);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementUniformish) {
  Rng rng(61);
  std::vector<int> hits(20, 0);
  for (int trial = 0; trial < 8000; ++trial) {
    for (size_t x : rng.SampleWithoutReplacement(20, 5)) ++hits[x];
  }
  // Every index should be hit ~2000 times.
  for (int h : hits) EXPECT_NEAR(h, 2000, 250);
}

}  // namespace
}  // namespace cfnet
