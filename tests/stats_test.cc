#include "stats/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cfnet::stats {
namespace {

TEST(SummarizeTest, BasicMoments) {
  Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(SummarizeTest, EvenCountMedianAverages) {
  Summary s = Summarize({1, 2, 3, 10});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(SummarizeTest, EmptyAndSingleton) {
  EXPECT_EQ(Summarize({}).n, 0u);
  Summary s = Summarize({7});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(EcdfTest, StepFunctionValues) {
  Ecdf f({1, 2, 2, 4});
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1), 0.25);
  EXPECT_DOUBLE_EQ(f(2), 0.75);
  EXPECT_DOUBLE_EQ(f(3.9), 0.75);
  EXPECT_DOUBLE_EQ(f(4), 1.0);
  EXPECT_DOUBLE_EQ(f(100), 1.0);
}

TEST(EcdfTest, Quantiles) {
  Ecdf f({10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(f.Quantile(0.5), 30);
  EXPECT_DOUBLE_EQ(f.Quantile(0.2), 10);
  EXPECT_DOUBLE_EQ(f.Quantile(1.0), 50);
  EXPECT_DOUBLE_EQ(f.Quantile(0.0), 10);
}

TEST(EcdfTest, CurveHasDistinctXsEndingAtOne) {
  Ecdf f({1, 1, 2, 3, 3, 3});
  auto curve = f.Curve();
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].x, 1);
  EXPECT_DOUBLE_EQ(curve[0].p, 2.0 / 6);
  EXPECT_DOUBLE_EQ(curve[2].x, 3);
  EXPECT_DOUBLE_EQ(curve[2].p, 1.0);
}

TEST(EcdfTest, CurveThinning) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(i);
  Ecdf f(std::move(xs));
  auto curve = f.Curve(10);
  EXPECT_EQ(curve.size(), 10u);
  EXPECT_DOUBLE_EQ(curve.front().x, 0);
  EXPECT_DOUBLE_EQ(curve.back().x, 999);
  EXPECT_DOUBLE_EQ(curve.back().p, 1.0);
}

TEST(DkwTest, ReproducesPaperBound) {
  // The paper: 800,000 pairs give sup|Fn - F| <= 0.0196 at 99% confidence.
  EXPECT_NEAR(DkwEpsilon(800000, 0.01), 0.00182, 0.0001);
  // (The paper's 0.0196 corresponds to ~6,900 samples at 99%; our harness
  // reports the bound for whatever sample size is used.)
  EXPECT_NEAR(DkwEpsilon(6900, 0.01), 0.0196, 0.0005);
}

TEST(DkwTest, EcdfConvergesWithinBound) {
  // Property: empirical CDF of uniform samples stays within the DKW band
  // around the true CDF (checked at the 99% level with one draw).
  Rng rng(5);
  const size_t n = 20000;
  std::vector<double> xs;
  xs.reserve(n);
  for (size_t i = 0; i < n; ++i) xs.push_back(rng.NextDouble());
  Ecdf f(std::move(xs));
  double eps = DkwEpsilon(n, 0.01);
  double worst = 0;
  for (double x = 0.05; x < 1.0; x += 0.05) {
    worst = std::max(worst, std::fabs(f(x) - x));
  }
  EXPECT_LE(worst, eps * 1.5);  // small slack for grid evaluation
}

TEST(KdeTest, IntegratesToOneAndPeaksAtMode) {
  Rng rng(9);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.Normal(50, 5));
  auto kde = GaussianKde(samples, 0, 100, 201);
  ASSERT_EQ(kde.size(), 201u);
  double dx = kde[1].first - kde[0].first;
  double integral = 0;
  double peak_x = 0;
  double peak_y = -1;
  for (const auto& [x, y] : kde) {
    integral += y * dx;
    if (y > peak_y) {
      peak_y = y;
      peak_x = x;
    }
  }
  EXPECT_NEAR(integral, 1.0, 0.02);
  EXPECT_NEAR(peak_x, 50, 3);
}

TEST(KdeTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(GaussianKde({}, 0, 1, 10).empty());
  EXPECT_TRUE(GaussianKde({1.0}, 1, 1, 10).empty());  // hi == lo
  auto k = GaussianKde({1.0, 1.0, 1.0}, 0, 2, 11);    // zero variance
  EXPECT_EQ(k.size(), 11u);
}

TEST(SilvermanTest, ScalesWithSpread) {
  Rng rng(3);
  std::vector<double> narrow;
  std::vector<double> wide;
  for (int i = 0; i < 1000; ++i) {
    narrow.push_back(rng.Normal(0, 1));
    wide.push_back(rng.Normal(0, 10));
  }
  EXPECT_GT(SilvermanBandwidth(wide), SilvermanBandwidth(narrow) * 5);
}

}  // namespace
}  // namespace cfnet::stats
