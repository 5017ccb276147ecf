#include "stats/inference.h"

#include <gtest/gtest.h>

namespace cfnet::stats {
namespace {

TEST(ChiSquareTest, StrongAssociation) {
  // Social presence vs success at paper-like rates:
  // social: 500/5000 funded; none: 40/10000.
  ChiSquareResult r = ChiSquare2x2(500, 4500, 40, 9960);
  EXPECT_GT(r.statistic, 100);
  EXPECT_LT(r.p_value, 1e-10);
  EXPECT_GT(r.odds_ratio, 20);
}

TEST(ChiSquareTest, NoAssociation) {
  ChiSquareResult r = ChiSquare2x2(100, 900, 101, 899);
  EXPECT_LT(r.statistic, 0.2);
  EXPECT_GT(r.p_value, 0.5);
  EXPECT_NEAR(r.odds_ratio, 1.0, 0.1);
}

TEST(ChiSquareTest, KnownPValues) {
  // chi2 df=1 critical values: P(X > 3.841) = 0.05, P(X > 6.635) = 0.01.
  EXPECT_NEAR(ChiSquarePValueDf1(3.841), 0.05, 0.001);
  EXPECT_NEAR(ChiSquarePValueDf1(6.635), 0.01, 0.0005);
  EXPECT_DOUBLE_EQ(ChiSquarePValueDf1(0), 1.0);
}

TEST(ChiSquareTest, DegenerateMargins) {
  ChiSquareResult r = ChiSquare2x2(0, 0, 5, 5);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

}  // namespace
}  // namespace cfnet::stats
