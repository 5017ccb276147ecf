#ifndef CFNET_STATS_INFERENCE_H_
#define CFNET_STATS_INFERENCE_H_

#include <cstdint>

namespace cfnet::stats {

/// Inferential statistics used to back the §4 observations quantitatively
/// (the paper reports raw rates; we attach effect sizes and significance).

/// 2x2 chi-square test of independence with Yates continuity correction.
/// counts = {{a, b}, {c, d}} (rows: group, cols: outcome).
struct ChiSquareResult {
  double statistic = 0;
  double p_value = 1;  // df = 1
  /// Odds ratio (a*d)/(b*c), +inf-safe via +0.5 Haldane correction.
  double odds_ratio = 1;
};
ChiSquareResult ChiSquare2x2(int64_t a, int64_t b, int64_t c, int64_t d);

/// Chi-square(df=1) upper tail probability.
double ChiSquarePValueDf1(double statistic);

}  // namespace cfnet::stats

#endif  // CFNET_STATS_INFERENCE_H_
