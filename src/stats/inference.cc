#include "stats/inference.h"

#include <algorithm>
#include <cmath>

namespace cfnet::stats {

double ChiSquarePValueDf1(double statistic) {
  if (statistic <= 0) return 1.0;
  // For df=1, chi2 upper tail = erfc(sqrt(x/2)).
  return std::erfc(std::sqrt(statistic / 2.0));
}

ChiSquareResult ChiSquare2x2(int64_t a, int64_t b, int64_t c, int64_t d) {
  ChiSquareResult result;
  const double n = static_cast<double>(a + b + c + d);
  if (n <= 0) return result;
  const double row1 = static_cast<double>(a + b);
  const double row2 = static_cast<double>(c + d);
  const double col1 = static_cast<double>(a + c);
  const double col2 = static_cast<double>(b + d);
  if (row1 <= 0 || row2 <= 0 || col1 <= 0 || col2 <= 0) return result;
  // Yates-corrected statistic.
  double det = std::fabs(static_cast<double>(a) * static_cast<double>(d) -
                         static_cast<double>(b) * static_cast<double>(c));
  double corrected = std::max(0.0, det - n / 2.0);
  result.statistic = n * corrected * corrected / (row1 * row2 * col1 * col2);
  result.p_value = ChiSquarePValueDf1(result.statistic);
  result.odds_ratio =
      ((static_cast<double>(a) + 0.5) * (static_cast<double>(d) + 0.5)) /
      ((static_cast<double>(b) + 0.5) * (static_cast<double>(c) + 0.5));
  return result;
}

}  // namespace cfnet::stats
