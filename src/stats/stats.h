#ifndef CFNET_STATS_STATS_H_
#define CFNET_STATS_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace cfnet::stats {

/// Basic sample summary.
struct Summary {
  size_t n = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double median = 0;
};

Summary Summarize(const std::vector<double>& samples);

/// Empirical CDF F_n(x) = (#samples <= x) / n.
class Ecdf {
 public:
  /// Takes ownership of the samples (sorted internally).
  explicit Ecdf(std::vector<double> samples);

  /// P(X <= x) under the empirical distribution.
  double operator()(double x) const;

  /// Smallest sample x with F_n(x) >= q, q in (0, 1].
  double Quantile(double q) const;

  size_t n() const { return samples_.size(); }

  /// Step-curve points (x, F(x)) at distinct sample values, optionally
  /// thinned to at most `max_points` (0 = all) for plotting/printing.
  struct Point {
    double x = 0;
    double p = 0;
  };
  std::vector<Point> Curve(size_t max_points = 0) const;

 private:
  std::vector<double> samples_;  // sorted
};

/// Dvoretzky–Kiefer–Wolfowitz bound: with probability >= 1 - delta,
/// sup_x |F_n(x) - F(x)| <= sqrt(ln(2/delta) / (2n)).
/// This is the quantitative form of the Glivenko–Cantelli argument the
/// paper uses for its 800,000-pair estimate (eps = 0.0196 at 99%).
double DkwEpsilon(size_t n, double delta);

/// Silverman's rule-of-thumb bandwidth for Gaussian KDE.
double SilvermanBandwidth(const std::vector<double>& samples);

/// Gaussian kernel density estimate with Silverman's bandwidth, evaluated
/// on a uniform grid over [lo, hi]; returns (x, density) pairs.
std::vector<std::pair<double, double>> GaussianKde(
    const std::vector<double>& samples, double lo, double hi,
    size_t grid_points);

}  // namespace cfnet::stats

#endif  // CFNET_STATS_STATS_H_
