#include "stats/stats.h"

#include <algorithm>
#include <cmath>

#include "util/simd.h"

namespace cfnet::stats {

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = (s.n % 2 == 1)
                 ? sorted[s.n / 2]
                 : (sorted[s.n / 2 - 1] + sorted[s.n / 2]) / 2.0;
  double ss = 0;
  simd::MeanVarF64(sorted.data(), sorted.size(), &s.mean, &ss);
  s.stddev = s.n > 1 ? std::sqrt(ss / static_cast<double>(s.n - 1)) : 0.0;
  return s;
}

Ecdf::Ecdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
}

double Ecdf::operator()(double x) const {
  if (samples_.empty()) return 0;
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Ecdf::Quantile(double q) const {
  if (samples_.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  size_t idx = q <= 0 ? 0
                      : static_cast<size_t>(
                            std::ceil(q * static_cast<double>(samples_.size()))) -
                            1;
  idx = std::min(idx, samples_.size() - 1);
  return samples_[idx];
}

std::vector<Ecdf::Point> Ecdf::Curve(size_t max_points) const {
  std::vector<Point> pts;
  const size_t n = samples_.size();
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && samples_[j] == samples_[i]) ++j;
    pts.push_back({samples_[i],
                   static_cast<double>(j) / static_cast<double>(n)});
    i = j;
  }
  if (max_points > 0 && pts.size() > max_points) {
    std::vector<Point> thin;
    thin.reserve(max_points);
    double step = static_cast<double>(pts.size() - 1) /
                  static_cast<double>(max_points - 1);
    for (size_t k = 0; k < max_points; ++k) {
      thin.push_back(pts[static_cast<size_t>(std::llround(k * step))]);
    }
    pts = std::move(thin);
  }
  return pts;
}

double DkwEpsilon(size_t n, double delta) {
  if (n == 0) return 1.0;
  return std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(n)));
}

double SilvermanBandwidth(const std::vector<double>& samples) {
  Summary s = Summarize(samples);
  if (s.n < 2 || s.stddev <= 0) return 1.0;
  return 1.06 * s.stddev * std::pow(static_cast<double>(s.n), -0.2);
}

std::vector<std::pair<double, double>> GaussianKde(
    const std::vector<double>& samples, double lo, double hi,
    size_t grid_points) {
  std::vector<std::pair<double, double>> out;
  if (samples.empty() || grid_points < 2 || hi <= lo) return out;
  const double h = SilvermanBandwidth(samples);
  const double norm =
      1.0 / (static_cast<double>(samples.size()) * h * std::sqrt(2.0 * M_PI));
  out.reserve(grid_points);
  for (size_t g = 0; g < grid_points; ++g) {
    double x = lo + (hi - lo) * static_cast<double>(g) /
                        static_cast<double>(grid_points - 1);
    double density = 0;
    for (double s : samples) {
      double z = (x - s) / h;
      density += std::exp(-0.5 * z * z);
    }
    out.emplace_back(x, density * norm);
  }
  return out;
}

}  // namespace cfnet::stats
