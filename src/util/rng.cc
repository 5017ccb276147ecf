#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace cfnet {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  return Mix64(x);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& w : s_) w = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(NextUint64(span));
}

double Rng::NextDouble() {
  return UnitFromHash(Next());
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; uses one of the pair per call for statelessness.
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

int64_t Rng::Poisson(double mean) {
  assert(mean >= 0);
  if (mean == 0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for the
    // synthetic generator's large-mean activity counts.
    double x = Normal(mean, std::sqrt(mean));
    return std::max<int64_t>(0, static_cast<int64_t>(std::lround(x)));
  }
  double l = std::exp(-mean);
  int64_t k = 0;
  double prod = NextDouble();
  while (prod > l) {
    ++k;
    prod *= NextDouble();
  }
  return k;
}

int64_t Rng::Zipf(int64_t n, double s) { return ZipfSampler(n, s).Sample(*this); }

int64_t Rng::PowerLaw(int64_t xmin, int64_t xmax, double alpha) {
  assert(xmin >= 1 && xmax >= xmin && alpha > 1.0);
  // Continuous inverse-CDF on [xmin, xmax+1) then floor.
  double a = 1.0 - alpha;
  double lo = std::pow(static_cast<double>(xmin), a);
  double hi = std::pow(static_cast<double>(xmax) + 1.0, a);
  double u = NextDouble();
  double x = std::pow(lo + u * (hi - lo), 1.0 / a);
  int64_t k = static_cast<int64_t>(std::floor(x));
  return std::clamp(k, xmin, xmax);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += std::max(0.0, w);
  assert(total > 0);
  double target = NextDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += std::max(0.0, weights[i]);
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  std::vector<size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 >= n) {
    // Dense case: partial Fisher-Yates over the full index range.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(NextUint64(n - i));
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
    return out;
  }
  // Sparse case: rejection with a hash set.
  std::unordered_set<size_t> seen;
  seen.reserve(k * 2);
  while (out.size() < k) {
    size_t x = static_cast<size_t>(NextUint64(n));
    if (seen.insert(x).second) out.push_back(x);
  }
  return out;
}

ZipfSampler::ZipfSampler(int64_t n, double s) : n_(n), s_(s) {
  if (n <= 1 || s < 1e-9) return;  // Sample needs no constants
  h_x1_ = HIntegral(1.5) - 1.0;
  h_n_ = HIntegral(static_cast<double>(n) + 0.5);
  s_const_ = 2.0 - HIntegralInv(HIntegral(2.5) - H(2.0));
}

double ZipfSampler::HIntegral(double x) const {
  double log_x = std::log(x);
  if (std::fabs(s_ - 1.0) < 1e-12) return log_x;
  return std::expm1((1.0 - s_) * log_x) / (1.0 - s_);
}

double ZipfSampler::H(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::HIntegralInv(double y) const {
  if (std::fabs(s_ - 1.0) < 1e-12) return std::exp(y);
  double t = y * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // guard against rounding below the pole
  return std::exp(std::log1p(t) / (1.0 - s_));
}

int64_t ZipfSampler::Sample(Rng& rng) const {
  assert(n_ >= 1);
  if (n_ == 1) return 1;
  if (s_ < 1e-9) return rng.UniformInt(1, n_);
  const double nd = static_cast<double>(n_);
  for (;;) {
    double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    double x = HIntegralInv(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > nd) kd = nd;
    if (kd - x <= s_const_ || u >= HIntegral(kd + 0.5) - H(kd)) {
      return static_cast<int64_t>(kd);
    }
  }
}

}  // namespace cfnet
