#ifndef CFNET_UTIL_RNG_H_
#define CFNET_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cfnet {

/// SplitMix64 finalizer: a fast, statistically strong 64-bit bit mixer.
/// Use for stateless per-index hashes (e.g. the dataflow engine's
/// partition-count-independent sampling decisions). Mix64(0) == 0, so salt
/// the input when zero inputs are possible.
uint64_t Mix64(uint64_t x);

/// Uniform double in [0, 1) from the top 53 bits of a 64-bit hash (the
/// unit draw behind every Mix64-keyed fault, latency and error decision).
inline double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic pseudo-random source (xoshiro256** seeded via SplitMix64)
/// plus the sampling distributions used across the synthetic-world generator
/// and the analyses. Every stochastic component in cfnet draws from an Rng
/// with an explicit seed, so all experiments are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Uniform 64-bit word.
  uint64_t Next();

  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextUint64(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Poisson-distributed count with the given mean (>= 0).
  /// Uses Knuth's method for small means and normal approximation above 64.
  int64_t Poisson(double mean);

  /// Zipf-distributed rank in [1, n] with exponent s >= 0.
  /// Uses rejection-inversion (Hormann & Derflinger) so it is O(1) per draw.
  /// Same as ZipfSampler(n, s).Sample(*this); draw many ranks of one (n, s)
  /// from a ZipfSampler, which sets up its constants once.
  int64_t Zipf(int64_t n, double s);

  /// Discrete power-law sample in [xmin, xmax] with exponent alpha > 1,
  /// P(x) proportional to x^-alpha, via continuous inversion + rounding.
  int64_t PowerLaw(int64_t xmin, int64_t xmax, double alpha);

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Zero/negative weights are treated as zero. Requires some positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextUint64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
};

/// Zipf-distributed ranks in [1, n] with exponent s >= 0 by
/// rejection-inversion (Hormann & Derflinger 1996, as formulated in Apache
/// Commons Math). The constructor computes the three constants of the
/// inversion once per (n, s), so a Sample costs only its own draws and libm
/// calls.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);

  int64_t Sample(Rng& rng) const;

 private:
  double HIntegral(double x) const;
  double H(double x) const;
  double HIntegralInv(double y) const;

  int64_t n_;
  double s_;
  double h_x1_ = 0;     // HIntegral(1.5) - 1
  double h_n_ = 0;      // HIntegral(n + 0.5)
  double s_const_ = 0;  // 2 - HIntegralInv(HIntegral(2.5) - H(2))
};

}  // namespace cfnet

#endif  // CFNET_UTIL_RNG_H_
