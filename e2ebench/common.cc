#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.h"

namespace cfnet::e2ebench {

uint64_t DeriveSeed(uint64_t workload_seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream): nearby workload seeds give
  // unrelated worlds, and each input of a run gets its own stream.
  uint64_t z = workload_seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double MillisBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0 || std::isinf(samples[hi])) {
    return frac == 0 ? samples[lo] : samples[hi];
  }
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

}  // namespace cfnet::e2ebench
