#ifndef CFNET_SERVE_METRICS_H_
#define CFNET_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace cfnet::serve {

/// Lock-free log-bucketed latency histogram (microseconds). Bucket b holds
/// samples in [2^b, 2^(b+1)); percentiles are read from bucket upper edges,
/// so they are conservative (never under-report) within a factor of 2.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(int64_t micros) {
    size_t b = 0;
    uint64_t v = micros <= 0 ? 0 : static_cast<uint64_t>(micros);
    while (v > 1 && b + 1 < kBuckets) {
      v >>= 1;
      ++b;
    }
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_micros_.fetch_add(micros > 0 ? micros : 0, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean_micros() const {
    const int64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(
                        sum_micros_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }

  /// Upper edge of the bucket containing the p-th percentile (p in [0,1]).
  int64_t PercentileMicros(double p) const {
    const int64_t n = count();
    if (n == 0) return 0;
    int64_t rank = static_cast<int64_t>(p * static_cast<double>(n - 1)) + 1;
    for (size_t b = 0; b < kBuckets; ++b) {
      rank -= buckets_[b].load(std::memory_order_relaxed);
      if (rank <= 0) return static_cast<int64_t>(uint64_t{1} << (b + 1)) - 1;
    }
    return static_cast<int64_t>(uint64_t{1} << kBuckets);
  }

 private:
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_micros_{0};
};

/// First-class per-query-class accounting: every request ends in exactly
/// one of served / shed / timeout / failed, with degradations and cache
/// hits as orthogonal markers on served requests.
struct ClassStats {
  std::atomic<int64_t> submitted{0};
  std::atomic<int64_t> served{0};            // completed within deadline
  std::atomic<int64_t> degraded{0};          // served via the degraded path
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> shed_queue_full{0};   // rejected at admission
  std::atomic<int64_t> shed_deadline{0};     // expired before execution
  /// Of shed_deadline: rejected at admission by the predictive check (the
  /// cheap kind) rather than discovered expired at dequeue (the wasteful
  /// kind). The gap between the two is the predictor's miss rate.
  std::atomic<int64_t> shed_predicted{0};
  std::atomic<int64_t> timeouts{0};          // executed but finished late
  std::atomic<int64_t> errors{0};            // 4xx/5xx from the query itself
  LatencyHistogram served_latency;           // submit -> completion, served only
  LatencyHistogram queue_latency;            // submit -> dequeue, executed only
};

}  // namespace cfnet::serve

#endif  // CFNET_SERVE_METRICS_H_
