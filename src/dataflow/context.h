#ifndef CFNET_DATAFLOW_CONTEXT_H_
#define CFNET_DATAFLOW_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/thread_pool.h"

namespace cfnet::dataflow {

/// Counters the engine exposes for benchmarking (tasks launched, records
/// moved through shuffles, fused narrow stages and the morsels they ran as).
struct EngineMetrics {
  std::atomic<uint64_t> tasks_launched{0};
  std::atomic<uint64_t> shuffle_records{0};
  std::atomic<uint64_t> stages_run{0};
  /// Narrow operators executed inside fused stages (a Map→Filter→Map chain
  /// contributes 3 here but only 1 to stages_run).
  std::atomic<uint64_t> fused_ops{0};
  /// Morsels dispatched by the morsel-driven stage executor.
  std::atomic<uint64_t> morsels_run{0};
  /// Summed wall time of fused narrow stages, nanoseconds.
  std::atomic<uint64_t> stage_wall_ns{0};

  void Reset() {
    tasks_launched.store(0, std::memory_order_relaxed);
    shuffle_records.store(0, std::memory_order_relaxed);
    stages_run.store(0, std::memory_order_relaxed);
    fused_ops.store(0, std::memory_order_relaxed);
    morsels_run.store(0, std::memory_order_relaxed);
    stage_wall_ns.store(0, std::memory_order_relaxed);
  }
};

/// Execution context for the MiniSpark engine: owns the worker pool and
/// carries engine metrics. Datasets created from the same context share its
/// pool, and get one partition per pool thread unless told otherwise.
class ExecutionContext {
 public:
  /// Partitions larger than this many elements are split into morsels of
  /// this size by the fused-stage executor for dynamic load balancing.
  static constexpr size_t kDefaultMorselSize = 32768;

  /// `parallelism` worker threads.
  explicit ExecutionContext(size_t parallelism = ThreadPool::DefaultParallelism())
      : pool_(parallelism) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  size_t parallelism() const { return pool_.num_threads(); }
  EngineMetrics& metrics() { return metrics_; }
  ThreadPool& pool() { return pool_; }

  size_t morsel_size() const { return morsel_size_; }
  void set_morsel_size(size_t elements) {
    morsel_size_ = elements == 0 ? kDefaultMorselSize : elements;
  }

  /// Runs f(0..n-1) on the pool and blocks until all complete. The caller
  /// participates in executing the batch (ThreadPool::RunBulk), so this is
  /// safe to invoke from inside a pool worker — nested dataset evaluation
  /// cannot deadlock.
  template <typename F>
  void RunParallel(size_t n, F&& f) {
    if (n == 0) return;
    metrics_.stages_run.fetch_add(1, std::memory_order_relaxed);
    metrics_.tasks_launched.fetch_add(n, std::memory_order_relaxed);
    pool_.RunBulk(n, std::forward<F>(f));
  }

 private:
  ThreadPool pool_;
  size_t morsel_size_ = kDefaultMorselSize;
  EngineMetrics metrics_;
};

}  // namespace cfnet::dataflow

#endif  // CFNET_DATAFLOW_CONTEXT_H_
