#ifndef CFNET_UTIL_THREAD_POOL_H_
#define CFNET_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cfnet {

/// Fixed-size worker pool used by the dataflow engine and the crawler.
///
/// Tasks are arbitrary void() callables; `Submit` additionally returns a
/// future for result/ exception-free completion tracking. `RunBulk` runs an
/// indexed task set through a single shared work-claiming loop. Destruction
/// joins all workers after draining the queue.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Schedule(std::function<void()> task);

  /// Enqueues a task and returns a future completed when it finishes.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    Schedule([task]() { (*task)(); });
    return fut;
  }

  /// Runs fn(0..n-1) and blocks until all complete. One shared state (an
  /// atomic claim counter + a completion latch) serves the whole batch
  /// instead of n queued closures; up to num_threads() helper tasks join in,
  /// and the caller participates in the claim loop too ("caller runs"), so
  /// the batch always makes progress even when invoked from inside a pool
  /// worker with every other worker busy — nested bulk runs cannot deadlock.
  ///
  /// If any fn(i) throws, the first exception is rethrown in the caller
  /// after the batch drains; indices claimed after the failure are skipped.
  void RunBulk(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// A sensible default parallelism: hardware_concurrency clamped to >= 1.
  static size_t DefaultParallelism();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signaled when work arrives / shutdown
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cfnet

#endif  // CFNET_UTIL_THREAD_POOL_H_
