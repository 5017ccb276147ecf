#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace cfnet {
namespace {

/// Shared state of one RunBulk batch: an atomic index counter that workers
/// and the caller claim from, and a latch signalled when the last claimed
/// index finishes executing.
struct BulkState {
  BulkState(size_t total, std::function<void(size_t)> task)
      : n(total), fn(std::move(task)) {}

  const size_t n;
  const std::function<void(size_t)> fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure, guarded by mu

  /// Claims and runs indices until none remain. Safe to call from any
  /// thread; helpers that arrive after the batch drained exit immediately.
  void Participate() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::RunBulk(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {  // caller-runs fast path: no shared state, no queueing
    fn(0);
    return;
  }
  auto state = std::make_shared<BulkState>(n, fn);
  size_t helpers = std::min(n - 1, workers_.size());
  for (size_t h = 0; h < helpers; ++h) {
    Schedule([state]() { state->Participate(); });
  }
  state->Participate();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&]() {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
  }
  if (state->failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(state->error);
  }
}

size_t ThreadPool::DefaultParallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace cfnet
