#ifndef CFNET_SERVE_SERVICE_H_
#define CFNET_SERVE_SERVICE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "serve/cache.h"
#include "serve/epoch_store.h"
#include "serve/metrics.h"
#include "serve/queries.h"
#include "serve/serving_snapshot.h"
#include "util/circuit_breaker.h"

namespace cfnet::serve {

/// One query against the serving tier. Same request/response shape as
/// `net::ApiService` (endpoint + params, HTTP-ish status + JSON body), but
/// every request additionally carries a deadline — the overload contract is
/// built around it.
struct QueryRequest {
  std::string endpoint;
  std::map<std::string, std::string> params;
  /// Absolute deadline in the service clock domain; 0 = the class default
  /// (relative to submit time) is applied at admission.
  int64_t deadline_micros = 0;

  QueryRequest() = default;
  QueryRequest(std::string ep, std::map<std::string, std::string> p = {})
      : endpoint(std::move(ep)), params(std::move(p)) {}
};

struct QueryResponse {
  /// How the request left the system — exactly one of these per request.
  enum class Outcome {
    kServed,         // executed and completed within the deadline
    kShedQueueFull,  // rejected at admission (bounded queue full)
    kShedDeadline,   // expired in the queue, shed before execution
    kShedShutdown,   // service shutting down
    kTimeout,        // executed, but completed after the deadline
  };

  int status = 200;  // 200/400/404 from the query, 503 shed, 504 timeout
  std::shared_ptr<const json::Json> body;  // never null
  Outcome outcome = Outcome::kServed;
  QueryClass query_class = QueryClass::kSearch;
  bool degraded = false;   // served via the breaker's degraded path
  bool truncated = false;  // degraded limits actually clipped the answer
  bool cache_hit = false;
  uint64_t epoch = 0;      // snapshot epoch the answer was computed against
  int64_t queue_micros = 0;
  int64_t exec_micros = 0;
  int64_t total_micros = 0;

  bool served() const { return outcome == Outcome::kServed; }
};

/// Per-query-class admission policy.
struct ClassPolicy {
  /// Bounded admission queue; submissions beyond this are shed immediately.
  size_t queue_capacity = 512;
  /// Applied when a request carries no explicit deadline.
  int64_t default_deadline_micros = 50'000;
  /// Full executions slower than this count as breaker failures; enough
  /// consecutive ones trip the class into degraded mode.
  int64_t latency_budget_micros = 10'000;
  util::CircuitBreakerConfig breaker{/*failure_threshold=*/8,
                                     /*cooldown_micros=*/250'000,
                                     /*half_open_probes=*/2};
};

struct QueryServiceConfig {
  int worker_threads = 2;
  ClassPolicy search{/*queue_capacity=*/1024,
                     /*default_deadline_micros=*/25'000,
                     /*latency_budget_micros=*/5'000};
  ClassPolicy recommend{/*queue_capacity=*/256,
                        /*default_deadline_micros=*/100'000,
                        /*latency_budget_micros=*/25'000};
  ClassPolicy facet{/*queue_capacity=*/512,
                    /*default_deadline_micros=*/25'000,
                    /*latency_budget_micros=*/5'000};
  /// Service clock; defaults to steady_clock microseconds. Tests install a
  /// manual clock to drive deadlines and breaker cooldowns deterministically.
  std::function<int64_t()> now_fn;
  /// Test hook, invoked on every execution with (class, degraded) before
  /// the query runs — lets tests simulate slow query classes.
  std::function<void(QueryClass, bool)> execution_hook;
};

/// Overload-hardened in-process query service over the published snapshot
/// epochs. The robustness spine:
///
///  * bounded admission queues with deadline-aware shedding — work whose
///    deadline already expired is shed before execution, so a backlog never
///    wastes workers on answers nobody is waiting for;
///  * per-class circuit breakers: a class whose full executions keep
///    blowing their latency budget degrades to a cheaper answer (cached, or
///    truncated top-K marked `degraded`) instead of starving the others;
///  * epoch-pinned reads: each execution pins the current snapshot, so a
///    concurrent hot-swap never tears a response;
///  * an LRU result cache over the newest epoch a query pinned — the first
///    query on a new epoch drops the old epoch's entries.
///
/// Shed / timeout / served / degraded are first-class per-class metrics.
class QueryService {
 public:
  QueryService(EpochStore<ServingSnapshot>* store, QueryServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Blocking call: submits and waits for the response.
  QueryResponse Call(QueryRequest request);

  /// Asynchronous submit. `done` runs inline when the request is shed at
  /// admission, otherwise on a worker thread. Always invoked exactly once.
  void SubmitAsync(QueryRequest request,
                   std::function<void(QueryResponse)> done);

  /// Stops accepting work, sheds everything still queued (Outcome
  /// kShedShutdown) and joins the workers. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  const ClassStats& stats(QueryClass c) const {
    return stats_[static_cast<size_t>(c)];
  }
  const ResultCache& cache() const { return cache_; }
  util::CircuitBreaker& breaker(QueryClass c) {
    return *breakers_[static_cast<size_t>(c)];
  }
  int64_t now_micros() const { return now_(); }

  /// Point-in-time metrics document (per class + cache + epochs).
  json::Json StatsJson() const;

 private:
  struct Pending {
    QueryRequest request;
    QueryClass query_class;
    int64_t submit_micros = 0;
    int64_t deadline_micros = 0;
    std::function<void(QueryResponse)> done;
  };

  static constexpr size_t kNumClasses = 3;

  const ClassPolicy& policy(QueryClass c) const;
  void WorkerLoop();
  void Process(Pending pending);
  QueryResponse MakeShedResponse(const Pending& pending,
                                 QueryResponse::Outcome outcome,
                                 const char* reason) const;

  EpochStore<ServingSnapshot>* store_;
  QueryServiceConfig config_;
  std::function<int64_t()> now_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::array<std::deque<Pending>, kNumClasses> queues_;
  /// Mirror of each queue's size, readable without mu_. Admission sheds
  /// (queue full / deadline unreachable) decide on this and never take the
  /// lock — under overload sheds outnumber admissions several times over,
  /// and keeping them off the mutex keeps the workers fed.
  std::array<std::atomic<size_t>, kNumClasses> queue_depth_{};
  size_t rr_next_ = 0;  // round-robin dequeue cursor across classes
  bool accepting_ = true;
  bool stopping_ = false;

  std::array<std::unique_ptr<util::CircuitBreaker>, kNumClasses> breakers_;
  /// EWMA of the mean gap between dequeues across all workers — the
  /// observed whole-service drain interval, which prices in everything a
  /// queued request actually waits behind (execution, locking, scheduler
  /// stalls), not just query compute. Measured over windows of
  /// kDrainWindow dequeues rather than per-sample: dequeues arrive in
  /// sub-microsecond bursts separated by multi-millisecond stalls, and a
  /// per-sample EWMA would track the burst mode instead of the true rate.
  /// Admission control uses it to predict whether a submission could still
  /// meet its deadline behind the current backlog; 0 = no samples yet.
  static constexpr uint64_t kDrainWindow = 64;
  std::atomic<int64_t> drain_gap_ewma_micros_{0};
  std::atomic<uint64_t> dequeue_seq_{0};
  std::atomic<int64_t> drain_window_start_micros_{0};
  mutable std::array<ClassStats, kNumClasses> stats_;
  ResultCache cache_;
  std::vector<std::thread> workers_;
  bool shut_down_ = false;
};

}  // namespace cfnet::serve

#endif  // CFNET_SERVE_SERVICE_H_
