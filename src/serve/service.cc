#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

namespace cfnet::serve {
namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

json::Json ShedBody(const char* reason) {
  json::Json body = json::Json::MakeObject();
  body.Set("error", json::Json(reason));
  return body;
}

// Shed reasons are a small fixed set; interning their bodies keeps the
// admission path allocation-free — under overload the service sheds far more
// requests than it serves, so a per-shed JSON build would dominate.
constexpr char kReasonShutdown[] = "service shutting down";
constexpr char kReasonQueueFull[] = "admission queue full";
constexpr char kReasonDeadlineExpired[] = "deadline expired";
constexpr char kReasonDeadlineUnreachable[] = "deadline unreachable at admission";

std::shared_ptr<const json::Json> SharedShedBody(const char* reason) {
  static const auto shutdown =
      std::make_shared<const json::Json>(ShedBody(kReasonShutdown));
  static const auto queue_full =
      std::make_shared<const json::Json>(ShedBody(kReasonQueueFull));
  static const auto expired =
      std::make_shared<const json::Json>(ShedBody(kReasonDeadlineExpired));
  static const auto unreachable =
      std::make_shared<const json::Json>(ShedBody(kReasonDeadlineUnreachable));
  if (reason == kReasonQueueFull) return queue_full;
  if (reason == kReasonDeadlineExpired) return expired;
  if (reason == kReasonDeadlineUnreachable) return unreachable;
  if (reason == kReasonShutdown) return shutdown;
  return std::make_shared<const json::Json>(ShedBody(reason));
}

}  // namespace

QueryService::QueryService(EpochStore<ServingSnapshot>* store,
                           QueryServiceConfig config)
    : store_(store),
      config_(std::move(config)),
      now_(config_.now_fn ? config_.now_fn : SteadyNowMicros) {
  breakers_[static_cast<size_t>(QueryClass::kSearch)] =
      std::make_unique<util::CircuitBreaker>(config_.search.breaker);
  breakers_[static_cast<size_t>(QueryClass::kRecommend)] =
      std::make_unique<util::CircuitBreaker>(config_.recommend.breaker);
  breakers_[static_cast<size_t>(QueryClass::kFacet)] =
      std::make_unique<util::CircuitBreaker>(config_.facet.breaker);
  const int threads = config_.worker_threads > 0 ? config_.worker_threads : 1;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

const ClassPolicy& QueryService::policy(QueryClass c) const {
  switch (c) {
    case QueryClass::kSearch:
      return config_.search;
    case QueryClass::kRecommend:
      return config_.recommend;
    case QueryClass::kFacet:
      return config_.facet;
  }
  return config_.search;  // unreachable
}

QueryResponse QueryService::MakeShedResponse(const Pending& pending,
                                             QueryResponse::Outcome outcome,
                                             const char* reason) const {
  QueryResponse resp;
  resp.status = 503;
  resp.outcome = outcome;
  resp.query_class = pending.query_class;
  resp.body = SharedShedBody(reason);
  const int64_t now = now_();
  resp.queue_micros = now - pending.submit_micros;
  resp.total_micros = resp.queue_micros;
  return resp;
}

void QueryService::SubmitAsync(QueryRequest request,
                               std::function<void(QueryResponse)> done) {
  Pending pending;
  pending.query_class = ClassifyEndpoint(request.endpoint);
  pending.submit_micros = now_();
  const ClassPolicy& pol = policy(pending.query_class);
  pending.deadline_micros = request.deadline_micros > 0
                                ? request.deadline_micros
                                : pending.submit_micros +
                                      pol.default_deadline_micros;
  pending.request = std::move(request);
  pending.done = std::move(done);

  ClassStats& cs = stats_[static_cast<size_t>(pending.query_class)];
  cs.submitted.fetch_add(1, std::memory_order_relaxed);

  // Lock-free admission sheds. The depth mirror is approximate (relaxed,
  // racing the workers), which only matters within one request of the
  // boundary; the authoritative capacity check under the lock still bounds
  // the queue. Under overload the sheds far outnumber the admissions, and
  // deciding them without mu_ is what keeps the workers fed.
  const auto ci = static_cast<size_t>(pending.query_class);
  const size_t depth = queue_depth_[ci].load(std::memory_order_relaxed);
  if (depth >= pol.queue_capacity) {
    cs.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
    pending.done(MakeShedResponse(
        pending, QueryResponse::Outcome::kShedQueueFull, kReasonQueueFull));
    return;
  }
  // Predictive deadline check: a submission that would reach the head of
  // its queue only after its deadline is shed now instead of rotting in the
  // backlog (bufferbloat). Round-robin gives each backlogged class one
  // dequeue per rotation, so this class drains one item per
  // (active classes x drain gap); over-shedding only keeps the queue
  // shallow, which is exactly the point.
  const int64_t gap = drain_gap_ewma_micros_.load(std::memory_order_relaxed);
  if (gap > 0) {
    int64_t active = 1;
    for (size_t k = 0; k < kNumClasses; ++k) {
      if (k != ci && queue_depth_[k].load(std::memory_order_relaxed) > 0) {
        ++active;
      }
    }
    const int64_t wait = static_cast<int64_t>(depth + 1) * active * gap;
    if (pending.submit_micros + wait > pending.deadline_micros) {
      cs.shed_deadline.fetch_add(1, std::memory_order_relaxed);
      cs.shed_predicted.fetch_add(1, std::memory_order_relaxed);
      pending.done(MakeShedResponse(pending,
                                    QueryResponse::Outcome::kShedDeadline,
                                    kReasonDeadlineUnreachable));
      return;
    }
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!accepting_) {
      lock.unlock();
      pending.done(MakeShedResponse(
          pending, QueryResponse::Outcome::kShedShutdown, kReasonShutdown));
      return;
    }
    auto& queue = queues_[ci];
    if (queue.size() >= pol.queue_capacity) {
      lock.unlock();
      cs.shed_queue_full.fetch_add(1, std::memory_order_relaxed);
      pending.done(MakeShedResponse(
          pending, QueryResponse::Outcome::kShedQueueFull, kReasonQueueFull));
      return;
    }
    queue.push_back(std::move(pending));
    queue_depth_[ci].store(queue.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

QueryResponse QueryService::Call(QueryRequest request) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  SubmitAsync(std::move(request), [&promise](QueryResponse resp) {
    promise.set_value(std::move(resp));
  });
  return future.get();
}

void QueryService::WorkerLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        if (stopping_) return true;
        for (const auto& q : queues_) {
          if (!q.empty()) return true;
        }
        return false;
      });
      bool found = false;
      for (size_t probe = 0; probe < kNumClasses; ++probe) {
        const size_t ci = (rr_next_ + probe) % kNumClasses;
        auto& queue = queues_[ci];
        if (!queue.empty()) {
          rr_next_ = (ci + 1) % kNumClasses;
          pending = std::move(queue.front());
          queue.pop_front();
          queue_depth_[ci].store(queue.size(), std::memory_order_relaxed);
          found = true;
          break;
        }
      }
      if (!found) {
        if (stopping_) return;
        continue;
      }
    }
    Process(std::move(pending));
  }
}

void QueryService::Process(Pending pending) {
  ClassStats& cs = stats_[static_cast<size_t>(pending.query_class)];
  const int64_t dequeue = now_();
  const int64_t queue_micros = dequeue - pending.submit_micros;

  // Feed the admission predictor: every dequeue — including ones that end
  // in a deadline shed — consumes a worker slot, so the mean gap between
  // dequeues over the last window is the service's real per-item drain
  // cost. Per-window means are clamped so an idle stretch cannot poison
  // the estimate for long; the unfenced read-modify-write between workers
  // is fine for an EWMA.
  if ((dequeue_seq_.fetch_add(1, std::memory_order_relaxed) + 1) %
          kDrainWindow ==
      0) {
    const int64_t prev = drain_window_start_micros_.exchange(
        dequeue, std::memory_order_relaxed);
    if (prev > 0 && dequeue > prev) {
      const int64_t sample = std::min<int64_t>(
          (dequeue - prev) / static_cast<int64_t>(kDrainWindow), 100'000);
      const int64_t ewma =
          drain_gap_ewma_micros_.load(std::memory_order_relaxed);
      drain_gap_ewma_micros_.store(
          ewma == 0 ? sample : (7 * ewma + sample) / 8,
          std::memory_order_relaxed);
    }
  }

  // Deadline-aware shedding: expired queued work is dropped before it can
  // occupy a worker — under overload this is what keeps the backlog from
  // turning every answer into wasted effort.
  if (dequeue >= pending.deadline_micros) {
    cs.shed_deadline.fetch_add(1, std::memory_order_relaxed);
    pending.done(MakeShedResponse(pending,
                                  QueryResponse::Outcome::kShedDeadline,
                                  kReasonDeadlineExpired));
    return;
  }
  cs.queue_latency.Record(queue_micros);

  QueryResponse resp;
  resp.query_class = pending.query_class;
  resp.queue_micros = queue_micros;

  auto pin = store_->Acquire();
  if (!pin) {
    cs.errors.fetch_add(1, std::memory_order_relaxed);
    resp.status = 503;
    resp.outcome = QueryResponse::Outcome::kServed;  // answered, just empty
    resp.body =
        std::make_shared<const json::Json>(ShedBody("no snapshot published"));
    const int64_t finish = now_();
    resp.total_micros = finish - pending.submit_micros;
    if (finish > pending.deadline_micros) {
      resp.outcome = QueryResponse::Outcome::kTimeout;
      resp.status = 504;
      cs.timeouts.fetch_add(1, std::memory_order_relaxed);
    } else {
      cs.served.fetch_add(1, std::memory_order_relaxed);
      cs.served_latency.Record(resp.total_micros);
    }
    pending.done(std::move(resp));
    return;
  }
  resp.epoch = pin.epoch();

  const uint64_t fingerprint =
      FingerprintQuery(pending.request.endpoint, pending.request.params);
  std::shared_ptr<const json::Json> cached =
      cache_.Lookup(fingerprint, pin.epoch());
  const int64_t exec_start = now_();
  if (cached) {
    resp.status = 200;
    resp.body = std::move(cached);
    resp.cache_hit = true;
    cs.cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    util::CircuitBreaker& breaker =
        *breakers_[static_cast<size_t>(pending.query_class)];
    const bool full = breaker.AllowRequest(exec_start);
    if (config_.execution_hook) {
      config_.execution_hook(pending.query_class, !full);
    }
    QueryOutcome outcome = ExecuteQuery(*pin, pending.request.endpoint,
                                        pending.request.params,
                                        full ? QueryLimits{} : DegradedLimits());
    const int64_t exec_end = now_();
    resp.exec_micros = exec_end - exec_start;
    resp.status = outcome.status;
    resp.truncated = outcome.truncated;
    resp.degraded = !full;
    if (!full) outcome.body.Set("degraded", json::Json(true));
    resp.body =
        std::make_shared<const json::Json>(std::move(outcome.body));
    if (full) {
      const ClassPolicy& pol = policy(pending.query_class);
      if (resp.exec_micros > pol.latency_budget_micros) {
        breaker.RecordFailure(exec_end);
      } else {
        breaker.RecordSuccess();
      }
      if (outcome.status == 200 && !outcome.truncated) {
        cache_.Insert(fingerprint, pin.epoch(), resp.body);
      }
    }
  }

  const int64_t finish = now_();
  resp.total_micros = finish - pending.submit_micros;
  if (resp.status >= 400) {
    cs.errors.fetch_add(1, std::memory_order_relaxed);
  }
  if (finish > pending.deadline_micros) {
    // Executed but finished late: a timeout, not a served request. This is
    // what makes "p99 of served responses is within deadline" structural.
    resp.outcome = QueryResponse::Outcome::kTimeout;
    resp.status = 504;
    cs.timeouts.fetch_add(1, std::memory_order_relaxed);
  } else {
    resp.outcome = QueryResponse::Outcome::kServed;
    cs.served.fetch_add(1, std::memory_order_relaxed);
    if (resp.degraded) cs.degraded.fetch_add(1, std::memory_order_relaxed);
    cs.served_latency.Record(resp.total_micros);
  }
  pending.done(std::move(resp));
}

void QueryService::Shutdown() {
  std::vector<Pending> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    shut_down_ = true;
    accepting_ = false;
    stopping_ = true;
    for (size_t ci = 0; ci < kNumClasses; ++ci) {
      for (auto& pending : queues_[ci]) {
        drained.push_back(std::move(pending));
      }
      queues_[ci].clear();
      queue_depth_[ci].store(0, std::memory_order_relaxed);
    }
  }
  cv_.notify_all();
  for (auto& pending : drained) {
    pending.done(MakeShedResponse(
        pending, QueryResponse::Outcome::kShedShutdown, kReasonShutdown));
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

json::Json QueryService::StatsJson() const {
  json::Json doc = json::Json::MakeObject();
  json::Json classes = json::Json::MakeObject();
  for (size_t i = 0; i < kNumClasses; ++i) {
    const ClassStats& cs = stats_[i];
    json::Json c = json::Json::MakeObject();
    c.Set("submitted", json::Json(cs.submitted.load()));
    c.Set("served", json::Json(cs.served.load()));
    c.Set("degraded", json::Json(cs.degraded.load()));
    c.Set("cache_hits", json::Json(cs.cache_hits.load()));
    c.Set("shed_queue_full", json::Json(cs.shed_queue_full.load()));
    c.Set("shed_deadline", json::Json(cs.shed_deadline.load()));
    c.Set("shed_predicted", json::Json(cs.shed_predicted.load()));
    c.Set("timeouts", json::Json(cs.timeouts.load()));
    c.Set("errors", json::Json(cs.errors.load()));
    c.Set("latency_p50_micros",
          json::Json(cs.served_latency.PercentileMicros(0.50)));
    c.Set("latency_p99_micros",
          json::Json(cs.served_latency.PercentileMicros(0.99)));
    c.Set("latency_mean_micros", json::Json(cs.served_latency.mean_micros()));
    c.Set("queue_p99_micros",
          json::Json(cs.queue_latency.PercentileMicros(0.99)));
    classes.Set(QueryClassName(static_cast<QueryClass>(i)), std::move(c));
  }
  doc.Set("classes", std::move(classes));
  doc.Set("drain_gap_ewma_micros",
          json::Json(drain_gap_ewma_micros_.load(std::memory_order_relaxed)));

  json::Json cache = json::Json::MakeObject();
  const ResultCache::Stats& cstats = cache_.stats();
  cache.Set("size", json::Json(static_cast<int64_t>(cache_.size())));
  cache.Set("hits", json::Json(cstats.hits.load()));
  cache.Set("misses", json::Json(cstats.misses.load()));
  cache.Set("inserts", json::Json(cstats.inserts.load()));
  cache.Set("lru_evictions", json::Json(cstats.lru_evictions.load()));
  cache.Set("epoch_evictions", json::Json(cstats.epoch_evictions.load()));
  doc.Set("cache", std::move(cache));

  json::Json epochs = json::Json::MakeObject();
  epochs.Set("current", json::Json(static_cast<int64_t>(store_->current_epoch())));
  epochs.Set("published", json::Json(static_cast<int64_t>(store_->published())));
  epochs.Set("retired", json::Json(static_cast<int64_t>(store_->retired())));
  epochs.Set("live", json::Json(static_cast<int64_t>(store_->live_epochs())));
  doc.Set("epochs", std::move(epochs));
  return doc;
}

}  // namespace cfnet::serve
