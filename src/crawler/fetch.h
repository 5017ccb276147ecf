#ifndef CFNET_CRAWLER_FETCH_H_
#define CFNET_CRAWLER_FETCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "net/service.h"
#include "util/circuit_breaker.h"
#include "util/result.h"

namespace cfnet::crawler {

/// Retry policy for one crawler worker. A transient failure waits
/// `500'000 << attempt` microseconds of virtual time before the next try; a
/// 429 rotates through the token pool and, once every token is exhausted,
/// advances the worker clock to the earliest retry time (waiting out the
/// window).
struct FetchPolicy {
  int max_retries = 4;
  /// When the circuit breaker is open: wait out the cooldown (advancing the
  /// worker clock) and contend for a half-open probe slot. Workers that
  /// lose the probe race — or policies that disable waiting — fail fast
  /// without touching the service.
  bool wait_for_breaker_probe = true;
};

/// A worker's set of access tokens for one service, with rotation state —
/// the paper's "distribute the crawling job to several machines, using
/// different access tokens".
class TokenPool {
 public:
  TokenPool() = default;
  explicit TokenPool(std::vector<std::string> tokens, size_t start = 0)
      : tokens_(std::move(tokens)),
        current_(tokens_.empty() ? 0 : start % tokens_.size()) {}

  bool empty() const { return tokens_.empty(); }
  size_t size() const { return tokens_.size(); }
  /// Empty pools yield the empty token (services answer it with a 401)
  /// instead of indexing out of bounds.
  const std::string& current() const {
    static const std::string* no_token = new std::string;
    return tokens_.empty() ? *no_token : tokens_[current_];
  }
  void Rotate() {
    if (!tokens_.empty()) current_ = (current_ + 1) % tokens_.size();
  }

 private:
  std::vector<std::string> tokens_;
  size_t current_ = 0;
};

/// Per-worker fetch counters.
struct FetchCounters {
  int64_t requests = 0;
  int64_t retries = 0;
  int64_t rate_limit_waits = 0;
  int64_t token_rotations = 0;
  int64_t failures = 0;
  int64_t malformed_retries = 0;    // truncated-body responses retried
  int64_t breaker_fast_fails = 0;   // requests short-circuited while open
  int64_t breaker_waits = 0;        // cooldowns waited out before a probe

  FetchCounters& operator+=(const FetchCounters& o) {
    requests += o.requests;
    retries += o.retries;
    rate_limit_waits += o.rate_limit_waits;
    token_rotations += o.token_rotations;
    failures += o.failures;
    malformed_retries += o.malformed_retries;
    breaker_fast_fails += o.breaker_fast_fails;
    breaker_waits += o.breaker_waits;
    return *this;
  }

  bool operator==(const FetchCounters&) const = default;
};

/// The per-service circuit breaker shared by all crawler workers now lives
/// in util/circuit_breaker.h (the serving tier reuses it for per-query-class
/// admission control); these aliases keep every crawler call site unchanged.
/// Crawler semantics are unchanged: closed -> open after `failure_threshold`
/// consecutive failures, open -> half-open once the virtual-time cooldown
/// elapses, half-open -> closed after `half_open_probes` successful probes.
/// While open, FetchWithRetry fails fast without touching the service.
using CircuitBreakerConfig = util::CircuitBreakerConfig;
using CircuitBreaker = util::CircuitBreaker;

/// Issues `request` against `service`, handling transient 503s and
/// malformed 200 bodies (retry with exponential backoff in virtual time)
/// and 429s (token rotation, then waiting). Advances `*worker_time`
/// accordingly. Non-retryable statuses (404, 401, 400) are returned to the
/// caller as-is; a malformed body that survives every retry comes back as a
/// 502. With a `breaker`, a request arriving while it is open waits out the
/// cooldown and contends for a half-open probe (policy permitting); losers
/// fail fast (503). Every attempt outcome feeds the breaker state machine.
net::ApiResponse FetchWithRetry(net::ApiService* service,
                                net::ApiRequest request, TokenPool* tokens,
                                const FetchPolicy& policy,
                                int64_t* worker_time, FetchCounters* counters,
                                CircuitBreaker* breaker = nullptr);

/// Fetches every page of a paginated endpoint (pages are 1-based; the
/// response carries "last_page") and invokes `on_page` for each 200 body.
/// Stops and returns the first non-retryable error.
///
/// `make_request` receives the page number and returns the request.
net::ApiResponse FetchAllPages(
    net::ApiService* service,
    const std::function<net::ApiRequest(int64_t page)>& make_request,
    TokenPool* tokens, const FetchPolicy& policy, int64_t* worker_time,
    FetchCounters* counters,
    const std::function<void(const json::Json& body)>& on_page,
    CircuitBreaker* breaker = nullptr);

}  // namespace cfnet::crawler

#endif  // CFNET_CRAWLER_FETCH_H_
