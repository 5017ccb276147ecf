#include "crawler/fetch.h"

#include <algorithm>

namespace cfnet::crawler {
namespace {

/// Virtual-time wait before the first retry; each later retry doubles it.
constexpr int64_t kFirstRetryDelayMicros = 500'000;

}  // namespace

net::ApiResponse FetchWithRetry(net::ApiService* service,
                                net::ApiRequest request, TokenPool* tokens,
                                const FetchPolicy& policy,
                                int64_t* worker_time, FetchCounters* counters,
                                CircuitBreaker* breaker) {
  if (tokens != nullptr && !tokens->empty()) {
    request.access_token = tokens->current();
  }
  int attempt = 0;
  size_t rotations_this_window = 0;
  for (;;) {
    if (breaker != nullptr && !breaker->AllowRequest(*worker_time)) {
      // Wait out the cooldown in virtual time and contend for a half-open
      // probe slot; losers of the probe race (and impatient policies) fail
      // fast without touching the service.
      bool admitted = false;
      if (policy.wait_for_breaker_probe) {
        int64_t until = breaker->open_until_micros();
        if (until > *worker_time) {
          *worker_time = until;
          ++counters->breaker_waits;
        }
        admitted = breaker->AllowRequest(*worker_time);
      }
      if (!admitted) {
        ++counters->breaker_fast_fails;
        ++counters->failures;
        return net::ApiResponse::Error(
            503, "circuit breaker open: " + service->name());
      }
    }
    ++counters->requests;
    net::ApiResponse resp = service->Handle(request, worker_time);
    const bool malformed = resp.status == 200 && resp.malformed;
    if (resp.status == 503 || malformed) {
      if (breaker != nullptr) breaker->RecordFailure(*worker_time);
      if (malformed) ++counters->malformed_retries;
      if (attempt >= policy.max_retries) {
        ++counters->failures;
        if (malformed) {
          return net::ApiResponse::Error(502, "malformed response body");
        }
        return resp;
      }
      // Exponential backoff in virtual time.
      *worker_time += kFirstRetryDelayMicros << attempt;
      ++attempt;
      ++counters->retries;
      continue;
    }
    if (resp.status == 429) {
      int64_t retry_at = resp.body.Get("retry_at_micros").AsInt();
      if (tokens != nullptr && tokens->size() > 1 &&
          rotations_this_window + 1 < tokens->size()) {
        tokens->Rotate();
        request.access_token = tokens->current();
        ++rotations_this_window;
        ++counters->token_rotations;
        continue;
      }
      // All tokens exhausted: wait out the window.
      *worker_time = std::max(*worker_time + 1000, retry_at);
      rotations_this_window = 0;
      ++counters->rate_limit_waits;
      continue;
    }
    if (breaker != nullptr) {
      // 401s feed the breaker (token-revocation storms are a service-side
      // incident); 404/400 are healthy answers about unhealthy questions.
      if (resp.status == 401) {
        breaker->RecordFailure(*worker_time);
      } else {
        breaker->RecordSuccess();
      }
    }
    return resp;
  }
}

net::ApiResponse FetchAllPages(
    net::ApiService* service,
    const std::function<net::ApiRequest(int64_t page)>& make_request,
    TokenPool* tokens, const FetchPolicy& policy, int64_t* worker_time,
    FetchCounters* counters,
    const std::function<void(const json::Json& body)>& on_page,
    CircuitBreaker* breaker) {
  int64_t page = 1;
  for (;;) {
    net::ApiResponse resp = FetchWithRetry(service, make_request(page), tokens,
                                           policy, worker_time, counters,
                                           breaker);
    if (!resp.ok()) return resp;
    on_page(resp.body);
    int64_t last_page = resp.body.Get("last_page").AsInt(1);
    if (page >= last_page) return resp;
    ++page;
  }
}

}  // namespace cfnet::crawler
