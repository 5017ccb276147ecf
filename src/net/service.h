#ifndef CFNET_NET_SERVICE_H_
#define CFNET_NET_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <utility>
#include <memory>
#include <string>

#include "json/json.h"
#include "net/fault_plan.h"
#include "net/rate_limiter.h"
#include "net/tokens.h"
#include "synth/world.h"

namespace cfnet::net {

/// One API call against a simulated service.
struct ApiRequest {
  std::string endpoint;  // e.g. "startups.get"
  std::map<std::string, std::string> params;
  std::string access_token;

  ApiRequest() = default;
  ApiRequest(std::string ep, std::map<std::string, std::string> p = {},
             std::string token = {})
      : endpoint(std::move(ep)),
        params(std::move(p)),
        access_token(std::move(token)) {}

  std::string GetParam(const std::string& key, const std::string& dflt = "") const {
    auto it = params.find(key);
    return it == params.end() ? dflt : it->second;
  }
  int64_t GetIntParam(const std::string& key, int64_t dflt = 0) const;
};

/// HTTP-ish response: 200 with a JSON body, or an error status code.
struct ApiResponse {
  int status = 200;  // 200, 400, 401, 404, 429, 503
  json::Json body;
  /// True when the 200 body failed to parse client-side (truncated JSON from
  /// a fault window); `raw_body` carries the broken text, `body` is null.
  /// Callers must treat a malformed 200 as a retryable transport error.
  bool malformed = false;
  std::string raw_body;

  bool ok() const { return status == 200 && !malformed; }

  static ApiResponse Ok(json::Json body) {
    ApiResponse r;
    r.body = std::move(body);
    return r;
  }
  static ApiResponse Error(int status, const std::string& message) {
    ApiResponse r;
    r.status = status;
    r.body.Set("error", message);
    return r;
  }
};

/// Per-service behaviour knobs.
struct ServiceConfig {
  int64_t latency_mean_micros = 100000;  // mean per-request latency (100 ms)
  double latency_jitter = 0.3;           // uniform +-30%
  double transient_error_rate = 0.004;   // 503 rate (crawler retries these)
  bool requires_token = false;
  int rate_limit_calls = 0;  // 0 = unlimited
  int64_t rate_limit_window_micros = 0;
};

/// Aggregate request counters.
struct ServiceStats {
  std::atomic<int64_t> total{0};
  std::atomic<int64_t> transient_errors{0};
  std::atomic<int64_t> not_found{0};
  // Scripted fault-plan injections (zero unless a FaultPlan is installed).
  std::atomic<int64_t> injected_errors{0};
  std::atomic<int64_t> injected_auth_failures{0};
  std::atomic<int64_t> malformed_responses{0};
};

/// Base class for the four simulated Web APIs. Handles the cross-cutting
/// behaviour — token validation, sliding-window rate limiting, latency
/// accounting in virtual time, transient-error injection — and delegates
/// endpoint semantics to `Dispatch`.
///
/// Virtual-time model: each crawler worker carries its own clock; `Handle`
/// advances it by the request latency. On a 429 the response body carries
/// `retry_at_micros`, and the worker chooses between advancing its clock
/// (waiting) and rotating tokens — the two strategies from §3.
class ApiService {
 public:
  ApiService(std::string name, const synth::World* world, ServiceConfig config);
  virtual ~ApiService() = default;

  ApiService(const ApiService&) = delete;
  ApiService& operator=(const ApiService&) = delete;

  /// Thread-safe entry point. `worker_time_micros` is advanced by the
  /// simulated request latency (even for error responses).
  ApiResponse Handle(const ApiRequest& request, int64_t* worker_time_micros);

  const std::string& name() const { return name_; }
  const ServiceStats& stats() const { return stats_; }
  TokenRegistry& tokens() { return tokens_; }
  const ServiceConfig& config() const { return config_; }

  /// Installs (or, with an empty plan, clears) a scripted fault scenario.
  /// Not synchronized against in-flight requests — install between crawls.
  void set_fault_plan(FaultPlan plan);
  bool has_fault_plan() const { return injector_ != nullptr; }

 protected:
  /// Endpoint semantics; `now_micros` is the worker's virtual time after
  /// latency. Runs concurrently from many workers — implementations must
  /// only read the (immutable) world or use their own synchronization.
  virtual ApiResponse Dispatch(const ApiRequest& request, int64_t now_micros) = 0;

  /// Endpoints that must work without a token (e.g. OAuth bootstrap).
  virtual bool EndpointRequiresToken(const std::string& endpoint) const;

  const synth::World& world() const { return *world_; }

  /// Paginates `total` items, 50 per page: computes [begin, end) for `page`
  /// (1-based) and the last page number. Returns false for out-of-range
  /// pages.
  bool PageRange(int64_t total, int64_t page, int64_t* begin, int64_t* end,
                 int64_t* last_page) const;

 private:
  int64_t SampleLatency();
  bool ShouldInjectError();

  std::string name_;
  const synth::World* world_;
  ServiceConfig config_;
  ServiceStats stats_;
  TokenRegistry tokens_;
  std::unique_ptr<SlidingWindowRateLimiter> limiter_;
  std::unique_ptr<FaultInjector> injector_;
  std::atomic<uint64_t> request_serial_{0};
};

}  // namespace cfnet::net

#endif  // CFNET_NET_SERVICE_H_
