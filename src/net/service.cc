#include "net/service.h"

#include <cstdlib>

#include "util/rng.h"

namespace cfnet::net {
namespace {

constexpr int64_t kPageSize = 50;

}  // namespace

int64_t ApiRequest::GetIntParam(const std::string& key, int64_t dflt) const {
  auto it = params.find(key);
  if (it == params.end()) return dflt;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

ApiService::ApiService(std::string name, const synth::World* world,
                       ServiceConfig config)
    : name_(std::move(name)),
      world_(world),
      config_(config) {
  if (config_.rate_limit_calls > 0) {
    limiter_ = std::make_unique<SlidingWindowRateLimiter>(
        config_.rate_limit_calls, config_.rate_limit_window_micros);
  }
}

int64_t ApiService::SampleLatency() {
  uint64_t serial = request_serial_.fetch_add(1, std::memory_order_relaxed);
  double u = UnitFromHash(Mix64(serial * 2 + 1));
  double factor = 1.0 - config_.latency_jitter +
                  2.0 * config_.latency_jitter * u;
  return static_cast<int64_t>(
      static_cast<double>(config_.latency_mean_micros) * factor);
}

bool ApiService::ShouldInjectError() {
  if (config_.transient_error_rate <= 0) return false;
  uint64_t serial = request_serial_.load(std::memory_order_relaxed);
  return UnitFromHash(Mix64(serial * 2)) < config_.transient_error_rate;
}

bool ApiService::EndpointRequiresToken(const std::string&) const {
  return config_.requires_token;
}

void ApiService::set_fault_plan(FaultPlan plan) {
  injector_ = plan.empty() ? nullptr : std::make_unique<FaultInjector>(std::move(plan));
}

bool ApiService::PageRange(int64_t total, int64_t page, int64_t* begin,
                           int64_t* end, int64_t* last_page) const {
  *last_page = total == 0 ? 1 : (total + kPageSize - 1) / kPageSize;
  if (page < 1 || page > *last_page) return false;
  *begin = (page - 1) * kPageSize;
  *end = std::min<int64_t>(total, *begin + kPageSize);
  return true;
}

ApiResponse ApiService::Handle(const ApiRequest& request,
                               int64_t* worker_time_micros) {
  stats_.total.fetch_add(1, std::memory_order_relaxed);

  // Scripted-fault decision for this request (identity when no plan).
  FaultDecision fault;
  if (injector_ != nullptr) fault = injector_->Evaluate(*worker_time_micros);
  auto latency = [&]() {
    return static_cast<int64_t>(static_cast<double>(SampleLatency()) *
                                fault.latency_multiplier);
  };

  const bool needs_token = EndpointRequiresToken(request.endpoint);
  if (needs_token && fault.auth_storm) {
    stats_.injected_auth_failures.fetch_add(1, std::memory_order_relaxed);
    stats_.unauthorized.fetch_add(1, std::memory_order_relaxed);
    *worker_time_micros += latency();
    return ApiResponse::Error(401, "access token revoked");
  }
  if (needs_token &&
      !tokens_.IsValid(request.access_token, *worker_time_micros)) {
    stats_.unauthorized.fetch_add(1, std::memory_order_relaxed);
    *worker_time_micros += latency();
    return ApiResponse::Error(401, "invalid or expired access token");
  }

  if (limiter_ != nullptr && needs_token) {
    auto decision = limiter_->Admit(request.access_token, *worker_time_micros);
    if (!decision.admitted) {
      stats_.rate_limited.fetch_add(1, std::memory_order_relaxed);
      // Rejection is cheap (the API answers immediately with a 429).
      ApiResponse limited;
      limited.status = 429;
      limited.body.Set("error", "rate limit exceeded");
      limited.body.Set("retry_at_micros", decision.retry_at_micros);
      return limited;
    }
  }

  *worker_time_micros += latency();

  if (fault.inject_error) {
    stats_.injected_errors.fetch_add(1, std::memory_order_relaxed);
    return ApiResponse::Error(503, "injected fault: service unavailable");
  }

  if (ShouldInjectError()) {
    stats_.transient_errors.fetch_add(1, std::memory_order_relaxed);
    return ApiResponse::Error(503, "service temporarily unavailable");
  }

  ApiResponse resp = Dispatch(request, *worker_time_micros);
  if (resp.status == 200 && fault.malformed_body) {
    stats_.malformed_responses.fetch_add(1, std::memory_order_relaxed);
    ApiResponse broken;
    broken.status = 200;
    broken.malformed = true;
    broken.raw_body = resp.body.Dump();
    broken.raw_body.resize(broken.raw_body.size() / 2);  // truncated mid-doc
    return broken;
  }
  if (resp.status == 200) {
    stats_.ok.fetch_add(1, std::memory_order_relaxed);
  } else if (resp.status == 404) {
    stats_.not_found.fetch_add(1, std::memory_order_relaxed);
  }
  return resp;
}

}  // namespace cfnet::net
