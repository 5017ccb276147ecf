#include "net/rate_limiter.h"

#include <algorithm>

namespace cfnet::net {

SlidingWindowRateLimiter::Decision SlidingWindowRateLimiter::Admit(
    const std::string& token, int64_t now_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<int64_t>& timestamps = windows_[token];
  // Evict timestamps older than the window.
  while (!timestamps.empty() &&
         timestamps.front() <= now_micros - window_micros_) {
    timestamps.pop_front();
  }
  if (static_cast<int>(timestamps.size()) < max_calls_) {
    // Keep the deque sorted even when virtual times arrive out of order.
    if (!timestamps.empty() && now_micros < timestamps.back()) {
      auto pos =
          std::lower_bound(timestamps.begin(), timestamps.end(), now_micros);
      timestamps.insert(pos, now_micros);
    } else {
      timestamps.push_back(now_micros);
    }
    return Decision{true, 0};
  }
  return Decision{false, timestamps.front() + window_micros_};
}

}  // namespace cfnet::net
