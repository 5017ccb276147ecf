#ifndef CFNET_NET_RATE_LIMITER_H_
#define CFNET_NET_RATE_LIMITER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cfnet::net {

/// Sliding-window per-token rate limiter (Twitter's documented behaviour:
/// 180 calls per 15-minute window per access token).
///
/// Operates in virtual time: callers pass their current simulated time and,
/// when rejected, receive the earliest time at which the token has capacity
/// again — so a crawler worker can either advance its clock (wait) or
/// rotate to a different token, exactly the two strategies §3 describes.
class SlidingWindowRateLimiter {
 public:
  struct Decision {
    bool admitted = false;
    /// When not admitted: earliest virtual time the call would be admitted.
    int64_t retry_at_micros = 0;
  };

  SlidingWindowRateLimiter(int max_calls, int64_t window_micros)
      : max_calls_(max_calls), window_micros_(window_micros) {}

  /// Tries to admit one call for `token` at `now_micros`.
  /// Virtual timestamps may arrive slightly out of order across workers;
  /// the window is evaluated against the passed time.
  Decision Admit(const std::string& token, int64_t now_micros);

  int max_calls() const { return max_calls_; }
  int64_t window_micros() const { return window_micros_; }

 private:
  int max_calls_;
  int64_t window_micros_;
  std::mutex mu_;
  /// Per token: admitted call times, oldest first.
  std::unordered_map<std::string, std::deque<int64_t>> windows_;
};

}  // namespace cfnet::net

#endif  // CFNET_NET_RATE_LIMITER_H_
