#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/rate_limiter.h"
#include "util/circuit_breaker.h"

namespace cfnet {
namespace {

using net::SlidingWindowRateLimiter;
using util::CircuitBreaker;
using util::CircuitBreakerConfig;

// ---------------------------------------------------------------------------
// Sliding-window edges. The window contract: a call admitted at time t stops
// counting against the budget exactly at t + window — not one microsecond
// earlier.

TEST(RateLimiterTest, WindowRollsOverExactlyAtBoundary) {
  SlidingWindowRateLimiter limiter(/*max_calls=*/3, /*window_micros=*/100);
  EXPECT_TRUE(limiter.Admit("tok", 0).admitted);
  EXPECT_TRUE(limiter.Admit("tok", 10).admitted);
  EXPECT_TRUE(limiter.Admit("tok", 20).admitted);

  // Budget exhausted: the rejection points at when the oldest call expires.
  SlidingWindowRateLimiter::Decision rejected = limiter.Admit("tok", 50);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.retry_at_micros, 100);

  // One tick before the boundary the oldest call still occupies its slot.
  EXPECT_FALSE(limiter.Admit("tok", 99).admitted);
  // Exactly at the boundary it has rolled out of the window.
  EXPECT_TRUE(limiter.Admit("tok", 100).admitted);
  // The two remaining in-window calls (t=10, t=20) plus the new one still
  // saturate the budget until t=110.
  SlidingWindowRateLimiter::Decision again = limiter.Admit("tok", 105);
  EXPECT_FALSE(again.admitted);
  EXPECT_EQ(again.retry_at_micros, 110);
}

TEST(RateLimiterTest, OutOfOrderTimestampsKeepWindowCorrect) {
  SlidingWindowRateLimiter limiter(/*max_calls=*/2, /*window_micros=*/100);
  // Workers with skewed virtual clocks admit out of order.
  EXPECT_TRUE(limiter.Admit("tok", 50).admitted);
  EXPECT_TRUE(limiter.Admit("tok", 40).admitted);
  SlidingWindowRateLimiter::Decision d = limiter.Admit("tok", 60);
  EXPECT_FALSE(d.admitted);
  // The oldest admitted call is t=40 even though it arrived second.
  EXPECT_EQ(d.retry_at_micros, 140);
  EXPECT_TRUE(limiter.Admit("tok", 140).admitted);
}

TEST(RateLimiterTest, TokensAreIndependentShards) {
  SlidingWindowRateLimiter limiter(/*max_calls=*/1, /*window_micros=*/100);
  EXPECT_TRUE(limiter.Admit("a", 0).admitted);
  EXPECT_FALSE(limiter.Admit("a", 10).admitted);
  // Token "b" has its own window — rotation defeats per-token exhaustion.
  EXPECT_TRUE(limiter.Admit("b", 10).admitted);
}

TEST(RateLimiterTest, ConcurrentWorkersNeverExceedBudget) {
  constexpr int kBudget = 16;
  SlidingWindowRateLimiter limiter(kBudget, /*window_micros=*/1'000'000);
  std::atomic<int> admitted{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        if (limiter.Admit("shared", t * 100 + i).admitted) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(admitted.load(), kBudget);
}

// ---------------------------------------------------------------------------
// Circuit breaker: half-open probe admission under contention.

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresOnly) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown_micros = 1000;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0);
  breaker.RecordFailure(1);
  breaker.RecordSuccess();  // resets the consecutive count
  breaker.RecordFailure(2);
  breaker.RecordFailure(3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(4);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.AllowRequest(5));
  EXPECT_EQ(breaker.open_until_micros(), 4 + 1000);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyConfiguredProbesUnderContention) {
  for (int round = 0; round < 20; ++round) {
    CircuitBreakerConfig config;
    config.failure_threshold = 1;
    config.cooldown_micros = 100;
    config.half_open_probes = 2;
    CircuitBreaker breaker(config);
    breaker.RecordFailure(0);
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

    // 16 workers race past the cooldown at once; the half-open gate must
    // admit exactly `half_open_probes` of them, atomically with the
    // open -> half-open transition.
    constexpr int kWorkers = 16;
    std::atomic<int> admitted{0};
    std::atomic<bool> start{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < kWorkers; ++t) {
      workers.emplace_back([&] {
        while (!start.load()) std::this_thread::yield();
        if (breaker.AllowRequest(200)) admitted.fetch_add(1);
      });
    }
    start.store(true);
    for (auto& w : workers) w.join();
    EXPECT_EQ(admitted.load(), 2);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

    // Both probes succeeding closes the breaker; admission is unlimited
    // again.
    breaker.RecordSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
    breaker.RecordSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
    EXPECT_TRUE(breaker.AllowRequest(201));
  }
}

TEST(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_micros = 100;
  config.half_open_probes = 1;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0);
  EXPECT_TRUE(breaker.AllowRequest(150));  // the probe
  breaker.RecordFailure(150);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_FALSE(breaker.AllowRequest(200));
  EXPECT_TRUE(breaker.AllowRequest(250));  // next cooldown elapsed
}

}  // namespace
}  // namespace cfnet
