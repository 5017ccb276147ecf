#include "net/fault_plan.h"

#include "util/rng.h"

namespace cfnet::net {

bool FaultInjector::Hit(const std::vector<FaultWindow>& windows, int64_t now,
                        uint64_t category) {
  for (const FaultWindow& w : windows) {
    if (!w.Contains(now)) continue;
    if (w.rate >= 1.0) return true;
    if (w.rate <= 0.0) continue;
    uint64_t serial = draw_serial_.fetch_add(1, std::memory_order_relaxed);
    double u = UnitFromHash(Mix64(plan_.seed * 0x9e3779b97f4a7c15ull +
                                  category * 0x2545f4914f6cdd1dull + serial));
    if (u < w.rate) return true;
  }
  return false;
}

FaultDecision FaultInjector::Evaluate(int64_t now_micros) {
  FaultDecision d;
  d.inject_error = Hit(plan_.error_bursts, now_micros, 1);
  d.auth_storm = Hit(plan_.auth_storms, now_micros, 2);
  d.malformed_body = Hit(plan_.malformed_bodies, now_micros, 3);
  for (const LatencySpike& s : plan_.latency_spikes) {
    if (s.Contains(now_micros)) d.latency_multiplier *= s.multiplier;
  }
  return d;
}

}  // namespace cfnet::net
