#ifndef CFNET_E2EBENCH_TRACE_H_
#define CFNET_E2EBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run. Spans are taken
// in the benchmark's own code around each call into a cfnet layer; nothing
// inside src/ is instrumented. Spans stay in memory until the run ends,
// then are written once as Chrome trace-event JSON and once as a flat
// per-layer self-time summary.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cfnet::e2ebench {

/// Monotonic nanoseconds (steady_clock), the time base of every span.
int64_t NowNs();

struct Span {
  const char* name = "";  // "<layer>.<operation>", a string literal
  uint64_t id = 0;        // unique per span, never 0
  uint64_t parent = 0;    // id of the enclosing span, 0 for a root
  uint64_t trace = 0;     // shared by all spans of one pass/epoch/request
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;       // recording thread, for the Chrome view
};

/// Collects spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per boundary. Only the publisher and the
/// main thread record, a few spans per epoch or pass, so one lock suffices.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// A fresh span id (also usable as a trace id).
  uint64_t NextId();
  /// Records a finished span, stamping the recording thread. Thread-safe.
  void Record(const Span& span);
  /// Every recorded span, in recording order.
  std::vector<Span> Collect() const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;  // guards spans_ and tids_
  std::vector<Span> spans_;
  std::map<std::thread::id, uint32_t> tids_;
};

/// RAII span: starts on construction, records on destruction (or End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t trace,
             uint64_t parent = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void End();

 private:
  Tracer& tracer_;
  Span span_;
  bool open_ = false;
};

/// Self time of one span: its duration minus the union of the intervals
/// its direct children cover (clipped to the span).
std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Total self time per layer (the part of a span name before the first
/// '.'), in milliseconds.
std::map<std::string, double> LayerSelfMs(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events; args carry id/parent/trace).
void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

/// Flat summary: per span name its count, total and self milliseconds, and
/// per layer its self milliseconds.
void WriteSelfTimeSummary(const std::vector<Span>& spans,
                          const std::string& path);

}  // namespace cfnet::e2ebench

#endif  // CFNET_E2EBENCH_TRACE_H_
