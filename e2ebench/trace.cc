#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace cfnet::e2ebench {
namespace {

std::string LayerOf(const char* name) {
  std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void Tracer::Record(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span s = span;
  s.tid = tids_.emplace(std::this_thread::get_id(), tids_.size() + 1)
              .first->second;
  spans_.push_back(s);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, uint64_t trace,
                       uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.NextId();
  span_.parent = parent;
  span_.trace = trace;
  span_.start_ns = NowNs();
  open_ = true;
}

void ScopedSpan::End() {
  if (!open_) return;
  open_ = false;
  span_.end_ns = NowNs();
  tracer_.Record(span_);
}

std::map<uint64_t, int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<uint64_t, int64_t> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_start = 0, cur_end = -1;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
          continue;
        }
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
      if (open) covered += cur_end - cur_start;
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> LayerSelfMs(const std::vector<Span>& spans) {
  const auto self = SelfTimesNs(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    out[LayerOf(s.name)] += static_cast<double>(self.at(s.id)) / 1e6;
  }
  return out;
}

void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trace\":%llu}}%s\n",
                 s.name, LayerOf(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  std::fclose(f);
}

void WriteSelfTimeSummary(const std::vector<Span>& spans,
                          const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const auto self = SelfTimesNs(spans);
  struct Row {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> by_name;
  for (const Span& s : spans) {
    Row& r = by_name[s.name];
    ++r.count;
    r.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    r.self_ms += static_cast<double>(self.at(s.id)) / 1e6;
  }
  std::fprintf(f, "{\"spans\":{\n");
  size_t i = 0;
  for (const auto& [name, r] : by_name) {
    std::fprintf(f, "  \"%s\":{\"count\":%lld,\"total_ms\":%.6f,"
                    "\"self_ms\":%.6f}%s\n",
                 name.c_str(), static_cast<long long>(r.count), r.total_ms,
                 r.self_ms, ++i < by_name.size() ? "," : "");
  }
  std::fprintf(f, "},\"layers_self_ms\":{\n");
  const auto layers = LayerSelfMs(spans);
  i = 0;
  for (const auto& [layer, ms] : layers) {
    std::fprintf(f, "  \"%s\":%.6f%s\n", layer.c_str(), ms,
                 ++i < layers.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

}  // namespace cfnet::e2ebench
