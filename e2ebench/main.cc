// cfnet end-to-end benchmark program.
//
//   e2ebench --workload collect|analyze|serve_fresh --seed N --seconds S
//            --trace 0|1 [--smoke]
//   e2ebench --workload serve_fresh --seed N --seconds S --saturation
//
// --trace 0 runs the workload once with tracing off and reports every
// end-to-end metric. --trace 1 then runs it again with spans on and reports
// the per-layer metrics, the tracing overhead (traced minus untraced value
// of each end-to-end metric) and the decomposition of the headline latency.
// --saturation prints the closed-loop saturation of the serve_fresh service
// instead, the figure its open-loop rate is set from.
// Human-readable lines come first; the last line of stdout is one JSON
// object {correct, attempted, failed, metrics}. Results, the seed and the
// machine block go to .bench_out/<workload>-seed<N>-trace<T>.json, and the
// traced run's spans to .bench_out/<...>.trace.json (Chrome trace events)
// and .bench_out/<...>.self.json (per-layer self time).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "bench/bench_util.h"
#include "json/json.h"

namespace cfnet::e2ebench {
namespace {

/// The end-to-end metrics, in BENCHMARK.json order. The p90 of freshness is
/// printed as a named line only: over ten seeds on a shared 4-vCPU VM its
/// spread reached 0.45 of the median on `serve_fresh`, beyond any bound.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb",
                                 "freshness_p50_ms"};

struct LayerMetric {
  const char* name;
  const char* unit;
  /// Span whose median duration gives the value, when the workload does not
  /// report the metric itself ("" = reported by the workload only).
  const char* span;
};

/// The per-layer metrics, in BENCHMARK.json order. A metric of a layer the
/// workload does not run reads 0.
const LayerMetric kLayers[] = {
    {"synth.generate_ms", "ms", "synth.generate"},
    {"crawler.requests", "count", ""},
    {"crawler.retries", "count", ""},
    {"crawler.rate_limit_waits", "count", ""},
    {"crawler.checkpoint_writes", "count", ""},
    {"crawler.checkpoint_ms", "ms", ""},
    {"crawler.sim_makespan_min", "min", ""},
    {"dfs.mutation_ops", "count", ""},
    {"dfs.read_ops", "count", ""},
    {"dfs.stored_mb", "MiB", ""},
    {"core.compact_ms", "ms", ""},
    {"dfs.load_ms", "ms", "dfs.load"},
    {"dfs.columnar_blocks", "count", ""},
    {"dfs.bytes_scanned", "bytes", ""},
    {"dataflow.investor_graph_ms", "ms", "dataflow.investor_graph"},
    {"graph.filter_min_degree_ms", "ms", "graph.filter_min_degree"},
    {"dataflow.fig6_ms", "ms", "dataflow.fig6"},
    {"community.coda_ms", "ms", "community.coda"},
    {"community.coda_iterations", "count", ""},
    {"core.dataset_stats_ms", "ms", "core.dataset_stats"},
    {"core.fig3_ms", "ms", "core.fig3"},
    {"core.fig4_ms", "ms", "core.fig4"},
    {"core.fig5_ms", "ms", "core.fig5"},
    {"viz.fig7_ms", "ms", "viz.fig7"},
    {"core.epoch_advance_ms", "ms", ""},
    {"core.epoch_frontier", "count", ""},
    {"core.epoch_rows_rebuilt", "count", ""},
    {"core.epoch_fallbacks", "count", ""},
    {"serve.assemble_ms", "ms", ""},
    {"serve.publish_to_visible_ms", "ms", ""},
    {"serve.await_dequeue_ms", "ms", ""},
    {"serve.first_request_ms", "ms", ""},
    {"serve.search.queue_p50_ms", "ms", ""},
    {"serve.search.queue_p99_ms", "ms", ""},
    {"serve.search.exec_p50_ms", "ms", ""},
    {"serve.recommend.queue_p50_ms", "ms", ""},
    {"serve.recommend.queue_p99_ms", "ms", ""},
    {"serve.recommend.exec_p50_ms", "ms", ""},
    {"serve.facet.queue_p50_ms", "ms", ""},
    {"serve.facet.queue_p99_ms", "ms", ""},
    {"serve.facet.exec_p50_ms", "ms", ""},
    {"serve.query_p50_ms", "ms", ""},
    {"serve.query_p99_ms", "ms", ""},
    {"serve.cache_hit_frac", "ratio", ""},
    {"serve.deadline_miss_frac", "ratio", ""},
    {"serve.degraded_frac", "ratio", ""},
    {"bench.gen_late_p99_ms", "ms", ""},
    {"trace.covered_frac", "ratio", ""},
    {"trace.residual_ms", "ms", ""},
};

/// Share of the headline latency the decomposition must account for.
constexpr double kMinCovered = 0.95;

/// A latency that never completed reads as this many ms (JSON has no inf).
constexpr double kNeverMs = 1e9;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "collect|analyze|serve_fresh --seed N --seconds S --trace 0|1 "
               "[--smoke] [--saturation]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = next() == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--saturation") {
      o.saturation = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (o.workload != "collect" && o.workload != "analyze" &&
      o.workload != "serve_fresh") {
    Usage(("unknown workload " + o.workload).c_str());
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  if (o.saturation && o.workload != "serve_fresh") {
    Usage("--saturation needs --workload serve_fresh");
  }
  return o;
}

WorkloadResult Run(const Options& o, Tracer& tracer) {
  if (o.workload == "collect") return RunCollect(o, tracer);
  if (o.workload == "analyze") return RunAnalyze(o, tracer);
  return RunServeFresh(o, tracer);
}

double Finite(double v) { return std::isfinite(v) ? v : kNeverMs; }

/// Copies the end-to-end metrics a workload reported into `out`; a workload
/// that stopped early (its set-up failed) leaves some unset, which read 0
/// here and make the run incorrect.
bool AllEndToEnd(const WorkloadResult& r, std::map<std::string, Value>& out) {
  bool all = true;
  for (const char* name : kEndToEnd) {
    auto it = r.end_to_end.find(name);
    all = all && it != r.end_to_end.end();
    out[name] = it != r.end_to_end.end() ? it->second : Value{0, ""};
  }
  return all;
}

/// Median duration (ms) of every span with this name; 0 when none.
double MedianSpanMs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      ms.push_back(MillisBetween(s.start_ns, s.end_ns));
    }
  }
  return Median(ms);
}

/// How much of the headline traces' wall time their layer spans account for
/// (the rest is benchmark glue between calls).
struct Decomposition {
  size_t roots = 0;
  double root_ms = 0;
  double layer_ms = 0;
  double covered() const { return root_ms > 0 ? layer_ms / root_ms : 0; }
  double residual_ms_per_root() const {
    return roots > 0 ? (root_ms - layer_ms) / static_cast<double>(roots)
                     : 0;
  }
};

/// The layer spans under a root cover its wall time less the root's own
/// self time. Taking it from the root counts time once where a layer span
/// overlaps another or outlasts the root: a query can make an epoch visible
/// while Publish is still reclaiming old snapshots.
Decomposition Decompose(const std::vector<Span>& spans,
                        const std::string& root_name) {
  const auto self = SelfTimesNs(spans);
  Decomposition d;
  for (const Span& s : spans) {
    if (root_name != s.name) continue;
    const int64_t ns = s.end_ns - s.start_ns;
    ++d.roots;
    d.root_ms += static_cast<double>(ns) / 1e6;
    d.layer_ms += static_cast<double>(ns - self.at(s.id)) / 1e6;
  }
  return d;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintValues(const char* kind, const std::map<std::string, Value>& m) {
  for (const auto& [name, v] : m) {
    std::printf("%-8s %-34s %14.6f %s\n", kind, name.c_str(), v.value,
                v.unit.c_str());
  }
}

json::Json ToJson(const std::map<std::string, Value>& m) {
  json::Json doc = json::Json::MakeObject();
  for (const auto& [name, v] : m) {
    json::Json entry = json::Json::MakeObject();
    entry.Set("value", Finite(v.value));
    entry.Set("unit", v.unit);
    doc.Set(name, std::move(entry));
  }
  return doc;
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  if (o.saturation) {
    ProbeSaturation(o);
    return 0;
  }
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  std::fflush(stdout);

  Tracer off(false);
  WorkloadResult untraced = Run(o, off);
  std::map<std::string, Value> end_to_end;  // measured with tracing off
  std::map<std::string, Value> layers;      // from the traced run
  std::map<std::string, bool> checks = untraced.checks;
  int64_t attempted = untraced.attempted;
  int64_t failed = untraced.failed;
  checks["every end-to-end metric is measured"] =
      AllEndToEnd(untraced, end_to_end);
  std::map<std::string, Value> named = untraced.named;
  named["failed_frac"] = {
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 0,
      "ratio"};

  const std::string stem = ".bench_out/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0");
  std::filesystem::create_directories(".bench_out");

  if (o.trace) {
    Tracer on(true);
    WorkloadResult traced = Run(o, on);
    for (const auto& [what, ok] : traced.checks) {
      checks["traced: " + what] = ok;
    }
    attempted += traced.attempted;
    failed += traced.failed;
    const std::vector<Span> spans = on.Collect();
    const Decomposition d = Decompose(spans, traced.blocking_root);
    checks["traced: layer spans cover >= 95% of the headline latency"] =
        d.covered() >= kMinCovered;
    traced.layer["trace.covered_frac"] = {d.covered(), "ratio"};
    traced.layer["trace.residual_ms"] = {d.residual_ms_per_root(), "ms"};

    for (const LayerMetric& m : kLayers) {
      auto it = traced.layer.find(m.name);
      if (it != traced.layer.end()) {
        layers[m.name] = it->second;
      } else {
        layers[m.name] = {m.span[0] ? MedianSpanMs(spans, m.span) : 0, m.unit};
      }
    }
    std::map<std::string, Value> traced_end_to_end;
    checks["traced: every end-to-end metric is measured"] =
        AllEndToEnd(traced, traced_end_to_end);
    for (const char* name : kEndToEnd) {
      const Value& t = traced_end_to_end[name];
      const Value& u = end_to_end[name];
      layers[std::string("trace.overhead.") + name] = {
          Finite(t.value) - Finite(u.value), u.unit};
    }
    std::printf("decomposition: %zu %s traces, %.3f ms each; layer spans "
                "cover %.2f%%, residual %.3f ms per trace\n",
                d.roots, traced.blocking_root.c_str(),
                d.roots ? d.root_ms / static_cast<double>(d.roots) : 0,
                100 * d.covered(), d.residual_ms_per_root());
    WriteChromeTrace(spans, stem + ".trace.json");
    WriteSelfTimeSummary(spans, stem + ".self.json");
    std::printf("spans: %zu written to %s.trace.json and %s.self.json\n",
                spans.size(), stem.c_str(), stem.c_str());
  }

  bool correct = !checks.empty();
  for (const auto& [what, ok] : checks) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    correct = correct && ok;
  }
  PrintValues("e2e", end_to_end);
  PrintValues("named", named);
  PrintValues("layer", layers);
  const std::map<std::string, Value>& metrics = o.trace ? layers : end_to_end;

  json::Json doc = json::Json::MakeObject();
  doc.Set("workload", o.workload);
  doc.Set("seed", static_cast<int64_t>(o.seed));
  doc.Set("seconds", o.seconds);
  doc.Set("trace", static_cast<int64_t>(o.trace ? 1 : 0));
  doc.Set("smoke", o.smoke);
  doc.Set("machine", bench::MachineInfoJson());
  doc.Set("correct", correct);
  doc.Set("attempted", attempted);
  doc.Set("failed", failed);
  json::Json check_doc = json::Json::MakeObject();
  for (const auto& [what, ok] : checks) check_doc.Set(what, ok);
  doc.Set("checks", std::move(check_doc));
  doc.Set("end_to_end", ToJson(end_to_end));
  doc.Set("named", ToJson(named));
  doc.Set("per_layer", ToJson(layers));
  json::Json sample_doc = json::Json::MakeObject();
  for (const auto& [name, values] : untraced.samples) {
    json::Json arr = json::Json::MakeArray();
    for (double v : values) arr.Append(Finite(v));
    sample_doc.Set(name, std::move(arr));
  }
  doc.Set("samples", std::move(sample_doc));
  std::ofstream(stem + ".json") << doc.Dump(2) << "\n";

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + Fmt(Finite(v.value)) +
            ", \"unit\": \"" + v.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace cfnet::e2ebench

int main(int argc, char** argv) { return cfnet::e2ebench::Main(argc, argv); }
