// `serve_fresh`: queries served while new epochs arrive. Set-up crawls the
// fixed world (checkpointing off), holds out a fixed set of investment
// edges in a seeded order and FullBuilds the rest. In the window one
// publisher thread releases batches
// of ~0.1% of the edges on a fixed schedule; each batch goes through
// EpochMaintainer::Advance, AssembleServingSnapshot and EpochStore::Publish.
// One open-loop generator thread sends a pre-generated WorkloadGenerator
// trace at a fixed rate to a 2-worker QueryService; every request is timed
// from its scheduled send time.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/epoch_maintainer.h"
#include "core/investor_graph.h"
#include "graph/bipartite_graph.h"
#include "graph/delta.h"
#include "graph/weighted_graph.h"
#include "serve/epoch_store.h"
#include "serve/load_gen.h"
#include "serve/service.h"
#include "serve/serving_snapshot.h"

namespace cfnet::e2ebench {
namespace {

using serve::QueryClass;
using serve::QueryResponse;
using Edge = std::pair<uint64_t, uint64_t>;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Deadline every request is submitted with, counted from its scheduled send
// time. It lies far beyond any stall the host imposes, so the service never
// sheds or times out a request of the trace, and a failed request is a real
// error. Misses of the class deadlines (25 ms for search and facets, 100 ms
// for recommend) are counted as `deadline_miss_frac` instead.
constexpr int64_t kAdmissionDeadlineUs = 30'000'000;

/// Everything the window needs, built by the set-up.
struct ServeInputs {
  std::unique_ptr<core::ExploratoryPlatform> platform;  // owns the names
  std::vector<Edge> base_edges;
  std::vector<std::vector<graph::EdgeDelta>> batches;
  std::unique_ptr<core::EpochMaintainer> maintainer;
  std::unique_ptr<serve::EpochStore<serve::ServingSnapshot>> store;
  serve::SnapshotBuildOptions build;
  uint64_t base_fingerprint = 0;
  std::vector<serve::QueryRequest> requests;
};

/// One request of the open-loop trace, as observed.
struct RequestSample {
  int64_t sched_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  uint64_t epoch_at_submit = 0;
  uint64_t epoch_at_done = 0;
  uint64_t epoch = 0;
  QueryResponse::Outcome outcome = QueryResponse::Outcome::kServed;
  int status = 0;
  QueryClass query_class = QueryClass::kSearch;
  bool cache_hit = false;
  bool degraded = false;
  bool torn = false;
  int64_t queue_us = 0;
  int64_t exec_us = 0;
  int64_t total_us = 0;
};

/// One published epoch, as observed by the publisher.
struct EpochSample {
  uint64_t epoch = 0;
  uint64_t root_span = 0;
  int64_t hand_ns = 0;       // batch handed to Advance
  int64_t published_ns = 0;  // Publish returned
  double advance_ms = 0;
  double assemble_ms = 0;
  core::EpochBuildReport report;
};

int64_t ClassDeadlineUs(const serve::QueryServiceConfig& config,
                        QueryClass c) {
  switch (c) {
    case QueryClass::kSearch:
      return config.search.default_deadline_micros;
    case QueryClass::kRecommend:
      return config.recommend.default_deadline_micros;
    case QueryClass::kFacet:
      return config.facet.default_deadline_micros;
  }
  return config.search.default_deadline_micros;
}

serve::SnapshotBuildOptions NameResolvers(const synth::World& world) {
  serve::SnapshotBuildOptions build;
  build.investor_name = [&world](uint64_t id) {
    const synth::UserTruth* u = world.FindUser(id);
    return u != nullptr ? u->name : "investor-" + std::to_string(id);
  };
  build.company_name = [&world](uint64_t id) {
    const synth::CompanyTruth* c = world.FindCompany(id);
    return c != nullptr ? c->name : "company-" + std::to_string(id);
  };
  return build;
}

bool SameGraph(const graph::BipartiteGraph& a, const graph::BipartiteGraph& b) {
  if (a.num_left() != b.num_left() || a.num_right() != b.num_right() ||
      a.num_edges() != b.num_edges()) {
    return false;
  }
  for (uint32_t l = 0; l < a.num_left(); ++l) {
    auto na = a.OutNeighbors(l);
    auto nb = b.OutNeighbors(l);
    if (a.LeftId(l) != b.LeftId(l) ||
        !std::equal(na.begin(), na.end(), nb.begin(), nb.end())) {
      return false;
    }
  }
  for (uint32_t r = 0; r < a.num_right(); ++r) {
    auto na = a.InNeighbors(r);
    auto nb = b.InNeighbors(r);
    if (a.RightId(r) != b.RightId(r) ||
        !std::equal(na.begin(), na.end(), nb.begin(), nb.end())) {
      return false;
    }
  }
  return true;
}

/// Bitwise equality of two projections (adjacency, weights, degrees).
bool SameProjection(const graph::WeightedGraph& a,
                    const graph::WeightedGraph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  for (uint32_t v = 0; v < a.num_nodes(); ++v) {
    auto na = a.Neighbors(v);
    auto nb = b.Neighbors(v);
    auto wa = a.Weights(v);
    auto wb = b.Weights(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end()) ||
        !std::equal(wa.begin(), wa.end(), wb.begin(), wb.end(), same_bits) ||
        !same_bits(a.WeightedDegree(v), b.WeightedDegree(v))) {
      return false;
    }
  }
  return same_bits(a.TotalWeight2m(), b.TotalWeight2m());
}

struct Schedule {
  double rate = 0;            // requests per second
  int64_t epoch_interval_ns = 0;
  int64_t window_ns = 0;
  int64_t publish_guard_ns = 0;  // no batch is released this close to the end
};

Schedule MakeSchedule(const Options& options) {
  Schedule s;
  // About a quarter of the closed-loop saturation of this service with the
  // publisher running (13.8-15.7k requests/s on a 4-vCPU x86_64 VM,
  // `e2ebench --workload serve_fresh --saturation`). At half of it,
  // 7,500/s, up to 5% of requests missed their class deadlines whenever the
  // VM's neighbours stalled the service, against under 1% at this rate.
  s.rate = options.smoke ? 500 : 4000;
  s.epoch_interval_ns = options.smoke ? 100'000'000 : 150'000'000;
  s.window_ns = static_cast<int64_t>(options.seconds * 1e9);
  s.publish_guard_ns = options.smoke ? 300'000'000 : 500'000'000;
  return s;
}

std::unique_ptr<ServeInputs> SetUp(const Options& options,
                                   const Schedule& schedule, Tracer& tracer,
                                   WorkloadResult& result) {
  const double scale = options.smoke ? 0.01 : 0.1;
  auto in = std::make_unique<ServeInputs>();
  in->platform = SetUpCrawledWorld(kFixedWorldSeed, scale, tracer, result);
  const uint64_t trace = tracer.NextId();
  auto inputs = LoadInputs(*in->platform, &in->platform->context()->pool(),
                           tracer, trace, 0, nullptr);
  result.Check("setup: snapshots load", inputs.ok());
  if (!inputs.ok()) return in;
  graph::BipartiteGraph g;
  {
    ScopedSpan span(tracer, "dataflow.investor_graph", trace);
    g = core::BuildInvestorGraph(in->platform->context(), inputs.value());
  }
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    for (uint32_t r : g.OutNeighbors(l)) {
      edges.push_back({g.LeftId(l), g.RightId(r)});
    }
  }

  // Hold out one ~0.1% batch per epoch the window can publish. The held-out
  // pool is the same for every seed, so every seed serves the same base
  // graph (with different pools, assembly took 12.5 or 14.5 ms per epoch
  // depending on the seed); the seed orders the pool into batches.
  std::mt19937_64 pool_rng(DeriveSeed(kFixedWorldSeed, /*stream=*/2));
  std::shuffle(edges.begin(), edges.end(), pool_rng);
  const size_t batch = std::max<size_t>(1, edges.size() / 1000);
  const int64_t publishing_ns =
      std::max<int64_t>(0, schedule.window_ns - schedule.publish_guard_ns);
  const size_t planned =
      static_cast<size_t>(publishing_ns / schedule.epoch_interval_ns + 1);
  const size_t num_batches = std::min(planned, edges.size() / 2 / batch);
  std::mt19937_64 rng(DeriveSeed(options.seed, /*stream=*/2));
  std::shuffle(edges.end() - static_cast<std::ptrdiff_t>(num_batches * batch),
               edges.end(), rng);
  for (size_t b = 0; b < num_batches; ++b) {
    std::vector<graph::EdgeDelta> deltas;
    for (size_t i = 0; i < batch; ++i) {
      const Edge& e = edges[edges.size() - 1 - (b * batch + i)];
      deltas.push_back({e.first, e.second, true});
    }
    in->batches.push_back(std::move(deltas));
  }
  edges.resize(edges.size() - num_batches * batch);
  in->base_edges = std::move(edges);

  in->maintainer = std::make_unique<core::EpochMaintainer>();
  in->store = std::make_unique<serve::EpochStore<serve::ServingSnapshot>>();
  in->build = NameResolvers(in->platform->world());
  {
    ScopedSpan span(tracer, "core.full_build", trace);
    in->maintainer->FullBuild(in->base_edges);
  }
  {
    ScopedSpan span(tracer, "serve.assemble", trace);
    const core::EpochArtifacts& a = in->maintainer->artifacts();
    auto snap = serve::AssembleServingSnapshot(1, a.graph, a.projection,
                                               a.community_labels,
                                               a.communities, in->build);
    in->base_fingerprint = snap->content_fingerprint;
    result.Check("setup: base snapshot is epoch 1",
                 in->store->Publish(std::move(snap)) == 1);
  }

  // The query trace: pre-generated so the window only sends.
  serve::WorkloadGenerator gen(*in->store->Acquire(), serve::PersonaMix{});
  std::mt19937_64 qrng(DeriveSeed(options.seed, /*stream=*/3));
  const size_t n = static_cast<size_t>(
      std::ceil(schedule.rate * static_cast<double>(schedule.window_ns) / 1e9));
  in->requests.reserve(n);
  for (size_t i = 0; i < n; ++i) in->requests.push_back(gen.Next(qrng));
  return in;
}

void SleepUntilNs(int64_t t) {
  const int64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// The publisher: releases batch b at t0 + (b + 1) epoch intervals through
/// Advance, AssembleServingSnapshot and Publish as epoch b + 2, storing
/// each epoch's content fingerprint before it becomes visible. Returns
/// whether every publish got the epoch number expected.
bool PublishEpochs(ServeInputs& in, const Schedule& schedule, int64_t t0,
                   Tracer& tracer,
                   std::vector<std::atomic<uint64_t>>& fingerprints,
                   std::vector<EpochSample>& epochs) {
  core::EpochMaintainer& m = *in.maintainer;
  const int64_t last_due = t0 + schedule.window_ns - schedule.publish_guard_ns;
  bool ok = true;
  for (size_t b = 0; b < in.batches.size(); ++b) {
    const int64_t due =
        t0 + static_cast<int64_t>(b + 1) * schedule.epoch_interval_ns;
    if (due > last_due) break;
    SleepUntilNs(due);
    EpochSample e;
    e.epoch = b + 2;
    e.root_span = tracer.NextId();  // also the epoch's trace id
    const uint64_t trace = e.root_span;
    e.hand_ns = NowNs();
    {
      ScopedSpan span(tracer, "core.epoch_advance", trace, e.root_span);
      m.Advance(in.batches[b]);
    }
    const int64_t advanced = NowNs();
    e.advance_ms = MillisBetween(e.hand_ns, advanced);
    e.report = m.last_report();
    std::unique_ptr<const serve::ServingSnapshot> snap;
    {
      ScopedSpan span(tracer, "serve.assemble", trace, e.root_span);
      const core::EpochArtifacts& a = m.artifacts();
      snap = serve::AssembleServingSnapshot(e.epoch, a.graph, a.projection,
                                            a.community_labels, a.communities,
                                            in.build);
    }
    e.assemble_ms = MillisBetween(advanced, NowNs());
    fingerprints[e.epoch].store(snap->content_fingerprint);
    uint64_t published = 0;
    {
      ScopedSpan span(tracer, "serve.publish", trace, e.root_span);
      published = in.store->Publish(std::move(snap));
    }
    e.published_ns = NowNs();
    ok = ok && published == e.epoch;
    epochs.push_back(e);
  }
  return ok;
}

}  // namespace

WorkloadResult RunServeFresh(const Options& options, Tracer& tracer) {
  WorkloadResult result;
  result.blocking_root = "bench.epoch";
  const Schedule schedule = MakeSchedule(options);
  const int setups = options.smoke ? 2 : 3;

  // Set-up, repeated so setup_s is a median; the last one is served.
  std::vector<double> setup_s;
  std::unique_ptr<ServeInputs> in;
  for (int i = 0; i < setups; ++i) {
    in.reset();
    const int64_t t0 = NowNs();
    in = SetUp(options, schedule, tracer, result);
    setup_s.push_back(SecondsBetween(t0, NowNs()));
  }
  if (tracer.enabled()) {
    result.layer["core.compact_ms"] = {
        RecompactMs(*in->platform, tracer, result), "ms"};
  }
  if (in->requests.empty()) return result;

  serve::QueryServiceConfig config;
  config.worker_threads = 2;
  config.now_fn = [] { return NowNs() / 1000; };
  // Queues that hold the whole trace: no request is shed for a full queue.
  for (serve::ClassPolicy* pol :
       {&config.search, &config.recommend, &config.facet}) {
    pol->queue_capacity = std::max(pol->queue_capacity, in->requests.size());
  }
  auto service = std::make_unique<serve::QueryService>(in->store.get(), config);

  // Content fingerprint of every epoch, written by the publisher before the
  // epoch becomes visible and read by the response callbacks.
  std::vector<std::atomic<uint64_t>> fingerprints(in->batches.size() + 2);
  fingerprints[1].store(in->base_fingerprint);

  const size_t n = in->requests.size();
  std::vector<RequestSample> samples(n);
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t completed = 0;  // guarded by done_mu

  const int64_t t0 = NowNs() + 20'000'000;
  const int64_t window_end = t0 + schedule.window_ns;

  std::vector<EpochSample> epochs;
  bool publish_ok = true;
  std::thread publisher([&] {
    publish_ok = PublishEpochs(*in, schedule, t0, tracer, fingerprints, epochs);
  });

  // Open-loop generator: request k is due at t0 + k/rate, whatever the
  // service is doing. A 1 ns timer slack keeps sleeps from overshooting by
  // the default 50 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  size_t issued = 0;
  for (; issued < n; ++issued) {
    const int64_t sched =
        t0 + static_cast<int64_t>(static_cast<double>(issued) * 1e9 /
                                  schedule.rate);
    if (sched >= window_end) break;
    SleepUntilNs(sched);
    serve::QueryRequest req = std::move(in->requests[issued]);
    const QueryClass cls = serve::ClassifyEndpoint(req.endpoint);
    req.deadline_micros = sched / 1000 + kAdmissionDeadlineUs;
    RequestSample& s = samples[issued];
    s.sched_ns = sched;
    s.query_class = cls;
    s.epoch_at_submit = in->store->current_epoch();
    s.submit_ns = NowNs();
    service->SubmitAsync(std::move(req), [&, k = issued](QueryResponse r) {
      RequestSample& out = samples[k];
      out.done_ns = NowNs();
      out.epoch_at_done = in->store->current_epoch();
      out.epoch = r.epoch;
      out.outcome = r.outcome;
      out.status = r.status;
      out.cache_hit = r.cache_hit;
      out.degraded = r.degraded;
      out.queue_us = r.queue_micros;
      out.exec_us = r.exec_micros;
      out.total_us = r.total_micros;
      if (r.status == 200 && r.body) {
        const uint64_t body_epoch =
            static_cast<uint64_t>(r.body->Get("epoch").AsInt());
        const uint64_t body_fp =
            static_cast<uint64_t>(r.body->Get("fingerprint").AsInt());
        out.torn = body_epoch != r.epoch || r.epoch >= fingerprints.size() ||
                   fingerprints[r.epoch].load() != body_fp;
      }
      std::lock_guard<std::mutex> lock(done_mu);
      ++completed;
      done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return completed == issued; });
  }
  publisher.join();
  service->Shutdown();

  // --- requests -------------------------------------------------------------
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<std::vector<double>> queue_ms(3), exec_ms(3);
  int64_t served = 0, failed = 0, shed = 0, degraded = 0, cache_hits = 0;
  int64_t torn = 0, out_of_window = 0, timeouts = 0, errors = 0;
  int64_t deadline_misses = 0;
  std::vector<int64_t> first_visible(epochs.size() + 2, 0);
  std::vector<size_t> first_visible_request(epochs.size() + 2, 0);
  for (size_t k = 0; k < issued; ++k) {
    const RequestSample& s = samples[k];
    late_ms.push_back(MillisBetween(s.sched_ns, s.submit_ns));
    const bool ok = s.outcome == QueryResponse::Outcome::kServed &&
                    s.status == 200;
    latency_ms.push_back(ok ? MillisBetween(s.sched_ns, s.done_ns) : kInf);
    if (!ok) ++failed;
    if (latency_ms.back() * 1e3 >
        static_cast<double>(ClassDeadlineUs(config, s.query_class))) {
      ++deadline_misses;
    }
    if (s.outcome == QueryResponse::Outcome::kTimeout) ++timeouts;
    if (s.outcome == QueryResponse::Outcome::kServed && s.status != 200) {
      ++errors;
    }
    if (s.outcome == QueryResponse::Outcome::kShedQueueFull ||
        s.outcome == QueryResponse::Outcome::kShedDeadline ||
        s.outcome == QueryResponse::Outcome::kShedShutdown) {
      ++shed;
      continue;
    }
    torn += s.torn ? 1 : 0;
    if (s.epoch < s.epoch_at_submit || s.epoch > s.epoch_at_done) {
      ++out_of_window;
    }
    const size_t c = static_cast<size_t>(s.query_class);
    queue_ms[c].push_back(static_cast<double>(s.queue_us) / 1e3);
    exec_ms[c].push_back(static_cast<double>(s.exec_us) / 1e3);
    if (s.outcome != QueryResponse::Outcome::kServed) continue;
    ++served;
    degraded += s.degraded ? 1 : 0;
    cache_hits += s.cache_hit ? 1 : 0;
    if (s.epoch < first_visible.size() &&
        (first_visible[s.epoch] == 0 || s.done_ns < first_visible[s.epoch])) {
      first_visible[s.epoch] = s.done_ns;
      first_visible_request[s.epoch] = k;
    }
  }
  result.attempted = static_cast<int64_t>(issued);
  result.failed = failed;

  // --- epochs ---------------------------------------------------------------
  std::vector<double> freshness_ms, advance_ms, assemble_ms, visible_ms,
      await_ms, first_request_ms;
  std::vector<double> frontier, rows_rebuilt;
  int64_t fallbacks = 0;
  bool all_seen = first_visible[1] != 0;
  for (const EpochSample& e : epochs) {
    const int64_t seen = first_visible[e.epoch];
    all_seen = all_seen && seen != 0;
    advance_ms.push_back(e.advance_ms);
    assemble_ms.push_back(e.assemble_ms);
    frontier.push_back(static_cast<double>(e.report.frontier_size));
    rows_rebuilt.push_back(static_cast<double>(e.report.rows_rebuilt));
    if (!e.report.incremental || e.report.fell_back_full) ++fallbacks;
    if (seen == 0) continue;
    freshness_ms.push_back(MillisBetween(e.hand_ns, seen));
    visible_ms.push_back(MillisBetween(e.published_ns, seen));
    // After publish, the epoch is visible once the first request served on
    // it is dequeued (submit + QueryResponse::queue_micros), processed by
    // the service until it finishes (submit + QueryResponse::total_micros:
    // pinning the snapshot, evicting the previous epoch's cache entries,
    // executing) and answered. A worker can pin the epoch before Publish
    // returns, so that processing may overlap serve.publish. Callback
    // delivery is covered by no span and shows as residual.
    const RequestSample& s = samples[first_visible_request[e.epoch]];
    const int64_t dequeued = s.submit_ns + s.queue_us * 1000;
    const int64_t finished = std::min(seen, s.submit_ns + s.total_us * 1000);
    await_ms.push_back(
        MillisBetween(e.published_ns, std::max(e.published_ns, dequeued)));
    first_request_ms.push_back(MillisBetween(dequeued, finished));
    if (tracer.enabled()) {
      tracer.Record({"bench.epoch", e.root_span, 0, e.root_span, e.hand_ns,
                     seen, 0});
      if (dequeued > e.published_ns) {
        tracer.Record({"serve.await_dequeue", tracer.NextId(), e.root_span,
                       e.root_span, e.published_ns, dequeued, 0});
      }
      // Clipped to start at publish: the blocking path counts the overlap
      // with serve.publish once.
      const int64_t start = std::max(dequeued, e.published_ns);
      tracer.Record({"serve.first_request", tracer.NextId(), e.root_span,
                     e.root_span, start, std::max(start, finished), 0});
    }
  }
  if (tracer.enabled()) {
    // Request spans are rebuilt from the timestamps every run takes, so the
    // traced window itself pays nothing for them.
    for (size_t k = 0; k < issued; ++k) {
      const RequestSample& s = samples[k];
      const uint64_t root = tracer.NextId();
      tracer.Record({"bench.request", root, 0, root, s.sched_ns, s.done_ns, 0});
      tracer.Record({"bench.gen_late", tracer.NextId(), root, root, s.sched_ns,
                     s.submit_ns, 0});
      if (s.queue_us > 0 || s.exec_us > 0) {
        const int64_t dequeued = s.submit_ns + s.queue_us * 1000;
        tracer.Record({"serve.queue", tracer.NextId(), root, root, s.submit_ns,
                       dequeued, 0});
        tracer.Record({"serve.exec", tracer.NextId(), root, root,
                       s.done_ns - s.exec_us * 1000, s.done_ns, 0});
      }
    }
  }

  // --- checks ---------------------------------------------------------------
  result.Check("serve_fresh: no torn responses", torn == 0);
  result.Check("serve_fresh: every published epoch is seen", all_seen);
  result.Check("serve_fresh: epochs only increase",
               publish_ok && out_of_window == 0);
  result.Check("serve_fresh: at least one epoch published", !epochs.empty());
  {
    // After the window: the final epoch must equal a from-scratch build
    // over the base edges plus every published batch.
    std::vector<Edge> all = in->base_edges;
    for (size_t b = 0; b < epochs.size(); ++b) {
      for (const graph::EdgeDelta& d : in->batches[b]) {
        all.push_back({d.left_id, d.right_id});
      }
    }
    const graph::BipartiteGraph truth = graph::BipartiteGraph::FromEdges(all);
    const core::EpochArtifacts& a = in->maintainer->artifacts();
    result.Check(
        "serve_fresh: final graph and projection are bit-identical to "
        "FromEdges + ProjectLeft",
        SameGraph(a.graph, truth) &&
            SameProjection(a.projection,
                           graph::WeightedGraph::ProjectLeft(
                               truth,
                               in->maintainer->config().max_right_degree)));
  }

  const double q50 = Percentile(latency_ms, 50);
  const double q99 = Percentile(latency_ms, 99);
  const double f50 = Percentile(freshness_ms, 50);
  const double f90 = Percentile(freshness_ms, 90);
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  result.end_to_end["freshness_p50_ms"] = {f50, "ms"};
  result.named["query_p50_ms"] = {q50, "ms"};
  result.named["query_p99_ms"] = {q99, "ms"};
  result.named["freshness_p50_ms"] = {f50, "ms"};
  result.named["freshness_p90_ms"] = {f90, "ms"};
  result.named["requests"] = {static_cast<double>(issued), "count"};
  result.named["epochs"] = {static_cast<double>(epochs.size()), "count"};
  result.named["shed"] = {static_cast<double>(shed), "count"};
  result.named["timeouts"] = {static_cast<double>(timeouts), "count"};
  result.named["errors"] = {static_cast<double>(errors), "count"};
  result.named["deadline_miss_frac"] = {
      static_cast<double>(deadline_misses) / static_cast<double>(issued),
      "ratio"};
  result.samples["freshness_ms"] = freshness_ms;
  result.samples["setup_s"] = setup_s;

  static const char* kClass[3] = {"search", "recommend", "facet"};
  for (size_t c = 0; c < 3; ++c) {
    const std::string p = std::string("serve.") + kClass[c];
    result.layer[p + ".queue_p50_ms"] = {Percentile(queue_ms[c], 50), "ms"};
    result.layer[p + ".queue_p99_ms"] = {Percentile(queue_ms[c], 99), "ms"};
    result.layer[p + ".exec_p50_ms"] = {Percentile(exec_ms[c], 50), "ms"};
  }
  const double denom = static_cast<double>(std::max<int64_t>(served, 1));
  result.layer["serve.cache_hit_frac"] = {
      static_cast<double>(cache_hits) / denom, "ratio"};
  result.layer["serve.degraded_frac"] = {static_cast<double>(degraded) / denom,
                                         "ratio"};
  result.layer["serve.deadline_miss_frac"] = {
      static_cast<double>(deadline_misses) / static_cast<double>(issued),
      "ratio"};
  result.layer["serve.assemble_ms"] = {Median(assemble_ms), "ms"};
  result.layer["serve.publish_to_visible_ms"] = {Median(visible_ms), "ms"};
  result.layer["serve.await_dequeue_ms"] = {Median(await_ms), "ms"};
  result.layer["serve.first_request_ms"] = {Median(first_request_ms), "ms"};
  result.layer["core.epoch_advance_ms"] = {Median(advance_ms), "ms"};
  result.layer["core.epoch_frontier"] = {Median(frontier), "count"};
  result.layer["core.epoch_rows_rebuilt"] = {Median(rows_rebuilt), "count"};
  result.layer["core.epoch_fallbacks"] = {static_cast<double>(fallbacks),
                                          "count"};
  result.layer["serve.query_p50_ms"] = {q50, "ms"};
  result.layer["serve.query_p99_ms"] = {q99, "ms"};
  result.layer["bench.gen_late_p99_ms"] = {Percentile(late_ms, 99), "ms"};
  return result;
}

void ProbeSaturation(const Options& options) {
  Tracer off(false);
  WorkloadResult unused;
  const Schedule schedule = MakeSchedule(options);
  const std::unique_ptr<ServeInputs> in =
      SetUp(options, schedule, off, unused);
  serve::WorkloadGenerator gen(*in->store->Acquire(), serve::PersonaMix{});
  serve::QueryServiceConfig config;
  config.worker_threads = 2;
  config.now_fn = [] { return NowNs() / 1000; };
  serve::ClosedLoopConfig closed;
  closed.clients = 4;
  closed.duration_micros = schedule.window_ns / 1000;
  closed.seed = DeriveSeed(options.seed, /*stream=*/3);

  auto report = [](const char* phase, const serve::LoadResult& r) {
    std::printf(
        "saturation %-9s 4 closed-loop clients, 2 workers, %.1f s: %lld "
        "issued, goodput %.0f rps, %.1f%% cache hits, p50 %lld us, p99 %lld "
        "us, %lld shed, %lld timeouts\n",
        phase, static_cast<double>(r.wall_micros) / 1e6,
        static_cast<long long>(r.issued), r.goodput_rps,
        100.0 * static_cast<double>(r.cache_hits) /
            static_cast<double>(std::max<int64_t>(r.served, 1)),
        static_cast<long long>(r.latency_p50_micros),
        static_cast<long long>(r.latency_p99_micros),
        static_cast<long long>(r.shed_queue_full + r.shed_deadline),
        static_cast<long long>(r.timeouts));
  };
  // Quiet: epoch 1 only, so the result cache stays warm.
  {
    serve::QueryService service(in->store.get(), config);
    report("quiet", serve::RunClosedLoop(service, gen, closed));
    service.Shutdown();
  }
  // Churn: the serve_fresh publisher runs beside the clients, so assembly
  // competes for CPU and every epoch empties the cache, as in the window.
  {
    std::vector<std::atomic<uint64_t>> fingerprints(in->batches.size() + 2);
    std::vector<EpochSample> epochs;
    serve::QueryService service(in->store.get(), config);
    std::thread publisher([&] {
      PublishEpochs(*in, schedule, NowNs(), off, fingerprints, epochs);
    });
    report("churn", serve::RunClosedLoop(service, gen, closed));
    publisher.join();
    service.Shutdown();
  }
}

}  // namespace cfnet::e2ebench
