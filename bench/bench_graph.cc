// Parallel graph-analytics engine benchmark: co-investment projection,
// §5.3 shared-investment metrics, Brandes betweenness, CoDA and incremental
// Louvain maintenance on a synthetic heavy-tailed investor graph sized like
// the paper's AngelList snapshot (≈47k investors / 60k companies / 158k
// investments at --scale=1.0).
//
// Four comparisons are recorded:
//   * thread scaling — the ParallelOptions kernels at 1/2/4/8 threads
//     against 1 thread; each thread count's output is checked
//     bit-identical to the sequential one before it is timed, and each
//     timing round runs every thread count once.
//   * PageRank on the projection at pool widths 1/2/3/4 (the caller runs
//     rows too), each checked bit-identical to the 1-thread rank first.
//   * SIMD — the dispatched numeric kernels against the scalar fallback;
//     the two backends' outputs are checked bit-identical.
//   * incremental epochs — delta merge, projection update and seeded
//     Louvain refinement against a full rebuild, each stage timed on its
//     own, with the serving snapshot's assembly beside them. After timing,
//     the merged graph and the updated projection are checked
//     bit-identical to the rebuild's, and the refinement's modularity is
//     held within 0.05 of the rebuild's Louvain.
//
// Results land in --json=PATH (default BENCH_graph.json); --scale and
// --reps trade time for stability.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "community/coda.h"
#include "community/incremental.h"
#include "community/louvain.h"
#include "graph/delta.h"
#include "core/community_metrics.h"
#include "graph/bipartite_graph.h"
#include "graph/centrality.h"
#include "graph/weighted_graph.h"
#include "json/json.h"
#include "serve/serving_snapshot.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace cfnet::bench {
namespace {

/// Timed calls behind the PageRank and incremental rows; the thread
/// scaling and SIMD rows take --reps.
constexpr int kSpreadReps = 7;

double Median(const json::Json& spread) {
  return spread.Get("median").AsDouble();
}

std::vector<double> FlattenWeights(const graph::WeightedGraph& g) {
  std::vector<double> flat;
  for (uint32_t v = 0; v < g.num_nodes(); ++v) {
    auto nbrs = g.Neighbors(v);
    auto ws = g.Weights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      flat.push_back(static_cast<double>(nbrs[i]));
      flat.push_back(ws[i]);
    }
  }
  return flat;
}

void RunGraphBench(const FlagParser& flags) {
  const double scale = flags.GetDouble("scale", 1.0);
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const std::string path = flags.GetString("json", "BENCH_graph.json");
  const size_t investors = static_cast<size_t>(47000 * scale);
  const size_t companies = static_cast<size_t>(60000 * scale);
  constexpr size_t kMaxRightDegree = 500;  // projection popularity cap

  // Zipfian company popularity gives a few companies huge investor lists:
  // the regime the bitset intersection and the projection degree cap exist
  // for.
  const graph::BipartiteGraph g = graph::BipartiteGraph::FromEdges(
      DrawInvestments(investors, companies, 20260806));
  std::printf("graph: %zu investors, %zu companies, %zu investments\n",
              g.num_left(), g.num_right(), g.num_edges());

  json::Json out_doc = json::Json::MakeObject();
  out_doc.Set("bench", "bench_graph");
  out_doc.Set("scale", scale);
  out_doc.Set("reps", static_cast<int64_t>(reps));
  out_doc.Set("investors", static_cast<int64_t>(g.num_left()));
  out_doc.Set("companies", static_cast<int64_t>(g.num_right()));
  out_doc.Set("investments", static_cast<int64_t>(g.num_edges()));
  out_doc.Set("hardware_threads",
              static_cast<int64_t>(ThreadPool::DefaultParallelism()));

  // Shared-investment community: the most active investors (the paper's
  // §5.3 communities are dominated by them), capped so the all-pairs
  // triangle stays near ~1M pairs. Heavy portfolios are exactly where the
  // bitset intersection replaces the O(d_i + d_j) merge.
  std::vector<uint32_t> members;
  {
    std::vector<std::pair<size_t, uint32_t>> by_degree;
    for (uint32_t l = 0; l < g.num_left(); ++l) {
      if (g.OutDegree(l) >= 4) by_degree.emplace_back(g.OutDegree(l), l);
    }
    std::sort(by_degree.rbegin(), by_degree.rend());
    if (by_degree.size() > 1500) by_degree.resize(1500);
    for (const auto& [d, l] : by_degree) members.push_back(l);
    std::sort(members.begin(), members.end());
  }
  size_t bitset_rows = 0;
  for (uint32_t l : members) bitset_rows += g.OutDegree(l) >= 64 ? 1 : 0;
  std::printf("community: %zu members (%zu pairs, %zu bitset rows)\n",
              members.size(), members.size() * (members.size() - 1) / 2,
              bitset_rows);

  const graph::WeightedGraph proj =
      graph::WeightedGraph::ProjectLeft(g, kMaxRightDegree);
  std::printf("projection: %zu nodes, %zu edges\n", proj.num_nodes(),
              proj.num_edges());
  const community::LouvainResult louvain = community::RunLouvain(proj);

  // ---- thread scaling over the ParallelOptions kernels ------------------
  Section("thread scaling (bit-identity to 1 thread checked per workload)");
  const size_t bc_sources = 64;
  const size_t global_pairs = static_cast<size_t>(800000 * scale);
  struct Workload {
    std::string name;
    std::function<void(const ParallelOptions&)> run;
    std::function<std::vector<double>(const ParallelOptions&)> result;
  };
  std::vector<Workload> workloads;
  workloads.push_back(
      {"project_left",
       [&](const ParallelOptions& par) {
         benchmark::DoNotOptimize(
             graph::WeightedGraph::ProjectLeft(g, kMaxRightDegree, par)
                 .num_edges());
       },
       [&](const ParallelOptions& par) {
         return FlattenWeights(
             graph::WeightedGraph::ProjectLeft(g, kMaxRightDegree, par));
       }});
  workloads.push_back(
      {"shared_sizes",
       [&](const ParallelOptions& par) {
         benchmark::DoNotOptimize(
             core::SharedInvestmentSizes(g, members, 2000000, 1, par).data());
       },
       [&](const ParallelOptions& par) {
         return core::SharedInvestmentSizes(g, members, 2000000, 1, par);
       }});
  workloads.push_back(
      {"global_sample",
       [&](const ParallelOptions& par) {
         benchmark::DoNotOptimize(
             core::GlobalSharedInvestmentSample(g, global_pairs, 1, par)
                 .data());
       },
       [&](const ParallelOptions& par) {
         return core::GlobalSharedInvestmentSample(g, global_pairs, 1, par);
       }});
  workloads.push_back(
      {"betweenness_64src",
       [&](const ParallelOptions& par) {
         benchmark::DoNotOptimize(
             graph::BetweennessCentrality(proj, bc_sources, 1, par).data());
       },
       [&](const ParallelOptions& par) {
         return graph::BetweennessCentrality(proj, bc_sources, 1, par);
       }});

  // Each round times every thread count once, so a slow stretch of a
  // shared host lands on all of them rather than on one row's median.
  const std::vector<size_t> widths = {1, 2, 4, 8};
  json::Json scaling = json::Json::MakeArray();
  for (const Workload& w : workloads) {
    const std::vector<double> reference = w.result({});
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (size_t threads : widths) {
      pools.push_back(std::make_unique<ThreadPool>(threads));
      const ParallelOptions par{pools.back().get()};
      CFNET_CHECK(w.result(par) == reference);  // bit-identical to 1 thread
      w.run(par);  // warm-up
    }
    std::vector<std::vector<double>> samples(widths.size());
    for (int round = 0; round < reps; ++round) {
      for (size_t k = 0; k < widths.size(); ++k) {
        const ParallelOptions par{pools[k].get()};
        samples[k].push_back(TimeOnceMs([&]() { w.run(par); }));
      }
    }
    json::Json rows = json::Json::MakeArray();
    double base_ms = 0;
    for (size_t k = 0; k < widths.size(); ++k) {
      const size_t threads = widths[k];
      json::Json ms = Spread(std::move(samples[k]));
      const double median = Median(ms);
      if (threads == 1) base_ms = median;
      const double speedup = median > 0 ? base_ms / median : 0.0;
      std::printf("%-20s %zu threads  median %9.2f ms (min %.2f, max %.2f)  "
                  "(%.2fx vs 1t)\n",
                  w.name.c_str(), threads, median, ms.Get("min").AsDouble(),
                  ms.Get("max").AsDouble(), speedup);
      json::Json row = json::Json::MakeObject();
      row.Set("threads", static_cast<int64_t>(threads));
      row.Set("ms", std::move(ms));
      row.Set("speedup_vs_1t", speedup);
      rows.Append(std::move(row));
    }
    json::Json entry = json::Json::MakeObject();
    entry.Set("workload", w.name);
    entry.Set("rows", std::move(rows));
    scaling.Append(std::move(entry));
  }

  // ---- PageRank over pool widths ----------------------------------------
  // The serving snapshot's centrality. Width w runs rows on w workers plus
  // the calling thread; width 1 runs them on the caller alone.
  Section("pagerank over pool widths (bit-identity to 1 thread checked)");
  json::Json pagerank = json::Json::MakeObject();
  {
    const std::vector<double> reference = graph::PageRank(proj);
    json::Json rows = json::Json::MakeArray();
    for (size_t width : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      ThreadPool pool(width);
      const ParallelOptions par{&pool};
      CFNET_CHECK(graph::PageRank(proj, 0.85, 100, 1e-9, par) == reference);
      json::Json ms = Spread(TimeRepsMs([&]() {
        benchmark::DoNotOptimize(
            graph::PageRank(proj, 0.85, 100, 1e-9, par).data());
      }, kSpreadReps));
      std::printf("pagerank  pool width %zu  median %8.2f ms (min %.2f, "
                  "max %.2f)\n",
                  width, Median(ms), ms.Get("min").AsDouble(),
                  ms.Get("max").AsDouble());
      json::Json row = json::Json::MakeObject();
      row.Set("pool_width", static_cast<int64_t>(width));
      row.Set("ms", std::move(ms));
      rows.Append(std::move(row));
    }
    pagerank.Set("nodes", static_cast<int64_t>(proj.num_nodes()));
    pagerank.Set("edges", static_cast<int64_t>(proj.num_edges()));
    pagerank.Set("reps", static_cast<int64_t>(kSpreadReps));
    pagerank.Set("rows", std::move(rows));
  }

  // ---- SIMD kernels vs scalar fallback (single thread) ------------------
  // All four kernels are timed at 1 thread, so a speedup is the kernel's
  // own, not the pool's. Every comparison checks byte-identity between the
  // two backends before it is trusted.
  Section("simd kernels vs scalar fallback (1 thread; bit-identity checked)");
  json::Json simd_rows = json::Json::MakeArray();
  auto emit_simd = [&simd_rows](const std::string& name,
                                std::vector<double> scalar_samples,
                                std::vector<double> simd_samples) {
    json::Json scalar_ms = Spread(std::move(scalar_samples));
    json::Json simd_ms = Spread(std::move(simd_samples));
    const double speedup =
        Median(simd_ms) > 0 ? Median(scalar_ms) / Median(simd_ms) : 0.0;
    std::printf("%-26s scalar %9.2f ms   simd %9.2f ms   %5.2fx (medians)\n",
                name.c_str(), Median(scalar_ms), Median(simd_ms), speedup);
    json::Json row = json::Json::MakeObject();
    row.Set("kernel", name);
    row.Set("scalar_ms", std::move(scalar_ms));
    row.Set("simd_ms", std::move(simd_ms));
    row.Set("speedup", speedup);
    simd_rows.Append(std::move(row));
  };

  // coda_row_update: the full projected-gradient fit (fused expm1-weighted
  // gradient, clamped step, Armijo objective) end to end.
  {
    community::CodaConfig coda_config;
    coda_config.num_communities = 32;
    coda_config.max_iterations = 2;
    coda_config.num_threads = 1;
    coda_config.seed = 11;
    community::Coda coda(coda_config);
    community::CodaResult fit_simd = coda.Fit(g);
    std::vector<double> simd_ms = TimeRepsMs([&]() {
      benchmark::DoNotOptimize(coda.Fit(g).final_log_likelihood);
    }, reps);
    std::vector<double> scalar_ms;
    {
      simd::ScopedForceScalar force;
      community::CodaResult fit_scalar = coda.Fit(g);
      CFNET_CHECK(fit_scalar.f == fit_simd.f);
      CFNET_CHECK(fit_scalar.h == fit_simd.h);
      CFNET_CHECK(fit_scalar.log_likelihood_trace ==
                  fit_simd.log_likelihood_trace);
      scalar_ms = TimeRepsMs([&]() {
        benchmark::DoNotOptimize(coda.Fit(g).final_log_likelihood);
      }, reps);
    }
    emit_simd("coda_row_update", std::move(scalar_ms), std::move(simd_ms));
  }

  // bitset_intersect: SharedInvestmentSizes over the top-degree community,
  // end to end (AND+popcount on high-high pairs, bitset probes elsewhere).
  {
    const std::vector<double> sizes_simd =
        core::SharedInvestmentSizes(g, members);
    std::vector<double> simd_ms = TimeRepsMs([&]() {
      benchmark::DoNotOptimize(core::SharedInvestmentSizes(g, members).data());
    }, reps);
    std::vector<double> scalar_ms;
    {
      simd::ScopedForceScalar force;
      CFNET_CHECK(core::SharedInvestmentSizes(g, members) == sizes_simd);
      scalar_ms = TimeRepsMs([&]() {
        benchmark::DoNotOptimize(
            core::SharedInvestmentSizes(g, members).data());
      }, reps);
    }
    emit_simd("bitset_intersect", std::move(scalar_ms), std::move(simd_ms));
  }

  // bitset_intersect_kernel: AndPopcountU64 in isolation on company-sized
  // bitset rows (the dispatched nibble-LUT path vs the scalar word loop).
  {
    const size_t words = (g.num_right() + 63) / 64;
    Rng rng(29);
    std::vector<uint64_t> wa(words), wb(words);
    for (auto& w : wa) w = rng.Next();
    for (auto& w : wb) w = rng.Next();
    constexpr int kInner = 4000;
    CFNET_CHECK(simd::AndPopcountU64(wa.data(), wb.data(), words) ==
                simd::AndPopcountU64Scalar(wa.data(), wb.data(), words));
    std::vector<double> simd_ms = TimeRepsMs([&]() {
      uint64_t acc = 0;
      for (int it = 0; it < kInner; ++it) {
        acc += simd::AndPopcountU64(wa.data(), wb.data(), words);
      }
      benchmark::DoNotOptimize(acc);
    }, reps);
    std::vector<double> scalar_ms = TimeRepsMs([&]() {
      uint64_t acc = 0;
      for (int it = 0; it < kInner; ++it) {
        acc += simd::AndPopcountU64Scalar(wa.data(), wb.data(), words);
      }
      benchmark::DoNotOptimize(acc);
    }, reps);
    emit_simd("bitset_intersect_kernel", std::move(scalar_ms),
              std::move(simd_ms));
  }

  // stats_reduce: the moment reductions Summarize runs for the Figure 6
  // medians (SumF64 for the mean, then SumSqDiffF64 about it) over one
  // array per rep.
  {
    const size_t n = size_t{1} << 21;
    Rng rng(31);
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.Uniform(-2.0, 2.0);
    auto reduce = [&](auto sum_fn, auto ssd_fn) {
      const double s = sum_fn(xs.data(), n);
      return s + ssd_fn(xs.data(), n, s / static_cast<double>(n));
    };
    CFNET_CHECK(reduce(simd::SumF64, simd::SumSqDiffF64) ==
                reduce(simd::SumF64Scalar, simd::SumSqDiffF64Scalar));
    std::vector<double> simd_ms = TimeRepsMs([&]() {
      benchmark::DoNotOptimize(reduce(simd::SumF64, simd::SumSqDiffF64));
    }, reps);
    std::vector<double> scalar_ms = TimeRepsMs([&]() {
      benchmark::DoNotOptimize(
          reduce(simd::SumF64Scalar, simd::SumSqDiffF64Scalar));
    }, reps);
    emit_simd("stats_reduce", std::move(scalar_ms), std::move(simd_ms));
  }

  // ---- CoDA fit at the `analyze` workload's shape -----------------------
  // C = 96, 25 iterations, 1 thread, on a graph filtered to investors with
  // >= 4 investments as in the paper's §5 analysis. Unlike coda_row_update
  // (C = 32, 2 iterations, rows still dense), most of F and H is zero by
  // the end and most line-search candidates fail the Armijo test.
  Section("coda fit at the analyze shape (C=96, 25 iterations, 1 thread)");
  json::Json coda_fit = json::Json::MakeObject();
  {
    const graph::BipartiteGraph fg =
        graph::BipartiteGraph::FromEdges(DrawInvestments(4800, 6000, 20260806))
            .FilterLeftByMinDegree(4);
    community::CodaConfig config;
    config.num_communities = 96;
    config.max_iterations = 25;
    config.num_threads = 1;
    config.seed = 11;
    const community::Coda coda(config);
    constexpr int kFits = 11;
    json::Json ms = Spread(TimeRepsMs([&]() {
      benchmark::DoNotOptimize(coda.Fit(fg).final_log_likelihood);
    }, kFits));
    std::printf("coda_fit: %zu investors, %zu companies, %zu edges; "
                "median %.1f ms (min %.1f, max %.1f) over %d fits\n",
                fg.num_left(), fg.num_right(), fg.num_edges(),
                Median(ms), ms.Get("min").AsDouble(),
                ms.Get("max").AsDouble(), kFits);
    coda_fit.Set("investors", static_cast<int64_t>(fg.num_left()));
    coda_fit.Set("companies", static_cast<int64_t>(fg.num_right()));
    coda_fit.Set("investments", static_cast<int64_t>(fg.num_edges()));
    coda_fit.Set("communities", static_cast<int64_t>(config.num_communities));
    coda_fit.Set("iterations", static_cast<int64_t>(config.max_iterations));
    coda_fit.Set("threads", static_cast<int64_t>(config.num_threads));
    coda_fit.Set("fits", static_cast<int64_t>(kFits));
    coda_fit.Set("ms", std::move(ms));
  }

  // ---- incremental epoch maintenance vs full rebuild --------------------
  // Delta batches at 0.1% / 1% / 10% of the edge count, mixing removals of
  // existing investments, brand-new companies, and extra investments into
  // existing companies. The incremental path (delta-CSR merge + frontier
  // projection update + seeded Louvain refinement) is checked bit-identical
  // to the full rebuild on the bipartite graph and the projection before
  // any timing is trusted; the refined partition must stay within 0.05
  // modularity of the full recompute.
  Section("incremental epoch update vs full rebuild (merge and projection "
          "bit-identity checked)");
  json::Json inc_rows = json::Json::MakeArray();
  double inc_speedup_1pct = 0;
  {
    std::vector<std::pair<uint64_t, uint64_t>> base_edges;
    base_edges.reserve(g.num_edges());
    for (uint32_t l = 0; l < g.num_left(); ++l) {
      for (uint32_t r : g.OutNeighbors(l)) {
        base_edges.emplace_back(g.LeftId(l), g.RightId(r));
      }
    }
    const community::IncrementalCommunityConfig refine_config;
    for (double frac : {0.001, 0.01, 0.1}) {
      const size_t num_deltas = std::max<size_t>(
          1, static_cast<size_t>(frac * static_cast<double>(g.num_edges())));
      Rng rng(20260807 + static_cast<uint64_t>(frac * 1e6));
      std::vector<graph::EdgeDelta> deltas;
      deltas.reserve(num_deltas);
      for (size_t i = 0; i < num_deltas; ++i) {
        switch (i % 3) {
          case 0: {  // an existing investment is withdrawn
            const auto& e = base_edges[rng.Next() % base_edges.size()];
            deltas.push_back({e.first, e.second, /*add=*/false});
            break;
          }
          case 1: {  // a brand-new company enters the graph
            deltas.push_back(
                {g.LeftId(static_cast<uint32_t>(rng.Next() % g.num_left())),
                 2000000 + rng.Next() % g.num_right(), /*add=*/true});
            break;
          }
          default: {  // an extra investment into an existing company
            deltas.push_back(
                {g.LeftId(static_cast<uint32_t>(rng.Next() % g.num_left())),
                 g.RightId(static_cast<uint32_t>(rng.Next() % g.num_right())),
                 /*add=*/true});
            break;
          }
        }
      }
      // Batch ground truth: the deltas applied in order to the flat edge set.
      std::set<std::pair<uint64_t, uint64_t>> edge_set(base_edges.begin(),
                                                       base_edges.end());
      for (const graph::EdgeDelta& d : deltas) {
        if (d.add) {
          edge_set.insert({d.left_id, d.right_id});
        } else {
          edge_set.erase({d.left_id, d.right_id});
        }
      }
      const std::vector<std::pair<uint64_t, uint64_t>> merged_edges(
          edge_set.begin(), edge_set.end());

      graph::BipartiteGraph full_graph;
      graph::WeightedGraph full_proj;
      community::LouvainResult full_louvain;
      json::Json full_ms = Spread(TimeRepsMs([&]() {
        full_graph = graph::BipartiteGraph::FromEdges(merged_edges);
        full_proj =
            graph::WeightedGraph::ProjectLeft(full_graph, kMaxRightDegree);
        full_louvain = community::RunLouvain(full_proj);
        benchmark::DoNotOptimize(full_louvain.modularity);
      }, kSpreadReps));

      // The incremental path end to end, then each stage on its own.
      graph::DeltaMergeResult merge;
      graph::WeightedGraph inc_proj;
      std::vector<uint32_t> frontier;
      community::RefineResult refined;
      auto refine = [&]() {
        std::vector<int> seeds = community::MapLabels(
            louvain.labels, merge.old_to_new_left, merge.graph.num_left());
        refined = community::RefineLouvain(inc_proj, seeds, frontier,
                                           louvain.modularity, refine_config);
        benchmark::DoNotOptimize(refined.modularity);
      };
      json::Json inc_ms = Spread(TimeRepsMs([&]() {
        merge = graph::MergeBipartiteDelta(g, deltas);
        frontier = graph::ProjectionFrontier(g, merge, kMaxRightDegree);
        inc_proj = graph::UpdateProjection(proj, g, merge, kMaxRightDegree);
        refine();
      }, kSpreadReps));
      json::Json merge_ms = Spread(TimeRepsMs([&]() {
        merge = graph::MergeBipartiteDelta(g, deltas);
      }, kSpreadReps));
      json::Json projection_ms = Spread(TimeRepsMs([&]() {
        frontier = graph::ProjectionFrontier(g, merge, kMaxRightDegree);
        inc_proj = graph::UpdateProjection(proj, g, merge, kMaxRightDegree);
      }, kSpreadReps));
      json::Json refine_ms = Spread(TimeRepsMs(refine, kSpreadReps));
      json::Json assemble_ms = Spread(TimeRepsMs([&]() {
        benchmark::DoNotOptimize(
            serve::AssembleServingSnapshot(1, merge.graph, inc_proj,
                                           refined.labels, refined.communities)
                ->content_fingerprint);
      }, kSpreadReps));

      // Bit-identity: the merged CSR and the updated projection must match
      // the from-scratch rebuild exactly.
      CFNET_CHECK(full_graph.num_left() == merge.graph.num_left());
      CFNET_CHECK(full_graph.num_right() == merge.graph.num_right());
      CFNET_CHECK(full_graph.num_edges() == merge.graph.num_edges());
      for (uint32_t l = 0; l < full_graph.num_left(); ++l) {
        CFNET_CHECK(full_graph.LeftId(l) == merge.graph.LeftId(l));
        auto a = full_graph.OutNeighbors(l);
        auto b = merge.graph.OutNeighbors(l);
        CFNET_CHECK(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
      for (uint32_t r = 0; r < full_graph.num_right(); ++r) {
        CFNET_CHECK(full_graph.RightId(r) == merge.graph.RightId(r));
      }
      CFNET_CHECK(FlattenWeights(full_proj) == FlattenWeights(inc_proj));
      CFNET_CHECK(refined.modularity >= full_louvain.modularity - 0.05);

      const double speedup =
          Median(inc_ms) > 0 ? Median(full_ms) / Median(inc_ms) : 0.0;
      if (frac == 0.01) inc_speedup_1pct = speedup;
      std::printf("delta %5.1f%% (%6zu edges, frontier %6zu)  full %9.2f ms  "
                  "incremental %9.2f ms  %6.2fx  dQ %+0.4f\n"
                  "  merge %.2f  projection %.2f  refine %.2f  assemble "
                  "%.2f ms (medians)\n",
                  frac * 100.0, num_deltas, frontier.size(), Median(full_ms),
                  Median(inc_ms), speedup,
                  refined.modularity - full_louvain.modularity,
                  Median(merge_ms), Median(projection_ms), Median(refine_ms),
                  Median(assemble_ms));
      json::Json row = json::Json::MakeObject();
      row.Set("delta_fraction", frac);
      row.Set("delta_edges", static_cast<int64_t>(num_deltas));
      row.Set("frontier_size", static_cast<int64_t>(frontier.size()));
      row.Set("rows_reused", static_cast<int64_t>(merge.stats.rows_reused));
      row.Set("rows_rebuilt", static_cast<int64_t>(merge.stats.rows_rebuilt));
      row.Set("full_rebuild_ms", std::move(full_ms));
      row.Set("incremental_ms", std::move(inc_ms));
      row.Set("merge_ms", std::move(merge_ms));
      row.Set("projection_ms", std::move(projection_ms));
      row.Set("refine_ms", std::move(refine_ms));
      row.Set("assemble_ms", std::move(assemble_ms));
      row.Set("speedup", speedup);
      row.Set("full_modularity", full_louvain.modularity);
      row.Set("incremental_modularity", refined.modularity);
      row.Set("fell_back_full", refined.full_rebuild);
      inc_rows.Append(std::move(row));
    }
  }

  out_doc.Set("incremental", std::move(inc_rows));
  out_doc.Set("incremental_note",
              "*_ms rows are {median, min, max} over " +
                  std::to_string(kSpreadReps) +
                  " timed calls; incremental_ms times merge, projection "
                  "update and refine together, and assemble_ms is "
                  "serve::AssembleServingSnapshot over their output.");
  out_doc.Set("thread_scaling", std::move(scaling));
  out_doc.Set("thread_scaling_note",
              "ms rows are {median, min, max} over `reps` rounds; each round "
              "times every thread count once, after one warm-up call per "
              "thread count, and speedups are ratios of medians.");
  out_doc.Set("pagerank", std::move(pagerank));
  out_doc.Set("simd_backend", simd::SimdBackendName());
  out_doc.Set("simd", std::move(simd_rows));
  out_doc.Set("simd_note",
              "single-thread scalar-vs-dispatched comparisons, each "
              "{median, min, max} over `reps` timed calls, speedup from the "
              "medians; the two backends' outputs are checked "
              "byte-identical.");
  out_doc.Set("coda_fit", std::move(coda_fit));
  std::printf("acceptance: incremental 1%% delta epoch %.2fx vs full rebuild "
              "(target 5x)\n",
              inc_speedup_1pct);

  WriteJsonDoc(path, out_doc);
}

}  // namespace
}  // namespace cfnet::bench

int main(int argc, char** argv) {
  cfnet::FlagParser flags(argc, argv);
  cfnet::bench::RunGraphBench(flags);
  return 0;
}
