#include "graph/delta.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/simd.h"

namespace cfnet::graph {
namespace {

constexpr uint32_t kInvalid = BipartiteGraph::kInvalidIndex;

bool PairLess(const EdgeDelta& a, const EdgeDelta& b) {
  return a.left_id != b.left_id ? a.left_id < b.left_id
                                : a.right_id < b.right_id;
}

/// Sort by (left, right) keeping arrival order within a pair, then keep the
/// last op of each run.
std::vector<EdgeDelta> NormalizeDeltas(const std::vector<EdgeDelta>& deltas) {
  std::vector<EdgeDelta> out = deltas;
  std::stable_sort(out.begin(), out.end(), PairLess);
  size_t write = 0;
  for (size_t i = 0; i < out.size();) {
    size_t j = i;
    while (j + 1 < out.size() && out[j + 1].left_id == out[i].left_id &&
           out[j + 1].right_id == out[i].right_id) {
      ++j;
    }
    out[write++] = out[j];
    i = j + 1;
  }
  out.resize(write);
  return out;
}

/// An effective delta with its merge keys resolved: `old_right` positions
/// it within the old right dense space (for removes, the exact entry; for
/// adds, the insertion point), `new_right` is the merged dense index.
struct ResolvedDelta {
  uint64_t left_id = 0;
  uint32_t old_right = 0;  // position key in old right-dense space
  uint32_t new_right = kInvalid;
  bool add = true;
};

}  // namespace

/// Friend of both graph classes: assembles merged CSRs in place.
class GraphDeltaOps {
 public:
  static DeltaMergeResult Merge(const BipartiteGraph& g,
                                const std::vector<EdgeDelta>& deltas) {
    DeltaMergeResult result;
    BipartiteGraph& out = result.graph;
    const size_t old_nl = g.num_left();
    const size_t old_nr = g.num_right();

    // --- normalize, then drop no-ops against the current graph. ----------
    std::vector<EdgeDelta> norm = NormalizeDeltas(deltas);
    std::vector<EdgeDelta> eff;
    eff.reserve(norm.size());
    for (const EdgeDelta& d : norm) {
      const uint32_t lo = g.LeftIndexOf(d.left_id);
      const uint32_t ro = g.RightIndexOf(d.right_id);
      bool present = false;
      if (lo != kInvalid && ro != kInvalid) {
        auto row = g.OutNeighbors(lo);
        present = std::binary_search(row.begin(), row.end(), ro);
      }
      if (d.add == present) {
        ++result.stats.noop_deltas;
        continue;
      }
      eff.push_back(d);
      if (d.add) {
        ++result.stats.edges_added;
      } else {
        ++result.stats.edges_removed;
      }
    }

    // --- counting pass: per-left delta runs, per-right degree deltas. ----
    struct LeftRun {
      uint64_t left_id = 0;
      size_t begin = 0;  // [begin, end) into eff
      size_t end = 0;
      int64_t degree_delta = 0;
    };
    std::vector<LeftRun> runs;
    for (size_t i = 0; i < eff.size();) {
      LeftRun run;
      run.left_id = eff[i].left_id;
      run.begin = i;
      while (i < eff.size() && eff[i].left_id == run.left_id) {
        run.degree_delta += eff[i].add ? 1 : -1;
        ++i;
      }
      run.end = i;
      runs.push_back(run);
    }

    struct RightDelta {
      uint64_t right_id = 0;
      int64_t degree_delta = 0;
    };
    std::vector<RightDelta> right_deltas;
    {
      std::vector<std::pair<uint64_t, int64_t>> by_right;
      by_right.reserve(eff.size());
      for (const EdgeDelta& d : eff) {
        by_right.emplace_back(d.right_id, d.add ? 1 : -1);
      }
      std::sort(by_right.begin(), by_right.end());
      for (size_t i = 0; i < by_right.size();) {
        RightDelta rd;
        rd.right_id = by_right[i].first;
        while (i < by_right.size() && by_right[i].first == rd.right_id) {
          rd.degree_delta += by_right[i].second;
          ++i;
        }
        right_deltas.push_back(rd);
      }
    }

    // --- merged right id space (sorted external ids, in-degree > 0). -----
    result.old_to_new_right.assign(old_nr, kInvalid);
    {
      size_t ri = 0;  // old rights cursor
      size_t di = 0;  // right_deltas cursor
      while (ri < old_nr || di < right_deltas.size()) {
        const bool take_old =
            di >= right_deltas.size() ||
            (ri < old_nr && g.right_ids_[ri] < right_deltas[di].right_id);
        if (take_old) {
          // Untouched right keeps its (positive) in-degree.
          result.old_to_new_right[ri] =
              static_cast<uint32_t>(out.right_ids_.size());
          out.right_ids_.push_back(g.right_ids_[ri]);
          ++ri;
          continue;
        }
        const RightDelta& rd = right_deltas[di];
        TouchedRight touched;
        int64_t degree = rd.degree_delta;
        if (ri < old_nr && g.right_ids_[ri] == rd.right_id) {
          touched.old_index = static_cast<uint32_t>(ri);
          degree += static_cast<int64_t>(g.InDegree(static_cast<uint32_t>(ri)));
          ++ri;
        }
        CFNET_CHECK(degree >= 0);
        if (degree > 0) {
          touched.new_index = static_cast<uint32_t>(out.right_ids_.size());
          if (touched.old_index != kInvalid) {
            result.old_to_new_right[touched.old_index] = touched.new_index;
          }
          out.right_ids_.push_back(rd.right_id);
        }
        result.touched_rights.push_back(touched);
        ++di;
      }
    }

    // --- resolve each effective delta's merge keys. ----------------------
    std::vector<ResolvedDelta> resolved(eff.size());
    for (size_t i = 0; i < eff.size(); ++i) {
      const EdgeDelta& d = eff[i];
      ResolvedDelta& r = resolved[i];
      r.left_id = d.left_id;
      r.add = d.add;
      // The exact entry for a right id present in `g` (removes need it),
      // else a brand-new right's insertion point among the old indices.
      auto old_it = std::lower_bound(g.right_ids_.begin(), g.right_ids_.end(),
                                     d.right_id);
      r.old_right = static_cast<uint32_t>(old_it - g.right_ids_.begin());
      if (d.add) {
        auto it = std::lower_bound(out.right_ids_.begin(),
                                   out.right_ids_.end(), d.right_id);
        CFNET_CHECK(it != out.right_ids_.end() && *it == d.right_id);
        r.new_right = static_cast<uint32_t>(it - out.right_ids_.begin());
      }
    }

    // --- merged left id space + row assembly. ----------------------------
    // First old right index whose dense id shifts: rows entirely below it
    // are identity under the remap and can be copied verbatim.
    size_t first_right_shift = old_nr;
    for (size_t r = 0; r < old_nr; ++r) {
      if (result.old_to_new_right[r] != r) {
        first_right_shift = r;
        break;
      }
    }

    result.old_to_new_left.assign(old_nl, kInvalid);
    const size_t new_edges =
        g.num_edges() + result.stats.edges_added - result.stats.edges_removed;
    out.out_neighbors_.reserve(new_edges);
    out.out_offsets_.push_back(0);

    auto emit_untouched_row = [&](uint32_t lo) {
      auto row = g.OutNeighbors(lo);
      if (row.empty() || row.back() < first_right_shift) {
        // Identity remap over the whole span: reuse it verbatim.
        out.out_neighbors_.insert(out.out_neighbors_.end(), row.begin(),
                                  row.end());
      } else {
        for (uint32_t r : row) {
          out.out_neighbors_.push_back(result.old_to_new_right[r]);
        }
      }
      ++result.stats.rows_reused;
    };

    // Gallop-merge one old row with its sorted delta run.
    auto emit_merged_row = [&](uint32_t lo, const LeftRun& run) {
      auto row = g.OutNeighbors(lo);
      size_t i = 0;
      for (size_t k = run.begin; k < run.end; ++k) {
        const ResolvedDelta& d = resolved[k];
        auto it = std::lower_bound(row.begin() + i, row.end(), d.old_right);
        for (size_t stop = static_cast<size_t>(it - row.begin()); i < stop;
             ++i) {
          out.out_neighbors_.push_back(result.old_to_new_right[row[i]]);
        }
        if (d.add) {
          out.out_neighbors_.push_back(d.new_right);
        } else {
          CFNET_CHECK(i < row.size() && row[i] == d.old_right);
          ++i;  // skip the removed entry
        }
      }
      for (; i < row.size(); ++i) {
        out.out_neighbors_.push_back(result.old_to_new_right[row[i]]);
      }
      ++result.stats.rows_rebuilt;
    };

    {
      size_t li = 0;  // old lefts cursor
      size_t qi = 0;  // runs cursor
      while (li < old_nl || qi < runs.size()) {
        const bool take_old = qi >= runs.size() ||
                              (li < old_nl &&
                               g.left_ids_[li] < runs[qi].left_id);
        if (take_old) {
          result.old_to_new_left[li] =
              static_cast<uint32_t>(out.left_ids_.size());
          out.left_ids_.push_back(g.left_ids_[li]);
          emit_untouched_row(static_cast<uint32_t>(li));
          out.out_offsets_.push_back(out.out_neighbors_.size());
          ++li;
          continue;
        }
        const LeftRun& run = runs[qi];
        uint32_t lo = kInvalid;
        int64_t degree = run.degree_delta;
        if (li < old_nl && g.left_ids_[li] == run.left_id) {
          lo = static_cast<uint32_t>(li);
          degree += static_cast<int64_t>(g.OutDegree(lo));
          ++li;
        }
        CFNET_CHECK(degree >= 0);
        if (degree > 0) {
          const uint32_t nl = static_cast<uint32_t>(out.left_ids_.size());
          out.left_ids_.push_back(run.left_id);
          result.touched_lefts.push_back(nl);
          if (lo != kInvalid) {
            result.old_to_new_left[lo] = nl;
            emit_merged_row(lo, run);
          } else {
            // Brand-new left: the run is adds only, sorted by external id,
            // so the new dense indices come out ascending.
            for (size_t k = run.begin; k < run.end; ++k) {
              CFNET_CHECK(resolved[k].add);
              out.out_neighbors_.push_back(resolved[k].new_right);
            }
            ++result.stats.rows_rebuilt;
          }
          out.out_offsets_.push_back(out.out_neighbors_.size());
        }
        ++qi;
      }
    }
    CFNET_CHECK(out.out_neighbors_.size() == new_edges);

    out.BuildInverse();
    return result;
  }

  static std::vector<uint32_t> Frontier(const BipartiteGraph& old_graph,
                                        const DeltaMergeResult& merge,
                                        size_t max_right_degree) {
    const size_t n = merge.graph.num_left();
    std::vector<char> in_frontier(n, 0);
    for (const TouchedRight& tr : merge.touched_rights) {
      if (tr.old_index != kInvalid) {
        auto olds = old_graph.InNeighbors(tr.old_index);
        if (max_right_degree == 0 || olds.size() <= max_right_degree) {
          for (uint32_t l : olds) {
            const uint32_t nl = merge.old_to_new_left[l];
            if (nl != kInvalid) in_frontier[nl] = 1;
          }
        }
      }
      if (tr.new_index != kInvalid) {
        auto news = merge.graph.InNeighbors(tr.new_index);
        if (max_right_degree == 0 || news.size() <= max_right_degree) {
          for (uint32_t l : news) in_frontier[l] = 1;
        }
      }
    }
    for (uint32_t l : merge.touched_lefts) in_frontier[l] = 1;
    std::vector<uint32_t> frontier;
    for (uint32_t v = 0; v < n; ++v) {
      if (in_frontier[v]) frontier.push_back(v);
    }
    return frontier;
  }

  static WeightedGraph Update(const WeightedGraph& old_projection,
                              const BipartiteGraph& old_graph,
                              const DeltaMergeResult& merge,
                              size_t max_right_degree) {
    const BipartiteGraph& new_graph = merge.graph;
    const std::vector<uint32_t>& old_to_new = merge.old_to_new_left;
    const size_t n = new_graph.num_left();
    const size_t old_n = old_to_new.size();
    WeightedGraph out;
    if (n == 0) {
      out.offsets_ = {0};
      return out;
    }

    std::vector<uint32_t> new_to_old(n, kInvalid);
    for (size_t l = 0; l < old_n; ++l) {
      if (old_to_new[l] != kInvalid) {
        new_to_old[old_to_new[l]] = static_cast<uint32_t>(l);
      }
    }

    // The projection is the gated Gram matrix
    //   W = sum_c [in-degree(c) <= cap] x_c x_c^T     (x_c = investor set),
    // so the delta batch changes it by, per touched right,
    //   dW_c = g_new x_new x_new^T - g_old x_old x_old^T,
    // which is sparse in the delta edges when the gate doesn't flip.
    // Pairs involving a dropped left are excluded here — they vanish
    // wholesale and are handled by the dropped-row scan below.
    struct Patch {
      uint32_t row;
      uint32_t nbr;
      double delta;
    };
    std::vector<Patch> raw;
    auto emit = [&raw](uint32_t a, uint32_t b, double d) {
      raw.push_back({a, b, d});
      raw.push_back({b, a, d});
    };
    std::vector<uint32_t> survivors;  // scratch: old investors, new space
    std::vector<uint32_t> removed;    // scratch: survivors absent from B
    for (const TouchedRight& tr : merge.touched_rights) {
      const bool g_old =
          tr.old_index != kInvalid &&
          (max_right_degree == 0 ||
           old_graph.InNeighbors(tr.old_index).size() <= max_right_degree);
      const bool g_new =
          tr.new_index != kInvalid &&
          (max_right_degree == 0 ||
           new_graph.InNeighbors(tr.new_index).size() <= max_right_degree);
      if (!g_old && !g_new) continue;
      survivors.clear();
      if (g_old) {
        for (uint32_t l : old_graph.InNeighbors(tr.old_index)) {
          const uint32_t nl = old_to_new[l];
          if (nl != kInvalid) survivors.push_back(nl);  // sorted: monotone
        }
      }
      if (g_old && g_new) {
        // Both gated in: walk the current set from A (survivors) to B,
        // emitting each element's pairs against the set as it stands —
        // the steps telescope to x_n x_n^T - x_o x_o^T.
        auto b = new_graph.InNeighbors(tr.new_index);
        removed.clear();
        {
          size_t bi = 0;
          for (uint32_t s : survivors) {
            while (bi < b.size() && b[bi] < s) ++bi;
            if (bi >= b.size() || b[bi] != s) removed.push_back(s);
          }
        }
        std::vector<uint32_t>& x = survivors;
        for (uint32_t s : removed) {
          for (uint32_t k : x) {
            if (k != s) emit(s, k, -1.0);
          }
          x.erase(std::lower_bound(x.begin(), x.end(), s));
        }
        {
          size_t ai = 0;
          for (uint32_t s : b) {
            while (ai < x.size() && x[ai] < s) ++ai;
            if (ai < x.size() && x[ai] == s) continue;  // already present
            for (uint32_t k : x) emit(s, k, 1.0);
            x.insert(x.begin() + static_cast<ptrdiff_t>(ai), s);
          }
        }
      } else if (g_new) {
        // Gate flipped in: every pair of the new investor set appears.
        auto b = new_graph.InNeighbors(tr.new_index);
        for (size_t i = 0; i < b.size(); ++i) {
          for (size_t j = 0; j < i; ++j) emit(b[i], b[j], 1.0);
        }
      } else {
        // Gate flipped out: every surviving pair of the old set vanishes.
        for (size_t i = 0; i < survivors.size(); ++i) {
          for (size_t j = 0; j < i; ++j) emit(survivors[i], survivors[j], -1.0);
        }
      }
    }

    // Canonicalize: bucket the increments by row (counting sort), then
    // collapse each bucket with the same sort/dedupe helper FromEdges
    // uses for its rows, dropping pairs whose increments cancel exactly
    // (the sums are small integers, so accumulation order cannot perturb
    // them).
    std::vector<Patch> patches;
    {
      std::vector<uint32_t> patch_begin(n + 1, 0);
      for (const Patch& pa : raw) ++patch_begin[pa.row + 1];
      for (uint32_t v = 0; v < n; ++v) patch_begin[v + 1] += patch_begin[v];
      std::vector<Patch> bucketed(raw.size());
      {
        std::vector<uint32_t> at(patch_begin.begin(), patch_begin.end() - 1);
        for (const Patch& pa : raw) bucketed[at[pa.row]++] = pa;
      }
      raw.clear();
      raw.shrink_to_fit();
      patches.reserve(bucketed.size());
      std::vector<std::pair<uint32_t, double>> rowbuf;
      for (uint32_t v = 0; v < n; ++v) {
        const uint32_t begin = patch_begin[v];
        const uint32_t end = patch_begin[v + 1];
        if (begin == end) continue;
        rowbuf.clear();
        for (uint32_t q = begin; q < end; ++q) {
          rowbuf.emplace_back(bucketed[q].nbr, bucketed[q].delta);
        }
        CanonicalizeAdjacency(rowbuf);
        for (const auto& [nbr, delta] : rowbuf) {
          if (delta != 0.0) patches.push_back({v, nbr, delta});
        }
      }
    }

    // Entries pointing at a dropped left simply vanish; by symmetry they
    // live exactly in the old projection rows of the dropped lefts, so the
    // per-row counts come from scanning those rows only.
    std::vector<uint32_t> dropped_in_row(old_n, 0);
    for (size_t l = 0; l < old_n; ++l) {
      if (old_to_new[l] != kInvalid) continue;
      for (uint32_t j : old_projection.Neighbors(static_cast<uint32_t>(l))) {
        ++dropped_in_row[j];
      }
    }

    // First old left index whose dense id shifts: rows entirely below it
    // are identity under the remap and can be copied verbatim.
    size_t first_left_shift = old_n;
    for (size_t l = 0; l < old_n; ++l) {
      if (old_to_new[l] != static_cast<uint32_t>(l)) {
        first_left_shift = l;
        break;
      }
    }

    // Splice the output CSR row by row with a running cursor. The exact
    // edge count isn't known until the increments meet the old rows, so
    // the buffers are sized to an upper bound and trimmed afterwards
    // (shrinking never reallocates). Rows are produced in index order, so
    // every write is sequential — the whole update is memory-bound on
    // this splice, which is why the fill takes no ParallelOptions.
    // num_edges() counts undirected edges; the CSR stores both directions.
    const size_t upper_bound =
        old_projection.neighbors_.size() + patches.size();
    out.offsets_.assign(n + 1, 0);
    out.neighbors_.resize(upper_bound);
    out.weights_.resize(upper_bound);
    out.weighted_degree_.assign(n, 0);
    size_t cursor = 0;
    size_t p = 0;  // global patch cursor, rows ascend
    for (uint32_t v = 0; v < n; ++v) {
      const size_t pbegin = p;
      while (p < patches.size() && patches[p].row == v) ++p;
      const size_t pend = p;
      const size_t row_start = cursor;
      const uint32_t old_v = new_to_old[v];
      if (old_v == kInvalid) {
        // Brand-new left: its entire row arrives as insert increments.
        for (size_t q = pbegin; q < pend; ++q) {
          CFNET_CHECK(patches[q].delta > 0.0);
          out.neighbors_[cursor] = patches[q].nbr;
          out.weights_[cursor++] = patches[q].delta;
        }
        out.weighted_degree_[v] =
            simd::SumF64(out.weights_.data() + row_start, cursor - row_start);
        out.offsets_[v + 1] = cursor;
        continue;
      }
      auto nbrs = old_projection.Neighbors(old_v);
      auto ws = old_projection.Weights(old_v);
      if (dropped_in_row[old_v] == 0 && pbegin == pend) {
        // Clean splice: no pair through this row changed.
        if (nbrs.empty() || nbrs.back() < first_left_shift) {
          std::copy(nbrs.begin(), nbrs.end(),
                    out.neighbors_.begin() + static_cast<ptrdiff_t>(cursor));
        } else {
          for (size_t i = 0; i < nbrs.size(); ++i) {
            out.neighbors_[cursor + i] = old_to_new[nbrs[i]];
          }
        }
        std::copy(ws.begin(), ws.end(),
                  out.weights_.begin() + static_cast<ptrdiff_t>(cursor));
        cursor += nbrs.size();
        out.weighted_degree_[v] = old_projection.WeightedDegree(old_v);
        out.offsets_[v + 1] = cursor;
        continue;
      }
      // Dirty splice: drop entries to dropped lefts and merge the sorted
      // increments (the remap is monotonic, so surviving entries stay
      // sorted). An increment aligned with an existing entry adjusts it
      // (to zero = removal); an unaligned increment inserts a new pair.
      size_t i = 0;
      size_t q = pbegin;
      while (true) {
        uint32_t mapped = kInvalid;
        while (i < nbrs.size()) {
          const uint32_t m = old_to_new[nbrs[i]];
          if (m != kInvalid) {
            mapped = m;
            break;
          }
          ++i;  // entry to a dropped left vanishes
        }
        const bool have_patch = q < pend;
        if (mapped == kInvalid && !have_patch) break;
        if (have_patch && (mapped == kInvalid || patches[q].nbr <= mapped)) {
          const Patch& pa = patches[q++];
          if (mapped == pa.nbr) {
            const double w = ws[i++] + pa.delta;
            CFNET_CHECK(w >= 0.0);
            if (w != 0.0) {
              out.neighbors_[cursor] = pa.nbr;
              out.weights_[cursor++] = w;
            }
          } else {
            CFNET_CHECK(pa.delta > 0.0);
            out.neighbors_[cursor] = pa.nbr;
            out.weights_[cursor++] = pa.delta;
          }
          continue;
        }
        out.neighbors_[cursor] = mapped;
        out.weights_[cursor++] = ws[i];
        ++i;
      }
      out.weighted_degree_[v] =
          simd::SumF64(out.weights_.data() + row_start, cursor - row_start);
      out.offsets_[v + 1] = cursor;
    }
    out.neighbors_.resize(cursor);
    out.weights_.resize(cursor);
    out.total_weight_2m_ = simd::SumF64(out.weighted_degree_.data(), n);
    return out;
  }
};

DeltaMergeResult MergeBipartiteDelta(const BipartiteGraph& g,
                                     const std::vector<EdgeDelta>& deltas) {
  return GraphDeltaOps::Merge(g, deltas);
}

std::vector<uint32_t> ProjectionFrontier(const BipartiteGraph& old_graph,
                                         const DeltaMergeResult& merge,
                                         size_t max_right_degree) {
  return GraphDeltaOps::Frontier(old_graph, merge, max_right_degree);
}

WeightedGraph UpdateProjection(const WeightedGraph& old_projection,
                               const BipartiteGraph& old_graph,
                               const DeltaMergeResult& merge,
                               size_t max_right_degree) {
  return GraphDeltaOps::Update(old_projection, old_graph, merge,
                               max_right_degree);
}

}  // namespace cfnet::graph
