#include "graph/bipartite_graph.h"

#include <algorithm>

namespace cfnet::graph {

BipartiteGraph BipartiteGraph::FromEdges(
    const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  BipartiteGraph g;
  if (edges.empty()) {
    g.out_offsets_ = {0};
    g.in_offsets_ = {0};
    return g;
  }
  // Sort + dedup edges by (left, right).
  std::vector<std::pair<uint64_t, uint64_t>> sorted = edges;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Dense ids follow external-id order. Left ids appear grouped already.
  // Right ids: sort (id, edge position) pairs once, then one walk assigns
  // each distinct id its dense index and writes it at every position.
  size_t left_count = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || sorted[i].first != sorted[i - 1].first) ++left_count;
  }
  g.left_ids_.reserve(left_count);
  g.out_offsets_.assign(left_count + 1, 0);
  for (const auto& [l, r] : sorted) {
    if (g.left_ids_.empty() || g.left_ids_.back() != l) g.left_ids_.push_back(l);
    ++g.out_offsets_[g.left_ids_.size()];
  }
  for (size_t i = 1; i <= left_count; ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
  }
  std::vector<std::pair<uint64_t, size_t>> rights(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) rights[i] = {sorted[i].second, i};
  std::sort(rights.begin(), rights.end());
  g.out_neighbors_.resize(sorted.size());
  for (const auto& [r, pos] : rights) {
    if (g.right_ids_.empty() || g.right_ids_.back() != r) {
      g.right_ids_.push_back(r);
    }
    g.out_neighbors_[pos] = static_cast<uint32_t>(g.right_ids_.size() - 1);
  }
  // Out-neighbor lists are sorted by right id order == dense order, since
  // right dense indices are assigned in id order and edges were sorted.
  g.BuildInverse();
  return g;
}

void BipartiteGraph::BuildInverse() {
  in_offsets_.assign(right_ids_.size() + 1, 0);
  for (uint32_t r : out_neighbors_) ++in_offsets_[r + 1];
  for (size_t i = 1; i <= right_ids_.size(); ++i) {
    in_offsets_[i] += in_offsets_[i - 1];
  }
  in_neighbors_.resize(out_neighbors_.size());
  std::vector<size_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (uint32_t l = 0; l < left_ids_.size(); ++l) {
    for (uint32_t r : OutNeighbors(l)) {
      in_neighbors_[cursor[r]++] = l;
    }
  }
  // Left indices were visited in ascending order, so in-lists are sorted.
}

namespace {

uint32_t IndexOf(const std::vector<uint64_t>& ids, uint64_t id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it == ids.end() || *it != id
             ? BipartiteGraph::kInvalidIndex
             : static_cast<uint32_t>(it - ids.begin());
}

}  // namespace

uint32_t BipartiteGraph::LeftIndexOf(uint64_t id) const {
  return IndexOf(left_ids_, id);
}

uint32_t BipartiteGraph::RightIndexOf(uint64_t id) const {
  return IndexOf(right_ids_, id);
}

size_t BipartiteGraph::SharedOutNeighbors(uint32_t l1, uint32_t l2) const {
  auto a = OutNeighbors(l1);
  auto b = OutNeighbors(l2);
  size_t i = 0;
  size_t j = 0;
  size_t shared = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

BipartiteGraph BipartiteGraph::FilterLeftByMinDegree(size_t min_degree) const {
  // Build the filtered CSR directly: kept rows are already sorted and
  // deduplicated, so copying them and remapping right indices (the remap is
  // monotonic, preserving sort order) avoids materializing an edge vector
  // and re-sorting it through FromEdges.
  BipartiteGraph out;
  size_t kept_left = 0;
  size_t kept_edges = 0;
  for (uint32_t l = 0; l < num_left(); ++l) {
    if (OutDegree(l) >= min_degree) {
      ++kept_left;
      kept_edges += OutDegree(l);
    }
  }
  out.left_ids_.reserve(kept_left);
  out.out_offsets_.reserve(kept_left + 1);
  out.out_neighbors_.reserve(kept_edges);

  // Right nodes that keep at least one in-edge, in ascending (= id) order.
  std::vector<char> right_kept(num_right(), 0);
  for (uint32_t l = 0; l < num_left(); ++l) {
    if (OutDegree(l) < min_degree) continue;
    for (uint32_t r : OutNeighbors(l)) right_kept[r] = 1;
  }
  std::vector<uint32_t> right_remap(num_right(), kInvalidIndex);
  uint32_t next_right = 0;
  for (uint32_t r = 0; r < num_right(); ++r) {
    if (right_kept[r]) right_remap[r] = next_right++;
  }
  out.right_ids_.reserve(next_right);
  for (uint32_t r = 0; r < num_right(); ++r) {
    if (right_kept[r]) out.right_ids_.push_back(right_ids_[r]);
  }

  out.out_offsets_.push_back(0);
  for (uint32_t l = 0; l < num_left(); ++l) {
    if (OutDegree(l) < min_degree) continue;
    out.left_ids_.push_back(left_ids_[l]);
    for (uint32_t r : OutNeighbors(l)) {
      out.out_neighbors_.push_back(right_remap[r]);
    }
    out.out_offsets_.push_back(out.out_neighbors_.size());
  }
  out.BuildInverse();
  return out;
}

DegreeSummary SummarizeOutDegrees(const BipartiteGraph& g,
                                  std::vector<size_t> thresholds) {
  DegreeSummary s;
  const size_t n = g.num_left();
  if (n == 0) return s;
  std::vector<size_t> degrees(n);
  size_t total_edges = 0;
  for (uint32_t l = 0; l < n; ++l) {
    degrees[l] = g.OutDegree(l);
    total_edges += degrees[l];
    s.max = std::max(s.max, degrees[l]);
  }
  s.mean = static_cast<double>(total_edges) / static_cast<double>(n);
  std::vector<size_t> sorted = degrees;
  std::sort(sorted.begin(), sorted.end());
  s.median = (n % 2 == 1)
                 ? static_cast<double>(sorted[n / 2])
                 : (static_cast<double>(sorted[n / 2 - 1] + sorted[n / 2]) / 2.0);
  for (size_t k : thresholds) {
    size_t nodes = 0;
    size_t edges = 0;
    for (size_t d : degrees) {
      if (d >= k) {
        ++nodes;
        edges += d;
      }
    }
    s.concentration.push_back(
        {k, static_cast<double>(nodes) / static_cast<double>(n),
         total_edges == 0
             ? 0
             : static_cast<double>(edges) / static_cast<double>(total_edges)});
  }
  return s;
}

}  // namespace cfnet::graph
