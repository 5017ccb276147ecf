#ifndef CFNET_VIZ_LAYOUT_H_
#define CFNET_VIZ_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cfnet::viz {

struct Point2D {
  double x = 0;
  double y = 0;
};

struct LayoutConfig {
  int iterations = 150;
  double width = 1000;
  double height = 1000;
  uint64_t seed = 1;
};

/// Fruchterman–Reingold force-directed layout (the classic spring embedder
/// igraph uses for plots like the paper's Figure 7). O(n^2 + e) per
/// iteration with linearly cooling temperature; fine for the few-hundred-
/// node community renderings it serves. The ideal edge length is
/// sqrt(width * height / n).
std::vector<Point2D> FruchtermanReingold(
    size_t num_nodes, const std::vector<std::pair<uint32_t, uint32_t>>& edges,
    const LayoutConfig& config = {});

}  // namespace cfnet::viz

#endif  // CFNET_VIZ_LAYOUT_H_
