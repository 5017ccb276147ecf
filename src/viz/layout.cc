#include "viz/layout.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace cfnet::viz {

std::vector<Point2D> FruchtermanReingold(
    size_t num_nodes, const std::vector<std::pair<uint32_t, uint32_t>>& edges,
    const LayoutConfig& config) {
  std::vector<Point2D> pos(num_nodes);
  if (num_nodes == 0) return pos;
  Rng rng(config.seed);
  for (auto& p : pos) {
    p.x = rng.Uniform(0, config.width);
    p.y = rng.Uniform(0, config.height);
  }
  if (num_nodes == 1) return pos;

  const double area = config.width * config.height;
  // Ideal edge length: the repulsion/attraction balance point.
  const double k = std::sqrt(area / static_cast<double>(num_nodes));
  double temperature = config.width / 10.0;
  const double cooling =
      temperature / static_cast<double>(std::max(1, config.iterations));

  std::vector<Point2D> disp(num_nodes);
  for (int iter = 0; iter < config.iterations; ++iter) {
    for (auto& d : disp) d = {0, 0};

    // Repulsive forces between all pairs.
    for (size_t i = 0; i < num_nodes; ++i) {
      for (size_t j = i + 1; j < num_nodes; ++j) {
        double dx = pos[i].x - pos[j].x;
        double dy = pos[i].y - pos[j].y;
        double dist2 = dx * dx + dy * dy;
        double dist = std::sqrt(dist2);
        if (dist < 1e-9) {
          dx = rng.Uniform(-0.5, 0.5);
          dy = rng.Uniform(-0.5, 0.5);
          dist = std::max(1e-4, std::sqrt(dx * dx + dy * dy));
        }
        double force = k * k / dist;
        disp[i].x += dx / dist * force;
        disp[i].y += dy / dist * force;
        disp[j].x -= dx / dist * force;
        disp[j].y -= dy / dist * force;
      }
    }

    // Attractive forces along edges.
    for (const auto& [a, b] : edges) {
      if (a >= num_nodes || b >= num_nodes || a == b) continue;
      double dx = pos[a].x - pos[b].x;
      double dy = pos[a].y - pos[b].y;
      double dist = std::max(1e-9, std::sqrt(dx * dx + dy * dy));
      double force = dist * dist / k;
      disp[a].x -= dx / dist * force;
      disp[a].y -= dy / dist * force;
      disp[b].x += dx / dist * force;
      disp[b].y += dy / dist * force;
    }

    // Displace, capped by temperature, clamped to the frame.
    for (size_t i = 0; i < num_nodes; ++i) {
      double len = std::sqrt(disp[i].x * disp[i].x + disp[i].y * disp[i].y);
      if (len > 1e-12) {
        double capped = std::min(len, temperature);
        pos[i].x += disp[i].x / len * capped;
        pos[i].y += disp[i].y / len * capped;
      }
      pos[i].x = std::clamp(pos[i].x, 0.0, config.width);
      pos[i].y = std::clamp(pos[i].y, 0.0, config.height);
    }
    temperature = std::max(0.0, temperature - cooling);
  }
  return pos;
}

}  // namespace cfnet::viz
