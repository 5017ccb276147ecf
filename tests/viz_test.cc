#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "fnv_digest.h"
#include "viz/layout.h"
#include "viz/render.h"

namespace cfnet::viz {
namespace {

TEST(LayoutTest, PositionsWithinFrame) {
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}, {1, 2}, {2, 0}};
  LayoutConfig config;
  config.width = 500;
  config.height = 400;
  auto pos = FruchtermanReingold(5, edges, config);
  ASSERT_EQ(pos.size(), 5u);
  for (const auto& p : pos) {
    EXPECT_GE(p.x, 0);
    EXPECT_LE(p.x, 500);
    EXPECT_GE(p.y, 0);
    EXPECT_LE(p.y, 400);
  }
}

TEST(LayoutTest, DeterministicPerSeed) {
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}, {1, 2}};
  auto a = FruchtermanReingold(4, edges);
  auto b = FruchtermanReingold(4, edges);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
  }
}

TEST(LayoutTest, ConnectedNodesEndUpCloserThanDisconnected) {
  // Two tight pairs, no cross edges.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}, {2, 3}};
  LayoutConfig config;
  config.iterations = 300;
  auto pos = FruchtermanReingold(4, edges, config);
  auto dist = [&](int i, int j) {
    double dx = pos[static_cast<size_t>(i)].x - pos[static_cast<size_t>(j)].x;
    double dy = pos[static_cast<size_t>(i)].y - pos[static_cast<size_t>(j)].y;
    return std::sqrt(dx * dx + dy * dy);
  };
  EXPECT_LT(dist(0, 1), dist(0, 2));
  EXPECT_LT(dist(2, 3), dist(1, 3));
}

TEST(LayoutTest, EmptyAndSingle) {
  EXPECT_TRUE(FruchtermanReingold(0, {}).empty());
  auto one = FruchtermanReingold(1, {});
  EXPECT_EQ(one.size(), 1u);
}

TEST(LayoutTest, PinnedPositions) {
  // A ring of 24 nodes with chords, laid out with the default edge length.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t v = 0; v < 24; ++v) {
    edges.emplace_back(v, (v + 1) % 24);
    if (v % 3 == 0) edges.emplace_back(v, (v + 7) % 24);
  }
  FnvDigest digest;
  for (const Point2D& p : FruchtermanReingold(24, edges)) {
    digest.Bits(p.x);
    digest.Bits(p.y);
  }
  EXPECT_EQ(digest.value(), 0x3bfb82b3939d31e6ull)
      << std::hex << "0x" << digest.value();
}

TEST(RenderTest, SvgContainsNodesEdgesAndTitle) {
  std::vector<NodeSpec> nodes = {{"investor 1", "#4477cc", 6},
                                 {"company 2", "#cc4444", 4}};
  std::vector<Point2D> pos = {{10, 20}, {30, 40}};
  std::string svg =
      RenderSvg(nodes, pos, {{0, 1}}, 100, 100, "Strong community");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("Strong community"), std::string::npos);
  EXPECT_NE(svg.find("#4477cc"), std::string::npos);
  EXPECT_NE(svg.find("#cc4444"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("investor 1"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(RenderTest, DotContainsNodesAndEdges) {
  std::vector<NodeSpec> nodes = {{"a", "#111111", 5}, {"b", "#222222", 5}};
  std::string dot = RenderDot(nodes, {{0, 1}}, "mygraph");
  EXPECT_NE(dot.find("graph mygraph {"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1;"), std::string::npos);
}

TEST(RenderTest, WriteTextFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/cfnet_viz_test.svg";
  ASSERT_TRUE(WriteTextFile(path, "hello").ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "hello");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("/no/such/dir/x.svg", "y").ok());
}

}  // namespace
}  // namespace cfnet::viz
