#include "graph/graph_io.h"

#include <cstring>

#include "dfs/commit.h"
#include "util/string_util.h"

namespace cfnet::graph {
namespace {

constexpr char kMagic[8] = {'C', 'F', 'B', 'G', 'R', 'P', 'H', '1'};

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(in[*pos + static_cast<size_t>(i)]))
          << (8 * i);
  }
  *pos += 8;
  return true;
}

}  // namespace

Status WriteBipartiteGraph(dfs::MiniDfs* dfs, const std::string& path,
                           const BipartiteGraph& g) {
  std::string out;
  out.reserve(8 + 24 + g.num_edges() * 16);
  out.append(kMagic, sizeof(kMagic));
  AppendU64(out, g.num_left());
  AppendU64(out, g.num_right());
  AppendU64(out, g.num_edges());
  for (uint32_t l = 0; l < g.num_left(); ++l) AppendU64(out, g.LeftId(l));
  for (uint32_t r = 0; r < g.num_right(); ++r) AppendU64(out, g.RightId(r));
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    auto nbrs = g.OutNeighbors(l);
    AppendU64(out, nbrs.size());
    for (uint32_t r : nbrs) AppendU64(out, r);
  }
  return dfs::CommitFile(dfs, path, out);
}

Result<BipartiteGraph> ReadBipartiteGraph(const dfs::MiniDfs& dfs,
                                          const std::string& path) {
  Result<std::string> read = dfs::ReadCommitted(dfs, path);
  if (!read.ok()) return read.status();
  const std::string& in = *read;
  if (in.size() < sizeof(kMagic) ||
      std::memcmp(in.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad graph file magic: " + path);
  }
  size_t pos = sizeof(kMagic);
  uint64_t num_left = 0;
  uint64_t num_right = 0;
  uint64_t num_edges = 0;
  if (!ReadU64(in, &pos, &num_left) || !ReadU64(in, &pos, &num_right) ||
      !ReadU64(in, &pos, &num_edges)) {
    return Status::Corruption("truncated graph header");
  }
  std::vector<uint64_t> left_ids(num_left);
  std::vector<uint64_t> right_ids(num_right);
  for (auto& id : left_ids) {
    if (!ReadU64(in, &pos, &id)) return Status::Corruption("truncated ids");
  }
  for (auto& id : right_ids) {
    if (!ReadU64(in, &pos, &id)) return Status::Corruption("truncated ids");
  }
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(num_edges);
  for (uint64_t l = 0; l < num_left; ++l) {
    uint64_t degree = 0;
    if (!ReadU64(in, &pos, &degree)) return Status::Corruption("truncated CSR");
    for (uint64_t e = 0; e < degree; ++e) {
      uint64_t r = 0;
      if (!ReadU64(in, &pos, &r)) return Status::Corruption("truncated CSR");
      if (r >= num_right) return Status::Corruption("neighbor out of range");
      edges.emplace_back(left_ids[l], right_ids[r]);
    }
  }
  if (edges.size() != num_edges) {
    return Status::Corruption("edge count mismatch in " + path);
  }
  if (pos != in.size()) {
    return Status::Corruption("trailing bytes in graph file");
  }
  return BipartiteGraph::FromEdges(edges);
}

std::string ToSnapEdgeList(const BipartiteGraph& g) {
  std::string out;
  out += "# Directed bipartite investment graph (investor -> company)\n";
  out += StrFormat("# Nodes: %zu+%zu Edges: %zu\n", g.num_left(), g.num_right(),
                   g.num_edges());
  out += "# SrcNId\tDstNId\n";
  for (uint32_t l = 0; l < g.num_left(); ++l) {
    for (uint32_t r : g.OutNeighbors(l)) {
      out += std::to_string(g.LeftId(l));
      out.push_back('\t');
      out += std::to_string(g.RightId(r));
      out.push_back('\n');
    }
  }
  return out;
}

Result<BipartiteGraph> FromSnapEdgeList(const std::string& text) {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  size_t start = 0;
  size_t line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    std::string_view line(text.data() + start, end - start);
    start = end + 1;
    line = StrTrim(line);
    if (line.empty() || line[0] == '#') continue;
    size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": expected <src>\\t<dst>");
    }
    char* parse_end = nullptr;
    std::string src(line.substr(0, tab));
    std::string dst(line.substr(tab + 1));
    uint64_t s = std::strtoull(src.c_str(), &parse_end, 10);
    if (parse_end != src.c_str() + src.size()) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": bad source id");
    }
    uint64_t d = std::strtoull(dst.c_str(), &parse_end, 10);
    if (parse_end != dst.c_str() + dst.size()) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": bad destination id");
    }
    edges.emplace_back(s, d);
  }
  return BipartiteGraph::FromEdges(edges);
}

}  // namespace cfnet::graph
