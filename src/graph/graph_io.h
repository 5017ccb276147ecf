#ifndef CFNET_GRAPH_GRAPH_IO_H_
#define CFNET_GRAPH_GRAPH_IO_H_

#include <string>

#include "dfs/dfs.h"
#include "graph/bipartite_graph.h"
#include "util/result.h"

namespace cfnet::graph {

/// Persistence + interop for the investor graph (Figure 2's "external
/// plug-ins": the paper feeds the bipartite graph to SNAP's CoDA binary and
/// igraph; these writers produce the interchange formats).

/// Serializes the graph to MiniDFS in a compact binary format (magic,
/// version, id tables, CSR arrays), committed through `dfs::CommitFile`.
/// Deterministic byte-for-byte.
Status WriteBipartiteGraph(dfs::MiniDfs* dfs, const std::string& path,
                           const BipartiteGraph& g);

/// Reads a graph written by WriteBipartiteGraph through `dfs::ReadCommitted`
/// (a missing or corrupt commit footer is damage); validates the header and
/// structural invariants, failing with Corruption on any mismatch.
Result<BipartiteGraph> ReadBipartiteGraph(const dfs::MiniDfs& dfs,
                                          const std::string& path);

/// SNAP-style directed edge list ("# comments, then <src>\t<dst>" lines,
/// external ids) — the input format of the SNAP CoDA tool the paper uses.
std::string ToSnapEdgeList(const BipartiteGraph& g);

/// Parses a SNAP edge list back into a bipartite graph (lines starting
/// with '#' are comments; each data line is "src<TAB>dst").
Result<BipartiteGraph> FromSnapEdgeList(const std::string& text);

}  // namespace cfnet::graph

#endif  // CFNET_GRAPH_GRAPH_IO_H_
