#include "graph/coloring.hpp"

#include <algorithm>
#include <vector>

namespace radiocast::graph {

namespace {

/// Greedy color for v given the already-colored vertices: marks the colors
/// within distance two with the stamp `v + 1` (the stamp idiom — `stamp` is
/// sized once and reused across vertices, never cleared) and returns the
/// smallest unmarked color.
std::uint32_t greedy_color(const Graph& g,
                           const std::vector<std::uint32_t>& color, NodeId v,
                           std::vector<NodeId>& stamp) {
  const NodeId tag = v + 1;
  auto mark = [&](std::uint32_t c) {
    if (c >= stamp.size()) {
      stamp.resize(std::max<std::size_t>(stamp.size() * 2, c + 1), 0);
    }
    stamp[c] = tag;
  };
  for (const NodeId u : g.neighbors(v)) {
    if (color[u] != kNoNode) mark(color[u]);
    for (const NodeId w : g.neighbors(u)) {
      if (w != v && color[w] != kNoNode) mark(color[w]);
    }
  }
  std::uint32_t c = 0;
  while (c < stamp.size() && stamp[c] == tag) ++c;
  return c;
}

}  // namespace

Coloring square_coloring(const Graph& g) {
  Coloring out;
  out.color.assign(g.node_count(), kNoNode);
  std::vector<NodeId> stamp;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.color[v] = greedy_color(g, out.color, v, stamp);
    out.count = std::max(out.count, out.color[v] + 1);
  }
  return out;
}

bool is_square_proper(const Graph& g, const Coloring& c) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (c.color[v] >= c.count) return false;
    for (const NodeId u : g.neighbors(v)) {
      if (c.color[u] == c.color[v]) return false;
      for (const NodeId w : g.neighbors(u)) {
        if (w != v && c.color[w] == c.color[v]) return false;
      }
    }
  }
  return true;
}

}  // namespace radiocast::graph
