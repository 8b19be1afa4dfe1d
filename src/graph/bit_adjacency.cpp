#include "graph/bit_adjacency.hpp"

namespace radiocast::graph {

BitAdjacency::BitAdjacency(const Graph& g)
    : n_(g.node_count()),
      words_(words_for(g.node_count())),
      bits_(static_cast<std::size_t>(g.node_count()) * words_) {
  for (NodeId v = 0; v < n_; ++v) {
    const auto base = static_cast<std::size_t>(v) * words_;
    for (const NodeId w : g.neighbors(v)) {
      bits_[base + (w >> 6)] |= std::uint64_t{1} << (w & 63);
    }
  }
}

bool is_bit_dense(const Graph& g) {
  const std::uint32_t n = g.node_count();
  if (n < 64) return false;
  const std::size_t words = BitAdjacency::words_for(n);
  if (static_cast<std::size_t>(n) * words * 8 > kBitAdjacencyMemoryCap) {
    return false;
  }
  // A list walk costs deg(v) visits per vertex, a row pass ~words word ops.
  const double avg_degree = 2.0 * static_cast<double>(g.edge_count()) / n;
  return avg_degree >= static_cast<double>(words);
}

}  // namespace radiocast::graph
