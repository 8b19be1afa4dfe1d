/// \file graph.hpp
/// \brief Immutable CSR graph and its builder.
///
/// Radio networks in the paper are simple undirected connected graphs.  The
/// simulator iterates neighbourhoods in every round, so the storage is a
/// compressed sparse row (CSR) layout: one offsets array and one flat,
/// per-vertex-sorted adjacency array.  Graphs are immutable after `build()`;
/// all mutation happens in `GraphBuilder`.  A graph can also hold a resident
/// adjacency bitmap for the dense round-resolution backend, built at most
/// once on first use (`Graph::bit_adjacency`).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/contracts.hpp"

namespace radiocast::graph {

/// Vertex identifier; vertices are always 0..n-1.
using NodeId = std::uint32_t;

/// Sentinel for "no node" / "unreached".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

class BitAdjacency;

/// Immutable simple undirected graph in CSR form.
class Graph {
 public:
  Graph() = default;

  /// Number of vertices.
  std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  std::size_t edge_count() const noexcept { return adj_.size() / 2; }

  /// Sorted neighbours of `v`.
  std::span<const NodeId> neighbors(NodeId v) const {
    RC_EXPECTS(v < node_count());
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  std::uint32_t degree(NodeId v) const {
    RC_EXPECTS(v < node_count());
    return offsets_[v + 1] - offsets_[v];
  }

  /// Edge test by binary search: O(log deg(u)).
  bool has_edge(NodeId u, NodeId v) const;

  /// Maximum degree Δ.
  std::uint32_t max_degree() const noexcept;

  /// Human-readable one-line summary, e.g. "Graph(n=13, m=14)".
  std::string summary() const;

  /// The graph's adjacency bitmap, built by the first call and then shared
  /// read-only by every later caller and every copy of this graph.  Racing
  /// first calls build it once.  It costs n·⌈n/64⌉·8 bytes for the graph's
  /// lifetime, so callers keep it to dense graphs: `sim::BitEngine` asks
  /// only inside kAuto's bit region, where it is at most twice the CSR
  /// adjacency array.
  const BitAdjacency& bit_adjacency() const;

  /// True iff `bit_adjacency()` has been built.
  bool has_bit_adjacency() const;

 private:
  friend class GraphBuilder;
  struct BitMemo;
  static std::shared_ptr<BitMemo> new_bit_memo();

  std::vector<std::uint32_t> offsets_{0};
  std::vector<NodeId> adj_;
  std::shared_ptr<BitMemo> bit_memo_ = new_bit_memo();
};

/// Accumulates edges, then produces a validated `Graph`.
/// Self-loops are rejected; duplicate edges are deduplicated.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::uint32_t node_count);

  /// Adds the undirected edge {u, v}.  u != v required.
  GraphBuilder& add_edge(NodeId u, NodeId v);

  /// Appends a presorted run of edges: every pair must satisfy u < v < n and
  /// the run must be strictly increasing lexicographically.  `build()` merges
  /// recorded runs pairwise (O(m log runs)) instead of re-sorting the whole
  /// edge list, so chunked streaming generators never pay a global sort.
  GraphBuilder& add_sorted_run(std::span<const std::pair<NodeId, NodeId>> run);

  /// `add_sorted_run` that takes the run over: a builder holding no edges
  /// yet adopts the vector as its edge list instead of copying it.
  GraphBuilder& add_sorted_run(std::vector<std::pair<NodeId, NodeId>>&& run);

  /// Pre-allocates for `edge_count` edges (dense generators).
  void reserve(std::size_t edge_count) { edges_.reserve(edge_count); }

  std::uint32_t node_count() const noexcept { return n_; }

  /// Finalizes into a CSR graph.  The builder may be reused afterwards only
  /// by constructing a new one.
  Graph build() &&;

  /// Two-pass streaming CSR construction with O(n) working memory beyond the
  /// final graph: `produce(edge)` is invoked exactly twice and must emit the
  /// same strictly increasing lexicographic sequence of `edge(u, v)` calls
  /// (u < v < n) both times — first to count degrees, then to fill rows.  No
  /// edge-pair list is ever materialized, so dense families (clique,
  /// complete bipartite) skip the O(n²)-pair builder entirely.
  template <typename Producer>
  static Graph from_sorted_stream(std::uint32_t n, Producer&& produce) {
    Graph g;
    g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
    std::size_t edge_count = 0;
    {
      std::pair<NodeId, NodeId> prev{0, 0};
      bool first = true;
      produce([&](NodeId u, NodeId v) {
        RC_EXPECTS_MSG(u < v && v < n,
                       "stream edges must satisfy u < v < node_count");
        const std::pair<NodeId, NodeId> e{u, v};
        RC_EXPECTS_MSG(first || prev < e,
                       "stream edges must be strictly increasing");
        first = false;
        prev = e;
        ++g.offsets_[u + 1];
        ++g.offsets_[v + 1];
        ++edge_count;
      });
    }
    for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
      g.offsets_[i] += g.offsets_[i - 1];
    }
    g.adj_.resize(edge_count * 2);
    std::vector<std::uint32_t> cursor(g.offsets_.begin(),
                                      g.offsets_.end() - 1);
    std::size_t refill = 0;
    produce([&](NodeId u, NodeId v) {
      g.adj_[cursor[u]++] = v;
      g.adj_[cursor[v]++] = u;
      ++refill;
    });
    RC_ASSERT_MSG(refill == edge_count,
                  "stream producer emitted a different sequence on pass two");
    // Per-vertex lists are sorted by the same argument as build(): lower
    // neighbours arrive ascending before higher neighbours ascending.
    return g;
  }

 private:
  /// The add_sorted_run contract: u < v < n, strictly increasing.
  void check_sorted_run(std::span<const std::pair<NodeId, NodeId>> run) const;

  std::uint32_t n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  /// [begin, end) spans of `edges_` appended via add_sorted_run.
  std::vector<std::pair<std::size_t, std::size_t>> runs_;
};

}  // namespace radiocast::graph
