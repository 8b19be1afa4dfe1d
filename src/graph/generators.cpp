#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace radiocast::graph {

Graph path(std::uint32_t n) {
  RC_EXPECTS(n >= 1);
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return std::move(b).build();
}

Graph cycle(std::uint32_t n) {
  RC_EXPECTS(n >= 3);
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return std::move(b).build();
}

Graph star(std::uint32_t n) {
  RC_EXPECTS(n >= 2);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge(0, v);
  return std::move(b).build();
}

Graph complete(std::uint32_t n) {
  RC_EXPECTS(n >= 1);
  // Streamed: K_n has Θ(n²) pairs, so the pair-list builder would hold an
  // extra 8 bytes per edge on top of the final CSR arrays.
  return GraphBuilder::from_sorted_stream(n, [n](auto&& edge) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) edge(u, v);
  });
}

Graph complete_bipartite(std::uint32_t a, std::uint32_t b_) {
  RC_EXPECTS(a >= 1 && b_ >= 1);
  return GraphBuilder::from_sorted_stream(a + b_, [a, b_](auto&& edge) {
    for (NodeId u = 0; u < a; ++u)
      for (NodeId v = a; v < a + b_; ++v) edge(u, v);
  });
}

Graph grid(std::uint32_t rows, std::uint32_t cols) {
  RC_EXPECTS(rows >= 1 && cols >= 1 && rows * cols >= 1);
  GraphBuilder b(rows * cols);
  auto id = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return std::move(b).build();
}

Graph torus(std::uint32_t rows, std::uint32_t cols) {
  RC_EXPECTS(rows >= 3 && cols >= 3);
  GraphBuilder b(rows * cols);
  auto id = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % cols));
      b.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return std::move(b).build();
}

Graph hypercube(std::uint32_t dim) {
  RC_EXPECTS(dim >= 1 && dim < 26);
  const std::uint32_t n = 1u << dim;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t bit = 0; bit < dim; ++bit) {
      const NodeId u = v ^ (1u << bit);
      if (u > v) b.add_edge(v, u);
    }
  }
  return std::move(b).build();
}

Graph wheel(std::uint32_t n) {
  RC_EXPECTS(n >= 4);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(0, v);
    b.add_edge(v, v + 1 < n ? v + 1 : 1);
  }
  return std::move(b).build();
}

Graph petersen() {
  GraphBuilder b(10);
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
  for (NodeId v = 0; v < 5; ++v) {
    b.add_edge(v, (v + 1) % 5);
    b.add_edge(5 + v, 5 + (v + 2) % 5);
    b.add_edge(v, 5 + v);
  }
  return std::move(b).build();
}

Graph balanced_tree(std::uint32_t arity, std::uint32_t depth) {
  RC_EXPECTS(arity >= 1);
  // Count nodes: 1 + a + a^2 + ... + a^depth.
  std::uint64_t n = 1, layer = 1;
  for (std::uint32_t d = 0; d < depth; ++d) {
    layer *= arity;
    n += layer;
    RC_EXPECTS_MSG(n < (1ull << 31), "tree too large");
  }
  GraphBuilder b(static_cast<std::uint32_t>(n));
  // Children of v are v*arity+1 .. v*arity+arity in level order.
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t c = 1; c <= arity; ++c) {
      const std::uint64_t child = static_cast<std::uint64_t>(v) * arity + c;
      if (child < n) b.add_edge(v, static_cast<NodeId>(child));
    }
  }
  return std::move(b).build();
}

Graph random_tree(std::uint32_t n, Rng& rng) {
  RC_EXPECTS(n >= 1);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(v, static_cast<NodeId>(rng.below(v)));
  }
  return std::move(b).build();
}

Graph caterpillar(std::uint32_t spine, std::uint32_t legs) {
  RC_EXPECTS(spine >= 1);
  const std::uint32_t n = spine + spine * legs;
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < spine; ++v) b.add_edge(v, v + 1);
  NodeId next = spine;
  for (NodeId v = 0; v < spine; ++v)
    for (std::uint32_t l = 0; l < legs; ++l) b.add_edge(v, next++);
  return std::move(b).build();
}

Graph lollipop(std::uint32_t clique, std::uint32_t tail) {
  RC_EXPECTS(clique >= 2);
  const std::uint32_t n = clique + tail;
  GraphBuilder b(n);
  for (NodeId u = 0; u < clique; ++u)
    for (NodeId v = u + 1; v < clique; ++v) b.add_edge(u, v);
  for (NodeId v = clique; v < n; ++v) {
    b.add_edge(v - 1 == clique - 1 ? clique - 1 : v - 1, v);
  }
  return std::move(b).build();
}

namespace {

/// Union-find over node ids; used to stitch random graphs into one component.
class UnionFind {
 public:
  explicit UnionFind(std::uint32_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  NodeId find(NodeId v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<NodeId> parent_;
};

}  // namespace

Graph gnp_connected(std::uint32_t n, double p, Rng& rng) {
  RC_EXPECTS(n >= 1);
  RC_EXPECTS(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  UnionFind uf(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) {
        b.add_edge(u, v);
        uf.unite(u, v);
      }
    }
  }
  // Stitch components: connect a random member of each non-root component to a
  // random already-connected vertex.  Deterministic given the seed.
  std::vector<NodeId> reps;
  for (NodeId v = 0; v < n; ++v)
    if (uf.find(v) == v) reps.push_back(v);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const NodeId other = reps[rng.below(i)];
    b.add_edge(reps[i], other);
    uf.unite(reps[i], other);
  }
  return std::move(b).build();
}

Graph sparse_gnp_connected(std::uint32_t n, double avg_degree, Rng& rng) {
  RC_EXPECTS(n >= 1);
  RC_EXPECTS(avg_degree >= 0.0);
  const double p =
      n > 1 ? std::min(avg_degree / static_cast<double>(n - 1), 1.0) : 0.0;
  if (p >= 1.0) return complete(n);
  GraphBuilder b(n);
  UnionFind uf(n);
  if (p > 0.0 && n > 1) {
    // Geometric skip sampling (Batagelj–Brandes): instead of n(n-1)/2
    // Bernoulli trials, jump straight between successful pairs.  Pairs are
    // visited in increasing linear upper-triangle index — lexicographic
    // (u, v) order — so each buffered chunk is a presorted run and build()
    // merges them without a global sort.
    const double log1mp = std::log1p(-p);
    const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    constexpr std::size_t kChunk = std::size_t{1} << 16;
    std::vector<std::pair<NodeId, NodeId>> chunk;
    chunk.reserve(kChunk);
    NodeId u = 0;
    std::uint64_t row_start = 0;  // linear index of pair (u, u + 1)
    std::uint64_t pos = 0;        // pairs consumed so far
    for (;;) {
      const double skip = std::floor(std::log1p(-rng.uniform()) / log1mp);
      // Compared as doubles so an astronomically long skip cannot overflow
      // the position counter; >= means the next hit lands past the end.
      if (skip >= static_cast<double>(total - pos)) break;
      pos += 1 + static_cast<std::uint64_t>(skip);
      const std::uint64_t idx = pos - 1;  // 0-based index of this hit
      while (idx >= row_start + (n - 1 - u)) {
        row_start += n - 1 - u;
        ++u;
      }
      const auto v = static_cast<NodeId>(u + 1 + (idx - row_start));
      chunk.emplace_back(u, v);
      uf.unite(u, v);
      if (chunk.size() == kChunk) {
        b.add_sorted_run(chunk);
        chunk.clear();
      }
    }
    if (!chunk.empty()) b.add_sorted_run(chunk);
  }
  // Stitch components exactly like gnp_connected: chain each later
  // representative to a random already-connected one.
  std::vector<NodeId> reps;
  for (NodeId v = 0; v < n; ++v)
    if (uf.find(v) == v) reps.push_back(v);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const NodeId other = reps[rng.below(i)];
    b.add_edge(reps[i], other);
    uf.unite(reps[i], other);
  }
  return std::move(b).build();
}

Graph random_geometric(std::uint32_t n, double radius, Rng& rng) {
  RC_EXPECTS(n >= 1);
  RC_EXPECTS(radius > 0.0);
  std::vector<double> x(n), y(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const double r2 = radius * radius;
  // Bucket the points into a cells x cells grid of squares strictly wider
  // than the radius (with a margin for rounding in the cell index), so every
  // pair within reach sits in the same or an adjacent cell.  At most about
  // sqrt(n) cells a side keeps the grid O(n) for tiny radii.
  std::uint64_t cells = static_cast<std::uint64_t>(
      std::min(1.0 / radius, 1.0 + std::sqrt(static_cast<double>(n))));
  while (cells > 1 && static_cast<double>(cells) * radius > 1.0 - 1e-9) {
    --cells;
  }
  cells = std::max<std::uint64_t>(cells, 1);
  const auto cell_of = [cells](double c) {
    return std::min(cells - 1, static_cast<std::uint64_t>(c * cells));
  };
  std::vector<std::uint32_t> start(cells * cells + 1, 0);
  std::vector<std::uint64_t> cell(n);
  for (NodeId v = 0; v < n; ++v) {
    cell[v] = cell_of(y[v]) * cells + cell_of(x[v]);
    ++start[cell[v] + 1];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<NodeId> by_cell(n);
  {
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (NodeId v = 0; v < n; ++v) by_cell[fill[cell[v]]++] = v;
  }
  GraphBuilder b(n);
  UnionFind uf(n);
  std::vector<NodeId> near;
  for (NodeId u = 0; u < n; ++u) {
    near.clear();
    const std::uint64_t cx = cell[u] % cells;
    const std::uint64_t cy = cell[u] / cells;
    for (std::uint64_t gy = cy == 0 ? 0 : cy - 1;
         gy <= std::min(cy + 1, cells - 1); ++gy) {
      for (std::uint64_t gx = cx == 0 ? 0 : cx - 1;
           gx <= std::min(cx + 1, cells - 1); ++gx) {
        const std::uint64_t c = gy * cells + gx;
        for (std::uint32_t i = start[c]; i < start[c + 1]; ++i) {
          const NodeId v = by_cell[i];
          if (v <= u) continue;
          const double dx = x[u] - x[v];
          const double dy = y[u] - y[v];
          if (dx * dx + dy * dy <= r2) near.push_back(v);
        }
      }
    }
    std::sort(near.begin(), near.end());
    for (const NodeId v : near) {
      b.add_edge(u, v);
      uf.unite(u, v);
    }
  }
  // Connect components via their geometrically closest pair so the stitched
  // edges still look like radio links.
  for (;;) {
    std::vector<NodeId> root(n);
    for (NodeId v = 0; v < n; ++v) root[v] = uf.find(v);
    // Connected: the all-pairs scan below would find no pair.
    if (std::count(root.begin(), root.end(), root[0]) == n) break;
    NodeId bu = kNoNode, bv = kNoNode;
    double best = std::numeric_limits<double>::max();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (root[u] == root[v]) continue;
        const double dx = x[u] - x[v];
        const double dy = y[u] - y[v];
        const double d = dx * dx + dy * dy;
        if (d < best) {
          best = d;
          bu = u;
          bv = v;
        }
      }
    }
    b.add_edge(bu, bv);
    uf.unite(bu, bv);
  }
  return std::move(b).build();
}

namespace {

/// Recursive series/parallel composition between two terminals.
void sp_build(GraphBuilder& b, std::uint32_t& next_node, NodeId s, NodeId t,
              std::uint32_t budget, Rng& rng) {
  if (budget <= 1) {
    b.add_edge(s, t);
    return;
  }
  const std::uint32_t left =
      1 + static_cast<std::uint32_t>(rng.below(budget - 1));
  const std::uint32_t right = budget - left;
  if (rng.bernoulli(0.5) && next_node < b.node_count()) {
    // Series: s — w — t.
    const NodeId w = next_node++;
    sp_build(b, next_node, s, w, left, rng);
    sp_build(b, next_node, w, t, right, rng);
  } else {
    // Parallel: two independent s—t branches (duplicate unit edges merge).
    sp_build(b, next_node, s, t, left, rng);
    sp_build(b, next_node, s, t, right, rng);
  }
}

}  // namespace

Graph series_parallel(std::uint32_t edges, Rng& rng) {
  RC_EXPECTS(edges >= 1);
  // Series compositions create at most edges-1 internal nodes.
  const std::uint32_t capacity = edges + 1;
  GraphBuilder b(capacity);
  std::uint32_t next_node = 2;
  sp_build(b, next_node, 0, 1, edges, rng);
  // Trim unused node ids by compacting into a fresh builder.
  Graph full = std::move(b).build();
  std::vector<NodeId> remap(full.node_count(), kNoNode);
  NodeId used = 0;
  for (NodeId v = 0; v < full.node_count(); ++v) {
    if (full.degree(v) > 0 || v < 2) remap[v] = used++;
  }
  GraphBuilder compact(used);
  for (NodeId v = 0; v < full.node_count(); ++v) {
    if (remap[v] == kNoNode) continue;
    for (const NodeId w : full.neighbors(v)) {
      if (v < w) compact.add_edge(remap[v], remap[w]);
    }
  }
  return std::move(compact).build();
}

Graph clustered(std::uint32_t clusters, std::uint32_t size, double p_intra,
                Rng& rng) {
  RC_EXPECTS(clusters >= 1 && size >= 1);
  const std::uint32_t n = clusters * size;
  GraphBuilder b(n);
  UnionFind uf(n);
  for (std::uint32_t c = 0; c < clusters; ++c) {
    const NodeId base = c * size;
    for (NodeId u = 0; u < size; ++u) {
      for (NodeId v = u + 1; v < size; ++v) {
        if (rng.bernoulli(p_intra)) {
          b.add_edge(base + u, base + v);
          uf.unite(base + u, base + v);
        }
      }
    }
    // Keep each cluster internally connected via a spanning star on vertex 0.
    for (NodeId v = 1; v < size; ++v) {
      if (uf.unite(base, base + v)) b.add_edge(base, base + v);
    }
  }
  // Random-tree backbone over gateways (vertex 0 of each cluster).
  for (std::uint32_t c = 1; c < clusters; ++c) {
    const auto target = static_cast<std::uint32_t>(rng.below(c));
    b.add_edge(c * size, target * size);
  }
  return std::move(b).build();
}

Graph figure1() {
  // Node ids (see DESIGN.md §4):
  //   0 = source s
  //   1 = A (label 10, transmits {3})
  //   2 = C (label 10, transmits {3,5})
  //   3 = B (label 10, transmits {3,5,7})
  //   4 = D (label 10, transmits {5})
  //   5 = E (label 11, transmits {4,5}, designator that keeps B after stage 2)
  //   6 = F (label 11, transmits {4,5}, designator that keeps C after stage 2)
  //   7 = G (label 01, transmits {6}, designator that keeps B after stage 3)
  //   8..11 = private witnesses of C, D, E, F (label 00, informed in round 5)
  //   12 = H (label 00, informed in round 7 after a round-5 collision via B,C)
  GraphBuilder b(13);
  b.add_edge(0, 1).add_edge(0, 2).add_edge(0, 3);  // Γ(s) = {A, C, B}
  b.add_edge(1, 2);                 // A–C (collision cover for A in round 5)
  b.add_edge(4, 1);                 // D–A (D's unique round-3 informer)
  b.add_edge(5, 3);                                 // E–B
  b.add_edge(6, 2);                                 // F–C
  b.add_edge(7, 1).add_edge(7, 3);  // G–A, G–B (round-3 collision at G)
  b.add_edge(8, 1).add_edge(8, 2);  // P_C–A, P_C–C (round-3 collision)
  b.add_edge(9, 4);                                 // P_D–D
  b.add_edge(10, 5);                                // P_E–E
  b.add_edge(11, 6);                                // P_F–F
  b.add_edge(12, 3).add_edge(12, 2);  // H–B, H–C (round-5 collision at H)
  return std::move(b).build();
}

Graph from_descriptor(const std::string& descriptor) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : descriptor + ":") {
    if (c == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  RC_EXPECTS_MSG(!parts.empty() && !parts[0].empty(),
                 "empty graph descriptor");
  const std::string& family = parts[0];
  const std::size_t args = parts.size() - 1;
  const auto num = [&](std::size_t k) {
    RC_EXPECTS_MSG(k < parts.size() && !parts[k].empty() &&
                       parts[k].find_first_not_of("0123456789") ==
                           std::string::npos,
                   "graph descriptor argument must be a non-negative integer");
    return static_cast<std::uint32_t>(std::stoul(parts[k]));
  };
  const auto real = [&](std::size_t k) {
    RC_EXPECTS_MSG(k < parts.size() && !parts[k].empty(),
                   "graph descriptor argument missing");
    std::size_t used = 0;
    const double v = std::stod(parts[k], &used);
    RC_EXPECTS_MSG(used == parts[k].size(),
                   "graph descriptor argument must be a number");
    return v;
  };
  if (family == "path" && args == 1) return path(num(1));
  if (family == "cycle" && args == 1) return cycle(num(1));
  if (family == "star" && args == 1) return star(num(1));
  if (family == "complete" && args == 1) return complete(num(1));
  if (family == "bipartite" && args == 2) {
    return complete_bipartite(num(1), num(2));
  }
  if (family == "grid" && args == 2) return grid(num(1), num(2));
  if (family == "torus" && args == 2) return torus(num(1), num(2));
  if (family == "hypercube" && args == 1) return hypercube(num(1));
  if (family == "wheel" && args == 1) return wheel(num(1));
  if (family == "petersen" && args == 0) return petersen();
  if (family == "figure1" && args == 0) return figure1();
  if (family == "balanced-tree" && args == 2) {
    return balanced_tree(num(1), num(2));
  }
  if (family == "caterpillar" && args == 2) {
    return caterpillar(num(1), num(2));
  }
  if (family == "lollipop" && args == 2) return lollipop(num(1), num(2));
  if (family == "tree" && args == 2) {
    Rng rng(num(2));
    return random_tree(num(1), rng);
  }
  if (family == "gnp" && args == 3) {
    Rng rng(num(3));
    return gnp_connected(num(1), real(2), rng);
  }
  if (family == "sgnp" && args == 3) {
    Rng rng(num(3));
    return sparse_gnp_connected(num(1), real(2), rng);
  }
  if (family == "disk" && args == 3) {
    Rng rng(num(3));
    return random_geometric(num(1), real(2), rng);
  }
  if (family == "sp" && args == 2) {
    Rng rng(num(2));
    return series_parallel(num(1), rng);
  }
  if (family == "clustered" && args == 4) {
    Rng rng(num(4));
    return clustered(num(1), num(2), real(3), rng);
  }
  RC_EXPECTS_MSG(false, "unknown graph descriptor '" + descriptor + "'");
  return {};
}

}  // namespace radiocast::graph
