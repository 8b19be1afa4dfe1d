#include "graph/graph.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <sstream>

#include "graph/bit_adjacency.hpp"

namespace radiocast::graph {

struct Graph::BitMemo {
  std::mutex mutex;
  std::optional<BitAdjacency> bits;  ///< guarded by mutex; immutable once set
};

std::shared_ptr<Graph::BitMemo> Graph::new_bit_memo() {
  return std::make_shared<BitMemo>();
}

const BitAdjacency& Graph::bit_adjacency() const {
  const std::lock_guard lock(bit_memo_->mutex);
  if (!bit_memo_->bits) bit_memo_->bits.emplace(*this);
  return *bit_memo_->bits;
}

bool Graph::has_bit_adjacency() const {
  const std::lock_guard lock(bit_memo_->mutex);
  return bit_memo_->bits.has_value();
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  RC_EXPECTS(u < node_count() && v < node_count());
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "Graph(n=" << node_count() << ", m=" << edge_count() << ")";
  return os.str();
}

GraphBuilder::GraphBuilder(std::uint32_t node_count) : n_(node_count) {}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  RC_EXPECTS_MSG(u != v, "self-loops are not allowed in simple graphs");
  RC_EXPECTS(u < n_ && v < n_);
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  return *this;
}

void GraphBuilder::check_sorted_run(
    std::span<const std::pair<NodeId, NodeId>> run) const {
  for (std::size_t i = 0; i < run.size(); ++i) {
    const auto [u, v] = run[i];
    RC_EXPECTS_MSG(u != v, "self-loops are not allowed in simple graphs");
    RC_EXPECTS(u < v && v < n_);
    RC_EXPECTS_MSG(i == 0 || run[i - 1] < run[i],
                   "sorted run must be strictly increasing");
  }
}

GraphBuilder& GraphBuilder::add_sorted_run(
    std::span<const std::pair<NodeId, NodeId>> run) {
  if (run.empty()) return *this;
  check_sorted_run(run);
  runs_.emplace_back(edges_.size(), edges_.size() + run.size());
  edges_.insert(edges_.end(), run.begin(), run.end());
  return *this;
}

GraphBuilder& GraphBuilder::add_sorted_run(
    std::vector<std::pair<NodeId, NodeId>>&& run) {
  if (run.empty() || !edges_.empty()) {
    return add_sorted_run(std::span<const std::pair<NodeId, NodeId>>(run));
  }
  check_sorted_run(run);
  runs_.emplace_back(0, run.size());
  edges_ = std::move(run);
  return *this;
}

Graph GraphBuilder::build() && {
  // Generators overwhelmingly insert edges in sorted (u, v) order already
  // (dense families make this sort the dominant construction cost).
  if (!std::is_sorted(edges_.begin(), edges_.end())) {
    if (runs_.empty()) {
      std::sort(edges_.begin(), edges_.end());
    } else {
      // Segment list = recorded sorted runs plus the add_edge gaps between
      // them (each gap sorted individually), folded together by bottom-up
      // pairwise inplace_merge: O(m log segments) instead of O(m log m).
      std::vector<std::size_t> bounds;
      std::size_t pos = 0;
      for (const auto& [begin, end] : runs_) {
        if (pos < begin) {
          std::sort(edges_.begin() + pos, edges_.begin() + begin);
          bounds.push_back(pos);
        }
        bounds.push_back(begin);
        pos = end;
      }
      if (pos < edges_.size()) {
        std::sort(edges_.begin() + pos, edges_.end());
        bounds.push_back(pos);
      }
      bounds.push_back(edges_.size());
      while (bounds.size() > 2) {
        std::vector<std::size_t> merged;
        std::size_t i = 0;
        for (; i + 2 < bounds.size(); i += 2) {
          std::inplace_merge(edges_.begin() + bounds[i],
                             edges_.begin() + bounds[i + 1],
                             edges_.begin() + bounds[i + 2]);
          merged.push_back(bounds[i]);
        }
        if (i + 1 < bounds.size()) merged.push_back(bounds[i]);
        merged.push_back(bounds.back());
        bounds = std::move(merged);
      }
    }
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adj_.resize(edges_.size() * 2);
  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    g.adj_[cursor[u]++] = v;
    g.adj_[cursor[v]++] = u;
  }
  // Each vertex's list is sorted by construction: scanning edges_ in sorted
  // (u, v) order appends w's lower neighbours in increasing order (one per
  // edge (u, w)), then its higher neighbours in increasing order (one per
  // edge (w, v)), and every lower endpoint < w < every higher endpoint.
  return g;
}

}  // namespace radiocast::graph
