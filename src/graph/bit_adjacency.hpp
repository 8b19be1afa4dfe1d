/// \file bit_adjacency.hpp
/// \brief Dense adjacency bitmaps for bit-parallel round resolution.
///
/// A `BitAdjacency` packs each vertex neighbourhood into ceil(n/64) 64-bit
/// words, so "which listeners have a transmitting neighbour" becomes word-wide
/// OR/AND over rows instead of a per-edge scalar walk.  The n^2/8-byte cost
/// only pays off on dense graphs, and `is_bit_dense` is the one rule that
/// says which graphs those are.  A dense graph builds its bitmap once and
/// keeps it (`Graph::bit_adjacency`), so the stage-set construction and
/// every engine on that graph share the same rows.
/// The bitmap lives in a `support::HugeWords` buffer: multi-megabyte bitmaps
/// get 2 MiB transparent-huge-page backing (one TLB entry per 2 MiB of row
/// walk instead of 512), smaller ones a plain aligned allocation — contents
/// are identical either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "support/hugepage.hpp"

namespace radiocast::graph {

/// Immutable n x n adjacency bitmap built from a CSR `Graph`.
class BitAdjacency {
 public:
  BitAdjacency() = default;
  explicit BitAdjacency(const Graph& g);

  std::uint32_t node_count() const noexcept { return n_; }

  /// 64-bit words per row (= words_for(node_count())).
  std::size_t words_per_row() const noexcept { return words_; }

  /// Neighbourhood mask of `v`: bit w is set iff {v, w} is an edge.
  std::span<const std::uint64_t> row(NodeId v) const {
    RC_EXPECTS(v < n_);
    return {bits_.data() + static_cast<std::size_t>(v) * words_, words_};
  }

  /// Edge test in O(1).
  bool test(NodeId u, NodeId v) const {
    RC_EXPECTS(u < n_ && v < n_);
    const auto word = bits_[static_cast<std::size_t>(u) * words_ + (v >> 6)];
    return ((word >> (v & 63)) & 1u) != 0;
  }

  /// Total bitmap footprint in bytes.
  std::size_t memory_bytes() const noexcept {
    return bits_.size() * sizeof(std::uint64_t);
  }

  /// True iff the bitmap sits in a huge-page-advised mapping (diagnostics).
  bool huge_pages() const noexcept { return bits_.huge(); }

  /// Words needed to hold one n-bit row.
  static std::size_t words_for(std::uint32_t n) noexcept {
    return (static_cast<std::size_t>(n) + 63) / 64;
  }

 private:
  std::uint32_t n_ = 0;
  std::size_t words_ = 0;
  support::HugeWords bits_;
};

/// Upper bound on a resident adjacency bitmap.
inline constexpr std::size_t kBitAdjacencyMemoryCap = 64u << 20;  // 64 MiB

/// The density rule: true iff n >= 64, the bitmap fits under
/// `kBitAdjacencyMemoryCap` and the average degree reaches the ⌈n/64⌉ words
/// of one row (the break-even between a list walk and a row pass).  On such
/// a graph kAuto resolves rounds on the bitmap, `sim::BitEngine` borrows the
/// resident rows and `core::build_stage_sets` counts on them; elsewhere all
/// three walk adjacency lists.  A resident bitmap is therefore never more
/// than twice the CSR adjacency array.
bool is_bit_dense(const Graph& g);

}  // namespace radiocast::graph
