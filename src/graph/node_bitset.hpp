/// \file node_bitset.hpp
/// \brief A node set kept as an n-bit map plus the list of its nonzero
///        words: O(1) insert and membership, and an ascending read-back
///        that sorts only the nonzero words, never the members.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace radiocast::graph {

/// A set of nodes in [0, n).
class NodeBitset {
 public:
  explicit NodeBitset(std::uint32_t n) : bits_((n + 63) / 64, 0) {}

  bool contains(NodeId v) const { return (bits_[v >> 6] >> (v & 63)) & 1u; }

  void insert(NodeId v) {
    const std::uint32_t word = v >> 6;
    if (bits_[word] == 0) words_.push_back(word);
    bits_[word] |= std::uint64_t{1} << (v & 63);
  }

  /// Overwrites `out` with the members in ascending order.  Costs
  /// O(k log k + members) for the set's k nonzero words, not O(n).
  void members(std::vector<NodeId>& out) {
    std::sort(words_.begin(), words_.end());
    out.clear();
    for (const std::uint32_t word : words_) {
      for (std::uint64_t bits = bits_[word]; bits != 0; bits &= bits - 1) {
        out.push_back((word << 6) + std::countr_zero(bits));
      }
    }
  }

  /// Empties the set in O(k).
  void clear() {
    for (const std::uint32_t word : words_) bits_[word] = 0;
    words_.clear();
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> words_;  ///< nonzero words of `bits_`
};

}  // namespace radiocast::graph
