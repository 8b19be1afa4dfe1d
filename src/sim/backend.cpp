#include "sim/backend.hpp"

#include <algorithm>
#include <bit>

namespace radiocast::sim {

const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kAuto: return "auto";
    case BackendKind::kScalar: return "scalar";
    case BackendKind::kBit: return "bit";
  }
  return "?";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
  if (name == "auto") return BackendKind::kAuto;
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "bit") return BackendKind::kBit;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ScalarEngine

ScalarEngine::ScalarEngine(const graph::Graph& g)
    : EngineBackend(g.node_count()),
      graph_(g),
      slots_(g.node_count()),
      touched_bits_(graph::BitAdjacency::words_for(g.node_count()), 0) {}

void ScalarEngine::resolve(std::span<const NodeId> transmitters,
                           std::span<const std::uint64_t> listening,
                           bool want_collisions, RoundResolution& out) {
  out.clear();
  if (transmitters.empty()) return;

  // A transmitting node never hears: its slot starts saturated, so the
  // walk below counts it without ever touching it first.
  for (const NodeId t : transmitters) slots_[t].count = 2;

  // First touch of a listener sets its bit; first touch of its word records
  // the word, so extraction visits this round's footprint only.
  touched_words_.clear();
  for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
    for (const NodeId w : graph_.neighbors(transmitters[i])) {
      const std::uint32_t word = w >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (w & 63);
      if ((listening[word] & bit) == 0) continue;
      Slot& slot = slots_[w];
      if (slot.count++ == 0) {
        slot.tx = i;
        if (touched_bits_[word] == 0) touched_words_.push_back(word);
        touched_bits_[word] |= bit;
      }
    }
  }

  // Canonical listener order, so traces are identical across backends:
  // ascending words, ascending bits within each.  Scratch for the touched
  // listeners is reset on the way.
  std::sort(touched_words_.begin(), touched_words_.end());
  for (const std::uint32_t word : touched_words_) {
    std::uint64_t bits = touched_bits_[word];
    touched_bits_[word] = 0;
    while (bits) {
      const auto w = static_cast<NodeId>((word << 6) + std::countr_zero(bits));
      bits &= bits - 1;
      Slot& slot = slots_[w];
      const std::uint32_t count = slot.count;
      slot.count = 0;
      if (count == 1) {
        out.deliveries.emplace_back(w, slot.tx);
      } else if (want_collisions) {
        out.collisions.push_back(w);
      }
    }
  }

  for (const NodeId t : transmitters) slots_[t].count = 0;
}

// ---------------------------------------------------------------------------
// BitEngine

BitEngine::BitEngine(const graph::Graph& g)
    : EngineBackend(g.node_count()), kernels_(&simd::active_kernels()) {
  if (graph::is_bit_dense(g)) {
    adj_ = &g.bit_adjacency();
  } else {
    private_adj_ = graph::BitAdjacency(g);
    adj_ = &private_adj_;
  }
  words_ = adj_->words_per_row();
  once_.assign(words_, 0);
  twice_.assign(words_, 0);
  tx_mask_.assign(words_, 0);
  heard_.assign(words_, 0);
  heard_words_.reserve(words_);
  unique_tx_index_.assign(g.node_count(), 0);
}

void BitEngine::resolve(std::span<const NodeId> transmitters,
                        std::span<const std::uint64_t> listening,
                        bool want_collisions, RoundResolution& out) {
  out.clear();
  if (transmitters.empty()) return;

  // Saturating two-counter accumulation: after all rows are folded in,
  // once = ">= 1 transmitting neighbour", twice = ">= 2".  The first row
  // initializes the engine-owned accumulators directly, and tx_mask_ is
  // all-zero on entry (restored transmitter-by-transmitter on exit), so a
  // round pays no separate O(n)-bit zeroing passes.  The word loops are the
  // dispatched simd kernels; bit extraction below stays scalar (it is
  // bit-scan bound, not word bound).
  kernels_->accumulate_first(once_.data(), twice_.data(),
                             adj_->row(transmitters[0]).data(), words_);
  for (std::size_t i = 1; i < transmitters.size(); ++i) {
    kernels_->accumulate(once_.data(), twice_.data(),
                         adj_->row(transmitters[i]).data(), words_);
  }
  for (const NodeId t : transmitters) {
    tx_mask_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }

  // Only listeners hear: the mask cuts `heard_` down to the words worth
  // attributing.
  heard_words_.clear();
  if (kernels_->heard_sweep(heard_.data(), once_.data(), twice_.data(),
                            tx_mask_.data(), words_) != 0) {
    for (std::size_t w = 0; w < words_; ++w) {
      heard_[w] &= listening[w];
      if (heard_[w] != 0) {
        heard_words_.push_back(static_cast<std::uint32_t>(w));
      }
    }
  }

  if (!heard_words_.empty()) {
    // Attribute each heard listener to its unique transmitter.  Every heard
    // bit lies in exactly one transmitter's row, so this writes each slot
    // once.  All-collision rounds skip both passes entirely.
    for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
      const auto row = adj_->row(transmitters[i]);
      for (const std::uint32_t w : heard_words_) {
        std::uint64_t hits = row[w] & heard_[w];
        while (hits) {
          const auto b = static_cast<std::uint32_t>(std::countr_zero(hits));
          hits &= hits - 1;
          unique_tx_index_[(w << 6) + b] = i;
        }
      }
    }

    for (const std::uint32_t w : heard_words_) {
      std::uint64_t h = heard_[w];
      while (h) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(h));
        h &= h - 1;
        const auto listener = static_cast<NodeId>((w << 6) + b);
        out.deliveries.emplace_back(listener, unique_tx_index_[listener]);
      }
    }
  }

  if (want_collisions) {
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t c = twice_[w] & ~tx_mask_[w] & listening[w];
      while (c) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(c));
        c &= c - 1;
        out.collisions.push_back(static_cast<NodeId>((w << 6) + b));
      }
    }
  }

  // Restore the tx_mask_ all-zero invariant for the next round.
  for (const NodeId t : transmitters) tx_mask_[t >> 6] = 0;
}

// ---------------------------------------------------------------------------
// Selection

BackendKind choose_backend(const graph::Graph& g, BackendKind requested) {
  if (requested != BackendKind::kAuto) return requested;
  return graph::is_bit_dense(g) ? BackendKind::kBit : BackendKind::kScalar;
}

std::unique_ptr<EngineBackend> make_engine_backend(const graph::Graph& g,
                                                   BackendKind kind) {
  if (choose_backend(g, kind) == BackendKind::kBit) {
    return std::make_unique<BitEngine>(g);
  }
  return std::make_unique<ScalarEngine>(g);
}

}  // namespace radiocast::sim
