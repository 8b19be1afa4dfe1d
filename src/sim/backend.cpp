#include "sim/backend.hpp"

#include <algorithm>
#include <bit>
#include <thread>

#include "parallel/parallel_for.hpp"

namespace radiocast::sim {

const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kAuto: return "auto";
    case BackendKind::kScalar: return "scalar";
    case BackendKind::kBit: return "bit";
    case BackendKind::kSharded: return "sharded";
  }
  return "?";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
  if (name == "auto") return BackendKind::kAuto;
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "bit") return BackendKind::kBit;
  if (name == "sharded") return BackendKind::kSharded;
  return std::nullopt;
}

std::size_t resolve_thread_count(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  const auto hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// ---------------------------------------------------------------------------
// ScalarEngine

ScalarEngine::ScalarEngine(const graph::Graph& g) : graph_(g) {
  const auto n = g.node_count();
  tx_neighbor_count_.assign(n, 0);
  unique_tx_index_.assign(n, 0);
  transmitting_.assign(n, 0);
  touched_bits_.assign(graph::BitAdjacency::words_for(n), 0);
}

void ScalarEngine::resolve(std::span<const NodeId> transmitters,
                           bool want_collisions, RoundResolution& out) {
  out.clear();
  if (transmitters.empty()) return;

  for (const NodeId t : transmitters) transmitting_[t] = 1;

  // First touch of a listener sets its bit; first touch of its word records
  // the word, so extraction visits this round's footprint only.
  touched_words_.clear();
  for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
    for (const NodeId w : graph_.neighbors(transmitters[i])) {
      if (tx_neighbor_count_[w] == 0) {
        unique_tx_index_[w] = i;
        const std::uint32_t word = w >> 6;
        if (touched_bits_[word] == 0) touched_words_.push_back(word);
        touched_bits_[word] |= std::uint64_t{1} << (w & 63);
      }
      ++tx_neighbor_count_[w];
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
      const std::uint32_t count = tx_neighbor_count_[w];
      tx_neighbor_count_[w] = 0;
      if (transmitting_[w]) continue;  // a transmitting node never hears
      if (count == 1) {
        out.deliveries.emplace_back(w, unique_tx_index_[w]);
      } else if (want_collisions) {
        out.collisions.push_back(w);
      }
    }
  }

  for (const NodeId t : transmitters) transmitting_[t] = 0;
}

// ---------------------------------------------------------------------------
// BitEngine

BitEngine::BitEngine(const graph::Graph& g)
    : kernels_(&simd::active_kernels()), adj_(g) {
  words_ = adj_.words_per_row();
  once_.assign(words_, 0);
  twice_.assign(words_, 0);
  tx_mask_.assign(words_, 0);
  heard_.assign(words_, 0);
  unique_tx_index_.assign(g.node_count(), 0);
}

void BitEngine::resolve(std::span<const NodeId> transmitters,
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
                             adj_.row(transmitters[0]).data(), words_);
  for (std::size_t i = 1; i < transmitters.size(); ++i) {
    kernels_->accumulate(once_.data(), twice_.data(),
                         adj_.row(transmitters[i]).data(), words_);
  }
  for (const NodeId t : transmitters) {
    tx_mask_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }

  const std::uint64_t any_heard = kernels_->heard_sweep(
      heard_.data(), once_.data(), twice_.data(), tx_mask_.data(), words_);

  if (any_heard != 0) {
    // Attribute each heard listener to its unique transmitter.  Every heard
    // bit lies in exactly one transmitter's row, so this writes each slot
    // once.  All-collision rounds skip both passes entirely.
    for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
      const auto row = adj_.row(transmitters[i]);
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t hits = row[w] & heard_[w];
        while (hits) {
          const auto b = static_cast<std::uint32_t>(std::countr_zero(hits));
          hits &= hits - 1;
          unique_tx_index_[(w << 6) + b] = i;
        }
      }
    }

    for (std::size_t w = 0; w < words_; ++w) {
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
      std::uint64_t c = twice_[w] & ~tx_mask_[w];
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
// ShardedBitEngine

namespace {

/// Words per 64-byte cache line: shard boundaries are multiples of this so
/// no two workers store to the same line of the shared accumulators.
constexpr std::size_t kLineWords = 8;

}  // namespace

ShardedBitEngine::ShardedBitEngine(const graph::Graph& g, std::size_t threads)
    : kernels_(&simd::active_kernels()),
      adj_(g),
      words_(adj_.words_per_row()),
      pool_(resolve_thread_count(threads)) {
  once_.assign(words_, 0);
  twice_.assign(words_, 0);
  tx_mask_.assign(words_, 0);
  heard_.assign(words_, 0);
  unique_tx_index_.assign(g.node_count(), 0);

  // One shard per worker, each a cache-line-aligned word range; tiny rows
  // collapse to fewer (possibly one) shards rather than sub-line slivers.
  const std::size_t lines = (words_ + kLineWords - 1) / kLineWords;
  const std::size_t target =
      std::max<std::size_t>(1, std::min(pool_.thread_count(), lines));
  std::size_t chunk = (words_ + target - 1) / target;
  chunk = ((chunk + kLineWords - 1) / kLineWords) * kLineWords;
  for (std::size_t w = 0; w < words_; w += chunk) {
    Shard s;
    s.begin_word = w;
    s.end_word = std::min(words_, w + chunk);
    shards_.push_back(std::move(s));
  }
}

void ShardedBitEngine::resolve_shard(Shard& shard,
                                     std::span<const NodeId> transmitters,
                                     bool want_collisions) {
  const std::size_t w0 = shard.begin_word;
  const std::size_t w1 = shard.end_word;
  const std::size_t width = w1 - w0;
  shard.local.clear();

  // Same kernel entry points as the dense BitEngine, offset to this shard's
  // word window (the kernels take arbitrary 8-byte-aligned sub-ranges).
  kernels_->accumulate_first(once_.data() + w0, twice_.data() + w0,
                             adj_.row(transmitters[0]).data() + w0, width);
  for (std::size_t i = 1; i < transmitters.size(); ++i) {
    kernels_->accumulate(once_.data() + w0, twice_.data() + w0,
                         adj_.row(transmitters[i]).data() + w0, width);
  }

  const std::uint64_t any_heard =
      kernels_->heard_sweep(heard_.data() + w0, once_.data() + w0,
                            twice_.data() + w0, tx_mask_.data() + w0, width);

  if (any_heard != 0) {
    for (std::uint32_t i = 0; i < transmitters.size(); ++i) {
      const auto row = adj_.row(transmitters[i]);
      for (std::size_t w = w0; w < w1; ++w) {
        std::uint64_t hits = row[w] & heard_[w];
        while (hits) {
          const auto b = static_cast<std::uint32_t>(std::countr_zero(hits));
          hits &= hits - 1;
          unique_tx_index_[(w << 6) + b] = i;
        }
      }
    }
    for (std::size_t w = w0; w < w1; ++w) {
      std::uint64_t h = heard_[w];
      while (h) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(h));
        h &= h - 1;
        const auto listener = static_cast<NodeId>((w << 6) + b);
        shard.local.deliveries.emplace_back(listener,
                                            unique_tx_index_[listener]);
      }
    }
  }

  if (want_collisions) {
    for (std::size_t w = w0; w < w1; ++w) {
      std::uint64_t c = twice_[w] & ~tx_mask_[w];
      while (c) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(c));
        c &= c - 1;
        shard.local.collisions.push_back(static_cast<NodeId>((w << 6) + b));
      }
    }
  }
}

void ShardedBitEngine::resolve(std::span<const NodeId> transmitters,
                               bool want_collisions, RoundResolution& out) {
  out.clear();
  if (transmitters.empty()) return;

  for (const NodeId t : transmitters) {
    tx_mask_[t >> 6] |= std::uint64_t{1} << (t & 63);
  }

  // Shards read shared state (rows, tx_mask_) and write disjoint word
  // ranges of the accumulators plus their own local buffers; the
  // parallel_for completion is the round barrier.  Small rounds run the
  // same shard code inline — identical results, no pool round trip.
  const bool inline_round =
      shards_.size() <= 1 ||
      transmitters.size() * words_ < kShardedInlineCutoffWords;
  if (inline_round) {
    for (auto& shard : shards_) {
      resolve_shard(shard, transmitters, want_collisions);
    }
  } else {
    par::parallel_for(pool_, shards_.size(), [&](std::size_t i) {
      resolve_shard(shards_[i], transmitters, want_collisions);
    });
  }

  // Deterministic reduction: concatenate in shard (= ascending word-range)
  // order, which is ascending listener order globally.
  for (const auto& shard : shards_) {
    out.deliveries.insert(out.deliveries.end(), shard.local.deliveries.begin(),
                          shard.local.deliveries.end());
    out.collisions.insert(out.collisions.end(), shard.local.collisions.begin(),
                          shard.local.collisions.end());
  }

  for (const NodeId t : transmitters) tx_mask_[t >> 6] = 0;
}

// ---------------------------------------------------------------------------
// Selection

BackendKind choose_backend(const graph::Graph& g, BackendKind requested,
                           std::size_t threads) {
  if (requested != BackendKind::kAuto) return requested;
  const auto n = g.node_count();
  if (n < 64) return BackendKind::kScalar;
  const std::size_t words = graph::BitAdjacency::words_for(n);
  const std::size_t bytes = static_cast<std::size_t>(n) * words * 8;
  if (bytes > kBitBackendMemoryCap) return BackendKind::kScalar;
  // Scalar costs deg(t) edge visits per transmitter; bit costs ~words word
  // ops.  Prefer bit when the average degree exceeds the word cost.
  const double avg_degree = 2.0 * static_cast<double>(g.edge_count()) / n;
  if (avg_degree < static_cast<double>(words)) return BackendKind::kScalar;
  // Big-enough rows amortize the round barrier: go multi-core.
  if (n >= kShardedAutoMinNodes && resolve_thread_count(threads) >= 2) {
    return BackendKind::kSharded;
  }
  return BackendKind::kBit;
}

std::unique_ptr<EngineBackend> make_engine_backend(const graph::Graph& g,
                                                   BackendKind kind,
                                                   std::size_t threads) {
  switch (choose_backend(g, kind, threads)) {
    case BackendKind::kBit: return std::make_unique<BitEngine>(g);
    case BackendKind::kSharded:
      return std::make_unique<ShardedBitEngine>(g, threads);
    default: return std::make_unique<ScalarEngine>(g);
  }
}

}  // namespace radiocast::sim
