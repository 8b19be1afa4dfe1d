/// \file backend.hpp
/// \brief Pluggable round-resolution backends for the radio engine.
///
/// Resolving a round means: given the set of transmitters, find every
/// listening node with exactly one transmitting neighbour (it hears that
/// neighbour's message) and every listening node with two or more (a
/// collision).  Transmitters themselves never hear (paper §1.1).  Which
/// nodes listen is a mask the caller passes: every node, or the
/// population's `Population::listening()` superset of the nodes a
/// reception could change, so a round's work follows the labels instead
/// of the transmitters' whole neighbourhoods.  Protocol dispatch and
/// bookkeeping live in `Engine` and are backend-independent; only this
/// resolution step is specialized:
///
///  - `ScalarEngine` walks transmitter adjacency lists in the CSR graph:
///    O(sum of deg(t) + touched words) per round and O(n + m) memory —
///    optimal for sparse graphs, and kAuto's choice for every graph past
///    the `graph::kBitAdjacencyMemoryCap` bitmap wall.  A neighbour off the
///    mask costs one bit test.
///  - `BitEngine` uses dense `graph::BitAdjacency` rows and the once/twice
///    saturating accumulator (`twice |= once & row; once |= row`):
///    O(T * n/64) word operations per round regardless of edge count,
///    including the collision set (`twice` is exactly ">= 2 transmitting
///    neighbours").  Inside kAuto's bit region it borrows the graph's
///    resident bitmap (`Graph::bit_adjacency`), so a graph pays one bitmap
///    build however many engines run on it.
///
/// All backends produce listener-sorted results, so every `Engine`
/// observable (traces, counters, delivery order) is bit-exact across them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/bit_adjacency.hpp"
#include "graph/graph.hpp"
#include "sim/simd.hpp"

namespace radiocast::sim {

using graph::NodeId;

/// Which round-resolution backend an `Engine` uses.
enum class BackendKind : std::uint8_t {
  kAuto,    ///< pick by density/size (`graph::is_bit_dense`)
  kScalar,  ///< CSR adjacency walk (sparse-friendly seed implementation)
  kBit,     ///< dense bit-parallel stepping over adjacency bitmaps
};

const char* to_string(BackendKind k);

/// Parses "auto" / "scalar" / "bit"; nullopt otherwise.
std::optional<BackendKind> parse_backend(std::string_view name);

/// Outcome of resolving one round.  Both lists are sorted by listener id and
/// exclude transmitters.  `deliveries` pairs each hearing listener with the
/// index of its unique transmitter within the round's transmitter array.
struct RoundResolution {
  std::vector<std::pair<NodeId, std::uint32_t>> deliveries;
  std::vector<NodeId> collisions;

  void clear() {
    deliveries.clear();
    collisions.clear();
  }
};

/// Round-resolution strategy bound to one graph.  Implementations keep
/// per-instance scratch sized once at construction; a backend object is not
/// safe for concurrent resolve() calls.
class EngineBackend {
 public:
  virtual ~EngineBackend() = default;

  EngineBackend(const EngineBackend&) = delete;
  EngineBackend& operator=(const EngineBackend&) = delete;

  virtual BackendKind kind() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  /// Resolves one round for the nodes `listening` holds (bit v of word
  /// v / 64; at least ⌈n/64⌉ words): a node off the mask neither hears nor
  /// collides.  `transmitters` must be strictly increasing node ids.  When
  /// `want_collisions` is false the backend may leave `out.collisions`
  /// empty (the engine only needs the collision set for collision-detection
  /// mode or full traces).
  virtual void resolve(std::span<const NodeId> transmitters,
                       std::span<const std::uint64_t> listening,
                       bool want_collisions, RoundResolution& out) = 0;

  /// Resolves one round with every node listening.
  void resolve(std::span<const NodeId> transmitters, bool want_collisions,
               RoundResolution& out) {
    resolve(transmitters, everyone_, want_collisions, out);
  }

 protected:
  explicit EngineBackend(NodeId n)
      : everyone_(graph::BitAdjacency::words_for(n), ~std::uint64_t{0}) {}

 private:
  std::vector<std::uint64_t> everyone_;  ///< the all-listening mask
};

/// Sparse backend: the seed engine's per-transmitter adjacency walk, with
/// all scratch hoisted into reused buffers cleared via touched-node
/// bookkeeping — no per-round O(n) allocation or zeroing.  Each listener
/// has one 8-byte slot (its transmitting-neighbour count and the first
/// transmitter's index), so a neighbour visit touches one cache line.
/// Listeners are extracted in ascending order from an n/64-word touched
/// bitmap, visiting only the words this round touched (sorted, at most n/64
/// of them), so a round costs O(sum of deg(t) + touched words log touched
/// words) with no per-listener sort.
class ScalarEngine final : public EngineBackend {
 public:
  explicit ScalarEngine(const graph::Graph& g);

  BackendKind kind() const noexcept override { return BackendKind::kScalar; }
  const char* name() const noexcept override { return "scalar"; }
  using EngineBackend::resolve;
  void resolve(std::span<const NodeId> transmitters,
               std::span<const std::uint64_t> listening, bool want_collisions,
               RoundResolution& out) override;

 private:
  /// A listener's round: how many neighbours transmit (a transmitter's
  /// slot starts saturated at 2, so no walk ever touches it first), and the
  /// index of the first one.
  struct Slot {
    std::uint32_t count = 0;
    std::uint32_t tx = 0;
  };

  const graph::Graph& graph_;
  std::vector<Slot> slots_;
  /// One bit per listener touched this round; all-zero between rounds.
  std::vector<std::uint64_t> touched_bits_;
  /// Indices of this round's nonzero `touched_bits_` words.
  std::vector<std::uint32_t> touched_words_;
};

/// Dense backend: once/twice saturating bit accumulation over adjacency
/// bitmap rows.  Resolution costs O(T * n/64 + n/64) words per round; the
/// accumulators are engine-owned scratch initialized by the first
/// transmitter row each round (no per-round O(n)-bit zeroing passes), and
/// `tx_mask_` is kept all-zero between rounds via transmitter-indexed
/// clearing.  The word loops run through the `sim::simd` kernel set captured
/// at construction (`simd::active_kernels()`): AVX-512/AVX2 where the CPU
/// has them, the plain-word loop otherwise — bit-exact either way.
class BitEngine final : public EngineBackend {
 public:
  /// Borrows `g`'s resident bitmap when `graph::is_bit_dense(g)` (building
  /// it on first use), and builds a private one otherwise, so the resident
  /// bitmaps stay within twice their graphs' CSR adjacency.
  explicit BitEngine(const graph::Graph& g);

  BackendKind kind() const noexcept override { return BackendKind::kBit; }
  const char* name() const noexcept override { return "bit"; }
  using EngineBackend::resolve;
  void resolve(std::span<const NodeId> transmitters,
               std::span<const std::uint64_t> listening, bool want_collisions,
               RoundResolution& out) override;

  const graph::BitAdjacency& adjacency() const noexcept { return *adj_; }
  /// The kernel ISA this backend resolves with (fixed at construction).
  simd::Isa isa() const noexcept { return kernels_->isa; }

 private:
  const simd::Kernels* kernels_ = nullptr;
  graph::BitAdjacency private_adj_;  ///< empty when borrowing the graph's
  const graph::BitAdjacency* adj_ = nullptr;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> once_;     ///< >= 1 transmitting neighbour
  std::vector<std::uint64_t> twice_;    ///< >= 2 transmitting neighbours
  std::vector<std::uint64_t> tx_mask_;  ///< transmitter membership
  std::vector<std::uint64_t> heard_;    ///< once & ~twice & ~tx_mask & mask
  std::vector<std::uint32_t> heard_words_;  ///< nonzero `heard_` words
  std::vector<std::uint32_t> unique_tx_index_;
};

/// Resolves kAuto against the graph: kBit iff `graph::is_bit_dense(g)` (the
/// density rule the labeler shares), kScalar otherwise, including every
/// graph past the bitmap cap.  Explicit requests are honored unchanged.
BackendKind choose_backend(const graph::Graph& g, BackendKind requested);

/// Constructs the chosen backend, resolving kAuto via `choose_backend`.
std::unique_ptr<EngineBackend> make_engine_backend(const graph::Graph& g,
                                                   BackendKind kind);

}  // namespace radiocast::sim
