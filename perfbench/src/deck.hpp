/// \file deck.hpp
/// \brief The benchmark's seeded workloads: graphs, specs and batch draws.
///
/// Every deck is a pure function of the seed: graph descriptors (and the
/// generator seeds inside them), sources, batch order and the serve batch
/// draws.  The program under test only ever sees the generated specs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/sweep.hpp"

namespace perfbench {

enum class Workload { kColdSweep, kWarmSweep, kServeWarm };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// A sweep deck: the graphs set-up registers, and one pass of batches.
/// Specs name graphs by generator descriptor only, so they resolve through
/// the runner's descriptor memo once the graphs are registered.
struct SweepDeck {
  std::vector<std::string> graphs;
  std::vector<std::vector<radiocast::runtime::ExperimentSpec>> batches;
};

/// cold_sweep: 24 distinct graphs (sparse G(n, 8/n) and random trees at
/// n = 2*10^4, unit-disk graphs at n = 4*10^3, G(2048, 0.03)) in three
/// batches of 8.  Per graph: {b, ack, common-round, arb} x 2 sources on the
/// engine path plus {b, ack, arb} compiled at the first source.
SweepDeck make_cold_deck(std::uint64_t seed);

/// warm_sweep: one batch of engine-path specs on graphs chosen so kAuto
/// picks every backend (scalar on grid / tree / unit-disk / sparse G(n, p)
/// below the hybrid threshold, bit on G(4096, 0.05), sharded on
/// G(8192, 0.05), hybrid on G(10^5, 8/n)).
SweepDeck make_warm_deck(std::uint64_t seed);

/// serve_warm: compiled b/ack/arb specs on large graphs (cache hits after
/// the store is prepared) and engine-path b/ack specs on ~10^3-node graphs.
struct ServeDeck {
  std::vector<std::string> graphs;
  std::vector<radiocast::runtime::ExperimentSpec> compiled_pool;
  std::vector<radiocast::runtime::ExperimentSpec> engine_pool;
  /// One spec per deck graph: the batch that ends a restart's set-up.
  std::vector<radiocast::runtime::ExperimentSpec> warmup;
};
ServeDeck make_serve_deck(std::uint64_t seed);

/// Specs per serve batch: compiled draws then engine draws.
inline constexpr std::size_t kServeCompiledPerBatch = 6;
inline constexpr std::size_t kServeEnginePerBatch = 3;

/// Indices into compiled_pool then engine_pool (engine indices offset by
/// compiled_pool.size()) for batch `index` of connection `conn`.
std::vector<std::size_t> serve_draw(const ServeDeck& deck, std::uint64_t seed,
                                    std::uint32_t conn, std::uint64_t index);

/// The pool spec a `serve_draw` index names.
const radiocast::runtime::ExperimentSpec& serve_spec(const ServeDeck& deck,
                                                     std::size_t index);

/// Canonical text of a deck (every spec's wire encoding, in order) — what
/// the determinism tests compare.
std::string deck_text(const SweepDeck& deck);
std::string deck_text(const ServeDeck& deck);

}  // namespace perfbench
