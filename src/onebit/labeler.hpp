/// \file labeler.hpp
/// \brief One-bit labeling schemes (paper §5 conclusion).
///
/// The paper sketches, without constructions, that 1-bit labels suffice for
/// broadcast when every node is within distance 2 of the source, and asserts
/// the same for grids and series-parallel graphs.  Our executable
/// reconstruction (DESIGN.md §3.4) interprets the single bit as x1 *and* x2 of
/// algorithm B — a 1-labeled node sends "stay" one round after being informed
/// and retransmits µ two rounds after; the stay-retention chain rule is
/// unchanged.  Under that universal algorithm B1, the execution is a closed
/// deterministic function of the bit vector:
///
///   T_1 = {s};  NEW_i = uninformed nodes with exactly one T_i neighbour;
///   choose designators B_i ⊆ NEW_i (their bit = 1);
///   T_{i+1} = B_i ∪ { v ∈ T_i : |Γ(v) ∩ B_i| = 1 }.
///
/// Retirement is permanent (a transmitter that misses a "stay" beat can never
/// transmit again), so bit choices are irreversible and a greedy labeler can
/// strand nodes.  `find_onebit_labeling` therefore runs a randomized greedy
/// wavefront construction with restarts and validates every candidate by an
/// honest engine simulation.  For radius-<=2 graphs the first wave reduces to
/// the paper's nested-DOM modification ("DOM_{i-1} ∪ NEW_{i-1} → DOM_{i-1}"),
/// and the private-witness argument guarantees designators exist; success on
/// grids and series-parallel graphs is measured, not assumed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace radiocast::onebit {

using graph::Graph;
using graph::NodeId;

struct OneBitOptions {
  std::uint32_t max_attempts = 64;  ///< randomized restarts
  std::uint64_t seed = 0;
  std::uint64_t max_stages = 0;  ///< 0 = 4n + 8 (stall safety net)
};

struct OneBitResult {
  bool ok = false;
  std::vector<bool> bits;             ///< the labeling (empty when !ok)
  std::uint32_t attempts = 0;         ///< restarts consumed
  std::uint64_t completion_round = 0; ///< last first-µ reception (internal sim)
  std::uint32_t stages = 0;           ///< wave count ℓ analog
};

/// Searches for a 1-bit labeling under which algorithm B1 (B with
/// x1 = x2 = bit) completes broadcast from `source`.  Deterministic for a
/// given seed.
OneBitResult find_onebit_labeling(const Graph& g, NodeId source,
                                  const OneBitOptions& opt = {});

/// Replays the closed-form B1 dynamics for a given bit vector and reports the
/// completion round (0 if broadcast does not complete within the stage cap).
/// Used by tests to cross-validate against the engine.
std::uint64_t onebit_completion_round(const Graph& g, NodeId source,
                                      const std::vector<bool>& bits,
                                      std::uint64_t max_stages = 0);

/// Lowest-id node whose first reception happens in the final B1 wave — the
/// z marker of the acknowledged variant.  Replays the closed-form dynamics;
/// `bits` must be a labeling under which broadcast completes.
NodeId last_informed_node(const Graph& g, NodeId source,
                          const std::vector<bool>& bits);

}  // namespace radiocast::onebit
