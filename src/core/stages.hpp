/// \file stages.hpp
/// \brief The five sequences of node sets from paper §2.1.
///
/// For a graph G with source s the construction produces, per stage i ≥ 1:
///   INF_i      nodes informed before round 2i-1,
///   UNINF_i    the complement,
///   FRONTIER_i uninformed nodes adjacent to an informed node,
/// DOM_i a *minimal* subset of DOM_{i-1} ∪ NEW_{i-1} dominating FRONTIER_i,
///   NEW_i      frontier nodes with exactly one neighbour in DOM_i,
/// with INF_1 = {s}, NEW_1 = FRONTIER_1 = Γ(s), DOM_1 = {s}; it stops at the
/// first ℓ with INF_ℓ = V.
///
/// The paper only requires *some* minimal dominating subset.  Which one is a
/// genuine design choice (it changes ℓ, the completion round and the label
/// distribution), so the removal strategy is a policy parameter; correctness
/// must hold for all of them (tested), and `bench_dom_policies` ablates them.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace radiocast::core {

using graph::Graph;
using graph::NodeId;

/// Strategy for reducing the candidate set DOM_{i-1} ∪ NEW_{i-1} to a minimal
/// dominating subset of the frontier.
enum class DomPolicy : std::uint8_t {
  kAscendingId,    ///< try removals in ascending vertex id (default; Figure 1)
  kDescendingId,   ///< descending vertex id
  kPreferDropOld,  ///< try to remove veterans (DOM_{i-1}) before NEW_{i-1}
  kPreferDropNew,  ///< try to remove NEW_{i-1} before veterans
  kRandom,         ///< seeded random removal order
  kGreedyCover,    ///< greedy max-coverage selection, then minimalization
  /// Greedy maximization of |NEW_i| (uniquely dominated frontier nodes), then
  /// minimalization.  Aims at the paper's §5 open problem — the *fastest*
  /// constant-label scheme — by making each stage inform as many nodes as
  /// possible, which tends to reduce the stage count ℓ and hence the 2ℓ-3
  /// completion round.
  kMaxFresh,
};

const char* to_string(DomPolicy p);

/// All DomPolicy values, for parameterized tests and ablations.
inline constexpr DomPolicy kAllDomPolicies[] = {
    DomPolicy::kAscendingId,   DomPolicy::kDescendingId,
    DomPolicy::kPreferDropOld, DomPolicy::kPreferDropNew,
    DomPolicy::kRandom,        DomPolicy::kGreedyCover,
    DomPolicy::kMaxFresh};

/// Result of the stage construction.  Stage i (1-based, i ≤ ell-1) lives at
/// vector index i-1; DOM_ℓ = FRONTIER_ℓ = NEW_ℓ = ∅ are not stored.
struct StageSets {
  std::vector<std::vector<NodeId>> dom;       ///< dom[i-1] = DOM_i, sorted
  std::vector<std::vector<NodeId>> fresh;     ///< fresh[i-1] = NEW_i, sorted
  /// frontier[i-1] = FRONTIER_i, sorted.
  std::vector<std::vector<NodeId>> frontier;
  std::uint32_t ell = 0;                      ///< smallest i with INF_i = V
  /// stage_of[v] = the unique i with v ∈ NEW_i (Corollary 2.7); 0 for source.
  std::vector<std::uint32_t> stage_of;
  /// dom_member[v] = 1 iff v ∈ DOM_i for some i.  Filled by
  /// `build_stage_sets`; hand-assembled or decoded StageSets may leave it
  /// empty, in which case `in_any_dom` falls back to scanning the DOM levels.
  std::vector<std::uint8_t> dom_member;
  NodeId source = graph::kNoNode;

  /// Round in which v first receives µ under algorithm B: 2·stage_of[v] − 1.
  /// Contract: v != source.
  std::uint64_t informed_round(NodeId v) const {
    RC_EXPECTS(v < stage_of.size() && stage_of[v] > 0);
    return 2ull * stage_of[v] - 1;
  }

  /// True iff v ∈ DOM_i for some i (the x1 bit of λ).  O(1) via `dom_member`
  /// when present, O(Σ log|DOM_i|) fallback otherwise.
  bool in_any_dom(NodeId v) const;
};

/// Builds the stage sets.  Requires a connected graph (Lemma 2.4's progress
/// guarantee needs connectivity; violated inputs trigger a contract failure).
/// Serial: each stage's dominating-set reduction depends on the previous
/// stage.  On a graph that `graph::is_bit_dense` accepts, every set is a
/// word bitmap over the graph's resident adjacency rows and each dominator
/// count is one `sim::simd` `and_popcount` of a row, so a count costs
/// ⌈n/64⌉ words instead of deg(y) list entries; elsewhere it walks
/// adjacency lists.  Both paths emit identical sets for every policy.
StageSets build_stage_sets(const Graph& g, NodeId source,
                           DomPolicy policy = DomPolicy::kAscendingId,
                           std::uint64_t seed = 0);

namespace detail {
/// `build_stage_sets` on the adjacency-list walk whatever the density: the
/// reference the bitmap path is differenced against in tests.
StageSets build_stage_sets_list(const Graph& g, NodeId source,
                                DomPolicy policy = DomPolicy::kAscendingId,
                                std::uint64_t seed = 0);
}  // namespace detail

/// Structural validation of already-built stage sets against the definition:
/// Facts 2.1/2.2, Lemma 2.3 disjointness, Corollary 2.7 partition, domination
/// and minimality of every DOM_i, and the NEW_i unique-dominator property.
/// Returns an empty string if valid, else a diagnostic.
std::string validate_stage_sets(const Graph& g, const StageSets& s);

}  // namespace radiocast::core
