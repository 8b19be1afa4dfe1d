/// \file engine.hpp
/// \brief Synchronous radio-network round engine.
///
/// Implements the model of paper §1.1 exactly:
///  - all nodes act in lockstep rounds;
///  - a listening node hears a message iff **exactly one** neighbour
///    transmits that round;
///  - collisions are indistinguishable from silence (the protocol callback is
///    simply not invoked — there is no collision-detection signal);
///  - a transmitting node hears nothing in that round.
///
/// The engine is a thin facade over three pluggable parts:
///
///  - **Round resolution** (`EngineBackend`, sim/backend.hpp): given the
///    transmitter set, who hears what.  Scalar CSR walk or bit-parallel
///    dense stepping over the graph's resident bitmap;
///    `EngineOptions::backend` selects one (kAuto picks by density), and
///    both are bit-exact.
///  - **The population** (`Population`, sim/population.hpp): every node's
///    state behind batched per-round hooks.  The engine drives exactly one:
///    a flat population of per-node rows (the paper's algorithms), or the
///    `ProtocolPopulation` adapter over one `sim::Protocol` per node, which
///    the protocol-vector constructor builds.
///  - **Protocol dispatch** (`DispatchKind`, sim/dispatch.hpp): which nodes
///    are polled.  `kScan` polls all n every round (seed behaviour);
///    `kActiveSet` keeps a calendar of wake rounds fed by the activity
///    hints and polls only woken nodes, in id order, so dispatch cost
///    tracks activity instead of n — decisions, traces, and counters stay
///    bit-exact with the scan.
///
/// On the path the sweeps run — active set, post-hear hints, counters
/// trace, no fault plan — rounds are resolved for the population's
/// listening nodes only (`Population::listening`), so deliveries follow
/// the labels too.  Every other configuration resolves for every node, so
/// traces, `rx_count` and the fault counters keep their full meaning.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/backend.hpp"
#include "sim/dispatch.hpp"
#include "sim/faults.hpp"
#include "sim/population.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"

namespace radiocast::sim {

/// How much ground truth to record.
enum class TraceLevel : std::uint8_t {
  kCounters,  ///< per-node first-data-reception round + global counters only
  kFull,      ///< full per-round transmissions/deliveries/collisions
};

struct EngineOptions {
  TraceLevel trace = TraceLevel::kCounters;
  /// When true, a listener with >= 2 transmitting neighbours receives the
  /// `on_collision()` signal (noise distinguishable from silence).  The
  /// paper's model sets this to false; §1.1's "trivially feasible with
  /// collision detection" remark is reproduced with it on.
  bool collision_detection = false;
  /// Round-resolution backend; kAuto selects by graph density and size.
  /// An engine runs on its caller's thread: parallelism is across runs.
  BackendKind backend = BackendKind::kAuto;
  /// Protocol-dispatch strategy; kAuto picks kActiveSet iff the population
  /// provides activity hints at construction, kScan otherwise.
  DispatchKind dispatch = DispatchKind::kAuto;
  /// Deterministic fault injection (sim/faults.hpp): edge loss, crash
  /// windows, jam rounds.  Applied between backend round-resolution and
  /// delivery, so the backends stay bit-exact; a disabled plan (the default)
  /// leaves every engine code path byte-identical to the unfaulted engine.
  FaultPlan faults = {};
  /// kActiveSet only: honor `Protocol::wants_post_hear_hint()` (flat
  /// populations always opt in) — re-query the activity hint after each
  /// delivered event instead of blindly re-arming the listener for the next
  /// round.  Traces are identical either way (the strengthened hint
  /// contract guarantees skipped polls are no-ops); off exists for A/B
  /// measurement of the re-arm cost.
  bool post_hear_hint = true;
};

class Engine {
 public:
  /// One protocol instance per vertex; `protocols[v]` runs at vertex v
  /// (driven through a `ProtocolPopulation`).
  Engine(const graph::Graph& g,
         std::vector<std::unique_ptr<Protocol>> protocols,
         EngineOptions options = {});

  /// One population covering every vertex.
  Engine(const graph::Graph& g, std::unique_ptr<Population> population,
         EngineOptions options = {});

  /// Executes one round.  Returns true iff at least one node transmitted.
  bool step();

  /// Runs until `pred(*this)` holds (checked after every round) or
  /// `max_rounds` rounds have elapsed.  Returns the number of the round after
  /// which the predicate first held, or 0 if it never did within the budget.
  ///
  /// Contract: 0 is unambiguously "predicate never held".  Rounds are
  /// 1-based (`step()` pre-increments), so a held predicate always reports a
  /// round >= 1, and `max_rounds == 0` is an explicit no-op budget — no
  /// round runs and 0 is returned without touching any protocol.
  template <typename Pred>
  std::uint64_t run_until(Pred&& pred, std::uint64_t max_rounds) {
    if (max_rounds == 0) return 0;
    while (round_ < max_rounds) {
      step();
      if (pred(*this)) return round_;
    }
    return 0;
  }

  /// Rounds executed so far (the last completed round number, 1-based).
  std::uint64_t round() const noexcept { return round_; }

  /// True iff every node is informed (the population's incremental count).
  bool all_informed() const { return population_->all_informed(); }

  /// Number of informed nodes.
  std::uint32_t informed_count() const {
    return population_->informed_count();
  }

  /// Round of `v`'s first successful reception of a kData message (0 = never).
  /// Maintained at every trace level.
  std::uint64_t first_data_reception(NodeId v) const {
    RC_EXPECTS(v < first_data_.size());
    return first_data_[v];
  }

  /// Largest round in which any node first received kData (0 if none did).
  std::uint64_t last_first_data_reception() const;

  /// Total transmissions so far (all kinds).
  std::uint64_t transmissions_total() const noexcept { return tx_total_; }

  /// Transmissions of `kind` so far.  Maintained at every trace level.
  std::uint64_t transmissions(MsgKind kind) const noexcept {
    return tx_by_kind_[static_cast<std::size_t>(kind)];
  }

  /// Total node polls issued so far — the dispatch-cost observable the
  /// active-set strategy minimizes (kScan pays n per round).
  std::uint64_t polls_total() const noexcept { return polls_total_; }

  /// Per-node energy accounting (always maintained): number of rounds `v`
  /// transmitted / successfully received.  The paper motivates short labels
  /// with weak devices; transmission duty cycle is the other battery cost.
  std::uint64_t tx_count(NodeId v) const {
    RC_EXPECTS(v < tx_count_.size());
    return tx_count_[v];
  }
  /// Receptions the engine delivered to v: every reception, except on a
  /// listening-masked run (see above), where a node counts only what it
  /// heard while listening.
  std::uint64_t rx_count(NodeId v) const {
    RC_EXPECTS(v < rx_count_.size());
    return rx_count_[v];
  }
  /// Maximum per-node transmission count (worst duty cycle in the network).
  std::uint64_t max_tx_count() const;

  /// Rounds with no transmission since the last transmitting round.
  std::uint64_t silent_streak() const noexcept { return silent_streak_; }

  /// Fault observables (0 unless `EngineOptions::faults` is enabled):
  /// deliveries dropped by the Bernoulli edge-loss draw, and rounds
  /// suppressed by a jam window.
  std::uint64_t faults_lost_deliveries() const noexcept {
    return fault_session_ ? fault_session_->lost_deliveries() : 0;
  }
  std::uint64_t faults_jammed_rounds() const noexcept {
    return fault_session_ ? fault_session_->jammed_rounds() : 0;
  }

  /// Maximum stamp value ever put on the wire (message-size accounting).
  std::uint64_t max_stamp_seen() const noexcept { return max_stamp_; }

  const Trace& trace() const;

  /// Moves the recorded trace out (kFull only).  For callers that outlive
  /// a short-lived engine and want the ground truth without the deep copy
  /// `trace()` would force; the engine's trace is empty afterwards.
  Trace take_trace();

  /// Per-node protocol access; only for engines built from protocols.
  Protocol& protocol(NodeId v) {
    RC_EXPECTS_MSG(protocols_ != nullptr, "engine runs a flat population");
    return protocols_->protocol(v);
  }
  const Protocol& protocol(NodeId v) const {
    RC_EXPECTS_MSG(protocols_ != nullptr, "engine runs a flat population");
    return protocols_->protocol(v);
  }

  const Population& population() const noexcept { return *population_; }

  const graph::Graph& graph() const noexcept { return graph_; }

  /// The backend actually in use (kAuto is resolved at construction).
  BackendKind backend_kind() const noexcept { return backend_->kind(); }
  const char* backend_name() const noexcept { return backend_->name(); }

  /// The dispatch strategy actually in use (kAuto resolved at construction).
  DispatchKind dispatch_kind() const noexcept { return dispatch_; }

 private:
  /// Polls `nodes` (ascending) for the current round into `decisions_`.
  void poll(std::span<const NodeId> nodes) {
    polls_total_ += nodes.size();
    population_->poll(nodes, round_, decisions_);
  }
  /// Filters `resolution_` through the fault session (crash suppression,
  /// Bernoulli loss, jam); `want_collisions` says whether a jammed round
  /// must materialize its all-listeners collision list.
  void apply_faults(bool want_collisions);

  const graph::Graph& graph_;
  std::unique_ptr<Population> population_;
  /// The adapter behind `population_` iff built from protocols.
  ProtocolPopulation* protocols_ = nullptr;
  EngineOptions options_;
  std::unique_ptr<EngineBackend> backend_;
  Trace trace_;

  std::uint64_t round_ = 0;
  std::uint64_t tx_total_ = 0;
  /// One transmission count per MsgKind (kReady is the last kind).
  std::array<std::uint64_t, static_cast<std::size_t>(MsgKind::kReady) + 1>
      tx_by_kind_{};
  std::uint64_t polls_total_ = 0;
  std::uint64_t silent_streak_ = 0;
  std::uint64_t max_stamp_ = 0;
  std::vector<std::uint64_t> first_data_;
  std::vector<std::uint64_t> tx_count_;
  std::vector<std::uint64_t> rx_count_;

  // Dispatch state: kScan polls `all_nodes_` every round; kActiveSet polls
  // what the calendar wakes.
  DispatchKind dispatch_ = DispatchKind::kScan;
  /// Resolve for the population's listening nodes only.
  bool masked_ = false;
  std::vector<NodeId> all_nodes_;
  std::unique_ptr<WakeCalendar> wakes_;
  std::vector<NodeId> woken_;

  // Fault injection: owned session iff options_.faults.enabled(), plus
  // per-round scratch (nodes restarting this round; the kScan poll list
  // with crashed nodes removed).
  std::unique_ptr<FaultSession> fault_session_;
  std::vector<NodeId> restarted_;
  std::vector<NodeId> scan_scratch_;

  // Scratch reused across rounds.
  std::vector<Decision> decisions_;
  std::vector<NodeId> tx_ids_;
  RoundResolution resolution_;
};

}  // namespace radiocast::sim
