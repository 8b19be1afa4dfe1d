/// \file compiled_schedule.hpp
/// \brief Label-determined executions as data: lower B, B_ack and B_arb to
///        flat per-round transmitter/message arrays and replay them against
///        the radio semantics with zero virtual dispatch.
///
/// Algorithm B's execution is fully determined by the labels (Lemma 2.8), so
/// running it does not require per-node protocol objects at all: the compiled
/// schedule stores every round's transmitter set contiguously, and `run()`
/// resolves each round through an `EngineBackend` directly.  The same is true
/// of B_ack (Theorem 3.9) and B_arb (§4): their executions are determined by
/// the labels plus the stamp arithmetic the protocols reconstruct global time
/// with.  `CompiledAckRunner` / `CompiledArbRunner` predict those executions
/// — the stamped broadcast, the z-initiated ack chain, and B_arb's
/// three-phase coordinator dance — with an event-driven flat state machine
/// (structure-of-arrays, no sim::Protocol, no virtual calls), lower them to a
/// `CompiledExecution`, and replay on demand.  Every replay is bit-exact with
/// `Engine` + the corresponding protocol over the same rounds — the
/// differential tests assert trace-for-trace equality.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/labeling.hpp"
#include "core/schedule.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"  // TraceLevel
#include "sim/trace.hpp"

namespace radiocast::core {

/// A `BroadcastSchedule` lowered to flat arrays.  Rounds are 1-based and
/// contiguous up to `rounds` (= the completion round, where the engine's
/// all-informed predicate first holds); silent rounds are empty spans.
struct CompiledSchedule {
  std::uint64_t rounds = 0;
  std::uint64_t completion_round = 0;
  std::vector<std::uint32_t> offsets;  ///< size rounds + 1
  std::vector<NodeId> transmitters;    ///< flat, sorted within each round

  std::span<const NodeId> round_transmitters(std::uint64_t round) const {
    RC_EXPECTS(round >= 1 && round <= rounds);
    return {transmitters.data() + offsets[round - 1],
            transmitters.data() + offsets[round]};
  }

  /// Odd rounds carry µ, even rounds carry "stay" (Lemma 2.8).
  static bool is_data_round(std::uint64_t round) noexcept {
    return (round % 2) == 1;
  }
};

/// Lowers the predicted schedule, truncated at its completion round (the
/// point where `Engine::run_until(all_informed)` stops).
CompiledSchedule compile_schedule(const BroadcastSchedule& schedule);

/// A fully-lowered heterogeneous execution: per round, the transmitter ids
/// and the exact wire message each one puts on the air.  Unlike
/// `CompiledSchedule` (whose rounds are message-uniform by Lemma 2.8), this
/// form carries stamps, acks, and B_arb phase tags, so one replay loop
/// covers B_ack and B_arb.
struct CompiledExecution {
  std::uint64_t rounds = 0;
  std::vector<std::uint32_t> offsets;  ///< size rounds + 1
  std::vector<NodeId> transmitters;    ///< flat, sorted within each round
  std::vector<sim::Message> messages;  ///< parallel to `transmitters`

  std::span<const NodeId> round_transmitters(std::uint64_t round) const {
    RC_EXPECTS(round >= 1 && round <= rounds);
    return {transmitters.data() + offsets[round - 1],
            transmitters.data() + offsets[round]};
  }
  std::span<const sim::Message> round_messages(std::uint64_t round) const {
    RC_EXPECTS(round >= 1 && round <= rounds);
    return {messages.data() + offsets[round - 1],
            messages.data() + offsets[round]};
  }
};

/// Replay observables, mirroring the `Engine` accessors field for field.
struct ReplayResult {
  bool all_informed = false;
  std::uint64_t rounds = 0;             ///< rounds replayed
  std::uint64_t completion_round = 0;   ///< last first-data reception
  std::uint64_t tx_total = 0;
  std::uint64_t max_stamp = 0;
  std::vector<std::uint64_t> first_data;  ///< per node (0 = never / source)
  std::vector<std::uint64_t> tx_count;
  std::vector<std::uint64_t> rx_count;
  sim::Trace trace;  ///< populated at TraceLevel::kFull only
};

/// Replays a lowered execution against the radio semantics: resolves every
/// round through `backend` and accumulates the engine-level observables
/// (`all_informed` is algorithm-specific and left false for the caller).
/// `scratch` is the caller's reused resolution buffer.
ReplayResult replay_execution(const CompiledExecution& exec,
                              std::uint32_t node_count,
                              sim::EngineBackend& backend,
                              sim::RoundResolution& scratch,
                              sim::TraceLevel level);

/// Compiles a labeling once, replays on demand.
class CompiledScheduleRunner {
 public:
  /// `labeling` must be a λ / λ_ack-style labeling for `g` (the schedule is
  /// predicted via `predict_schedule`).  `mu` is the payload of data rounds.
  CompiledScheduleRunner(const Graph& g, const Labeling& labeling,
                         std::uint32_t mu,
                         sim::BackendKind backend = sim::BackendKind::kAuto);

  const CompiledSchedule& schedule() const noexcept { return compiled_; }
  sim::BackendKind backend_kind() const noexcept { return backend_->kind(); }

  /// Replays rounds 1..schedule().rounds.  Reusable; each call is an
  /// independent execution.
  ReplayResult run(sim::TraceLevel level = sim::TraceLevel::kCounters);

 private:
  const Graph& graph_;
  NodeId source_;
  std::uint32_t mu_;
  CompiledSchedule compiled_;
  std::unique_ptr<sim::EngineBackend> backend_;
  sim::RoundResolution resolution_;
};

/// Compile-time prediction of the quantities `run_acknowledged` reads off
/// the engine (Theorem 3.9 observables).
struct AckPrediction {
  bool all_informed = false;           ///< every protocol informed
  std::uint64_t rounds = 0;            ///< engine rounds executed
  std::uint64_t completion_round = 0;  ///< last first-kData reception
  std::uint64_t ack_round = 0;         ///< source's first ack reception (t')
  std::uint64_t max_stamp = 0;         ///< largest stamp put on the wire
};

/// Theorem 3.9 fast path: predicts the entire B_ack execution — stamped
/// broadcast, z's acknowledgement, and the stamp-matched ack relay back to
/// the source — from the λ_ack labeling, lowers it to a `CompiledExecution`,
/// and replays it without protocol dispatch.
class CompiledAckRunner {
 public:
  /// `labels` is a λ_ack labeling with µ = `mu` at `source`.  `max_rounds`
  /// bounds the prediction exactly like the engine's round budget bounds
  /// `run_until` (0 = the `run_acknowledged` default, 6n+16).
  CompiledAckRunner(const Graph& g, const std::vector<Label>& labels,
                    NodeId source, std::uint32_t mu,
                    sim::BackendKind backend = sim::BackendKind::kAuto,
                    std::uint64_t max_rounds = 0);

  const CompiledExecution& execution() const noexcept { return exec_; }
  const AckPrediction& prediction() const noexcept { return prediction_; }
  sim::BackendKind backend_kind() const noexcept { return backend_->kind(); }

  /// Replays rounds 1..execution().rounds; bit-exact with
  /// `Engine` + `AckBroadcastProtocol` over the same rounds.
  ReplayResult run(sim::TraceLevel level = sim::TraceLevel::kCounters);

 private:
  const Graph& graph_;
  NodeId source_;
  CompiledExecution exec_;
  AckPrediction prediction_;
  std::unique_ptr<sim::EngineBackend> backend_;
  sim::RoundResolution resolution_;
};

/// Compile-time prediction of the quantities `run_arbitrary` reads off the
/// engine (§4 observables).
struct ArbPrediction {
  bool ok = false;                     ///< all nodes learned µ, agree on done
  std::uint64_t total_rounds = 0;      ///< engine rounds until quiescence
  std::uint64_t completion_round = 0;  ///< last first-kData reception
  std::uint64_t done_round = 0;        ///< the common completion round
  std::uint64_t T = 0;                 ///< phase-1 duration learned by r
  NodeId coordinator = graph::kNoNode;
};

/// §4 fast path: predicts all three B_arb phases — the coordinator's Init
/// broadcast, the (Ready, T) broadcast with the source's T-countdown ack,
/// and the final µ broadcast with the T - t_v completion countdowns — from
/// the λ_arb labeling and the per-node stamp reconstruction, lowers the
/// whole execution, and replays it without protocol dispatch.
class CompiledArbRunner {
 public:
  /// `labels` is a λ_arb labeling whose coordinator (label 111) is
  /// `coordinator`; `source` holds µ = `mu`.
  CompiledArbRunner(const Graph& g, const std::vector<Label>& labels,
                    NodeId coordinator, NodeId source, std::uint32_t mu,
                    sim::BackendKind backend = sim::BackendKind::kAuto,
                    std::uint64_t max_rounds = 0);

  const CompiledExecution& execution() const noexcept { return exec_; }
  const ArbPrediction& prediction() const noexcept { return prediction_; }
  sim::BackendKind backend_kind() const noexcept { return backend_->kind(); }

  /// Replays rounds 1..execution().rounds; bit-exact with
  /// `Engine` + `ArbProtocol` over the same rounds.
  ReplayResult run(sim::TraceLevel level = sim::TraceLevel::kCounters);

 private:
  const Graph& graph_;
  CompiledExecution exec_;
  ArbPrediction prediction_;
  std::unique_ptr<sim::EngineBackend> backend_;
  sim::RoundResolution resolution_;
};

}  // namespace radiocast::core
