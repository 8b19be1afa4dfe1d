/// \file compiled_schedule.hpp
/// \brief B_arb's label-determined execution as data: predicted, lowered to
///        flat per-round transmitter/message arrays, and replayed against the
///        radio semantics with zero virtual dispatch.
///
/// B_arb's execution (§4) is determined by the λ_arb labels plus the stamp
/// arithmetic its protocols reconstruct global time with.
/// `CompiledArbRunner` predicts it — the coordinator's three-phase dance —
/// with an event-driven flat state machine (structure-of-arrays, no
/// sim::Protocol, no virtual calls), lowers it to a `CompiledExecution`, and
/// replays on demand.  Every replay is bit-exact with `Engine` +
/// `ArbProtocol` over the same rounds; the differential tests assert
/// trace-for-trace equality.  B and B_ack have no predictor: their compiled
/// path memoizes one engine run (`runtime/schemes.cpp`), and B_arb's follows
/// once the benchmark's reference check accepts the engine's completion
/// round for compiled arb specs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/labeling.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"  // TraceLevel
#include "sim/trace.hpp"

namespace radiocast::core {

/// A fully-lowered heterogeneous execution: per round, the transmitter ids
/// and the exact wire message each one puts on the air — stamps, acks, and
/// B_arb phase tags included.
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

/// Compile-time prediction of the quantities the "arb" scheme reads off the
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
