/// \file runner.hpp
/// \brief One-call drivers: label a graph, build per-node protocols, run the
///        engine, and report the quantities the paper's theorems bound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/arb.hpp"
#include "core/labeling.hpp"
#include "core/protocols.hpp"
#include "sim/engine.hpp"

namespace radiocast::core {

struct RunOptions {
  DomPolicy policy = DomPolicy::kAscendingId;
  std::uint64_t seed = 0;
  sim::TraceLevel trace = sim::TraceLevel::kCounters;
  std::uint64_t max_rounds = 0;  ///< 0 = automatic (linear in n with slack)
  std::uint32_t mu = 42;         ///< the source message µ
  /// Engine round-resolution backend (kAuto picks by density and size).
  sim::BackendKind backend = sim::BackendKind::kAuto;
  /// Protocol-dispatch strategy (kAuto = active-set iff protocols hint; the
  /// paper protocols all do).  Compiled runners have no protocol dispatch
  /// and ignore it.
  sim::DispatchKind dispatch = sim::DispatchKind::kAuto;
};

/// The default engine round budget shared by the runners and the compiled
/// fast paths (linear in n with slack; `factor` is per-algorithm).
inline std::uint64_t default_round_budget(std::uint32_t n,
                                          std::uint64_t factor) {
  return factor * std::max<std::uint64_t>(n, 2) + 16;
}

/// Protocol vectors for tests that drive an Engine manually: one protocol
/// per label, with µ = `mu` at `source`.
std::vector<std::unique_ptr<sim::Protocol>> make_broadcast_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu);
/// `resilient`: opt into B_ack's loss-tolerant retry mode (see
/// AckBroadcastProtocol); the default is the paper's exact algorithm.
std::vector<std::unique_ptr<sim::Protocol>> make_ack_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu,
    bool resilient = false);
std::vector<std::unique_ptr<sim::Protocol>> make_common_round_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu);
std::vector<std::unique_ptr<sim::Protocol>> make_arb_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu);

inline std::vector<std::unique_ptr<sim::Protocol>> make_broadcast_protocols(
    const Labeling& labeling, std::uint32_t mu) {
  return make_broadcast_protocols(labeling.labels, labeling.source, mu);
}
inline std::vector<std::unique_ptr<sim::Protocol>> make_ack_protocols(
    const Labeling& labeling, std::uint32_t mu, bool resilient = false) {
  return make_ack_protocols(labeling.labels, labeling.source, mu, resilient);
}
inline std::vector<std::unique_ptr<sim::Protocol>>
make_common_round_protocols(const Labeling& labeling, std::uint32_t mu) {
  return make_common_round_protocols(labeling.labels, labeling.source, mu);
}
inline std::vector<std::unique_ptr<sim::Protocol>> make_arb_protocols(
    const ArbLabeling& labeling, NodeId source, std::uint32_t mu) {
  return make_arb_protocols(labeling.labels, source, mu);
}

/// Theorem 2.9 quantities for one (graph, source) execution of B.
struct BroadcastRun {
  bool all_informed = false;
  std::uint64_t completion_round = 0;  ///< max first-µ-reception round
  std::uint64_t bound = 0;             ///< 2n - 3 (0 for n = 1)
  std::uint32_t ell = 0;               ///< stage count (Lemma 2.6: ell <= n)
  std::uint64_t stay_count = 0;        ///< total "stay" transmissions
  std::uint64_t data_tx_count = 0;     ///< total µ transmissions
  std::uint64_t max_node_tx = 0;       ///< worst per-node duty cycle
};

BroadcastRun run_broadcast(const Graph& g, NodeId source,
                           const RunOptions& opt = {});

/// Same quantities as `run_broadcast`, but executed through the
/// `CompiledScheduleRunner` fast path (Lemma 2.8 lowering, no protocol
/// dispatch).  Bit-exact with the engine; `opt.trace`/`opt.max_rounds` are
/// ignored (the schedule fixes the horizon, stay/data counts are exact).
BroadcastRun run_broadcast_compiled(const Graph& g, NodeId source,
                                    const RunOptions& opt = {});

/// Theorem 3.9 quantities for one execution of B_ack.
struct AckRun {
  bool all_informed = false;
  std::uint64_t completion_round = 0;  ///< t: last first-µ reception
  std::uint64_t ack_round = 0;         ///< t': source's first ack reception
  std::uint64_t bound = 0;             ///< 2n - 3
  std::uint32_t ell = 0;
  NodeId z = graph::kNoNode;
  std::uint64_t max_stamp = 0;  ///< message-size accounting (O(log n) claim)
};

AckRun run_acknowledged(const Graph& g, NodeId source,
                        const RunOptions& opt = {});

/// Same quantities as `run_acknowledged`, but predicted and replayed through
/// `CompiledAckRunner` (flat label-determined execution, no protocol
/// dispatch).  Bit-exact with the engine; `opt.trace` is ignored.
AckRun run_acknowledged_compiled(const Graph& g, NodeId source,
                                 const RunOptions& opt = {});

/// §3 closing construction quantities.
struct CommonRoundRun {
  bool ok = false;                 ///< all nodes agree on the common round 2m
  std::uint64_t m = 0;             ///< source's first ack round
  std::uint64_t common_round = 0;  ///< 2m
  std::uint64_t last_learned = 0;  ///< latest global round any node learned m
};

CommonRoundRun run_common_round(const Graph& g, NodeId source,
                                const RunOptions& opt = {});

/// §4 (B_arb) quantities.
struct ArbRun {
  bool ok = false;  ///< all nodes learned µ and agree on done_round
  std::uint64_t total_rounds = 0; ///< engine rounds until global quiescence
  std::uint64_t done_round = 0;   ///< the common completion round
  std::uint64_t T = 0;            ///< phase-1 duration learned by r
  NodeId coordinator = graph::kNoNode;
};

ArbRun run_arbitrary(const Graph& g, NodeId source, NodeId coordinator = 0,
                     const RunOptions& opt = {});

/// Same quantities as `run_arbitrary`, but predicted through
/// `CompiledArbRunner` (flat label-determined three-phase execution, no
/// protocol dispatch).  Bit-exact with the engine; `opt.trace` is ignored.
ArbRun run_arb_compiled(const Graph& g, NodeId source, NodeId coordinator = 0,
                        const RunOptions& opt = {});

}  // namespace radiocast::core
