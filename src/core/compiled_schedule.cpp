#include "core/compiled_schedule.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "graph/node_bitset.hpp"

namespace radiocast::core {

using graph::NodeBitset;
using sim::Message;
using sim::MsgKind;

// ---------------------------------------------------------------------------
// Generic replay over a lowered execution

ReplayResult replay_execution(const CompiledExecution& exec,
                              std::uint32_t node_count,
                              sim::EngineBackend& backend,
                              sim::RoundResolution& scratch,
                              sim::TraceLevel level) {
  ReplayResult out;
  out.first_data.assign(node_count, 0);
  out.tx_count.assign(node_count, 0);
  out.rx_count.assign(node_count, 0);
  const bool record_full = level == sim::TraceLevel::kFull;

  for (std::uint64_t round = 1; round <= exec.rounds; ++round) {
    const auto tx = exec.round_transmitters(round);
    const auto msgs = exec.round_messages(round);
    backend.resolve(tx, record_full, scratch);

    sim::RoundRecord record;
    if (record_full) {
      record.transmissions.reserve(tx.size());
      for (std::size_t i = 0; i < tx.size(); ++i) {
        record.transmissions.emplace_back(tx[i], msgs[i]);
      }
    }
    for (const auto& [w, tx_index] : scratch.deliveries) {
      const Message& m = msgs[tx_index];
      ++out.rx_count[w];
      if (m.kind == MsgKind::kData && out.first_data[w] == 0) {
        out.first_data[w] = round;
      }
      if (record_full) record.deliveries.emplace_back(w, m);
    }
    if (record_full) {
      record.collisions = scratch.collisions;
      out.trace.push(std::move(record));
    }

    out.tx_total += tx.size();
    for (std::size_t i = 0; i < tx.size(); ++i) {
      ++out.tx_count[tx[i]];
      if (msgs[i].stamp) {
        out.max_stamp = std::max(out.max_stamp, *msgs[i].stamp);
      }
    }
  }

  out.rounds = exec.rounds;
  for (const auto r : out.first_data) {
    out.completion_round = std::max(out.completion_round, r);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Building blocks of B_arb's flat (protocol-free) predictor

namespace {

/// Per-round candidate sets: a node is evaluated in round r only if an
/// earlier event (reception, own transmission, or origin arming) could make
/// it act in r — the event-driven equivalent of the engine's full per-round
/// protocol scan.  Events arm only rounds r + 1 and r + 2 (and standing
/// candidates round r itself), so three n-bit slots, reused round-robin,
/// hold every pending round.
class RoundAgenda {
 public:
  explicit RoundAgenda(std::uint32_t n)
      : slots_{NodeBitset(n), NodeBitset(n), NodeBitset(n)} {}

  void push(std::uint64_t round, NodeId v) {
    RC_ASSERT(round > taken_ && round <= taken_ + 2);
    slots_[round % 3].insert(v);
  }

  /// Candidates for `round` in ascending node order — the engine's decision
  /// collection order, so compiled transmitter arrays come out in trace
  /// order.  Rounds must be taken consecutively; the slot is recycled.
  const std::vector<NodeId>& take(std::uint64_t round) {
    RC_ASSERT(round == taken_ + 1);
    taken_ = round;
    NodeBitset& slot = slots_[round % 3];
    slot.members(out_);
    slot.clear();
    return out_;
  }

 private:
  std::array<NodeBitset, 3> slots_;
  std::vector<NodeId> out_;
  std::uint64_t taken_ = 0;  ///< last round handed out
};

/// One phase of a stamped broadcast as structure-of-arrays: the flat image
/// of `StampedCore` (protocols.hpp), indexed by node.  Rounds are global —
/// every protocol's local clock equals the engine round, so the stamp
/// arithmetic transfers verbatim.
struct FlatPhase {
  MsgKind data_kind = MsgKind::kData;
  std::uint8_t tag = 0;
  NodeId origin = graph::kNoNode;
  bool origin_started = false;
  std::uint64_t origin_first_stamp = 1;

  std::vector<std::uint8_t> has_payload;
  std::vector<std::uint32_t> payload;
  std::vector<std::uint64_t> first_data;      ///< round of first reception
  std::vector<std::uint64_t> informed_stamp;  ///< the paper's informedRound
  std::vector<std::uint64_t> last_data_tx;
  std::vector<std::uint64_t> stay_heard;
  std::vector<std::uint64_t> stay_stamp;
  std::vector<std::vector<std::uint64_t>> stamps;  ///< transmitRounds

  void init(std::uint32_t n, MsgKind kind, std::uint8_t t) {
    data_kind = kind;
    tag = t;
    has_payload.assign(n, 0);
    payload.assign(n, 0);
    first_data.assign(n, 0);
    informed_stamp.assign(n, 0);
    last_data_tx.assign(n, 0);
    stay_heard.assign(n, 0);
    stay_stamp.assign(n, 0);
    stamps.assign(n, {});
  }

  void make_origin(NodeId v, std::uint32_t pay, std::uint64_t first_stamp) {
    RC_EXPECTS_MSG(origin == graph::kNoNode && !has_payload[v],
                   "phase origin set twice");
    origin = v;
    origin_first_stamp = first_stamp;
    has_payload[v] = 1;
    payload[v] = pay;
  }

  bool has_stamp(NodeId v, std::uint64_t k) const {
    const auto& s = stamps[v];
    return std::find(s.begin(), s.end(), k) != s.end();
  }

  /// `StampedCore` transmission rules in `phase_core_rules` order:
  /// initial, x1, (z-ack handled by the caller) x2, stay-trigger.
  /// `z_ack` is engaged for phase-1 z nodes and emitted at just-informed
  /// priority, exactly where the protocols place it.
  std::optional<Message> decide(NodeId v, std::uint64_t r, const Label& lab,
                                const std::optional<Message>& z_ack) {
    const bool is_origin = origin == v;
    if (is_origin && !origin_started) {
      origin_started = true;
      last_data_tx[v] = r;
      return Message{data_kind, tag, payload[v], origin_first_stamp};
    }
    if (!is_origin && first_data[v] != 0 && r == first_data[v] + 2 && lab.x1) {
      last_data_tx[v] = r;
      stamps[v].push_back(informed_stamp[v] + 2);
      return Message{data_kind, tag, payload[v], informed_stamp[v] + 2};
    }
    if (first_data[v] != 0 && r == first_data[v] + 1) {
      if (z_ack) return *z_ack;
      if (!is_origin && lab.x2) {
        return Message{MsgKind::kStay, tag, 0, informed_stamp[v] + 1};
      }
    }
    if (has_payload[v] && last_data_tx[v] != 0 && r == last_data_tx[v] + 2 &&
        stay_heard[v] == r - 1) {
      last_data_tx[v] = r;
      if (!is_origin) stamps[v].push_back(stay_stamp[v] + 1);
      return Message{data_kind, tag, payload[v], stay_stamp[v] + 1};
    }
    return std::nullopt;
  }

  /// `StampedCore::hear`.  Returns true iff this reception just informed
  /// the node (the caller schedules its x2/x1 candidate rounds).
  bool hear(NodeId v, const Message& m, std::uint64_t r) {
    if (m.phase != tag) return false;
    if (m.kind == data_kind) {
      if (!has_payload[v]) {
        RC_ASSERT_MSG(m.stamp.has_value(), "stamped protocol requires stamps");
        has_payload[v] = 1;
        payload[v] = m.payload;
        informed_stamp[v] = *m.stamp;
        first_data[v] = r;
        return true;
      }
    } else if (m.kind == MsgKind::kStay) {
      RC_ASSERT(m.stamp.has_value());
      stay_heard[v] = r;
      stay_stamp[v] = *m.stamp;
    }
    return false;
  }
};

/// Per-phase heard-ack record (`ArbProtocol::HeardAck` / the ack fields of
/// `AckBroadcastProtocol`), flattened.
struct FlatAcks {
  std::vector<std::uint64_t> local;
  std::vector<std::uint64_t> stamp;
  std::vector<std::uint32_t> payload;

  void init(std::uint32_t n) {
    local.assign(n, 0);
    stamp.assign(n, 0);
    payload.assign(n, 0);
  }
  void record(NodeId v, const Message& m, std::uint64_t r) {
    local[v] = r;
    stamp[v] = *m.stamp;
    payload[v] = m.payload;
  }
};

/// Appends one round's decisions to `exec` and resolves it; the span into
/// `exec.transmitters` is taken after all appends, so it never dangles.
struct ExecutionBuilder {
  CompiledExecution exec;
  std::size_t round_begin = 0;

  ExecutionBuilder() { exec.offsets.push_back(0); }

  void begin_round() { round_begin = exec.transmitters.size(); }
  void add(NodeId v, const Message& m) {
    exec.transmitters.push_back(v);
    exec.messages.push_back(m);
  }
  std::span<const NodeId> seal_round() {
    exec.rounds += 1;
    exec.offsets.push_back(
        static_cast<std::uint32_t>(exec.transmitters.size()));
    return {exec.transmitters.data() + round_begin,
            exec.transmitters.size() - round_begin};
  }
  const Message& message_at(std::size_t index_in_round) const {
    return exec.messages[round_begin + index_in_round];
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// B_arb (§4)

CompiledArbRunner::CompiledArbRunner(const Graph& g,
                                     const std::vector<Label>& labels,
                                     NodeId coordinator, NodeId source,
                                     std::uint32_t mu, sim::BackendKind backend,
                                     std::uint64_t max_rounds)
    : graph_(g), backend_(sim::make_engine_backend(g, backend)) {
  const auto n = g.node_count();
  RC_EXPECTS_MSG(n >= 2, "B_arb needs at least two nodes");
  if (max_rounds == 0) {
    max_rounds = 16 * std::max<std::uint64_t>(n, 2) + 16;  // "arb" budget
  }
  const NodeId coord = coordinator;
  prediction_.coordinator = coord;

  // Flat image of ArbProtocol: three stamped phases, two ack relays, the
  // coordinator timers and the source countdown.
  FlatPhase ph1, ph2, ph3;
  ph1.init(n, MsgKind::kInit, 1);
  ph2.init(n, MsgKind::kReady, 2);
  ph3.init(n, MsgKind::kData, 3);
  ph1.make_origin(coord, 0, 1);
  FlatAcks acks1, acks2;
  acks1.init(n);
  acks2.init(n);

  std::vector<std::uint64_t> T_node(n, 0), done_round(n, 0);
  std::vector<std::uint8_t> T_known(n, 0), mu_known(n, 0);
  std::vector<std::uint32_t> mu_val(n, 0);
  mu_known[source] = 1;
  mu_val[source] = mu;
  std::uint32_t count_mu = 1, count_done = 0;
  const auto set_done = [&](NodeId v, std::uint64_t round) {
    done_round[v] = round;
    ++count_done;
  };

  bool phase3_scheduled = false;
  std::uint64_t phase2_start = 0, phase3_start = 0, source_ack_round = 0;
  // Engine-level first-data accounting: every kData delivery counts,
  // including to the source and to already-informed nodes.
  std::vector<std::uint8_t> engine_has_data(n, 0);

  RoundAgenda agenda(n);
  ExecutionBuilder builder;
  sim::RoundResolution res;

  const auto decide = [&](NodeId v, std::uint64_t r) -> std::optional<Message> {
    const Label lab = labels[v];
    const bool is_coord = v == coord;
    const bool is_z = lab.x3 && !lab.x1 && !lab.x2;
    // r = source corner case: start phase 3 on a timer, T + 1 rounds after
    // initiating phase 2 (provably past the "ready" completion).
    if (is_coord && v == source && phase2_start != 0 && !phase3_scheduled &&
        r > phase2_start + T_node[v]) {
      ph3.make_origin(v, mu, 1);
      phase3_scheduled = true;
    }
    // sG countdown: wait T rounds after receiving "ready", then start the
    // acknowledgement with µ appended.
    if (v == source && !is_coord && T_known[v] && ph2.has_payload[v] &&
        source_ack_round == 0) {
      source_ack_round = ph2.first_data[v] + T_node[v] + 1;
    }
    if (v == source && source_ack_round != 0 && r == source_ack_round) {
      return Message{MsgKind::kAck, 2, mu, ph2.informed_stamp[v]};
    }

    // Phase state machines in phase order (temporally disjoint phases).
    std::optional<Message> z_ack;
    if (is_z && ph1.first_data[v] != 0 && r == ph1.first_data[v] + 1) {
      // Phase 1 only: z's ack carries T = t_z as payload.
      z_ack = Message{MsgKind::kAck, 1,
                      static_cast<std::uint32_t>(ph1.informed_stamp[v]),
                      ph1.informed_stamp[v]};
    }
    if (auto m = ph1.decide(v, r, lab, z_ack)) return m;
    if (acks1.local[v] == r - 1 && ph1.has_stamp(v, acks1.stamp[v])) {
      return Message{MsgKind::kAck, 1, acks1.payload[v],
                     ph1.informed_stamp[v]};
    }
    if (auto m = ph2.decide(v, r, lab, std::nullopt)) {
      if (is_coord && phase2_start == 0 && m->kind == MsgKind::kReady) {
        phase2_start = r;
      }
      return m;
    }
    if (acks2.local[v] == r - 1 && ph2.has_stamp(v, acks2.stamp[v])) {
      return Message{MsgKind::kAck, 2, acks2.payload[v],
                     ph2.informed_stamp[v]};
    }
    if (auto m = ph3.decide(v, r, lab, std::nullopt)) {
      if (is_coord && phase3_start == 0 && m->kind == MsgKind::kData) {
        phase3_start = r;
        // Coordinator's common completion: relative round T of phase 3.
        if (T_node[v] >= 1) set_done(v, r + T_node[v] - 1);
      }
      return m;
    }
    return std::nullopt;
  };

  const auto hear = [&](NodeId w, const Message& m, std::uint64_t r) {
    if (m.kind == MsgKind::kAck) {
      if (m.phase == 1) {
        acks1.record(w, m, r);
        agenda.push(r + 1, w);
        if (w == coord && !T_known[w]) {
          T_node[w] = m.payload;
          T_known[w] = 1;
          ph2.make_origin(w, m.payload, 1);
        }
      } else if (m.phase == 2) {
        acks2.record(w, m, r);
        agenda.push(r + 1, w);
        if (w == coord) {
          if (!mu_known[w]) {
            mu_known[w] = 1;
            mu_val[w] = m.payload;
            ++count_mu;
          }
          if (!phase3_scheduled) {
            ph3.make_origin(w, m.payload, 1);
            phase3_scheduled = true;
          }
        }
      }
      return;
    }
    bool just_informed = false;
    for (FlatPhase* ph : {&ph1, &ph2, &ph3}) {
      if (ph->hear(w, m, r)) just_informed = true;
    }
    if (just_informed) {
      agenda.push(r + 1, w);
      agenda.push(r + 2, w);
    } else if (m.kind == MsgKind::kStay) {
      agenda.push(r + 1, w);
    }
    if (m.kind == MsgKind::kReady && !T_known[w]) {
      T_node[w] = m.payload;
      T_known[w] = 1;
    }
    if (m.kind == MsgKind::kData && m.phase == 3) {
      if (!mu_known[w]) {
        mu_known[w] = 1;
        mu_val[w] = m.payload;
        ++count_mu;
      }
      if (done_round[w] == 0 && ph3.has_payload[w] && T_known[w]) {
        // Wait T - t_v rounds after the phase-3 reception (paper §4).
        const std::uint64_t tv = w == coord ? 0 : ph1.informed_stamp[w];
        RC_ASSERT_MSG(T_node[w] >= tv, "T must dominate every t_v");
        set_done(w, r + (T_node[w] - tv));
      }
    }
  };

  for (std::uint64_t r = 1; r <= max_rounds; ++r) {
    // Coordinator and source run timers, so they are standing candidates.
    agenda.push(r, coord);
    agenda.push(r, source);

    builder.begin_round();
    for (const NodeId v : agenda.take(r)) {
      if (auto m = decide(v, r)) {
        builder.add(v, *m);
        agenda.push(r + 2, v);  // stay-triggered retransmission window
      }
    }
    const auto tx = builder.seal_round();

    backend_->resolve(tx, /*want_collisions=*/false, res);
    for (const auto& [w, tx_index] : res.deliveries) {
      const Message& m = builder.message_at(tx_index);
      if (m.kind == MsgKind::kData && !engine_has_data[w]) {
        engine_has_data[w] = 1;
        prediction_.completion_round = r;
      }
      hear(w, m, r);
    }
    if (count_mu == n && count_done == n) break;  // the "arb" stop predicate
  }

  prediction_.total_rounds = builder.exec.rounds;
  // Mirror the "arb" scheme's verdict loop field for field.
  bool ok = true;
  std::uint64_t done = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!mu_known[v] || mu_val[v] != mu || done_round[v] == 0) {
      ok = false;
      break;
    }
    if (done == 0) done = done_round[v];
    if (done_round[v] != done) {
      ok = false;
      break;
    }
    if (v == coord) prediction_.T = T_node[v];
  }
  prediction_.ok = ok;
  prediction_.done_round = done;
  exec_ = std::move(builder.exec);
}

ReplayResult CompiledArbRunner::run(sim::TraceLevel level) {
  ReplayResult out = replay_execution(exec_, graph_.node_count(), *backend_,
                                      resolution_, level);
  // informed() for B_arb means "knows µ"; ok already certifies agreement.
  out.all_informed = prediction_.ok;
  return out;
}

}  // namespace radiocast::core
