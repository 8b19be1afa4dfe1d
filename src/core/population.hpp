/// \file population.hpp
/// \brief B, B_ack, the common-round construction and B_arb as flat
///        populations: each node's state is one row of a few arrays.
///
/// These are the same universal algorithms as the per-node classes in
/// protocols.hpp and arb.hpp — rule for rule, in the same order, with the
/// same activity hints — written over arrays instead of objects: label bits
/// in one array, each stamped phase's round stamps in another, the
/// µ-transmit stamps of a phase in one flat pool, and counters where the
/// schemes' stop predicates used to scan every node.  The per-node classes
/// stay as the reference oracle (kScan dispatch runs them); the
/// differential suites pin the two trace for trace.
///
/// A node's local clock equals the global round (every node starts in
/// round 1), so every stamp below is a round number the node itself
/// observed or read off a message.
///
/// Each population also keeps its listening mask (`sim::FlatPopulation`):
/// a node goes deaf once it holds the data of every phase begun so far,
/// except that the source and B_arb's coordinator always listen (acks,
/// phase starts and the echo of their own µ reach them), a node holding a
/// transmit stamp in a phase with acks listens for the ack it may have to
/// forward, and a node that sends µ listens for the "stay" that may
/// answer it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/labeling.hpp"
#include "sim/population.hpp"

namespace radiocast::core {

/// Algorithm 1 (B) over arrays; see `BroadcastProtocol`.
class BroadcastPopulation final
    : public sim::FlatPopulation<BroadcastPopulation> {
 public:
  /// `source` holds µ = `mu`; only x1 and x2 are read.
  BroadcastPopulation(const std::vector<Label>& labels, sim::NodeId source,
                      std::uint32_t mu);

  sim::NodeId size() const noexcept override {
    return static_cast<sim::NodeId>(rows_.size());
  }
  bool informed(sim::NodeId v) const override { return rows_[v].informed; }

  std::optional<sim::Message> decide(sim::NodeId v, std::uint64_t r);
  bool receive(sim::NodeId v, const sim::Message& m, std::uint64_t r);
  std::uint64_t next_active(sim::NodeId v, std::uint64_t r) const;
  /// The source hears µ echoed back (`Engine::first_data_reception`).
  bool listens(sim::NodeId v) const {
    return !rows_[v].informed || v == source_;
  }

 private:
  struct Row {
    std::uint64_t first_data = 0;  ///< round of the first µ reception
    std::uint64_t last_data_tx = 0;
    std::uint64_t stay_heard = 0;
    bool informed = false;  ///< holds µ
    bool sent_or_received = false;
  };

  sim::Message data() const {
    return sim::Message{sim::MsgKind::kData, 0, mu_, std::nullopt};
  }

  std::vector<Label> labels_;
  std::vector<Row> rows_;
  sim::NodeId source_;
  std::uint32_t mu_;
};

/// `StampedCore` for every node of one stamped-broadcast phase.  A phase
/// has at most one origin, and every informed node holds the origin's
/// payload, so both are kept once per phase.
class StampedPhase {
 public:
  /// `z_acks`: z (label x3) starts an acknowledgement the round after it
  /// first hears this phase's data — B_ack's phase, and phase 1 of the
  /// common-round construction and of B_arb.
  StampedPhase(sim::NodeId n, sim::MsgKind data_kind, std::uint8_t phase,
               bool z_acks);

  /// Node v becomes the phase origin: it transmits (data_kind, payload,
  /// stamp = first_stamp) at its next poll.
  void make_origin(sim::NodeId v, std::uint32_t payload,
                   std::uint64_t first_stamp);

  std::optional<sim::Message> maybe_initial(sim::NodeId v, std::uint64_t r);
  std::optional<sim::Message> maybe_x1(sim::NodeId v, Label l, std::uint64_t r);
  std::optional<sim::Message> maybe_x2(sim::NodeId v, Label l,
                                       std::uint64_t r) const;
  std::optional<sim::Message> maybe_stay_trigger(sim::NodeId v,
                                                 std::uint64_t r);
  /// What a message did to node v's row: nothing that moves its wake, its
  /// first data, or a "stay" that arms the stay-triggered retransmission.
  enum class Heard : std::uint8_t { kNothing, kInformed, kStay };
  /// Consumes this phase's data/stay messages.
  Heard hear(sim::NodeId v, const sim::Message& m, std::uint64_t r);
  /// `StampedCore::next_core_active` for node v at round r.
  std::uint64_t next_active(sim::NodeId v, Label l, std::uint64_t r) const;

  bool informed(sim::NodeId v) const {
    return v == origin_ || rows_[v].first_data != 0;
  }
  /// v holds this phase's data, or the phase has not started.
  bool settled(sim::NodeId v) const { return !started() || informed(v); }
  bool is_origin(sim::NodeId v) const noexcept { return v == origin_; }
  bool started() const noexcept { return origin_ != graph::kNoNode; }
  bool just_informed(sim::NodeId v, std::uint64_t r) const {
    return rows_[v].first_data != 0 && r == rows_[v].first_data + 1;
  }
  std::uint64_t informed_stamp(sim::NodeId v) const {
    return rows_[v].informed_stamp;
  }
  std::uint64_t first_data(sim::NodeId v) const {
    return rows_[v].first_data;
  }
  bool has_transmit_stamp(sim::NodeId v, std::uint64_t k) const;
  bool has_stamps(sim::NodeId v) const { return rows_[v].stamps != 0; }
  std::uint8_t phase() const noexcept { return phase_; }

 private:
  struct Row {
    std::uint64_t informed_stamp = 0;
    std::uint64_t first_data = 0;  ///< round of the first data reception
    std::uint64_t last_data_tx = 0;
    std::uint64_t stay_heard = 0;
    std::uint64_t stay_stamp = 0;
    std::uint32_t stamps = 0;  ///< 1 + pool index of the newest stamp; 0 none
  };
  /// One µ-transmit stamp; `next` chains a node's stamps like `stamps`.
  struct Stamp {
    std::uint64_t value;
    std::uint32_t next;
  };

  sim::Message data_message(std::uint64_t stamp) const {
    return sim::Message{data_kind_, phase_, payload_, stamp};
  }
  void push_stamp(sim::NodeId v, std::uint64_t k);

  sim::MsgKind data_kind_;
  std::uint8_t phase_;
  bool z_acks_;
  std::vector<Row> rows_;
  std::vector<Stamp> pool_;
  sim::NodeId origin_ = graph::kNoNode;
  bool origin_started_ = false;
  std::uint64_t origin_first_stamp_ = 1;
  std::uint32_t payload_ = 0;
};

/// Who last sent node v an ack, and with which stamp (and payload).
struct HeardAck {
  std::uint64_t round = 0;
  std::uint64_t stamp = 0;
  std::uint32_t payload = 0;
};

/// Algorithm 2 (B_ack) over arrays; see `AckBroadcastProtocol` (the
/// paper's algorithm — resilient mode stays per-node).
class AckPopulation final : public sim::FlatPopulation<AckPopulation> {
 public:
  AckPopulation(const std::vector<Label>& labels, sim::NodeId source,
                std::uint32_t mu);

  sim::NodeId size() const noexcept override {
    return static_cast<sim::NodeId>(labels_.size());
  }
  bool informed(sim::NodeId v) const override { return core_.informed(v); }

  std::optional<sim::Message> decide(sim::NodeId v, std::uint64_t r);
  bool receive(sim::NodeId v, const sim::Message& m, std::uint64_t r);
  std::uint64_t next_active(sim::NodeId v, std::uint64_t r) const;
  bool listens(sim::NodeId v) const {
    return !core_.informed(v) || core_.is_origin(v) || core_.has_stamps(v);
  }

  /// Round at which the source first heard an ack (0 = not yet); the
  /// scheme's stop predicate.
  std::uint64_t ack_round() const noexcept { return ack_round_; }

 private:
  std::vector<Label> labels_;
  StampedPhase core_;
  std::vector<HeardAck> acks_;
  std::uint64_t ack_round_ = 0;
};

/// §3 closing construction over arrays; see `CommonRoundProtocol`.
class CommonRoundPopulation final
    : public sim::FlatPopulation<CommonRoundPopulation> {
 public:
  CommonRoundPopulation(const std::vector<Label>& labels, sim::NodeId source,
                        std::uint32_t mu);

  sim::NodeId size() const noexcept override {
    return static_cast<sim::NodeId>(labels_.size());
  }
  bool informed(sim::NodeId v) const override { return phase1_.informed(v); }

  std::optional<sim::Message> decide(sim::NodeId v, std::uint64_t r);
  bool receive(sim::NodeId v, const sim::Message& m, std::uint64_t r);
  std::uint64_t next_active(sim::NodeId v, std::uint64_t r) const;
  bool listens(sim::NodeId v) const {
    return !phase1_.settled(v) || !phase2_.settled(v) ||
           phase1_.is_origin(v) || phase1_.has_stamps(v);
  }

  /// The common round 2m once known to v (0 = not yet).
  std::uint64_t knows_done_at(sim::NodeId v) const {
    return m_[v] == 0 ? 0 : 2 * m_[v];
  }
  /// Global round at which v learned m (0 = not yet).
  std::uint64_t learned_m_stamp(sim::NodeId v) const;
  /// Stop predicate: every node knows the common round.
  bool done() const noexcept { return knowing_ == labels_.size(); }

 private:
  void learn_m(sim::NodeId v, std::uint64_t m);

  std::vector<Label> labels_;
  StampedPhase phase1_;  ///< B_ack broadcast of µ (phase tag 1)
  StampedPhase phase2_;  ///< stamped B broadcast of m (phase tag 2)
  std::vector<HeardAck> acks_;
  /// The source: round of its first ack; others: the m payload heard.
  std::vector<std::uint64_t> m_;
  std::size_t knowing_ = 0;  ///< nodes with m_ != 0
};

/// Algorithm B_arb (§4) over arrays; see `ArbProtocol`.  The coordinator
/// (label 111) and the actual source each own a couple of timers; those
/// live once per population.
class ArbPopulation final : public sim::FlatPopulation<ArbPopulation> {
 public:
  /// `labels` hold at most one 111 label; `source` holds µ = `mu`.
  ArbPopulation(const std::vector<Label>& labels, sim::NodeId source,
                std::uint32_t mu);

  sim::NodeId size() const noexcept override {
    return static_cast<sim::NodeId>(labels_.size());
  }
  bool informed(sim::NodeId v) const override { return rows_[v].knows_mu; }

  std::optional<sim::Message> decide(sim::NodeId v, std::uint64_t r);
  bool receive(sim::NodeId v, const sim::Message& m, std::uint64_t r);
  std::uint64_t next_active(sim::NodeId v, std::uint64_t r) const;
  /// Phase 3 also waits for v's done round, which its first phase-3 data
  /// sets once v knows T.
  bool listens(sim::NodeId v) const {
    return v == source_ || v == coordinator_ || !phase1_.settled(v) ||
           !phase2_.settled(v) || !phase3_.settled(v) ||
           (phase3_.started() && rows_[v].done == 0) ||
           phase1_.has_stamps(v) || phase2_.has_stamps(v);
  }

  std::optional<std::uint32_t> mu(sim::NodeId v) const {
    return rows_[v].knows_mu ? std::optional<std::uint32_t>(mu_)
                             : std::nullopt;
  }
  /// Round at which v knows the broadcast completed everywhere (0 = not
  /// yet).
  std::uint64_t done_round(sim::NodeId v) const { return rows_[v].done; }
  std::uint64_t T(sim::NodeId v) const { return rows_[v].T; }
  bool is_coordinator(sim::NodeId v) const { return v == coordinator_; }
  /// Stop predicate: every node knows µ and the common done round.
  bool done() const noexcept {
    return informed_ == labels_.size() && done_count_ == labels_.size();
  }

 private:
  struct Row {
    HeardAck ack1, ack2;  ///< per-phase heard acks, for forwarding
    std::uint64_t done = 0;
    std::uint32_t T = 0;
    bool T_known = false;
    bool knows_mu = false;
  };

  std::optional<sim::Message> phase_rules(StampedPhase& core, sim::NodeId v,
                                          Label l, std::uint64_t r);
  std::uint64_t t_v(sim::NodeId v) const {
    return v == coordinator_ ? 0 : phase1_.informed_stamp(v);
  }
  void learn_mu(sim::NodeId v);
  void set_done(sim::NodeId v, std::uint64_t round);
  /// Makes the coordinator the origin of `phase`; every node listens again.
  void start(StampedPhase& phase, std::uint32_t payload);

  std::vector<Label> labels_;
  std::vector<Row> rows_;
  StampedPhase phase1_;  ///< "initialize" from the coordinator
  StampedPhase phase2_;  ///< ("ready", T) from the coordinator
  StampedPhase phase3_;  ///< µ from the coordinator
  sim::NodeId coordinator_ = graph::kNoNode;
  sim::NodeId source_;
  std::uint32_t mu_;
  // Coordinator timers.
  std::uint64_t phase2_start_ = 0;  ///< round of the Ready transmission
  std::uint64_t phase3_start_ = 0;  ///< round of the phase-3 µ transmission
  bool phase3_scheduled_ = false;
  // Actual source: the scheduled ack countdown round.
  std::uint64_t source_ack_round_ = 0;
  std::size_t done_count_ = 0;  ///< nodes with a done round
};

}  // namespace radiocast::core
