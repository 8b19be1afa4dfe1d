#include "core/population.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace radiocast::core {

using sim::Message;
using sim::MsgKind;
using sim::NodeId;
using sim::Protocol;

// ---------------------------------------------------------------------------
// BroadcastPopulation (Algorithm 1)
// ---------------------------------------------------------------------------

BroadcastPopulation::BroadcastPopulation(const Labeling& labeling,
                                         std::uint32_t mu)
    : labels_(labeling.labels), rows_(labeling.labels.size()), mu_(mu) {
  RC_EXPECTS(labeling.source < rows_.size());
  rows_[labeling.source].informed = true;
  informed_ = 1;
}

std::optional<Message> BroadcastPopulation::decide(NodeId v, std::uint64_t r) {
  Row& s = rows_[v];
  // Lines 2-3: the source transmits µ in its first round.
  if (!s.sent_or_received && s.informed) {
    s.sent_or_received = true;
    s.last_data_tx = r;
    return data();
  }
  // Lines 4-7: uninformed nodes listen.
  if (!s.informed) return std::nullopt;
  const Label l = labels_[v];
  // Lines 9-12: first received µ two rounds ago and x1 = 1 -> transmit µ.
  if (s.first_data != 0 && r == s.first_data + 2 && l.x1) {
    s.last_data_tx = r;
    return data();
  }
  // Lines 13-16: first received µ one round ago and x2 = 1 -> "stay".
  if (s.first_data != 0 && r == s.first_data + 1 && l.x2) {
    return Message{MsgKind::kStay, 0, 0, std::nullopt};
  }
  // Lines 17-19: transmitted µ two rounds ago and heard "stay" last round.
  if (s.last_data_tx != 0 && r == s.last_data_tx + 2 && s.stay_heard == r - 1) {
    s.last_data_tx = r;
    return data();
  }
  return std::nullopt;
}

bool BroadcastPopulation::receive(NodeId v, const Message& m, std::uint64_t r) {
  Row& s = rows_[v];
  bool changed = !s.sent_or_received;
  s.sent_or_received = true;
  if (m.kind == MsgKind::kData) {
    if (!s.informed) {
      s.informed = true;
      s.first_data = r;
      ++informed_;
      changed = true;
    }
  } else if (m.kind == MsgKind::kStay) {
    s.stay_heard = r;
    changed = true;
  }
  return changed;
}

std::uint64_t BroadcastPopulation::next_active(NodeId v,
                                               std::uint64_t r) const {
  const Row& s = rows_[v];
  if (!s.informed) return Protocol::kIdle;
  if (!s.sent_or_received) return r + 1;
  const Label l = labels_[v];
  std::uint64_t next = Protocol::kIdle;
  if (s.first_data != 0) {
    if (l.x2 && r < s.first_data + 1) next = std::min(next, s.first_data + 1);
    if (l.x1 && r < s.first_data + 2) next = std::min(next, s.first_data + 2);
  }
  if (s.last_data_tx != 0 && s.stay_heard == s.last_data_tx + 1 &&
      r < s.last_data_tx + 2) {
    next = std::min(next, s.last_data_tx + 2);
  }
  return next;
}

// ---------------------------------------------------------------------------
// StampedPhase (StampedCore over arrays)
// ---------------------------------------------------------------------------

StampedPhase::StampedPhase(NodeId n, MsgKind data_kind, std::uint8_t phase)
    : data_kind_(data_kind), phase_(phase), rows_(n) {}

void StampedPhase::make_origin(NodeId v, std::uint32_t payload,
                               std::uint64_t first_stamp) {
  RC_EXPECTS_MSG(origin_ == graph::kNoNode && !informed(v),
                 "phase origin set twice");
  origin_ = v;
  payload_ = payload;
  origin_first_stamp_ = first_stamp;
}

void StampedPhase::push_stamp(NodeId v, std::uint64_t k) {
  pool_.push_back({k, rows_[v].stamps});
  rows_[v].stamps = static_cast<std::uint32_t>(pool_.size());
}

bool StampedPhase::has_transmit_stamp(NodeId v, std::uint64_t k) const {
  for (std::uint32_t i = rows_[v].stamps; i != 0; i = pool_[i - 1].next) {
    if (pool_[i - 1].value == k) return true;
  }
  return false;
}

std::optional<Message> StampedPhase::maybe_initial(NodeId v, std::uint64_t r) {
  if (v != origin_ || origin_started_) return std::nullopt;
  origin_started_ = true;
  rows_[v].last_data_tx = r;
  return data_message(origin_first_stamp_);
}

std::optional<Message> StampedPhase::maybe_x1(NodeId v, Label l,
                                              std::uint64_t r) {
  Row& s = rows_[v];
  if (v == origin_ || s.first_data == 0) return std::nullopt;
  if (r == s.first_data + 2 && l.x1) {
    s.last_data_tx = r;
    push_stamp(v, s.informed_stamp + 2);
    return data_message(s.informed_stamp + 2);
  }
  return std::nullopt;
}

std::optional<Message> StampedPhase::maybe_x2(NodeId v, Label l,
                                              std::uint64_t r) const {
  if (v == origin_ || !informed(v)) return std::nullopt;
  if (just_informed(v, r) && l.x2) {
    return Message{MsgKind::kStay, phase_, 0, rows_[v].informed_stamp + 1};
  }
  return std::nullopt;
}

std::optional<Message> StampedPhase::maybe_stay_trigger(NodeId v,
                                                        std::uint64_t r) {
  if (!informed(v)) return std::nullopt;
  Row& s = rows_[v];
  if (s.last_data_tx != 0 && r == s.last_data_tx + 2 && s.stay_heard == r - 1) {
    s.last_data_tx = r;
    if (v != origin_) push_stamp(v, s.stay_stamp + 1);
    return data_message(s.stay_stamp + 1);
  }
  return std::nullopt;
}

StampedPhase::Heard StampedPhase::hear(NodeId v, const Message& m,
                                       std::uint64_t r) {
  if (m.phase != phase_) return Heard::kNothing;
  Row& s = rows_[v];
  if (m.kind == data_kind_) {
    if (!informed(v)) {
      RC_ASSERT_MSG(m.stamp.has_value(), "stamped protocol requires stamps");
      s.informed_stamp = *m.stamp;
      s.first_data = r;
      return Heard::kInformed;
    }
  } else if (m.kind == MsgKind::kStay) {
    RC_ASSERT(m.stamp.has_value());
    s.stay_heard = r;
    s.stay_stamp = *m.stamp;
    return Heard::kStay;
  }
  return Heard::kNothing;
}

std::uint64_t StampedPhase::next_active(NodeId v, Label l,
                                        std::uint64_t r) const {
  const Row& s = rows_[v];
  std::uint64_t next = Protocol::kIdle;
  if (v == origin_) {
    if (!origin_started_) return r + 1;
  } else if (s.first_data != 0) {
    if (r < s.first_data + 1) next = std::min(next, s.first_data + 1);
    if (l.x1 && r < s.first_data + 2) next = std::min(next, s.first_data + 2);
  }
  if (informed(v) && s.last_data_tx != 0 &&
      s.stay_heard == s.last_data_tx + 1 && r < s.last_data_tx + 2) {
    next = std::min(next, s.last_data_tx + 2);
  }
  return next;
}

// ---------------------------------------------------------------------------
// AckPopulation (Algorithm 2)
// ---------------------------------------------------------------------------

AckPopulation::AckPopulation(const Labeling& labeling, std::uint32_t mu)
    : labels_(labeling.labels),
      core_(static_cast<NodeId>(labeling.labels.size()), MsgKind::kData, 0),
      acks_(labeling.labels.size()) {
  RC_EXPECTS(labeling.source < labels_.size());
  core_.make_origin(labeling.source, mu, 1);
  informed_ = 1;
}

std::optional<Message> AckPopulation::decide(NodeId v, std::uint64_t r) {
  const Label l = labels_[v];
  if (auto m = core_.maybe_initial(v, r)) return m;
  if (auto m = core_.maybe_x1(v, l, r)) return m;
  if (core_.just_informed(v, r)) {
    // Lines 18-19: z starts the acknowledgement process.
    if (l.x3) return Message{MsgKind::kAck, 0, 0, core_.informed_stamp(v)};
    if (auto m = core_.maybe_x2(v, l, r)) return m;
  }
  if (auto m = core_.maybe_stay_trigger(v, r)) return m;
  // Lines 28-31: forward the ack iff we transmitted µ in the stamped round.
  const HeardAck& a = acks_[v];
  if (a.round == r - 1 && core_.has_transmit_stamp(v, a.stamp)) {
    return Message{MsgKind::kAck, 0, 0, core_.informed_stamp(v)};
  }
  return std::nullopt;
}

bool AckPopulation::receive(NodeId v, const Message& m, std::uint64_t r) {
  if (m.kind == MsgKind::kAck) {
    RC_ASSERT(m.stamp.has_value());
    acks_[v] = {r, *m.stamp, 0};
    if (core_.is_origin(v) && ack_round_ == 0) ack_round_ = r;
    return true;
  }
  const auto heard = core_.hear(v, m, r);
  if (heard == StampedPhase::Heard::kInformed) ++informed_;
  return heard != StampedPhase::Heard::kNothing;
}

std::uint64_t AckPopulation::next_active(NodeId v, std::uint64_t r) const {
  std::uint64_t next = core_.next_active(v, labels_[v], r);
  const HeardAck& a = acks_[v];
  if (a.round == r && core_.has_transmit_stamp(v, a.stamp)) {
    next = std::min(next, r + 1);
  }
  return next;
}

// ---------------------------------------------------------------------------
// CommonRoundPopulation (§3 closing construction)
// ---------------------------------------------------------------------------

CommonRoundPopulation::CommonRoundPopulation(const Labeling& labeling,
                                             std::uint32_t mu)
    : labels_(labeling.labels),
      phase1_(static_cast<NodeId>(labeling.labels.size()), MsgKind::kData, 1),
      phase2_(static_cast<NodeId>(labeling.labels.size()), MsgKind::kData, 2),
      acks_(labeling.labels.size()),
      m_(labeling.labels.size(), 0) {
  RC_EXPECTS(labeling.source < labels_.size());
  phase1_.make_origin(labeling.source, mu, 1);
  informed_ = 1;
}

void CommonRoundPopulation::learn_m(NodeId v, std::uint64_t m) {
  if (m_[v] == 0 && m != 0) ++knowing_;
  m_[v] = m;
}

std::uint64_t CommonRoundPopulation::learned_m_stamp(NodeId v) const {
  if (m_[v] == 0) return 0;
  return phase2_.is_origin(v) ? m_[v] : phase2_.informed_stamp(v);
}

std::optional<Message> CommonRoundPopulation::decide(NodeId v,
                                                     std::uint64_t r) {
  const Label l = labels_[v];
  if (auto m = phase1_.maybe_initial(v, r)) return m;
  if (auto m = phase1_.maybe_x1(v, l, r)) return m;
  if (phase1_.just_informed(v, r)) {
    if (l.x3) return Message{MsgKind::kAck, 1, 0, phase1_.informed_stamp(v)};
    if (auto m = phase1_.maybe_x2(v, l, r)) return m;
  }
  if (auto m = phase1_.maybe_stay_trigger(v, r)) return m;
  const HeardAck& a = acks_[v];
  if (a.round == r - 1 && phase1_.has_transmit_stamp(v, a.stamp)) {
    return Message{MsgKind::kAck, 1, 0, phase1_.informed_stamp(v)};
  }
  // Phase 2: the source broadcasts m with global stamps.
  if (auto m = phase2_.maybe_initial(v, r)) return m;
  if (auto m = phase2_.maybe_x1(v, l, r)) return m;
  if (phase2_.just_informed(v, r)) {
    if (auto m = phase2_.maybe_x2(v, l, r)) return m;
  }
  if (auto m = phase2_.maybe_stay_trigger(v, r)) return m;
  return std::nullopt;
}

bool CommonRoundPopulation::receive(NodeId v, const Message& m,
                                    std::uint64_t r) {
  if (m.kind == MsgKind::kAck) {
    RC_ASSERT(m.stamp.has_value());
    acks_[v] = {r, *m.stamp, 0};
    if (phase1_.is_origin(v) && m_[v] == 0) {
      // The source records m = the round of its first ack and starts the
      // m-broadcast next round, stamped with the true global round m+1.
      learn_m(v, r);
      phase2_.make_origin(v, static_cast<std::uint32_t>(r), r + 1);
    }
    return true;
  }
  using Heard = StampedPhase::Heard;
  const Heard heard1 = phase1_.hear(v, m, r);
  if (heard1 == Heard::kInformed) ++informed_;
  bool changed = heard1 != Heard::kNothing;
  changed = phase2_.hear(v, m, r) != Heard::kNothing || changed;
  if (m.phase == 2 && m.kind == MsgKind::kData && m_[v] == 0) {
    learn_m(v, m.payload);
    changed = true;
  }
  return changed;
}

std::uint64_t CommonRoundPopulation::next_active(NodeId v,
                                                 std::uint64_t r) const {
  const Label l = labels_[v];
  std::uint64_t next =
      std::min(phase1_.next_active(v, l, r), phase2_.next_active(v, l, r));
  const HeardAck& a = acks_[v];
  if (a.round == r && phase1_.has_transmit_stamp(v, a.stamp)) {
    next = std::min(next, r + 1);
  }
  return next;
}

// ---------------------------------------------------------------------------
// ArbPopulation (B_arb, §4)
// ---------------------------------------------------------------------------

ArbPopulation::ArbPopulation(const ArbLabeling& labeling, NodeId source,
                             std::uint32_t mu)
    : labels_(labeling.labels),
      rows_(labeling.labels.size()),
      phase1_(static_cast<NodeId>(labeling.labels.size()), MsgKind::kInit, 1),
      phase2_(static_cast<NodeId>(labeling.labels.size()), MsgKind::kReady,
              2),
      phase3_(static_cast<NodeId>(labeling.labels.size()), MsgKind::kData, 3),
      source_(source),
      mu_(mu) {
  RC_EXPECTS(source < labels_.size());
  for (NodeId v = 0; v < labels_.size(); ++v) {
    const Label l = labels_[v];
    if (l.x1 && l.x2 && l.x3) {
      RC_EXPECTS_MSG(coordinator_ == graph::kNoNode,
                     "B_arb labeling with two coordinators");
      coordinator_ = v;
      // Phase 1 starts immediately; Init carries no payload.
      phase1_.make_origin(v, 0, 1);
    }
  }
  rows_[source].knows_mu = true;
  informed_ = 1;
}

void ArbPopulation::learn_mu(NodeId v) {
  if (rows_[v].knows_mu) return;
  rows_[v].knows_mu = true;
  ++informed_;
}

void ArbPopulation::set_done(NodeId v, std::uint64_t round) {
  if (rows_[v].done == 0 && round != 0) ++done_count_;
  rows_[v].done = round;
}

std::optional<Message> ArbPopulation::phase_rules(StampedPhase& core,
                                                  NodeId v, Label l,
                                                  std::uint64_t r) {
  if (auto m = core.maybe_initial(v, r)) return m;
  if (auto m = core.maybe_x1(v, l, r)) return m;
  if (core.just_informed(v, r)) {
    // Phase 1 only: z initiates the acknowledgement carrying T = t_z.
    if (core.phase() == 1 && l.x3 && !l.x1 && !l.x2) {
      return Message{MsgKind::kAck, 1,
                     static_cast<std::uint32_t>(core.informed_stamp(v)),
                     core.informed_stamp(v)};
    }
    if (auto m = core.maybe_x2(v, l, r)) return m;
  }
  if (auto m = core.maybe_stay_trigger(v, r)) return m;
  return std::nullopt;
}

std::optional<Message> ArbPopulation::decide(NodeId v, std::uint64_t r) {
  Row& a = rows_[v];
  const bool coordinator = v == coordinator_;
  const bool source = v == source_;

  // Coordinator timer: r = source corner case; the "ready" broadcast
  // finished at relative round T, so start phase 3 without an ack chain.
  if (coordinator && source && phase2_start_ != 0 && !phase3_scheduled_ &&
      r > phase2_start_ + a.T) {
    phase3_.make_origin(v, mu_, 1);
    phase3_scheduled_ = true;
  }

  // sG countdown: wait T rounds after receiving "ready", then start the
  // acknowledgement with µ appended.
  if (source && !coordinator && a.T_known && phase2_.informed(v) &&
      source_ack_round_ == 0) {
    source_ack_round_ = phase2_.first_data(v) + a.T + 1;
  }
  if (source && source_ack_round_ != 0 && r == source_ack_round_) {
    return Message{MsgKind::kAck, 2, mu_, phase2_.informed_stamp(v)};
  }

  // Phase state machines, in phase order (phases are temporally disjoint).
  const Label l = labels_[v];
  if (auto m = phase_rules(phase1_, v, l, r)) return m;
  if (a.ack1.round == r - 1 && phase1_.has_transmit_stamp(v, a.ack1.stamp)) {
    return Message{MsgKind::kAck, 1, a.ack1.payload, phase1_.informed_stamp(v)};
  }
  if (auto m = phase_rules(phase2_, v, l, r)) {
    if (phase2_.is_origin(v) && phase2_start_ == 0 &&
        m->kind == MsgKind::kReady) {
      phase2_start_ = r;
    }
    return m;
  }
  // Phase-2 ack forwarding (carries µ toward the coordinator).
  if (a.ack2.round == r - 1 && phase2_.has_transmit_stamp(v, a.ack2.stamp)) {
    return Message{MsgKind::kAck, 2, a.ack2.payload, phase2_.informed_stamp(v)};
  }
  if (auto m = phase_rules(phase3_, v, l, r)) {
    if (phase3_.is_origin(v) && phase3_start_ == 0 &&
        m->kind == MsgKind::kData) {
      phase3_start_ = r;
      // Coordinator's common completion round: relative round T of phase 3.
      if (a.T >= 1) set_done(v, r + a.T - 1);
    }
    return m;
  }
  return std::nullopt;
}

bool ArbPopulation::receive(NodeId v, const Message& m, std::uint64_t r) {
  Row& a = rows_[v];
  if (m.kind == MsgKind::kAck) {
    RC_ASSERT(m.stamp.has_value());
    if (m.phase == 1) {
      a.ack1 = {r, *m.stamp, m.payload};
      if (v == coordinator_ && !a.T_known) {
        a.T = m.payload;
        a.T_known = true;
        phase2_.make_origin(v, a.T, 1);
      }
    } else if (m.phase == 2) {
      a.ack2 = {r, *m.stamp, m.payload};
      if (v == coordinator_) {
        learn_mu(v);
        if (!phase3_scheduled_) {
          phase3_.make_origin(v, m.payload, 1);
          phase3_scheduled_ = true;
        }
      }
    }
    return true;
  }
  // Each phase consumes only messages carrying its own tag.
  StampedPhase* phase = nullptr;
  if (m.phase == 1) phase = &phase1_;
  if (m.phase == 2) phase = &phase2_;
  if (m.phase == 3) phase = &phase3_;
  bool changed = phase != nullptr &&
                 phase->hear(v, m, r) != StampedPhase::Heard::kNothing;
  if (m.kind == MsgKind::kReady && !a.T_known) {
    a.T = m.payload;
    a.T_known = true;
    changed = true;
  }
  if (m.kind == MsgKind::kData && m.phase == 3) {
    if (!a.knows_mu) {
      learn_mu(v);
      changed = true;
    }
    if (a.done == 0 && phase3_.informed(v) && a.T_known) {
      // Wait T - t_v rounds after the phase-3 reception (paper §4 step 3).
      const std::uint64_t tv = t_v(v);
      RC_ASSERT_MSG(a.T >= tv, "T must dominate every t_v");
      set_done(v, r + (a.T - tv));
      changed = true;
    }
  }
  return changed;
}

std::uint64_t ArbPopulation::next_active(NodeId v, std::uint64_t r) const {
  const Row& a = rows_[v];
  const Label l = labels_[v];
  std::uint64_t next = std::min({phase1_.next_active(v, l, r),
                                 phase2_.next_active(v, l, r),
                                 phase3_.next_active(v, l, r)});
  // Coordinator-as-source timer: phase 3 starts at the first round strictly
  // after phase2_start + T.
  if (v == coordinator_ && v == source_ && phase2_start_ != 0 &&
      !phase3_scheduled_) {
    next = std::min(next, std::max(phase2_start_ + a.T + 1, r + 1));
  }
  // sG countdown: the scheduled ack round, once computed.
  if (v == source_ && source_ack_round_ != 0 && r < source_ack_round_) {
    next = std::min(next, source_ack_round_);
  }
  // Per-phase ack forwarding, armed by the ack just heard.
  if (a.ack1.round == r && phase1_.has_transmit_stamp(v, a.ack1.stamp)) {
    next = std::min(next, r + 1);
  }
  if (a.ack2.round == r && phase2_.has_transmit_stamp(v, a.ack2.stamp)) {
    next = std::min(next, r + 1);
  }
  return next;
}

}  // namespace radiocast::core
