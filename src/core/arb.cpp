#include "core/arb.hpp"

#include "support/contracts.hpp"

namespace radiocast::core {

using sim::Message;
using sim::MsgKind;

ArbProtocol::ArbProtocol(Label label,
                         std::optional<std::uint32_t> source_message)
    : label_(label),
      is_coordinator_(label.x1 && label.x2 && label.x3),
      is_z_(label.x3 && !label.x1 && !label.x2),
      own_mu_(source_message),
      mu_(source_message),
      phase1_(label, MsgKind::kInit, 1, /*z_acks=*/true),
      phase2_(label, MsgKind::kReady, 2, /*z_acks=*/false),
      phase3_(label, MsgKind::kData, 3, /*z_acks=*/false) {
  if (is_coordinator_) {
    // Phase 1 starts immediately; Init carries no payload.
    phase1_.make_origin(0, 1);
  }
}

std::uint64_t ArbProtocol::t_v() const noexcept {
  return is_coordinator_ ? 0 : phase1_.informed_stamp();
}

std::optional<Message> ArbProtocol::phase_core_rules(StampedCore& core,
                                                     std::uint64_t r) {
  if (auto m = core.maybe_initial(r)) return m;
  if (auto m = core.maybe_x1(r)) return m;
  if (core.just_informed(r)) {
    // Phase 1 only: z initiates the acknowledgement carrying T = t_z.
    if (core.phase() == 1 && is_z_) {
      return Message{MsgKind::kAck, 1,
                     static_cast<std::uint32_t>(core.informed_stamp()),
                     core.informed_stamp()};
    }
    if (auto m = core.maybe_x2(r)) return m;
  }
  if (auto m = core.maybe_stay_trigger(r)) return m;
  return std::nullopt;
}

std::optional<Message> ArbProtocol::on_round() {
  const std::uint64_t r = ++round_;

  // Coordinator timers -------------------------------------------------------
  if (is_coordinator_ && own_mu_ && phase2_start_local_ != 0 &&
      !phase3_scheduled_ && r > phase2_start_local_ + T_) {
    // r = source corner case: the "ready" broadcast finished at relative round
    // T (its execution replays phase 1); start phase 3 without an ack chain.
    phase3_.make_origin(*own_mu_, 1);
    phase3_scheduled_ = true;
  }

  // sG countdown (armed by "ready" in on_hear).
  if (source_ack_round_ != 0 && r == source_ack_round_) {
    return Message{MsgKind::kAck, 2, *own_mu_, phase2_.informed_stamp()};
  }

  // Phase state machines, in phase order (phases are temporally disjoint). ---
  if (auto m = phase_core_rules(phase1_, r)) {
    return m;
  }
  // Phase-1 ack forwarding.
  if (ack1_.local == r - 1 && phase1_.has_transmit_stamp(ack1_.stamp)) {
    return Message{MsgKind::kAck, 1, ack1_.payload, phase1_.informed_stamp()};
  }
  if (auto m = phase_core_rules(phase2_, r)) {
    if (phase2_.is_origin() && phase2_start_local_ == 0 &&
        m->kind == MsgKind::kReady) {
      phase2_start_local_ = r;
    }
    return m;
  }
  // Phase-2 ack forwarding (carries µ toward the coordinator).
  if (ack2_.local == r - 1 && phase2_.has_transmit_stamp(ack2_.stamp)) {
    return Message{MsgKind::kAck, 2, ack2_.payload, phase2_.informed_stamp()};
  }
  if (auto m = phase_core_rules(phase3_, r)) {
    if (phase3_.is_origin() && phase3_start_local_ == 0 &&
        m->kind == MsgKind::kData) {
      phase3_start_local_ = r;
      // Coordinator's common completion round: relative round T of phase 3.
      if (T_ >= 1) done_round_ = r + T_ - 1;
    }
    return m;
  }
  return std::nullopt;
}

std::uint64_t ArbProtocol::next_active_round() const {
  std::uint64_t next = std::min({phase1_.next_core_active(round_),
                                 phase2_.next_core_active(round_),
                                 phase3_.next_core_active(round_)});
  // Coordinator-as-source timer: phase 3 starts at the first round strictly
  // after phase2_start + T (polling every round once that bound has passed
  // mirrors the scan's ">" guard exactly).
  if (is_coordinator_ && own_mu_ && phase2_start_local_ != 0 &&
      !phase3_scheduled_) {
    next = std::min(next, std::max(phase2_start_local_ + T_ + 1, round_ + 1));
  }
  // sG countdown: the scheduled ack round, set when "ready" arrives (T >= 1
  // puts it at least two rounds later).
  if (source_ack_round_ != 0 && round_ < source_ack_round_) {
    next = std::min(next, source_ack_round_);
  }
  // Per-phase ack forwarding: inert post-poll (an ack heard in round r is
  // delivered after every poll of round r), but queried right after the
  // on_hear it fires the forwarding wake — the reason the blanket delivery
  // re-arm used to be load-bearing for B_arb.
  if (ack1_.local == round_ && phase1_.has_transmit_stamp(ack1_.stamp)) {
    next = std::min(next, round_ + 1);
  }
  if (ack2_.local == round_ && phase2_.has_transmit_stamp(ack2_.stamp)) {
    next = std::min(next, round_ + 1);
  }
  return next;
}

void ArbProtocol::on_hear(const Message& m) {
  const std::uint64_t r = round_;
  if (m.kind == MsgKind::kAck) {
    if (m.phase == 1) {
      ack1_ = {r, m.stamp.value(), m.payload};
      if (is_coordinator_) {
        if (!T_known_) {
          T_ = m.payload;
          T_known_ = true;
          phase2_.make_origin(static_cast<std::uint32_t>(T_), 1);
        }
      }
    } else if (m.phase == 2) {
      ack2_ = {r, m.stamp.value(), m.payload};
      if (is_coordinator_) {
        if (!mu_) mu_ = m.payload;
        if (!phase3_scheduled_) {
          phase3_.make_origin(m.payload, 1);
          phase3_scheduled_ = true;
        }
      }
    }
    return;
  }
  phase1_.hear(m, r);
  phase2_.hear(m, r);
  phase3_.hear(m, r);
  if (m.kind == MsgKind::kReady && !T_known_) {
    T_ = m.payload;
    T_known_ = true;
  }
  // sG countdown (paper: wait T rounds after receiving "ready", then start
  // the acknowledgement with µ appended).
  if (own_mu_ && !is_coordinator_ && T_known_ && phase2_.informed() &&
      source_ack_round_ == 0) {
    source_ack_round_ = phase2_.first_data_local() + T_ + 1;
  }
  if (m.kind == MsgKind::kData && m.phase == 3) {
    if (!mu_) mu_ = m.payload;
    if (done_round_ == 0 && phase3_.informed() && T_known_) {
      // Wait T - t_v rounds after the phase-3 reception (paper §4 step 3).
      const std::uint64_t tv = t_v();
      RC_ASSERT_MSG(T_ >= tv, "T must dominate every t_v");
      done_round_ = r + (T_ - tv);
    }
  }
}

std::vector<std::unique_ptr<sim::Protocol>> make_arb_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<ArbProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt));
  }
  return out;
}

}  // namespace radiocast::core
