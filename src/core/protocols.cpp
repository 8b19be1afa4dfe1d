#include "core/protocols.hpp"

#include <algorithm>

#include "sim/faults.hpp"
#include "support/contracts.hpp"

namespace radiocast::core {

using sim::Message;
using sim::MsgKind;

// ---------------------------------------------------------------------------
// BroadcastProtocol (Algorithm 1)
// ---------------------------------------------------------------------------

BroadcastProtocol::BroadcastProtocol(
    Label label, std::optional<std::uint32_t> source_message)
    : label_(label), payload_(source_message) {}

std::optional<Message> BroadcastProtocol::on_round() {
  ++round_;
  // Lines 2-3: the source transmits µ in its first round.
  if (!sent_or_received_ && payload_) {
    sent_or_received_ = true;
    last_data_tx_ = round_;
    return Message{MsgKind::kData, 0, *payload_, std::nullopt};
  }
  // Lines 4-7: uninformed nodes listen.
  if (!payload_) return std::nullopt;
  // Lines 9-12: first received µ two rounds ago and x1 = 1 -> transmit µ.
  if (first_data_ != 0 && round_ == first_data_ + 2 && label_.x1) {
    last_data_tx_ = round_;
    return Message{MsgKind::kData, 0, *payload_, std::nullopt};
  }
  // Lines 13-16: first received µ one round ago and x2 = 1 -> transmit "stay".
  if (first_data_ != 0 && round_ == first_data_ + 1 && label_.x2) {
    return Message{MsgKind::kStay, 0, 0, std::nullopt};
  }
  // Lines 17-19: transmitted µ two rounds ago and heard "stay" last round.
  if (last_data_tx_ != 0 && round_ == last_data_tx_ + 2 &&
      stay_heard_ == round_ - 1) {
    last_data_tx_ = round_;
    return Message{MsgKind::kData, 0, *payload_, std::nullopt};
  }
  return std::nullopt;
}

std::uint64_t BroadcastProtocol::next_active_round() const {
  // Uninformed nodes listen (lines 4-7) until a reception re-arms them.
  if (!payload_) return kIdle;
  // Lines 2-3: the source transmits µ at its next poll.
  if (!sent_or_received_) return round_ + 1;
  std::uint64_t next = kIdle;
  if (first_data_ != 0) {
    if (label_.x2 && round_ < first_data_ + 1) {
      next = std::min(next, first_data_ + 1);
    }
    if (label_.x1 && round_ < first_data_ + 2) {
      next = std::min(next, first_data_ + 2);
    }
  }
  // Lines 17-19 (stay-triggered retransmission): armed iff "stay" arrived
  // the round after our last µ transmission; fires one round later.  At a
  // post-poll query this guard is never live (stay_heard_ <= round_ - 1 <
  // last_data_tx_ + 1 would be required with last_data_tx_ <= round_), but
  // the post-hear hint queries right after the on_hear that records the
  // stay, where it is the rule that keeps the node awake.
  if (last_data_tx_ != 0 && stay_heard_ == last_data_tx_ + 1 &&
      round_ < last_data_tx_ + 2) {
    next = std::min(next, last_data_tx_ + 2);
  }
  return next;
}

void BroadcastProtocol::on_hear(const Message& m) {
  sent_or_received_ = true;
  if (m.kind == MsgKind::kData) {
    if (!payload_) {
      payload_ = m.payload;
      first_data_ = round_;
    }
  } else if (m.kind == MsgKind::kStay) {
    stay_heard_ = round_;
  }
}

// ---------------------------------------------------------------------------
// StampedCore (shared by Algorithm 2 and the protocols built on it)
// ---------------------------------------------------------------------------

StampedCore::StampedCore(Label label, MsgKind data_kind, std::uint8_t phase,
                         bool z_acks)
    : label_(label), data_kind_(data_kind), phase_(phase), z_acks_(z_acks) {}

void StampedCore::make_origin(std::uint32_t payload,
                              std::uint64_t first_stamp) {
  RC_EXPECTS_MSG(!origin_ && !payload_, "phase origin set twice");
  origin_ = true;
  payload_ = payload;
  origin_first_stamp_ = first_stamp;
}

Message StampedCore::data_message(std::uint64_t stamp) const {
  return Message{data_kind_, phase_, *payload_, stamp};
}

std::optional<Message> StampedCore::maybe_initial(std::uint64_t r) {
  if (!origin_ || origin_started_) return std::nullopt;
  origin_started_ = true;
  last_data_tx_local_ = r;
  return data_message(origin_first_stamp_);
}

std::optional<Message> StampedCore::maybe_x1(std::uint64_t r) {
  if (origin_ || !payload_) return std::nullopt;
  if (first_data_local_ != 0 && r == first_data_local_ + 2 && label_.x1) {
    last_data_tx_local_ = r;
    transmit_stamps_.push_back(informed_stamp_ + 2);
    return data_message(informed_stamp_ + 2);
  }
  return std::nullopt;
}

std::optional<Message> StampedCore::maybe_x2(std::uint64_t r) const {
  if (origin_ || !payload_) return std::nullopt;
  if (just_informed(r) && label_.x2) {
    return Message{MsgKind::kStay, phase_, 0, informed_stamp_ + 1};
  }
  return std::nullopt;
}

std::optional<Message> StampedCore::maybe_stay_trigger(std::uint64_t r) {
  if (!payload_) return std::nullopt;
  if (last_data_tx_local_ != 0 && r == last_data_tx_local_ + 2 &&
      stay_heard_local_ == r - 1) {
    last_data_tx_local_ = r;
    if (!origin_) transmit_stamps_.push_back(stay_stamp_ + 1);
    return data_message(stay_stamp_ + 1);
  }
  return std::nullopt;
}

void StampedCore::hear(const Message& m, std::uint64_t r) {
  if (m.phase != phase_) return;
  if (m.kind == data_kind_) {
    if (!payload_) {
      RC_ASSERT_MSG(m.stamp.has_value(), "stamped protocol requires stamps");
      payload_ = m.payload;
      informed_stamp_ = *m.stamp;
      first_data_local_ = r;
    }
  } else if (m.kind == MsgKind::kStay) {
    RC_ASSERT(m.stamp.has_value());
    stay_heard_local_ = r;
    stay_stamp_ = *m.stamp;
  }
}

std::uint64_t StampedCore::next_core_active(std::uint64_t r) const {
  std::uint64_t next = sim::Protocol::kIdle;
  if (origin_) {
    // The one-off initial transmission fires at the next poll.
    if (!origin_started_) return r + 1;
  } else if (payload_ && first_data_local_ != 0) {
    // The just-informed round: x2 sends "stay", and z starts the owners'
    // ack in a phase that has one.
    if ((label_.x2 || (z_acks_ && label_.x3)) && r < first_data_local_ + 1) {
      next = std::min(next, first_data_local_ + 1);
    }
    if (label_.x1 && r < first_data_local_ + 2) {
      next = std::min(next, first_data_local_ + 2);
    }
  }
  // Stay-triggered retransmission (lines 23-27, origins included): armed iff
  // "stay" arrived the round after this node's last data transmission.  Post-
  // poll this guard is never live (stay_heard_local_ < last_data_tx_local_ +
  // 1 there); it exists for the post-hear hint, queried right after the
  // on_hear that records the stay.
  if (payload_ && last_data_tx_local_ != 0 &&
      stay_heard_local_ == last_data_tx_local_ + 1 &&
      r < last_data_tx_local_ + 2) {
    next = std::min(next, last_data_tx_local_ + 2);
  }
  return next;
}

bool StampedCore::has_transmit_stamp(std::uint64_t k) const {
  return std::find(transmit_stamps_.begin(), transmit_stamps_.end(), k) !=
         transmit_stamps_.end();
}

std::uint32_t StampedCore::payload() const {
  RC_EXPECTS(payload_.has_value());
  return *payload_;
}

Message StampedCore::resilient_retransmit(std::uint64_t r) {
  RC_EXPECTS(payload_.has_value());
  last_data_tx_local_ = r;
  if (!origin_) transmit_stamps_.push_back(r);
  return data_message(r);
}

// ---------------------------------------------------------------------------
// AckBroadcastProtocol (Algorithm 2)
// ---------------------------------------------------------------------------

AckBroadcastProtocol::AckBroadcastProtocol(
    Label label, std::optional<std::uint32_t> source_message, bool resilient)
    : label_(label),
      core_(label, MsgKind::kData, 0, /*z_acks=*/true),
      resilient_(resilient) {
  if (source_message) core_.make_origin(*source_message, 1);
}

bool AckBroadcastProtocol::retry_slot(std::uint64_t r,
                                      std::uint64_t salt) const {
  // One slot per epoch of kRetrySlots rounds, re-drawn every epoch from
  // (informed stamp, label bits, stream salt): neighbours with distinct keys
  // interleave, and even equal keys cannot lock into a permanent collision
  // with any node keyed differently.
  const std::uint64_t key =
      core_.informed_stamp() * 8 +
      (std::uint64_t{label_.x1} << 2 | std::uint64_t{label_.x2} << 1 |
       std::uint64_t{label_.x3});
  const std::uint64_t epoch = r / kRetrySlots;
  return sim::splitmix64(key ^ sim::splitmix64(salt) ^ (epoch << 20)) %
             kRetrySlots ==
         r % kRetrySlots;
}

std::optional<Message> AckBroadcastProtocol::maybe_resilient_retry(
    std::uint64_t r) {
  if (!resilient_ || !informed()) return std::nullopt;
  if (core_.is_origin()) {
    // Acknowledged source: the broadcast provably completed; fall silent.
    if (ack_received_round_ != 0) return std::nullopt;
    if (r >= 1 + kRetryGrace && retry_slot(r, 0)) {
      return core_.resilient_retransmit(r);
    }
    return std::nullopt;
  }
  // On the ack wave (z itself, or any node that has sensed an ack): push
  // the acknowledgement toward the source instead of re-sending µ — every
  // node past this one is already informed.
  if (label_.x3 || ack_heard_local_ != 0) {
    if (retry_slot(r, 1)) {
      return Message{MsgKind::kAck, 0, 0, core_.informed_stamp()};
    }
    return std::nullopt;
  }
  // Frontier side: re-send µ once the paper's schedule has had its chance.
  if (r >= core_.first_data_local() + kRetryGrace && retry_slot(r, 0)) {
    return core_.resilient_retransmit(r);
  }
  return std::nullopt;
}

std::optional<Message> AckBroadcastProtocol::on_round() {
  const std::uint64_t r = ++round_;
  if (auto m = core_.maybe_initial(r)) return m;
  // Line 12 precedes line 17 in Algorithm 2, but their guards are mutually
  // exclusive (r-2 vs r-1 since the first reception), so order is free here.
  if (auto m = core_.maybe_x1(r)) return m;
  if (core_.just_informed(r)) {
    if (label_.x3) {
      // Lines 18-19: z starts the acknowledgement process.
      return Message{MsgKind::kAck, 0, 0, core_.informed_stamp()};
    }
    if (auto m = core_.maybe_x2(r)) return m;
  }
  if (auto m = core_.maybe_stay_trigger(r)) return m;
  // Lines 28-31: forward the ack iff we transmitted µ in the stamped round.
  if (ack_heard_local_ == r - 1 && core_.has_transmit_stamp(ack_heard_stamp_)) {
    return Message{MsgKind::kAck, 0, 0, core_.informed_stamp()};
  }
  // Resilient retries fill otherwise-silent rounds only, so a loss-free run
  // follows the paper's schedule wherever it is making progress.
  if (auto m = maybe_resilient_retry(r)) return m;
  return std::nullopt;
}

void AckBroadcastProtocol::on_hear(const Message& m) {
  if (m.kind == MsgKind::kAck) {
    ack_heard_local_ = round_;
    RC_ASSERT(m.stamp.has_value());
    ack_heard_stamp_ = *m.stamp;
    if (core_.is_origin() && ack_received_round_ == 0) {
      ack_received_round_ = round_;
    }
    return;
  }
  core_.hear(m, round_);
}

// ---------------------------------------------------------------------------
// CommonRoundProtocol (§3 closing construction)
// ---------------------------------------------------------------------------

CommonRoundProtocol::CommonRoundProtocol(
    Label label, std::optional<std::uint32_t> source_message)
    : label_(label),
      phase1_(label, MsgKind::kData, 1, /*z_acks=*/true),
      phase2_(label, MsgKind::kData, 2, /*z_acks=*/false) {
  if (source_message) phase1_.make_origin(*source_message, 1);
}

std::optional<Message> CommonRoundProtocol::on_round() {
  const std::uint64_t r = ++round_;
  if (auto m = phase1_.maybe_initial(r)) return m;
  if (auto m = phase1_.maybe_x1(r)) return m;
  if (phase1_.just_informed(r)) {
    if (label_.x3) {
      return Message{MsgKind::kAck, 1, 0, phase1_.informed_stamp()};
    }
    if (auto m = phase1_.maybe_x2(r)) return m;
  }
  if (auto m = phase1_.maybe_stay_trigger(r)) return m;
  if (ack_heard_local_ == r - 1 &&
      phase1_.has_transmit_stamp(ack_heard_stamp_)) {
    return Message{MsgKind::kAck, 1, 0, phase1_.informed_stamp()};
  }
  // Phase 2: the source broadcasts m with global stamps (the source's local
  // clock *is* the paper's global clock).
  if (auto m = phase2_.maybe_initial(r)) return m;
  if (auto m = phase2_.maybe_x1(r)) return m;
  if (phase2_.just_informed(r)) {
    if (auto m = phase2_.maybe_x2(r)) return m;
  }
  if (auto m = phase2_.maybe_stay_trigger(r)) return m;
  return std::nullopt;
}

void CommonRoundProtocol::on_hear(const Message& m) {
  if (m.kind == MsgKind::kAck) {
    ack_heard_local_ = round_;
    RC_ASSERT(m.stamp.has_value());
    ack_heard_stamp_ = *m.stamp;
    if (phase1_.is_origin() && m_value_ == 0) {
      // The source records m = the round of its first ack and starts the
      // m-broadcast next round, stamped with the true global round m+1.
      m_value_ = round_;
      phase2_.make_origin(static_cast<std::uint32_t>(m_value_), round_ + 1);
    }
    return;
  }
  phase1_.hear(m, round_);
  phase2_.hear(m, round_);
  if (m.phase == 2 && m.kind == MsgKind::kData && m_value_ == 0) {
    m_value_ = m.payload;
  }
}

std::uint64_t CommonRoundProtocol::knows_done_at() const noexcept {
  return m_value_ == 0 ? 0 : 2 * m_value_;
}

std::uint64_t CommonRoundProtocol::learned_m_stamp() const noexcept {
  if (m_value_ == 0) return 0;
  return phase2_.is_origin() ? m_value_ : phase2_.informed_stamp();
}

// ---------------------------------------------------------------------------
// Per-node protocol factories
// ---------------------------------------------------------------------------

std::vector<std::unique_ptr<sim::Protocol>> make_broadcast_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<BroadcastProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt));
  }
  return out;
}

std::vector<std::unique_ptr<sim::Protocol>> make_ack_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu,
    bool resilient) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<AckBroadcastProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt,
        resilient));
  }
  return out;
}

std::vector<std::unique_ptr<sim::Protocol>> make_common_round_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<CommonRoundProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt));
  }
  return out;
}

}  // namespace radiocast::core
