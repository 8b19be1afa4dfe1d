/// \file protocols.hpp
/// \brief Universal deterministic algorithms B (Algorithm 1) and B_ack
///        (Algorithm 2), plus the common-completion-round wrapper (§3 end).
///
/// These are per-node state machines over the locality-enforcing
/// sim::Protocol interface.  Every decision uses only the node's label and
/// relative local timing ("first received µ one/two rounds ago"), exactly as
/// the paper requires — no global clock is read anywhere; B_ack
/// *reconstructs* global time from the O(log n)-bit stamps carried by
/// messages.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/labeling.hpp"
#include "sim/protocol.hpp"

namespace radiocast::core {

/// Algorithm 1 (B): 2-bit labels, unstamped messages.
class BroadcastProtocol final : public sim::Protocol {
 public:
  /// `source_message`: engaged iff this node is the source (holds µ).
  BroadcastProtocol(Label label, std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  bool informed() const override { return payload_.has_value(); }

  /// Activity contract: B's stage arithmetic fixes the only rounds a node
  /// can act absent receptions — the source's first round, and the x2/x1
  /// rounds one/two rounds after the first µ reception.  The hint is also
  /// accurate immediately after any reception (the stay-triggered
  /// retransmission is covered by the stay_heard_ branch), so B opts into
  /// the engine's post-hear re-query instead of the blanket next-round
  /// re-arm.
  std::uint64_t next_active_round() const override;
  bool wants_post_hear_hint() const override { return true; }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  /// Observer: local round of the first µ reception (0 = source / never).
  std::uint64_t first_data_round() const noexcept { return first_data_; }

 private:
  Label label_;
  std::optional<std::uint32_t> payload_;
  bool sent_or_received_ = false;
  std::uint64_t round_ = 0;
  std::uint64_t first_data_ = 0;
  std::uint64_t last_data_tx_ = 0;
  std::uint64_t stay_heard_ = 0;
};

/// Shared state machine for the *stamped* broadcast used by Algorithm 2 and
/// both phases that B_arb layers on top of it.  Handles the source's initial
/// transmission, the x1 rule, the x2 "stay" rule, the stay-triggered
/// retransmission, stamp bookkeeping (`informedRound`, `transmitRounds`), and
/// filtering by message kind + phase tag.  Ack initiation/forwarding is owner
/// logic (it differs across B_ack / common-round / B_arb).
class StampedCore {
 public:
  /// `z_acks`: z (label x3) starts an acknowledgement the round after it
  /// first hears this phase's data — B_ack's phase, and phase 1 of the
  /// common-round construction and of B_arb.
  StampedCore(Label label, sim::MsgKind data_kind, std::uint8_t phase,
              bool z_acks);

  /// Turns this node into the phase origin: it will transmit
  /// (data_kind, payload, stamp=first_stamp) at the next on_round.
  void make_origin(std::uint32_t payload, std::uint64_t first_stamp);

  /// Lines 4-5 of Algorithm 2: origin's one-off initial transmission.
  std::optional<sim::Message> maybe_initial(std::uint64_t r);
  /// Lines 12-16: transmit µ two local rounds after first receiving it (x1).
  std::optional<sim::Message> maybe_x1(std::uint64_t r);
  /// Lines 20-22: transmit "stay" one local round after first reception (x2).
  std::optional<sim::Message> maybe_x2(std::uint64_t r) const;
  /// Lines 23-27: stay-triggered retransmission.
  std::optional<sim::Message> maybe_stay_trigger(std::uint64_t r);

  /// Resilient-mode retransmission (outside the paper's algorithm): resend
  /// the phase data stamped with the current local round, recording the
  /// stamp in transmitRounds so the ack chain recognizes the retry as a
  /// legitimate µ transmission.  Caller must be informed.
  sim::Message resilient_retransmit(std::uint64_t r);

  /// Consumes matching data/stay messages; ignores everything else.
  void hear(const sim::Message& m, std::uint64_t r);

  /// Activity hint shared by the owners' `next_active_round` overrides: the
  /// earliest round > r at which any core rule could fire without a further
  /// reception.  An un-started origin fires at its next poll; an informed
  /// non-origin can act only in the just-informed round (x2's "stay", or
  /// z's ack where the phase has one) and the x1 round right after, and is
  /// woken only where its label acts, so every poll transmits; the
  /// stay-triggered retransmission is covered by the stay_heard_local_
  /// branch, which is inert at post-poll queries but makes the hint
  /// accurate immediately after the "stay" reception (the owners'
  /// post-hear-hint opt-in relies on it).  `sim::Protocol::kIdle` when no
  /// rule applies.
  std::uint64_t next_core_active(std::uint64_t r) const;

  bool informed() const noexcept { return payload_.has_value(); }
  bool is_origin() const noexcept { return origin_; }
  /// True iff the node first received the phase data in local round r-1.
  bool just_informed(std::uint64_t r) const noexcept {
    return first_data_local_ != 0 && r == first_data_local_ + 1;
  }
  /// The paper's informedRound variable (phase-relative global round).
  std::uint64_t informed_stamp() const noexcept { return informed_stamp_; }
  std::uint64_t first_data_local() const noexcept { return first_data_local_; }
  /// The paper's transmitRounds test (line 29).
  bool has_transmit_stamp(std::uint64_t k) const;
  std::uint32_t payload() const;
  std::uint8_t phase() const noexcept { return phase_; }

 private:
  sim::Message data_message(std::uint64_t stamp) const;

  Label label_;
  sim::MsgKind data_kind_;
  std::uint8_t phase_;
  bool z_acks_;

  std::optional<std::uint32_t> payload_;
  bool origin_ = false;
  bool origin_started_ = false;
  std::uint64_t origin_first_stamp_ = 1;

  std::uint64_t informed_stamp_ = 0;
  std::uint64_t first_data_local_ = 0;
  std::uint64_t last_data_tx_local_ = 0;
  std::uint64_t stay_heard_local_ = 0;
  std::uint64_t stay_stamp_ = 0;
  std::vector<std::uint64_t> transmit_stamps_;
};

/// Algorithm 2 (B_ack): 3-bit labels, stamped messages, acknowledgement chain.
///
/// **Resilient mode** (opt-in, outside the paper): the paper's rules are
/// strictly one-shot — a lost frontier delivery stalls the broadcast
/// forever.  With `resilient = true` every informed node keeps the wave
/// alive by retransmitting on a sparse, label-and-stamp-keyed slot schedule
/// (1 round in kRetrySlots, re-randomized per epoch so two neighbours never
/// lock into a permanent collision): nodes that have sensed the ack wave
/// retransmit the ack toward the source, everyone else re-sends µ after a
/// grace period that lets the paper's schedule win when links are clean.
/// The source falls silent once acknowledged.  All normal rules run first;
/// retries only fill otherwise-silent rounds, so a loss-free resilient run
/// completes on the paper's schedule.
class AckBroadcastProtocol final : public sim::Protocol {
 public:
  AckBroadcastProtocol(Label label, std::optional<std::uint32_t> source_message,
                       bool resilient = false);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  bool informed() const override {
    return core_.informed() || core_.is_origin();
  }

  /// The core hint covers the stamped-broadcast rules; the ack-forwarding
  /// branch below is inert post-poll but fires when queried right after an
  /// ack reception, making the hint event-accurate — so B_ack opts into the
  /// post-hear re-query.  Resilient informed nodes retry on their slot
  /// schedule until the source is acknowledged, so they stay always-active.
  std::uint64_t next_active_round() const override {
    if (resilient_ && informed() &&
        !(core_.is_origin() && ack_received_round_ != 0)) {
      return kAlwaysActive;
    }
    std::uint64_t next = core_.next_core_active(round_);
    // Lines 28-31: an ack heard *this* round is forwarded next round iff we
    // transmitted µ in the stamped round.
    if (ack_heard_local_ == round_ &&
        core_.has_transmit_stamp(ack_heard_stamp_)) {
      next = std::min(next, round_ + 1);
    }
    return next;
  }
  bool wants_post_hear_hint() const override { return true; }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  /// Observer: local round at which the source first received an "ack"
  /// (0 = not yet / not the source).
  std::uint64_t ack_round() const noexcept { return ack_received_round_; }
  std::uint64_t informed_stamp() const noexcept {
    return core_.informed_stamp();
  }

 private:
  /// Resilient retry cadence: transmit in 1 round out of kRetrySlots, slot
  /// chosen per epoch from (informed stamp, label bits), so concurrent
  /// retriers interleave instead of colliding forever.
  static constexpr std::uint64_t kRetrySlots = 4;
  /// Rounds after informing before µ retries start — long enough for the
  /// paper's x1/x2 schedule to advance the frontier on clean links.
  static constexpr std::uint64_t kRetryGrace = 8;

  /// True iff this node's resilient retry fires in round r; `salt`
  /// separates the µ and ack retry streams.
  bool retry_slot(std::uint64_t r, std::uint64_t salt) const;
  std::optional<sim::Message> maybe_resilient_retry(std::uint64_t r);

  Label label_;
  StampedCore core_;
  bool resilient_ = false;
  std::uint64_t round_ = 0;
  std::uint64_t ack_heard_local_ = 0;
  std::uint64_t ack_heard_stamp_ = 0;
  std::uint64_t ack_received_round_ = 0;  // source only
};

/// §3 closing construction: B_ack(µ), then the source broadcasts m (its first
/// ack round) with a stamped B; every node then knows that the µ-broadcast
/// was complete by round 2m, and all nodes agree on that round.
class CommonRoundProtocol final : public sim::Protocol {
 public:
  CommonRoundProtocol(Label label, std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;
  bool informed() const override {
    return phase1_.informed() || phase1_.is_origin();
  }

  /// Both phases are stamped-core state machines.  Reception-driven rules
  /// are hint-covered at the moment they arm — phase-1 ack forwarding by the
  /// ack branch below, the phase-2 origin by `make_origin` flipping
  /// `next_core_active` to "next poll" inside the same `on_hear` — so the
  /// protocol opts into the post-hear re-query.
  std::uint64_t next_active_round() const override {
    std::uint64_t next = std::min(phase1_.next_core_active(round_),
                                  phase2_.next_core_active(round_));
    if (ack_heard_local_ == round_ &&
        phase1_.has_transmit_stamp(ack_heard_stamp_)) {
      next = std::min(next, round_ + 1);
    }
    return next;
  }
  bool wants_post_hear_hint() const override { return true; }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  /// Observer: the common round 2m once known to this node (0 = not yet).
  std::uint64_t knows_done_at() const noexcept;
  /// Observer: global round at which this node learned m (0 = not yet).
  std::uint64_t learned_m_stamp() const noexcept;

 private:
  Label label_;
  StampedCore phase1_;  ///< B_ack broadcast of µ (phase tag 1)
  StampedCore phase2_;  ///< stamped B broadcast of m (phase tag 2)
  std::uint64_t round_ = 0;
  std::uint64_t ack_heard_local_ = 0;
  std::uint64_t ack_heard_stamp_ = 0;
  std::uint64_t m_value_ = 0;  // source: round of first ack; others: payload
};

/// The default engine round budget shared by the schemes and the compiled
/// fast paths (linear in n with slack; `factor` is per-algorithm).
inline std::uint64_t default_round_budget(std::uint32_t n,
                                          std::uint64_t factor) {
  return factor * std::max<std::uint64_t>(n, 2) + 16;
}

/// Per-node protocol vectors, one protocol per label with µ = `mu` at
/// `source`: the kScan reference the schemes run and the differential
/// suites pin the flat populations against.
std::vector<std::unique_ptr<sim::Protocol>> make_broadcast_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu);
/// `resilient`: opt into B_ack's loss-tolerant retry mode (see
/// AckBroadcastProtocol); the default is the paper's exact algorithm.
std::vector<std::unique_ptr<sim::Protocol>> make_ack_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu,
    bool resilient = false);
std::vector<std::unique_ptr<sim::Protocol>> make_common_round_protocols(
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

}  // namespace radiocast::core
