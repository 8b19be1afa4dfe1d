/// \file arb.hpp
/// \brief Algorithm B_arb (paper §4): broadcast when the source is unknown at
///        labeling time.
///
/// The labeling λ_arb marks one coordinator r with 111 (a label λ_ack never
/// produces, Fact 3.1).  The universal algorithm then runs three sequential
/// phases, each a stamped broadcast from r:
///   1. "initialize": B_ack from r; every node v records t_v (the stamp of its
///      first Init reception); z appends T = t_z to its ack, so r learns T.
///   2. ("ready", T): B_ack from r with z suppressed; the *actual* source,
///      after receiving "ready", waits T rounds and then starts the ack chain
///      with µ appended, so r learns µ.
///   3. µ: stamped B from r.  A node that waits T - t_v rounds after its
///      phase-3 reception reaches the common completion round (acknowledged
///      broadcast).
///
/// Phases are distinguished by a 2-bit phase tag on messages.  The corner case
/// r = source is handled with a timer: r starts phase 3 exactly T + 1 rounds
/// after initiating phase 2, which is provably after the "ready" broadcast has
/// completed (the phase-2 execution replays phase 1, whose last reception is
/// at relative round T).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/protocols.hpp"

namespace radiocast::core {

class ArbProtocol final : public sim::Protocol {
 public:
  /// `label` is the λ_arb label; the coordinator recognizes itself by 111.
  /// `source_message` is engaged iff this node is the actual source.
  ArbProtocol(Label label, std::optional<std::uint32_t> source_message);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;

  /// informed() = knows the source message µ.
  bool informed() const override { return mu_.has_value(); }

  /// Activity contract: the three phase cores plus the two timers B_arb
  /// runs off its own clock — the coordinator's phase-3 start (T + 1 rounds
  /// after "ready" went out, the r = source corner case) and the actual
  /// source's scheduled ack countdown.  Reception-driven rules (per-phase
  /// ack forwarding, phase-origin arming, the stay triggers) are all
  /// hint-covered at the moment the arming reception is delivered, so B_arb
  /// opts into the engine's post-hear re-query — dense receptions stop
  /// buying a blanket next-round poll for every listener.
  std::uint64_t next_active_round() const override;
  bool wants_post_hear_hint() const override { return true; }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  /// Observers (harness only).
  std::optional<std::uint32_t> mu() const noexcept { return mu_; }
  /// Local round at which this node knows the broadcast completed everywhere
  /// (0 = not yet known).  Equal at all nodes once engaged — that is the
  /// acknowledged-broadcast guarantee the tests assert.
  std::uint64_t done_round() const noexcept { return done_round_; }
  std::uint64_t t_v() const noexcept;
  std::uint64_t T() const noexcept { return T_; }
  bool is_coordinator() const noexcept { return is_coordinator_; }

 private:
  std::optional<sim::Message> phase_core_rules(StampedCore& core,
                                               std::uint64_t r);

  Label label_;
  bool is_coordinator_;
  bool is_z_;
  std::optional<std::uint32_t> own_mu_;  // engaged iff actual source
  std::optional<std::uint32_t> mu_;      // learned source message

  StampedCore phase1_;
  StampedCore phase2_;
  StampedCore phase3_;

  std::uint64_t round_ = 0;
  std::uint64_t T_ = 0;
  bool T_known_ = false;

  // Per-phase heard-ack state for forwarding.
  struct HeardAck {
    std::uint64_t local = 0;
    std::uint64_t stamp = 0;
    std::uint32_t payload = 0;
  };
  HeardAck ack1_, ack2_;

  std::uint64_t phase2_start_local_ = 0;  // coordinator: round of Ready tx
  std::uint64_t phase3_start_local_ = 0;  // coordinator: round of µ tx
  bool phase3_scheduled_ = false;
  std::uint64_t source_ack_round_ = 0;  // sG: scheduled countdown round
  std::uint64_t done_round_ = 0;
};

/// Per-node B_arb protocols over λ_arb labels, with µ = `mu` at `source`
/// (the kScan reference; see make_broadcast_protocols).
std::vector<std::unique_ptr<sim::Protocol>> make_arb_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu);

inline std::vector<std::unique_ptr<sim::Protocol>> make_arb_protocols(
    const ArbLabeling& labeling, NodeId source, std::uint32_t mu) {
  return make_arb_protocols(labeling.labels, source, mu);
}

}  // namespace radiocast::core
