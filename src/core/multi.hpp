/// \file multi.hpp
/// \brief Consecutive acknowledged broadcasts over one labeling (§1.2).
///
/// The paper's IoT motivation: "One node of this network has to broadcast
/// many consecutive messages to all other nodes.  Then the monitor can assign
/// very short labels to the devices, enabling multiple executions of the
/// universal broadcast.  [...] the fact that we can also do acknowledged
/// broadcast permits the source to send the next message only after all
/// nodes received the preceding one."
///
/// MultiMessageProtocol runs a whole schedule µ_1..µ_K in ONE continuous
/// execution: each message is an Algorithm-2 instance tagged with a sequence
/// number (the `phase` byte, cyclic); the source starts instance k+1 the
/// round after receiving instance k's ack.  Instances never overlap — an ack
/// chain is the last activity of its instance — so the per-instance
/// machinery (StampedCore) is simply re-armed on the first Data message of a
/// new tag.  Because everything is deterministic, every instance takes
/// exactly the same number of rounds; the tests assert that.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/protocols.hpp"
#include "graph/graph.hpp"
#include "sim/backend.hpp"
#include "sim/dispatch.hpp"

namespace radiocast::core {

class MultiMessageProtocol final : public sim::Protocol {
 public:
  /// `schedule` is non-empty iff this node is the source.
  MultiMessageProtocol(Label label, std::vector<std::uint32_t> schedule);

  std::optional<sim::Message> on_round() override;
  void on_hear(const sim::Message& m) override;

  /// informed() = received (or originated) every message so far expected;
  /// for engine stop conditions use `received_count()` instead.
  bool informed() const override { return !received_.empty() || is_source_; }

  /// Activity contract: every rule is either a stamped-core rule (the core
  /// hint covers it), reception-driven (ack forwarding, instance re-arming
  /// on a successor tag — the engine re-arms on delivery), or the source's
  /// pending instance start, which is set in the constructor or by the ack
  /// reception one round earlier and always fires at the next poll.
  std::uint64_t next_active_round() const override {
    if (start_pending_) return round_ + 1;
    if (!core_) return kIdle;  // session complete (source) — never acts again
    return core_->next_core_active(round_);
  }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  /// Observer: payloads received so far, in order.
  const std::vector<std::uint32_t>& received() const noexcept {
    return received_;
  }
  /// Observer (source only): round of the ack for each completed instance.
  const std::vector<std::uint64_t>& ack_rounds() const noexcept {
    return ack_rounds_;
  }

 private:
  static std::uint8_t tag_of(std::size_t instance) {
    // Cyclic tag, never 0 (0 means "no phase" elsewhere).
    return static_cast<std::uint8_t>(instance % 200 + 1);
  }
  void arm_instance(std::size_t instance);

  Label label_;
  bool is_source_;
  std::vector<std::uint32_t> schedule_;

  std::size_t instance_ = 0;  ///< 0-based index of the active instance
  std::optional<StampedCore> core_;
  bool start_pending_ = false;  ///< source: begin next instance this round

  std::uint64_t round_ = 0;
  std::uint64_t ack_heard_local_ = 0;
  std::uint64_t ack_heard_stamp_ = 0;

  std::vector<std::uint32_t> received_;
  std::vector<std::uint64_t> ack_rounds_;
};

/// Result of a multi-message acknowledged session.
struct MultiRun {
  bool ok = false;  ///< all payloads delivered to all nodes, in order
  std::vector<std::uint64_t> ack_rounds;  ///< source's ack round per message
  std::uint64_t total_rounds = 0;
  /// Rounds between consecutive acks (constant by determinism).
  std::uint64_t rounds_per_message = 0;
};

MultiRun run_multi_broadcast(
    const Graph& g, NodeId source, const std::vector<std::uint32_t>& payloads,
    DomPolicy policy = DomPolicy::kAscendingId,
    sim::BackendKind backend = sim::BackendKind::kAuto,
    sim::DispatchKind dispatch = sim::DispatchKind::kAuto);

}  // namespace radiocast::core
