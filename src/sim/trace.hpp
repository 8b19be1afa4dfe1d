/// \file trace.hpp
/// \brief Ground-truth execution record, visible to the observer only.
///
/// Tests and benches verify the paper's per-round characterization
/// (Lemma 2.8) against the trace; protocols themselves never see it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/message.hpp"

namespace radiocast::sim {

using graph::NodeId;

/// Everything that happened in one round.
struct RoundRecord {
  std::vector<std::pair<NodeId, Message>> transmissions;  ///< sorted by id
  std::vector<std::pair<NodeId, Message>> deliveries;  ///< successful rx
  std::vector<NodeId> collisions;  ///< listeners with >= 2 tx neighbours
};

/// Full per-round record of an execution.  Round t is `rounds()[t-1]`
/// (rounds are 1-based, matching the paper).
class Trace {
 public:
  void push(RoundRecord r) { rounds_.push_back(std::move(r)); }

  const std::vector<RoundRecord>& rounds() const noexcept { return rounds_; }

  /// Transmitter ids of round `t` (1-based), sorted.
  std::vector<NodeId> transmitters(std::uint64_t t) const;

  /// Rounds (1-based) in which `v` transmitted.
  std::vector<std::uint64_t> transmit_rounds(NodeId v) const;

  /// Rounds (1-based) in which `v` successfully received any message.
  std::vector<std::uint64_t> reception_rounds(NodeId v) const;

  /// First round in which `v` received a message of `kind`; nullopt if never.
  std::optional<std::uint64_t> first_reception(NodeId v, MsgKind kind) const;

  /// All (round, message) deliveries at `v`.
  std::vector<std::pair<std::uint64_t, Message>> deliveries_at(NodeId v) const;

 private:
  std::vector<RoundRecord> rounds_;
};

}  // namespace radiocast::sim
