/// \file dispatch.hpp
/// \brief Protocol-dispatch strategies for the engine's decision phase.
///
/// Resolving *who hears what* is the backend's job (sim/backend.hpp); this
/// header names the strategies for the phase before it: asking every node
/// what it does this round.  The seed engine scans all n nodes per round —
/// an O(n) cost the paper's algorithms rarely need, because their labeling
/// schemes keep almost every node provably silent in almost every round
/// (only the active stage/phase transmits).  The active-set dispatcher uses
/// the activity contract (`sim::Protocol::next_active_round` +
/// `skip_rounds`, or a population's batched hints) to poll only nodes that
/// might act, making per-round dispatch cost proportional to activity
/// instead of n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/contracts.hpp"

namespace radiocast::sim {

using graph::NodeId;

/// How `Engine` collects per-round decisions from its population.
enum class DispatchKind : std::uint8_t {
  kAuto,       ///< active-set iff the population provides activity hints
  kScan,       ///< poll all n nodes every round (seed behaviour)
  kActiveSet,  ///< calendar-queue of wake rounds; poll only woken nodes
};

const char* to_string(DispatchKind k);

/// Parses "auto" / "scan" / "active"; nullopt otherwise.
std::optional<DispatchKind> parse_dispatch(std::string_view name);

/// The active-set calendar: wake_round_[v] is the ground truth (kNoWake =
/// idle until a reception re-arms v); wakes within `kSlots` rounds of the
/// present live in per-round ring buckets, farther ones wait in a min-heap
/// and are drained into the ring as their round approaches.  Entries are
/// lazily deleted, so re-arming a node earlier leaves a stale entry behind
/// that simply fails the equality check when drained or popped.
class WakeCalendar {
 public:
  explicit WakeCalendar(NodeId n) : wake_round_(n, kNoWake), ring_(kSlots) {}

  /// Queues node v for a poll in round r (> the current round); an
  /// earlier-or-equal queued wake wins.
  void schedule(NodeId v, std::uint64_t r) {
    RC_ASSERT(r > now_);
    if (wake_round_[v] <= r) return;
    wake_round_[v] = r;
    if (r < now_ + kSlots) {
      ring_[r % kSlots].push_back(v);
    } else {
      far_.emplace(r, v);
    }
  }

  /// Advances the calendar to `round` and replaces `woken` with the ids
  /// due in it, ascending; their wakes are consumed.
  void gather(std::uint64_t round, std::vector<NodeId>& woken);

 private:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::uint64_t kNoWake = ~std::uint64_t{0};

  std::uint64_t now_ = 0;
  std::vector<std::uint64_t> wake_round_;
  std::vector<std::vector<NodeId>> ring_;
  std::priority_queue<std::pair<std::uint64_t, NodeId>,
                      std::vector<std::pair<std::uint64_t, NodeId>>,
                      std::greater<>>
      far_;
};

}  // namespace radiocast::sim
