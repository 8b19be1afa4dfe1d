/// \file population.hpp
/// \brief The distributed half of a run as one object: every node's state,
///        driven through batched per-round hooks.
///
/// The paper's universal algorithms decide from a constant-length label and
/// a few relative round stamps, so a node's whole state fits one row of a
/// few arrays.  A `Population` holds those rows for all n nodes and answers
/// the engine once per phase per round: poll the woken ids, hear the
/// round's deliveries, sense its collisions.  The engine drives exactly one
/// population:
///
///  - `FlatPopulation<Rules>` runs per-node rules over arrays; the paper's
///    algorithms (core/population.hpp) are written this way.
///  - `ProtocolPopulation` adapts one heap-allocated `sim::Protocol` per
///    node (local clocks, `skip_rounds`, the post-hear re-arm, restarts) —
///    the reference oracle for the flat ports, and the home of every scheme
///    without one.
///
/// Every node starts in round 1 together, so a node's local clock equals
/// the global round and the hooks pass that one number; no rule reads
/// anything but its own row, its label, and the message it heard.
///
/// A population also names the nodes a reception could still change
/// (`listening()`); the engine resolves rounds for those alone on the path
/// the sweeps run, so an informed node stops paying for every µ its
/// neighbours repeat.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/dispatch.hpp"
#include "sim/message.hpp"
#include "sim/protocol.hpp"

namespace radiocast::sim {

/// One round's transmission: the transmitter and its message.
using Decision = std::pair<NodeId, Message>;
/// One reception: the listener and the index of its unique transmitter in
/// the round's decision list.
using Delivery = std::pair<NodeId, std::uint32_t>;

class Population {
 public:
  virtual ~Population() = default;

  Population() = default;
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  virtual NodeId size() const noexcept = 0;

  /// kAuto dispatch: true iff some node declares an activity hint, so the
  /// active set pays off.
  virtual bool has_hints() = 0;

  /// Fixes how the engine drives this population, once, before round 1.
  /// `wakes` is the active-set calendar (nullptr under kScan: every live
  /// node is polled every round).  `post_hear_hint` re-arms a listener from
  /// a fresh hint after an event instead of for the next round; `faults`
  /// says crashed nodes may miss polls.  Under the active set, schedules
  /// every node's first wake.
  void bind(WakeCalendar* wakes, bool post_hear_hint, bool faults) {
    wakes_ = wakes;
    post_hear_hint_ = post_hear_hint;
    faults_ = faults;
    on_bind();
  }

  /// Polls `nodes` (strictly ascending) for `round`, appending each
  /// transmission to `out` in id order and, under the active set, queueing
  /// each polled node's next wake.
  virtual void poll(std::span<const NodeId> nodes, std::uint64_t round,
                    std::vector<Decision>& out) = 0;

  /// Delivers one round's receptions (message = `decisions[index]`).
  virtual void hear(std::span<const Delivery> deliveries,
                    std::span<const Decision> decisions,
                    std::uint64_t round) = 0;

  /// Collision-detection mode: `listeners` sensed two or more transmitters.
  virtual void collide(std::span<const NodeId> listeners,
                       std::uint64_t round) = 0;

  /// Fault injection: `nodes` recover from a crash window this round and
  /// are polled in it.  Default: they resume where they stopped.
  virtual void restart(std::span<const NodeId>, std::uint64_t) {}

  /// Observer: whether v holds the source message (monotone).
  virtual bool informed(NodeId v) const = 0;
  virtual std::uint32_t informed_count() const = 0;
  virtual bool all_informed() const { return informed_count() == size(); }

  /// One bit per node (bit v of word v / 64): a superset of the nodes a
  /// reception in the coming round could change.  Valid between `poll` and
  /// `hear`; the engine resolves a round for these listeners only when it
  /// needs no other node's receptions (see `Engine`).
  virtual std::span<const std::uint64_t> listening() const = 0;

 protected:
  /// Active set: schedules the wake a `sim::Protocol` activity hint names
  /// (`kIdle`: none; `kAlwaysActive`: the next round).
  void wake(NodeId v, std::uint64_t hint, std::uint64_t round) {
    if (hint == Protocol::kIdle) return;
    wakes_->schedule(v, hint == Protocol::kAlwaysActive ? round + 1 : hint);
  }

  virtual void on_bind() = 0;

  WakeCalendar* wakes_ = nullptr;
  bool post_hear_hint_ = true;
  bool faults_ = false;
};

/// The listening mask of a flat population (`Population::listening`): one
/// bit per node, all set at the start and again by `listen_all`.
class ListenSet {
 public:
  explicit ListenSet(NodeId n) : n_(n), words_((n + 63) / 64) {
    listen_all();
  }

  std::span<const std::uint64_t> words() const noexcept { return words_; }

  void listen_all() {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    if (n_ % 64 != 0) words_.back() = (std::uint64_t{1} << (n_ % 64)) - 1;
  }
  void listen(NodeId v) { words_[v >> 6] |= std::uint64_t{1} << (v & 63); }
  void deafen(NodeId v) { words_[v >> 6] &= ~(std::uint64_t{1} << (v & 63)); }

 private:
  NodeId n_;
  std::vector<std::uint64_t> words_;
};

/// Batched hooks over per-node rules whose state lives in arrays.  `Rules`
/// derives from `FlatPopulation<Rules>` and provides, for node v in round r:
///
///   std::optional<Message> decide(NodeId v, std::uint64_t r);
///       the node's transmission, if any (`Protocol::on_round`);
///   bool receive(NodeId v, const Message& m, std::uint64_t r);
///       a reception (`Protocol::on_hear`); false iff v's activity hint
///       cannot have moved;
///   std::uint64_t next_active(NodeId v, std::uint64_t r) const;
///       the activity hint, accurate after polls and after events alike
///       (`next_active_round` with the post-hear opt-in);
///   bool listens(NodeId v) const;
///       whether a reception could still change v, apart from a "stay" in
///       the round after v sent µ: a node that sends µ listens until its
///       next reception, and then as long as `listens` says.
///
/// A poll in a round the hint skipped must return nothing and change
/// nothing, so kScan and the active set agree.  Collisions change no state.
/// A node's `listens` may turn true only when it sends µ or when the rules
/// call `start_phase`, and false only when it receives, so the mask is
/// re-read only at those three events.
template <typename Rules>
class FlatPopulation : public Population {
 public:
  bool has_hints() final { return true; }

  std::uint32_t informed_count() const final { return informed_; }

  std::span<const std::uint64_t> listening() const final {
    return listening_.words();
  }

  void poll(std::span<const NodeId> nodes, std::uint64_t round,
            std::vector<Decision>& out) final {
    for (const NodeId v : nodes) {
      if (auto m = rules().decide(v, round)) {
        // A "stay" may answer µ (or a B_arb phase message) next round.
        if (m->kind != MsgKind::kStay && m->kind != MsgKind::kAck) {
          listening_.listen(v);
        }
        out.emplace_back(v, *m);
      }
      if (wakes_ != nullptr) wake(v, rules().next_active(v, round), round);
    }
  }

  void hear(std::span<const Delivery> deliveries,
            std::span<const Decision> decisions, std::uint64_t round) final {
    for (const auto& [w, tx_index] : deliveries) {
      const bool moved = rules().receive(w, decisions[tx_index].second, round);
      // A reception comes a round or more after the node's last µ, so from
      // here on the rules alone decide whether it listens.
      if (!rules().listens(w)) listening_.deafen(w);
      // A hint moves only with the node's state or at its polls, so after a
      // reception that left the wake where it was the post-hear re-query
      // would only re-queue the wake already queued.
      if (wakes_ != nullptr && (moved || !post_hear_hint_)) rearm(w, round);
    }
  }

  void collide(std::span<const NodeId> listeners, std::uint64_t round) final {
    if (wakes_ == nullptr) return;
    for (const NodeId w : listeners) rearm(w, round);
  }

 protected:
  explicit FlatPopulation(NodeId n) : listening_(n) {}

  /// A new phase starts: every node listens until it holds its data.
  void start_phase() { listening_.listen_all(); }

  /// Number of informed nodes; the rules keep it current.
  std::uint32_t informed_ = 0;

 private:
  Rules& rules() { return static_cast<Rules&>(*this); }

  void on_bind() final {
    if (wakes_ == nullptr) return;
    for (NodeId v = 0; v < size(); ++v) wake(v, rules().next_active(v, 0), 0);
  }

  void rearm(NodeId v, std::uint64_t round) {
    if (post_hear_hint_) {
      wake(v, rules().next_active(v, round), round);
    } else {
      wakes_->schedule(v, round + 1);
    }
  }

  ListenSet listening_;
};

/// One `sim::Protocol` object per node behind the population hooks: the
/// per-node engine loop, unchanged.  Protocols keep local clocks, restored
/// through `skip_rounds` whenever a node missed polls (asleep under the
/// active set, or crashed); informed-ness is tracked incrementally.
class ProtocolPopulation final : public Population {
 public:
  explicit ProtocolPopulation(
      std::vector<std::unique_ptr<Protocol>> protocols);

  NodeId size() const noexcept override {
    return static_cast<NodeId>(protocols_.size());
  }
  bool has_hints() override;
  void poll(std::span<const NodeId> nodes, std::uint64_t round,
            std::vector<Decision>& out) override;
  void hear(std::span<const Delivery> deliveries,
            std::span<const Decision> decisions,
            std::uint64_t round) override;
  void collide(std::span<const NodeId> listeners, std::uint64_t round) override;
  void restart(std::span<const NodeId> nodes, std::uint64_t round) override;

  bool informed(NodeId v) const override;
  /// Every node: a protocol may act on any reception.
  std::span<const std::uint64_t> listening() const override {
    return everyone_;
  }
  /// Exact: lazily reconciles nodes whose informed-ness changed inside
  /// on_round (collision-detection protocols that decode silence, e.g. the
  /// beep baseline) by probing the still-unmarked tail.
  std::uint32_t informed_count() const override;
  /// Amortized O(1): below the cursor every node has been seen informed
  /// (monotone by contract); above it, delivery-time refreshes let the walk
  /// skip by flag, so a stalled broadcast costs one virtual call per query.
  bool all_informed() const override;

  Protocol& protocol(NodeId v) {
    RC_EXPECTS(v < protocols_.size());
    return *protocols_[v];
  }
  const Protocol& protocol(NodeId v) const {
    RC_EXPECTS(v < protocols_.size());
    return *protocols_[v];
  }

 private:
  void on_bind() override;
  /// Catches v's local clock up to `round` before an event delivery (no-op
  /// when v was polled this round).
  void sync_clock(NodeId v, std::uint64_t round);
  /// Re-arms v after a delivered event: the blanket next-round poll, or a
  /// fresh `next_active_round()` hint for post-hear-hint protocols.
  void rearm_after_event(NodeId v, std::uint64_t round);
  /// Marks v informed in the incremental counter if its protocol now is.
  void refresh_informed(NodeId v) const {
    if (!informed_[v] && protocols_[v]->informed()) {
      informed_[v] = 1;
      ++informed_count_;
    }
  }

  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::vector<std::uint64_t> everyone_;  ///< the all-listening mask
  /// Round-0 activity hints, computed once by has_hints() or on_bind().
  std::vector<std::uint64_t> initial_hints_;
  /// True iff local clocks are maintained: under the active set, and in
  /// any mode with faults (a crashed node misses polls, so even kScan must
  /// restore its clock on restart).
  bool clocked_ = false;
  std::vector<std::uint64_t> local_round_;
  /// Per-node `wants_post_hear_hint()` opt-in (active set with the
  /// post-hear hint only; empty otherwise).
  std::vector<std::uint8_t> post_hear_;
  mutable std::vector<std::uint8_t> informed_;
  mutable std::size_t informed_count_ = 0;
  mutable NodeId informed_cursor_ = 0;
};

}  // namespace radiocast::sim
