#include "sim/population.hpp"

namespace radiocast::sim {

ProtocolPopulation::ProtocolPopulation(
    std::vector<std::unique_ptr<Protocol>> protocols)
    : protocols_(std::move(protocols)),
      everyone_((protocols_.size() + 63) / 64, ~std::uint64_t{0}) {
  for (const auto& p : protocols_) RC_EXPECTS(p != nullptr);
  const NodeId n = size();
  informed_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) refresh_informed(v);
}

bool ProtocolPopulation::has_hints() {
  if (initial_hints_.empty()) {
    initial_hints_.reserve(size());
    for (const auto& p : protocols_) {
      initial_hints_.push_back(p->next_active_round());
    }
  }
  for (const auto h : initial_hints_) {
    if (h != Protocol::kAlwaysActive) return true;
  }
  return false;
}

void ProtocolPopulation::on_bind() {
  const NodeId n = size();
  clocked_ = wakes_ != nullptr || faults_;
  if (clocked_) local_round_.assign(n, 0);
  if (wakes_ == nullptr) return;
  has_hints();  // fills initial_hints_
  for (NodeId v = 0; v < n; ++v) wake(v, initial_hints_[v], 0);
  if (post_hear_hint_) {
    post_hear_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      post_hear_[v] = protocols_[v]->wants_post_hear_hint() ? 1 : 0;
    }
  }
}

void ProtocolPopulation::poll(std::span<const NodeId> nodes,
                              std::uint64_t round,
                              std::vector<Decision>& out) {
  if (!clocked_) {
    // Serial scan: the seed's tight loop, no calendar or clock bookkeeping.
    for (const NodeId v : nodes) {
      if (auto msg = protocols_[v]->on_round()) out.emplace_back(v, *msg);
    }
    return;
  }
  for (const NodeId v : nodes) {
    Protocol& p = *protocols_[v];
    // Restore the rounds skipped while the node slept (or was crashed);
    // on_round advances the clock over the current round itself.
    if (local_round_[v] + 1 < round) p.skip_rounds(round - 1 - local_round_[v]);
    local_round_[v] = round;
    if (auto msg = p.on_round()) out.emplace_back(v, *msg);
    if (wakes_ != nullptr) wake(v, p.next_active_round(), round);
  }
}

void ProtocolPopulation::sync_clock(NodeId v, std::uint64_t round) {
  if (local_round_[v] < round) {
    protocols_[v]->skip_rounds(round - local_round_[v]);
    local_round_[v] = round;
  }
}

void ProtocolPopulation::rearm_after_event(NodeId v, std::uint64_t round) {
  // Blanket rule: every reception may change what a protocol does next, so
  // the node is polled next round.  Opted-in protocols (wants_post_hear_hint)
  // answer next_active_round accurately right after the event, so dense
  // receptions stop churning the calendar with wasted next-round polls.
  if (!post_hear_.empty() && post_hear_[v]) {
    wake(v, protocols_[v]->next_active_round(), round);
    return;
  }
  wakes_->schedule(v, round + 1);
}

void ProtocolPopulation::hear(std::span<const Delivery> deliveries,
                              std::span<const Decision> decisions,
                              std::uint64_t round) {
  for (const auto& [w, tx_index] : deliveries) {
    if (clocked_) sync_clock(w, round);
    protocols_[w]->on_hear(decisions[tx_index].second);
    refresh_informed(w);
    if (wakes_ != nullptr) rearm_after_event(w, round);
  }
}

void ProtocolPopulation::collide(std::span<const NodeId> listeners,
                                 std::uint64_t round) {
  for (const NodeId w : listeners) {
    if (clocked_) sync_clock(w, round);
    protocols_[w]->on_collision();
    refresh_informed(w);
    if (wakes_ != nullptr) rearm_after_event(w, round);
  }
}

void ProtocolPopulation::restart(std::span<const NodeId> nodes,
                                 std::uint64_t round) {
  // A restarting node kept its protocol state but missed every crashed
  // round: catch its clock up to round - 1, then notify it.
  for (const NodeId v : nodes) {
    if (local_round_[v] + 1 < round) {
      protocols_[v]->skip_rounds(round - 1 - local_round_[v]);
    }
    local_round_[v] = round - 1;
    protocols_[v]->on_restart();
  }
}

bool ProtocolPopulation::informed(NodeId v) const {
  RC_EXPECTS(v < protocols_.size());
  return protocols_[v]->informed();
}

std::uint32_t ProtocolPopulation::informed_count() const {
  for (NodeId v = informed_cursor_; v < size(); ++v) refresh_informed(v);
  return static_cast<std::uint32_t>(informed_count_);
}

bool ProtocolPopulation::all_informed() const {
  while (informed_cursor_ < size()) {
    const NodeId v = informed_cursor_;
    if (!informed_[v]) {
      if (!protocols_[v]->informed()) return false;
      informed_[v] = 1;
      ++informed_count_;
    }
    ++informed_cursor_;
  }
  return true;
}

}  // namespace radiocast::sim
