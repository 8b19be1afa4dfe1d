#include "sim/engine.hpp"

#include <algorithm>
#include <numeric>

namespace radiocast::sim {

Engine::Engine(const graph::Graph& g,
               std::vector<std::unique_ptr<Protocol>> protocols,
               EngineOptions options)
    : Engine(g, std::make_unique<ProtocolPopulation>(std::move(protocols)),
             options) {}

Engine::Engine(const graph::Graph& g, std::unique_ptr<Population> population,
               EngineOptions options)
    : graph_(g),
      population_(std::move(population)),
      options_(options),
      backend_(make_engine_backend(g, options.backend)) {
  RC_EXPECTS(population_ != nullptr);
  RC_EXPECTS_MSG(population_->size() == g.node_count(),
                 "one protocol per vertex required");
  protocols_ = dynamic_cast<ProtocolPopulation*>(population_.get());
  const auto n = g.node_count();
  first_data_.assign(n, 0);
  tx_count_.assign(n, 0);
  rx_count_.assign(n, 0);

  // Resolve the dispatch strategy.  kAuto upgrades to the active set iff
  // the population declares activity hints, so populations of hint-less
  // protocols keep the zero-overhead scan.
  dispatch_ = options_.dispatch;
  if (dispatch_ == DispatchKind::kAuto) {
    dispatch_ = population_->has_hints() ? DispatchKind::kActiveSet
                                         : DispatchKind::kScan;
  }
  if (dispatch_ == DispatchKind::kActiveSet) {
    wakes_ = std::make_unique<WakeCalendar>(n);
  } else {
    all_nodes_.resize(n);
    std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
  }

  if (options_.faults.enabled()) {
    const std::string problem = options_.faults.validate(n);
    RC_EXPECTS_MSG(problem.empty(), "invalid fault plan");
    fault_session_ = std::make_unique<FaultSession>(options_.faults, n);
  }
  population_->bind(wakes_.get(), options_.post_hear_hint,
                    fault_session_ != nullptr);
  masked_ = dispatch_ == DispatchKind::kActiveSet && options_.post_hear_hint &&
            options_.trace == TraceLevel::kCounters && !fault_session_;
}

std::uint64_t Engine::max_tx_count() const {
  std::uint64_t best = 0;
  for (const auto c : tx_count_) best = std::max(best, c);
  return best;
}

void Engine::apply_faults(bool want_collisions) {
  FaultSession& fs = *fault_session_;
  if (fs.jammed()) {
    // Adversarial jam: everything the backend resolved is noise.  When an
    // observer consumes collision lists, every non-transmitting, non-crashed
    // node senses the jam (the adversary is "one more neighbour talking" —
    // even on a round with no legitimate transmitter).
    fs.count_jammed_round();
    resolution_.deliveries.clear();
    resolution_.collisions.clear();
    if (want_collisions) {
      const auto n = population_->size();
      std::size_t t = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (t < tx_ids_.size() && tx_ids_[t] == v) {
          ++t;
          continue;
        }
        if (!fs.crashed(v)) resolution_.collisions.push_back(v);
      }
    }
    return;
  }
  if (!resolution_.deliveries.empty()) {
    std::uint64_t lost = 0;
    std::erase_if(resolution_.deliveries, [&](const auto& delivery) {
      const auto [w, tx_index] = delivery;
      if (fs.crashed(w)) return true;  // crash suppression, not edge loss
      if (fs.drops(round_, tx_ids_[tx_index], w)) {
        ++lost;
        return true;
      }
      return false;
    });
    fs.count_lost(lost);
  }
  if (fs.any_crashed() && !resolution_.collisions.empty()) {
    std::erase_if(resolution_.collisions,
                  [&fs](NodeId w) { return fs.crashed(w); });
  }
}

bool Engine::step() {
  ++round_;

  // Phase 0 (faults only): advance crash/jam state and recover restarts.
  // A restarting node kept its state but missed every crashed round; the
  // population catches it up, then it is polled this round like any awake
  // node (kScan lists it naturally; kActiveSet merges it into the woken set
  // below — its calendar wake may have fired, and been consumed,
  // mid-crash).
  if (fault_session_) {
    restarted_.clear();
    fault_session_->begin_round(round_, restarted_);
    if (!restarted_.empty()) population_->restart(restarted_, round_);
  }

  // Phase 1: collect decisions in lockstep.  No delivery happens until every
  // node has decided, so nodes cannot observe same-round transmissions.
  // kScan polls everyone; kActiveSet polls only calendar-woken nodes — a
  // skipped poll is contractually a no-op, so both produce identical
  // decision vectors.  Crashed nodes are not polled at all (their consumed
  // wakes are re-armed by the restart force-poll).
  decisions_.clear();
  tx_ids_.clear();
  if (dispatch_ == DispatchKind::kScan) {
    if (fault_session_ && fault_session_->any_crashed()) {
      scan_scratch_.clear();
      for (const NodeId v : all_nodes_) {
        if (!fault_session_->crashed(v)) scan_scratch_.push_back(v);
      }
      poll(scan_scratch_);
    } else {
      poll(all_nodes_);
    }
  } else {
    wakes_->gather(round_, woken_);
    if (fault_session_) {
      if (fault_session_->any_crashed()) {
        // A crashed node's wake fired into the void: gather already
        // consumed it, so dropping it here is all that is left to do.
        std::erase_if(woken_, [this](NodeId v) {
          return fault_session_->crashed(v);
        });
      }
      if (!restarted_.empty()) {
        bool merged = false;
        for (const NodeId v : restarted_) {
          if (!std::binary_search(woken_.begin(), woken_.end(), v)) {
            woken_.push_back(v);
            merged = true;
          }
        }
        if (merged) std::sort(woken_.begin(), woken_.end());
      }
    }
    if (!woken_.empty()) poll(woken_);
  }
  for (const auto& [t, msg] : decisions_) {
    tx_ids_.push_back(t);
    if (msg.stamp && *msg.stamp > max_stamp_) max_stamp_ = *msg.stamp;
  }

  // Phase 2: backend-resolved outcome — who hears which transmitter, who
  // sits under a collision.  Collision lists are only materialized when an
  // observer (trace or the CD signal) will consume them; a fully silent
  // round skips resolution entirely (and, under kActiveSet, has done no
  // protocol work at all).  A masked run resolves for the listening nodes
  // only: a reception anywhere else would change nothing.
  const bool record_full = options_.trace == TraceLevel::kFull;
  const bool want_collisions = record_full || options_.collision_detection;
  if (tx_ids_.empty()) {
    resolution_.clear();
  } else if (masked_) {
    backend_->resolve(tx_ids_, population_->listening(), want_collisions,
                      resolution_);
  } else {
    backend_->resolve(tx_ids_, want_collisions, resolution_);
  }

  // Phase 2.5 (faults only): filter the backend's ground truth — crashed
  // listeners hear nothing, lossy edges drop deliveries, jammed rounds
  // turn everything into collision/silence.  Runs even on a transmission-
  // free round: a jam is an adversarial transmitter, so collision-detecting
  // listeners still sense it.
  if (fault_session_) apply_faults(want_collisions);

  // Phase 3: deliver.  The engine keeps the per-node counters; the
  // population updates its nodes and re-arms sleeping listeners (for the
  // next round, or from a fresh hint where the node opted in).
  RoundRecord record;
  if (record_full) record.transmissions = decisions_;
  for (const auto& [w, tx_index] : resolution_.deliveries) {
    const Message& m = decisions_[tx_index].second;
    ++rx_count_[w];
    if (m.kind == MsgKind::kData && first_data_[w] == 0) {
      first_data_[w] = round_;
    }
    if (record_full) record.deliveries.emplace_back(w, m);
  }
  if (!resolution_.deliveries.empty()) {
    population_->hear(resolution_.deliveries, decisions_, round_);
  }
  if (options_.collision_detection && !resolution_.collisions.empty()) {
    population_->collide(resolution_.collisions, round_);
  }
  if (record_full) record.collisions = resolution_.collisions;

  tx_total_ += decisions_.size();
  for (const auto& [t, msg] : decisions_) ++tx_count_[t];
  silent_streak_ = decisions_.empty() ? silent_streak_ + 1 : 0;
  if (record_full) trace_.push(std::move(record));
  return !decisions_.empty();
}

std::uint64_t Engine::last_first_data_reception() const {
  std::uint64_t last = 0;
  for (const auto r : first_data_) last = std::max(last, r);
  return last;
}

const Trace& Engine::trace() const {
  RC_EXPECTS_MSG(options_.trace == TraceLevel::kFull,
                 "full trace was not recorded; construct Engine with "
                 "TraceLevel::kFull");
  return trace_;
}

Trace Engine::take_trace() {
  RC_EXPECTS_MSG(options_.trace == TraceLevel::kFull,
                 "full trace was not recorded; construct Engine with "
                 "TraceLevel::kFull");
  return std::move(trace_);
}

}  // namespace radiocast::sim
