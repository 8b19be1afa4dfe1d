#include "core/multi.hpp"

#include "core/labeling.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"
#include "support/contracts.hpp"

namespace radiocast::core {

using sim::Message;
using sim::MsgKind;

MultiMessageProtocol::MultiMessageProtocol(Label label,
                                           std::vector<std::uint32_t> schedule)
    : label_(label),
      is_source_(!schedule.empty()),
      schedule_(std::move(schedule)) {
  if (is_source_) {
    start_pending_ = true;  // first instance starts in round 1
  } else {
    arm_instance(0);  // listeners await instance 0's tag
  }
}

void MultiMessageProtocol::arm_instance(std::size_t instance) {
  instance_ = instance;
  core_.emplace(label_, MsgKind::kData, tag_of(instance), /*z_acks=*/true);
  ack_heard_local_ = 0;
  ack_heard_stamp_ = 0;
}

std::optional<Message> MultiMessageProtocol::on_round() {
  const std::uint64_t r = ++round_;

  if (start_pending_) {
    start_pending_ = false;
    // Source: (re-)arm and transmit the next payload.  Stamps restart at 1
    // per instance; every instance replays the same deterministic execution.
    arm_instance(received_.size());
    core_->make_origin(schedule_[received_.size()], 1);
    received_.push_back(schedule_[received_.size()]);
  }
  if (!core_) return std::nullopt;

  if (auto m = core_->maybe_initial(r)) return m;
  if (auto m = core_->maybe_x1(r)) return m;
  if (core_->just_informed(r)) {
    if (label_.x3) {
      return Message{MsgKind::kAck, core_->phase(), 0, core_->informed_stamp()};
    }
    if (auto m = core_->maybe_x2(r)) return m;
  }
  if (auto m = core_->maybe_stay_trigger(r)) return m;
  if (ack_heard_local_ == r - 1 &&
      core_->has_transmit_stamp(ack_heard_stamp_)) {
    return Message{MsgKind::kAck, core_->phase(), 0, core_->informed_stamp()};
  }
  return std::nullopt;
}

void MultiMessageProtocol::on_hear(const Message& m) {
  if (m.kind == MsgKind::kAck) {
    if (!core_ || m.phase != core_->phase()) return;  // stale instance
    ack_heard_local_ = round_;
    RC_ASSERT(m.stamp.has_value());
    ack_heard_stamp_ = *m.stamp;
    if (is_source_ && core_->is_origin()) {
      ack_rounds_.push_back(round_);
      if (received_.size() < schedule_.size()) {
        start_pending_ = true;  // release the next message next round
      } else {
        core_.reset();  // session complete
      }
    }
    return;
  }
  if (!core_) return;
  if (!is_source_ && m.phase != core_->phase()) {
    // Instances never overlap in time, so a Data message carrying the
    // successor tag means this node's current instance is fully done
    // (Observation 3.3 per instance): re-arm.  Anything else with a foreign
    // tag is a straggler a node without duties in it may ignore — a "stay"
    // only matters to nodes that transmitted that instance's µ, which
    // implies they would already carry its tag.
    if (m.kind == MsgKind::kData && m.phase == tag_of(received_.size())) {
      arm_instance(received_.size());
    } else {
      return;
    }
  }
  const bool was_informed = core_->informed();
  core_->hear(m, round_);
  if (!was_informed && core_->informed()) {
    received_.push_back(core_->payload());
  }
}

MultiRun run_multi_broadcast(const Graph& g, NodeId source,
                             const std::vector<std::uint32_t>& payloads,
                             DomPolicy policy, sim::BackendKind backend,
                             sim::DispatchKind dispatch) {
  // Thin forwarding wrapper over the "multi" registry scheme.
  RC_EXPECTS(g.node_count() >= 2);
  RC_EXPECTS(!payloads.empty());
  runtime::SchemeOptions scheme_opt;
  scheme_opt.policy = policy;
  scheme_opt.payloads = payloads;
  runtime::ExecutionConfig config;
  config.backend = backend;
  config.dispatch = dispatch;
  const auto r = runtime::run_scheme("multi", g, source, scheme_opt, config);
  MultiRun out;
  out.ok = r.ok;
  out.ack_rounds = r.ack_rounds;
  out.total_rounds = r.rounds;
  out.rounds_per_message = r.rounds_per_message;
  return out;
}

}  // namespace radiocast::core
