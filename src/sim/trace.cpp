#include "sim/trace.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace radiocast::sim {

std::vector<NodeId> Trace::transmitters(std::uint64_t t) const {
  RC_EXPECTS(t >= 1 && t <= rounds_.size());
  std::vector<NodeId> out;
  out.reserve(rounds_[t - 1].transmissions.size());
  for (const auto& [v, msg] : rounds_[t - 1].transmissions) out.push_back(v);
  return out;
}

std::vector<std::uint64_t> Trace::transmit_rounds(NodeId v) const {
  std::vector<std::uint64_t> out;
  for (std::size_t t = 0; t < rounds_.size(); ++t) {
    for (const auto& [node, msg] : rounds_[t].transmissions) {
      if (node == v) {
        out.push_back(t + 1);
        break;
      }
    }
  }
  return out;
}

std::vector<std::uint64_t> Trace::reception_rounds(NodeId v) const {
  std::vector<std::uint64_t> out;
  for (std::size_t t = 0; t < rounds_.size(); ++t) {
    for (const auto& [node, msg] : rounds_[t].deliveries) {
      if (node == v) {
        out.push_back(t + 1);
        break;
      }
    }
  }
  return out;
}

std::optional<std::uint64_t> Trace::first_reception(NodeId v,
                                                    MsgKind kind) const {
  for (std::size_t t = 0; t < rounds_.size(); ++t) {
    for (const auto& [node, msg] : rounds_[t].deliveries) {
      if (node == v && msg.kind == kind) return t + 1;
    }
  }
  return std::nullopt;
}

std::vector<std::pair<std::uint64_t, Message>> Trace::deliveries_at(
    NodeId v) const {
  std::vector<std::pair<std::uint64_t, Message>> out;
  for (std::size_t t = 0; t < rounds_.size(); ++t) {
    for (const auto& [node, msg] : rounds_[t].deliveries) {
      if (node == v) out.emplace_back(t + 1, msg);
    }
  }
  return out;
}

}  // namespace radiocast::sim
