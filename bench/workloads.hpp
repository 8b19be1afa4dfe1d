/// \file workloads.hpp
/// \brief Synthetic protocol workloads shared by engine-stepping scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace radiocast::bench {

/// Transmits every round — the dense worst case (all-collide on a clique).
/// Shared by the sim_throughput and engine_backends stepping families so
/// both measure the same workload.
class Chatter final : public sim::Protocol {
 public:
  std::optional<sim::Message> on_round() override {
    return sim::Message{sim::MsgKind::kData, 0, 0, std::nullopt};
  }
  void on_hear(const sim::Message&) override {}
  bool informed() const override { return true; }
};

/// Transmits on a rotating 1/8 slice of the id space: rounds mix deliveries
/// and collisions, so both resolution paths are exercised.  Used by the
/// engine_backends stepping families.
class SliceTalker final : public sim::Protocol {
 public:
  explicit SliceTalker(std::uint32_t id) : id_(id) {}
  std::optional<sim::Message> on_round() override {
    ++round_;
    if ((id_ + round_) % 8 == 0) {
      return sim::Message{sim::MsgKind::kData, 0, id_, std::nullopt};
    }
    return std::nullopt;
  }
  void on_hear(const sim::Message&) override { ++heard_; }
  bool informed() const override { return true; }
  std::uint64_t heard() const { return heard_; }

 private:
  std::uint32_t id_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t heard_ = 0;
};

/// Outcome of stepping a dense workload for a fixed number of rounds.
struct StepResult {
  std::uint64_t wall_ns = 0;
  std::uint64_t tx_total = 0;
  std::uint64_t rx_total = 0;
};

/// Steps `Chatter` (all_transmit) or `SliceTalker` protocols for `steps`
/// rounds on the given backend and reports wall time plus tx/rx totals —
/// the common measurement of the engine_backends and dispatch_scaling
/// stepping families.  Chatter/SliceTalker provide no
/// activity hints, so `dispatch` kAuto resolves to the scan.
inline StepResult run_dense_steps(
    const graph::Graph& g, sim::BackendKind backend, bool all_transmit,
    std::uint64_t steps,
    sim::DispatchKind dispatch = sim::DispatchKind::kAuto) {
  const auto n = g.node_count();
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  protocols.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (all_transmit) {
      protocols.push_back(std::make_unique<Chatter>());
    } else {
      protocols.push_back(std::make_unique<SliceTalker>(v));
    }
  }
  sim::Engine engine(g, std::move(protocols),
                     {sim::TraceLevel::kCounters, false, backend, dispatch});
  StepResult out;
  out.wall_ns = time_ns([&] {
    for (std::uint64_t i = 0; i < steps; ++i) engine.step();
  });
  out.tx_total = engine.transmissions_total();
  for (std::uint32_t v = 0; v < n; ++v) out.rx_total += engine.rx_count(v);
  return out;
}

}  // namespace radiocast::bench
