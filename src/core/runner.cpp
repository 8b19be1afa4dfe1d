#include "core/runner.hpp"

#include "runtime/scheme.hpp"

namespace radiocast::core {

namespace {

/// The protocol-construction half of a RunOptions block.
runtime::SchemeOptions scheme_options(const RunOptions& opt) {
  runtime::SchemeOptions out;
  out.mu = opt.mu;
  out.policy = opt.policy;
  out.seed = opt.seed;
  return out;
}

/// The execution half.  The compiled fast paths keep their historical
/// contract: `opt.trace` is ignored (their observables are counter-exact
/// without a recorded trace).
runtime::ExecutionConfig exec_config(const RunOptions& opt,
                                     bool compiled = false) {
  runtime::ExecutionConfig out;
  out.backend = opt.backend;
  out.dispatch = opt.dispatch;
  out.compiled = compiled;
  out.trace = compiled ? sim::TraceLevel::kCounters : opt.trace;
  out.max_rounds = opt.max_rounds;
  return out;
}

BroadcastRun to_broadcast_run(const runtime::SchemeResult& r) {
  BroadcastRun out;
  out.all_informed = r.all_informed;
  out.completion_round = r.completion_round;
  out.bound = r.bound;
  out.ell = r.ell;
  out.stay_count = r.stay_count;
  out.data_tx_count = r.data_tx_count;
  out.max_node_tx = r.max_node_tx;
  return out;
}

AckRun to_ack_run(const runtime::SchemeResult& r) {
  AckRun out;
  out.all_informed = r.all_informed;
  out.completion_round = r.completion_round;
  out.ack_round = r.ack_round;
  out.bound = r.bound;
  out.ell = r.ell;
  out.z = r.special;
  out.max_stamp = r.max_stamp;
  return out;
}

ArbRun to_arb_run(const runtime::SchemeResult& r, NodeId coordinator) {
  ArbRun out;
  out.ok = r.ok;
  out.total_rounds = r.rounds;
  out.done_round = r.done_round;
  out.T = r.T;
  out.coordinator = coordinator;
  return out;
}

}  // namespace

std::vector<std::unique_ptr<sim::Protocol>> make_broadcast_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<BroadcastProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt));
  }
  return out;
}

std::vector<std::unique_ptr<sim::Protocol>> make_ack_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu,
    bool resilient) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<AckBroadcastProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt,
        resilient));
  }
  return out;
}

std::vector<std::unique_ptr<sim::Protocol>> make_common_round_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<CommonRoundProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt));
  }
  return out;
}

std::vector<std::unique_ptr<sim::Protocol>> make_arb_protocols(
    const std::vector<Label>& labels, NodeId source, std::uint32_t mu) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    out.push_back(std::make_unique<ArbProtocol>(
        labels[v],
        v == source ? std::optional<std::uint32_t>(mu) : std::nullopt));
  }
  return out;
}

// Every runner below is a thin forwarding wrapper over the scheme registry
// (runtime/scheme.hpp): the labeling, protocol construction, stop
// predicate, and observable extraction live in the registered scheme, and
// these functions only translate between the historical typed result
// structs and runtime::SchemeResult.  Traces stay bit-exact — the wrappers
// build the same engine from the same protocols with the same budget.

BroadcastRun run_broadcast(const Graph& g, NodeId source,
                           const RunOptions& opt) {
  return to_broadcast_run(
      runtime::run_scheme("b", g, source, scheme_options(opt),
                          exec_config(opt)));
}

BroadcastRun run_broadcast_compiled(const Graph& g, NodeId source,
                                    const RunOptions& opt) {
  return to_broadcast_run(
      runtime::run_scheme("b", g, source, scheme_options(opt),
                          exec_config(opt, /*compiled=*/true)));
}

AckRun run_acknowledged(const Graph& g, NodeId source, const RunOptions& opt) {
  return to_ack_run(runtime::run_scheme("ack", g, source, scheme_options(opt),
                                        exec_config(opt)));
}

AckRun run_acknowledged_compiled(const Graph& g, NodeId source,
                                 const RunOptions& opt) {
  return to_ack_run(runtime::run_scheme("ack", g, source, scheme_options(opt),
                                        exec_config(opt, /*compiled=*/true)));
}

CommonRoundRun run_common_round(const Graph& g, NodeId source,
                                const RunOptions& opt) {
  const auto r = runtime::run_scheme("common-round", g, source,
                                     scheme_options(opt), exec_config(opt));
  CommonRoundRun out;
  out.ok = r.ok;
  out.m = r.T;
  out.common_round = r.done_round;
  out.last_learned = r.last_learned;
  return out;
}

ArbRun run_arbitrary(const Graph& g, NodeId source, NodeId coordinator,
                     const RunOptions& opt) {
  auto scheme_opt = scheme_options(opt);
  scheme_opt.coordinator = coordinator;
  return to_arb_run(
      runtime::run_scheme("arb", g, source, scheme_opt, exec_config(opt)),
      coordinator);
}

ArbRun run_arb_compiled(const Graph& g, NodeId source, NodeId coordinator,
                        const RunOptions& opt) {
  auto scheme_opt = scheme_options(opt);
  scheme_opt.coordinator = coordinator;
  return to_arb_run(
      runtime::run_scheme("arb", g, source, scheme_opt,
                          exec_config(opt, /*compiled=*/true)),
      coordinator);
}

}  // namespace radiocast::core
