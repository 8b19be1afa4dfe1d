#include "onebit/runner.hpp"

#include <algorithm>

#include "core/protocols.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"

namespace radiocast::onebit {

namespace {

constexpr std::uint32_t kMu = 99;

/// The execution half shared by both wrappers.
runtime::ExecutionConfig exec_config(const OneBitOptions& opt) {
  runtime::ExecutionConfig out;
  out.backend = opt.engine_backend;
  out.dispatch = opt.engine_dispatch;
  return out;
}

runtime::SchemeOptions scheme_options(const OneBitOptions& opt) {
  runtime::SchemeOptions out;
  out.mu = kMu;
  out.seed = opt.seed;
  out.max_attempts = opt.max_attempts;
  out.max_stages = opt.max_stages;
  return out;
}

OneBitRun to_onebit_run(const runtime::SchemeResult& r) {
  OneBitRun out;
  out.labeling_found = r.labeling_found;
  out.ok = r.ok;
  out.completion_round = r.completion_round;
  out.ack_round = r.ack_round;
  out.attempts = r.attempts;
  out.ones = r.ones;
  return out;
}

}  // namespace

/// Lowest-id node whose first reception happens in the final wave; used as z.
/// Replays the closed-form dynamics to find per-node informed stages.
graph::NodeId last_informed_node(const Graph& g, graph::NodeId source,
                                 const std::vector<bool>& bits) {
  // Replay and remember the last NEW set.
  std::vector<bool> informed(g.node_count(), false);
  informed[source] = true;
  std::vector<graph::NodeId> tx{source};
  std::vector<graph::NodeId> fresh, last_fresh;
  std::vector<std::uint32_t> cnt(g.node_count(), 0);
  std::vector<bool> in_set(g.node_count(), false);
  const std::uint64_t max_stages = 4ull * g.node_count() + 8;
  for (std::uint64_t stage = 1; stage <= max_stages; ++stage) {
    cnt.assign(g.node_count(), 0);
    for (const auto t : tx) {
      for (const auto w : g.neighbors(t)) ++cnt[w];
    }
    for (const auto t : tx) cnt[t] = 0;
    fresh.clear();
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      if (!informed[v] && cnt[v] == 1) fresh.push_back(v);
    }
    if (fresh.empty()) break;
    last_fresh = fresh;
    for (const auto v : fresh) informed[v] = true;
    std::vector<graph::NodeId> designators;
    for (const auto v : fresh) {
      if (bits[v]) designators.push_back(v);
    }
    for (const auto b : designators) in_set[b] = true;
    std::vector<graph::NodeId> next_tx = designators;
    for (const auto v : tx) {
      std::uint32_t c = 0;
      for (const auto w : g.neighbors(v)) {
        if (in_set[w]) ++c;
      }
      if (c == 1) next_tx.push_back(v);
    }
    for (const auto b : designators) in_set[b] = false;
    std::sort(next_tx.begin(), next_tx.end());
    tx = std::move(next_tx);
  }
  RC_ASSERT_MSG(!last_fresh.empty(), "no node was ever informed");
  return last_fresh.front();
}

OneBitRun run_onebit(const Graph& g, graph::NodeId source,
                     const OneBitOptions& opt) {
  // Thin forwarding wrapper over the "onebit" registry scheme.
  return to_onebit_run(runtime::run_scheme("onebit", g, source,
                                           scheme_options(opt),
                                           exec_config(opt)));
}

OneBitRun run_onebit_acknowledged(const Graph& g, graph::NodeId source,
                                  const OneBitOptions& opt) {
  // Thin forwarding wrapper over the "onebit-ack" registry scheme.
  return to_onebit_run(runtime::run_scheme("onebit-ack", g, source,
                                           scheme_options(opt),
                                           exec_config(opt)));
}

}  // namespace radiocast::onebit
