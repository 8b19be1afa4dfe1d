// Micro-bench P5 — active-set protocol dispatch: full algorithm-B broadcast
// executions where the labeling keeps O(1) nodes active per round, timed
// under the serial full scan vs the calendar-driven active set.  Families:
//  - dispatch/path/<mode>: B on a path — ~2n rounds with a constant-size
//    active set, the worst case for the O(n)-per-round scan.  The
//    acceptance row: at n >= 16384 the active set must be >= 5x faster
//    than the scan (it is typically orders of magnitude faster).
//  - dispatch/grid/<mode>: B on a sqrt(n) x sqrt(n) grid — a wider frontier
//    (O(sqrt n) active nodes per round); recorded, not gated.
// Correctness is cross-checked on every row: both dispatch modes must agree
// on completion round, rounds executed, transmission totals, and informed
// counts (the trace-level oracle lives in tests/test_dispatch.cpp).
#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "sim/dispatch.hpp"
#include "sim/engine.hpp"

namespace radiocast::bench {
namespace {

constexpr std::uint32_t kMinNodes = 4096;
constexpr std::uint32_t kMaxNodes = 16384;
constexpr std::uint32_t kAcceptanceNodes = 16384;
constexpr double kAcceptanceSpeedup = 5.0;

struct BroadcastStep {
  std::uint64_t wall_ns = 0;
  std::uint64_t rounds = 0;
  std::uint64_t completion = 0;
  std::uint64_t tx_total = 0;
  std::uint64_t polls = 0;
  bool all_informed = false;
};

/// One full B execution under the given dispatch mode (scalar backend: the
/// sparse graphs here are exactly its regime), best of `kReps`.
BroadcastStep run_broadcast_mode(const graph::Graph& g,
                                 const core::Labeling& labeling,
                                 sim::DispatchKind dispatch) {
  constexpr int kReps = 3;
  BroadcastStep best;
  for (int rep = 0; rep < kReps; ++rep) {
    BroadcastStep cur;
    sim::Engine engine(g, core::make_broadcast_protocols(labeling, 42),
                       {sim::TraceLevel::kCounters, false,
                        sim::BackendKind::kScalar, dispatch});
    const auto max_rounds = core::default_round_budget(g.node_count(), 4);
    cur.wall_ns = time_ns([&] {
      engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                       max_rounds);
    });
    cur.rounds = engine.round();
    cur.completion = engine.last_first_data_reception();
    cur.tx_total = engine.transmissions_total();
    cur.polls = engine.polls_total();
    cur.all_informed = engine.all_informed();
    if (rep == 0 || cur.wall_ns < best.wall_ns) best = cur;
  }
  return best;
}

void broadcast_family(Context& ctx, const std::string& family,
                      const graph::Graph& g, bool acceptance_family) {
  const auto labeling = core::label_broadcast(g, 0);
  const auto scan =
      run_broadcast_mode(g, labeling, sim::DispatchKind::kScan);
  const auto active =
      run_broadcast_mode(g, labeling, sim::DispatchKind::kActiveSet);

  const bool agree = scan.all_informed && active.all_informed &&
                     scan.rounds == active.rounds &&
                     scan.completion == active.completion &&
                     scan.tx_total == active.tx_total;
  const double speedup =
      active.wall_ns ? static_cast<double>(scan.wall_ns) /
                           static_cast<double>(active.wall_ns)
                     : 0.0;

  for (const auto* mode : {&scan, &active}) {
    Sample s;
    s.family = "dispatch/" + family + "/" +
               (mode == &scan ? std::string("scan") : std::string("active"));
    s.n = g.node_count();
    s.m = g.edge_count();
    s.rounds = mode->rounds;
    s.transmissions = mode->tx_total;
    s.wall_ns = mode->wall_ns;
    s.ok = agree;
    s.extra = {{"speedup_vs_scan", speedup},
               {"polls", static_cast<double>(mode->polls)},
               {"completion_round", static_cast<double>(mode->completion)}};
    // Acceptance: >= 5x on the sparse-activity workload at n >= 16384.
    if (acceptance_family && mode == &active &&
        g.node_count() >= kAcceptanceNodes) {
      s.ok = s.ok && speedup >= kAcceptanceSpeedup;
    }
    ctx.record(std::move(s));
  }
}

void run(Context& ctx) {
  // Raise the ladder into territory where the per-round scan hurts.
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t s : ctx.sizes(kMaxNodes)) {
    const std::uint32_t n = std::max(kMinNodes, s);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  for (const std::uint32_t n : sizes) {
    broadcast_family(ctx, "path", graph::path(n), /*acceptance_family=*/true);
  }
  for (const std::uint32_t n : sizes) {
    const auto side = static_cast<std::uint32_t>(std::sqrt(double(n)));
    broadcast_family(ctx, "grid", graph::grid(side, side),
                     /*acceptance_family=*/false);
  }
}

const bool registered = register_scenario(
    {"dispatch_scaling",
     "Active-set protocol dispatch vs full per-round scan (B, sparse "
     "activity)",
     {"micro", "scaling"},
     &run});

}  // namespace
}  // namespace radiocast::bench
