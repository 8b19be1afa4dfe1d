// Macro-bench P5 — the million-node regime: streaming construction, serial
// labeling, serial square coloring, and a scalar-backend broadcast on a
// sparse G(n, p) with average degree 8.  Families:
//  - mega/build: sparse_gnp_connected via geometric-skip sampling + sorted
//    runs (never materializes more than O(m)); ok iff connected-sized CSR.
//  - mega/label: label_broadcast; ok iff its stage sets validate.
//  - mega/color: square_coloring; ok iff the coloring is distance-2 proper.
//  - mega/broadcast: scheme "b" under kAuto (the scalar walk past the
//    bitmap cap); ok iff all informed within the 2n-3 bound.
// Wall budgets are per-node linear envelopes (~5x a 1-core measurement), so
// the scenario is a completes-within-budget gate at any ladder size.
// Sizes below 100000 are raised to 100000: this scenario only measures the
// regime past the 64 MiB bitmap cap.
#include "harness.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/labeling.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

namespace radiocast::bench {
namespace {

constexpr std::uint32_t kMinNodes = 100000;
constexpr double kAvgDegree = 8.0;

// Per-node wall budgets in nanoseconds (generous linear envelopes; the
// single-core measurement at n = 10^6 sits ~5x below each).
constexpr std::uint64_t kBuildBudgetPerNode = 2000;
constexpr std::uint64_t kLabelBudgetPerNode = 6000;
constexpr std::uint64_t kColorBudgetPerNode = 6000;
constexpr std::uint64_t kBroadcastBudgetPerNode = 12000;

std::uint64_t budget_ns(std::uint32_t n, std::uint64_t per_node) {
  return per_node * n + 500000000ull;  // +0.5 s floor for tiny ladders
}

void run(Context& ctx) {
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t s : ctx.sizes()) {
    const std::uint32_t n = std::max(kMinNodes, s);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }

  for (const std::uint32_t n : sizes) {
    // --- mega/build: streamed sparse generator -------------------------
    graph::Graph g;
    {
      Sample s;
      s.family = "mega/build";
      s.wall_ns = time_ns([&] {
        Rng rng(n);
        g = graph::sparse_gnp_connected(n, kAvgDegree, rng);
      });
      s.n = g.node_count();
      s.m = g.edge_count();
      s.ok = g.node_count() == n &&
             s.wall_ns <= budget_ns(n, kBuildBudgetPerNode);
      ctx.record(std::move(s));
    }

    // --- mega/label: serial labeling construction ----------------------
    {
      core::Labeling labeling;
      Sample s;
      s.family = "mega/label";
      s.n = n;
      s.m = g.edge_count();
      s.wall_ns = time_ns([&] { labeling = core::label_broadcast(g, 0); });
      s.ok = core::validate_stage_sets(g, labeling.stages).empty() &&
             s.wall_ns <= budget_ns(n, kLabelBudgetPerNode);
      s.extra = {{"ell", static_cast<double>(labeling.stages.ell)}};
      ctx.record(std::move(s));
    }

    // --- mega/color: serial square coloring -----------------------------
    {
      graph::Coloring coloring;
      Sample s;
      s.family = "mega/color";
      s.n = n;
      s.m = g.edge_count();
      s.wall_ns = time_ns([&] { coloring = graph::square_coloring(g); });
      s.ok = graph::is_square_proper(g, coloring) &&
             s.wall_ns <= budget_ns(n, kColorBudgetPerNode);
      s.extra = {{"colors", static_cast<double>(coloring.count)}};
      ctx.record(std::move(s));
    }

    // --- mega/broadcast: end-to-end under kAuto (scalar at this scale) --
    {
      runtime::SchemeResult run;
      Sample s;
      s.family = "mega/broadcast";
      s.n = n;
      s.m = g.edge_count();
      s.wall_ns = time_ns(
          [&] { run = runtime::run_scheme("b", g, 0, {}, ctx.exec()); });
      s.rounds = run.completion_round;
      s.transmissions = run.data_tx_count + run.stay_count;
      s.ok = run.all_informed && run.completion_round <= run.bound &&
             s.wall_ns <= budget_ns(n, kBroadcastBudgetPerNode);
      s.extra = {{"bound", static_cast<double>(run.bound)},
                 {"ell", static_cast<double>(run.ell)}};
      ctx.record(std::move(s));
    }
  }
}

const bool registered = register_scenario(
    {"mega_scale",
     "million-node regime: streamed build, serial labeling, scalar broadcast",
     {"scaling"},
     &run});

}  // namespace
}  // namespace radiocast::bench
