// Experiment E5 — B_arb (§4): the labeling does not know the source; every
// sampled source must deliver µ to all nodes with a network-wide agreed
// completion round.
#include "harness.hpp"

#include <algorithm>

#include "analysis/experiments.hpp"
#include "core/runner.hpp"
#include "parallel/parallel_for.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(48)) {
    const auto suite = analysis::quick_suite(n, 11 * n);
    const auto samples =
        par::parallel_map(ctx.pool(), suite.size(), [&](std::size_t i) {
          const auto& w = suite[i];
          Sample s;
          s.family = w.family;
          s.n = w.graph.node_count();
          s.m = w.graph.edge_count();
          std::uint32_t sources = 0, failures = 0, compiled_mismatch = 0;
          std::uint64_t t_min = ~0ull, t_max = 0, T = 0;
          std::uint64_t compiled_ns = 0;
          const std::uint32_t stride = std::max(1u, s.n / 8);
          s.wall_ns = time_ns([&] {
            for (graph::NodeId src = 0; src < s.n; src += stride) {
              core::RunOptions opt;
              opt.backend = ctx.backend();
              opt.dispatch = ctx.dispatch();
              const auto run =
                  core::run_arbitrary(w.graph, src, /*coordinator=*/0, opt);
              ++sources;
              if (!run.ok) ++failures;
              T = run.T;
              t_min = std::min(t_min, run.total_rounds);
              t_max = std::max(t_max, run.total_rounds);
              // The compiled §4 prediction must reproduce the engine run.
              core::ArbRun compiled;
              compiled_ns += time_ns([&] {
                compiled =
                    core::run_arb_compiled(w.graph, src, /*coordinator=*/0,
                                           opt);
              });
              if (compiled.ok != run.ok ||
                  compiled.total_rounds != run.total_rounds ||
                  compiled.done_round != run.done_round ||
                  compiled.T != run.T) {
                ++compiled_mismatch;
              }
            }
          });
          s.rounds = t_max;
          s.ok = failures == 0 && compiled_mismatch == 0;
          s.extra = {{"sources", static_cast<double>(sources)},
                     {"failures", static_cast<double>(failures)},
                     {"T", static_cast<double>(T)},
                     {"rounds_min", static_cast<double>(t_min)},
                     {"compiled_wall_ns", static_cast<double>(compiled_ns)},
                     {"compiled_mismatches",
                      static_cast<double>(compiled_mismatch)}};
          return s;
        });
    for (auto& s : samples) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"arbitrary_source",
     "B_arb (paper 4): every sampled source completes with agreed round",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
