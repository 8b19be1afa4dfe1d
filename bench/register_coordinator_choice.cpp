// Ablation A2 — λ_arb's free parameter: WHERE to place the coordinator r.
// Placement changes T (the phase-1 span, twice replayed); a central r should
// roughly halve the session versus a peripheral r on deep networks.
#include "harness.hpp"

#include "analysis/experiments.hpp"
#include "graph/traversal.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(96)) {
    const auto suite = analysis::quick_suite(n, 4096);
    const auto samples =
        par::parallel_map(ctx.pool(), suite.size(), [&](std::size_t i) {
          const auto& w = suite[i];
          Sample s;
          s.family = w.family;
          s.n = w.graph.node_count();
          s.m = w.graph.edge_count();
          runtime::SchemeResult run_c, run_p, run_d;
          s.wall_ns = time_ns([&] {
            graph::NodeId central = 0, peripheral = 0;
            std::uint32_t best = ~0u, worst = 0;
            for (graph::NodeId v = 0; v < s.n; ++v) {
              const auto ecc = graph::eccentricity(w.graph, v);
              if (ecc < best) {
                best = ecc;
                central = v;
              }
              if (ecc > worst) {
                worst = ecc;
                peripheral = v;
              }
            }
            run_c = runtime::run_scheme("arb", w.graph, w.source,
                                        {.coordinator = central}, ctx.exec());
            run_p = runtime::run_scheme("arb", w.graph, w.source,
                                        {.coordinator = peripheral},
                                        ctx.exec());
            run_d =
                runtime::run_scheme("arb", w.graph, w.source, {}, ctx.exec());
          });
          s.rounds = run_d.rounds;
          s.ok = run_c.ok && run_p.ok && run_d.ok;
          s.extra = {{"rounds_central", static_cast<double>(run_c.rounds)},
                     {"rounds_peripheral", static_cast<double>(run_p.rounds)}};
          return s;
        });
    for (auto& s : samples) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"coordinator_choice",
     "lambda_arb ablation: central vs peripheral coordinator placement",
     {"smoke", "ablation"},
     &run});

}  // namespace
}  // namespace radiocast::bench
