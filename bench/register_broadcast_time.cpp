// Experiment E1/E9 — Theorem 2.9: completion round vs the 2n-3 bound across
// the standard suite and the --sizes ladder (paths pin the O(n) constant).
#include "harness.hpp"

#include "analysis/experiments.hpp"
#include "graph/traversal.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(1024)) {
    const auto suite = analysis::standard_suite(n, /*seed=*/n);
    const auto samples =
        par::parallel_map(ctx.pool(), suite.size(), [&](std::size_t i) {
          const auto& w = suite[i];
          Sample s;
          s.family = w.family;
          s.n = w.graph.node_count();
          s.m = w.graph.edge_count();
          runtime::SchemeResult run;
          s.wall_ns = time_ns([&] {
            run = runtime::run_scheme("b", w.graph, w.source, {}, ctx.exec());
          });
          s.rounds = run.completion_round;
          s.transmissions = run.data_tx_count + run.stay_count;
          s.ok = run.all_informed && run.completion_round <= run.bound;
          s.extra = {{"ell", static_cast<double>(run.ell)},
                     {"bound", static_cast<double>(run.bound)},
                     {"ecc", static_cast<double>(
                                 graph::eccentricity(w.graph, w.source))}};
          return s;
        });
    for (auto& s : samples) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"broadcast_time",
     "Theorem 2.9: completion round vs the 2n-3 bound on the standard suite",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
