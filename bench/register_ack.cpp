// Experiment E2 — Theorem 3.9 / Corollary 3.8: acknowledged broadcast must
// inform everyone by 2n-3 and deliver the first ack inside the Cor 3.8 window;
// the paper's t+n-2 slack fails only on the ell=n extremal paths (t+n-1).
#include "harness.hpp"

#include <algorithm>

#include "analysis/experiments.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(256)) {
    const auto suite = analysis::standard_suite(n, 7 * n);
    const auto samples =
        par::parallel_map(ctx.pool(), suite.size(), [&](std::size_t i) {
          const auto& w = suite[i];
          Sample s;
          s.family = w.family;
          s.n = w.graph.node_count();
          s.m = w.graph.edge_count();
          runtime::SchemeResult run;
          s.wall_ns = time_ns([&] {
            run = runtime::run_scheme("ack", w.graph, w.source, {}, ctx.exec());
          });
          s.rounds = run.completion_round;
          const std::uint64_t ell = run.ell;
          const bool in_cor38 =
              run.all_informed && run.ack_round >= 2 * ell - 2 &&
              run.ack_round <=
                  std::max<std::uint64_t>(3 * ell - 4, 2 * ell - 2);
          const bool in_fixed_window =
              run.ack_round >= run.completion_round + 1 &&
              run.ack_round <= run.completion_round + s.n - 1;
          // The compiled path (one memoized run, Theorem 3.9) must agree
          // with the engine.
          runtime::ExecutionConfig cfg = ctx.exec();
          cfg.compiled = true;
          runtime::SchemeResult compiled;
          const auto compiled_ns = time_ns([&] {
            compiled = runtime::run_scheme("ack", w.graph, w.source, {}, cfg);
          });
          const bool compiled_agrees =
              compiled.all_informed == run.all_informed &&
              compiled.completion_round == run.completion_round &&
              compiled.ack_round == run.ack_round &&
              compiled.max_stamp == run.max_stamp;
          s.ok = in_cor38 && in_fixed_window && compiled_agrees;
          s.extra = {{"ack_round", static_cast<double>(run.ack_round)},
                     {"ell", static_cast<double>(run.ell)},
                     {"max_stamp", static_cast<double>(run.max_stamp)},
                     {"compiled_wall_ns", static_cast<double>(compiled_ns)},
                     {"compiled_agrees", compiled_agrees ? 1.0 : 0.0}};
          return s;
        });
    for (auto& s : samples) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"ack",
     "Theorem 3.9: acknowledged-broadcast completion and ack windows",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
