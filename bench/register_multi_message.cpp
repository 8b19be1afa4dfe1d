// Experiment E12 — the §1.2 "many consecutive messages" scenario: K
// acknowledged broadcasts over one labeling, the source gated on each ack.
// Determinism makes the pipeline perfectly periodic.
#include "harness.hpp"

#include "analysis/experiments.hpp"
#include "core/multi.hpp"
#include "parallel/parallel_for.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  constexpr std::size_t kMessages = 8;
  for (const std::uint32_t n : ctx.sizes(256)) {
    const auto suite = analysis::quick_suite(n, 17 * n);
    const auto samples =
        par::parallel_map(ctx.pool(), suite.size(), [&](std::size_t i) {
          const auto& w = suite[i];
          Sample s;
          s.family = w.family;
          s.n = w.graph.node_count();
          s.m = w.graph.edge_count();
          core::MultiRun run;
          s.wall_ns = time_ns([&] {
            std::vector<std::uint32_t> payloads(kMessages);
            for (std::size_t k = 0; k < kMessages; ++k) {
              payloads[k] = static_cast<std::uint32_t>(k + 1);
            }
            run = core::run_multi_broadcast(w.graph, w.source, payloads,
                                            core::DomPolicy::kAscendingId,
                                            ctx.backend(), ctx.dispatch());
          });
          bool periodic = run.ok;
          for (std::size_t k = 1; k < run.ack_rounds.size(); ++k) {
            if (run.ack_rounds[k] - run.ack_rounds[k - 1] !=
                run.rounds_per_message) {
              periodic = false;
            }
          }
          s.rounds = run.total_rounds;
          s.ok = run.ok && periodic;
          s.extra = {
              {"messages", static_cast<double>(kMessages)},
              {"rounds_per_message",
               static_cast<double>(run.rounds_per_message)},
              {"first_ack",
               run.ack_rounds.empty()
                   ? 0.0
                   : static_cast<double>(run.ack_rounds.front())}};
          return s;
        });
    for (auto& s : samples) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"multi_message",
     "paper 1.2: K acknowledged broadcasts pipeline perfectly periodically",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
