// Ablation A1 — WHICH minimal dominating subset DOM_i is selected.  All
// policies are correct; this measures their effect on ℓ, the completion
// round, "stay" traffic and the worst per-node duty cycle.
#include "harness.hpp"

#include "analysis/experiments.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(96)) {
    const auto suite = analysis::standard_suite(n, 2718);
    std::vector<std::pair<std::size_t, core::DomPolicy>> jobs;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      for (const auto p : core::kAllDomPolicies) jobs.emplace_back(i, p);
    }
    const auto samples =
        par::parallel_map(ctx.pool(), jobs.size(), [&](std::size_t j) {
          const auto& [i, policy] = jobs[j];
          const auto& w = suite[i];
          Sample s;
          s.family = w.family + "/" + core::to_string(policy);
          s.n = w.graph.node_count();
          s.m = w.graph.edge_count();
          runtime::SchemeResult run;
          s.wall_ns = time_ns([&] {
            runtime::ExecutionConfig config = ctx.exec();
            config.trace = sim::TraceLevel::kFull;
            run = runtime::run_scheme("b", w.graph, w.source,
                                      {.policy = policy, .seed = 31337},
                                      config);
          });
          s.rounds = run.completion_round;
          s.transmissions = run.data_tx_count + run.stay_count;
          s.ok = run.all_informed;
          s.extra = {{"ell", static_cast<double>(run.ell)},
                     {"stay_tx", static_cast<double>(run.stay_count)},
                     {"max_node_tx", static_cast<double>(run.max_node_tx)}};
          return s;
        });
    for (auto& s : samples) ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"dom_policies",
     "ablation: minimal-dominating-subset policy vs rounds and traffic",
     {"smoke", "ablation"},
     &run});

}  // namespace
}  // namespace radiocast::bench
