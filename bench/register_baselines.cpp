// Experiment E6 — the §1 positioning table: algorithm B (2-bit labels)
// against round-robin (Θ(log n) bits), color-robin over G² (Θ(log Δ) bits)
// and randomized label-free Decay.  One sample per (workload, scheme).
#include "harness.hpp"

#include "analysis/experiments.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(256)) {
    const auto suite = analysis::standard_suite(n, 13 * n);
    const auto groups =
        par::parallel_map(ctx.pool(), suite.size(), [&](std::size_t i) {
          const auto& w = suite[i];
          std::vector<Sample> group;
          const auto base = [&](const char* scheme) {
            Sample s;
            s.family = w.family + "/" + scheme;
            s.n = w.graph.node_count();
            s.m = w.graph.edge_count();
            return s;
          };

          Sample b = base("B");
          runtime::SchemeResult rb;
          b.wall_ns = time_ns([&] {
            rb = runtime::run_scheme("b", w.graph, w.source, {}, ctx.exec());
          });
          b.rounds = rb.completion_round;
          b.transmissions = rb.data_tx_count + rb.stay_count;
          b.ok = rb.all_informed;
          b.extra = {{"label_bits", 2.0}};
          group.push_back(std::move(b));

          Sample rr = base("round_robin");
          runtime::SchemeResult rrr;
          rr.wall_ns = time_ns([&] {
            rrr = runtime::run_scheme("round-robin", w.graph, w.source);
          });
          rr.rounds = rrr.completion_round;
          rr.ok = rrr.all_informed;
          rr.extra = {{"label_bits", static_cast<double>(rrr.label_bits)}};
          group.push_back(std::move(rr));

          Sample cr = base("color_robin");
          runtime::SchemeResult crr;
          cr.wall_ns = time_ns([&] {
            crr = runtime::run_scheme("color-robin", w.graph, w.source);
          });
          cr.rounds = crr.completion_round;
          cr.ok = crr.all_informed;
          cr.extra = {{"label_bits", static_cast<double>(crr.label_bits)}};
          group.push_back(std::move(cr));

          Sample dk = base("decay");
          const runtime::SchemeOptions seeded{.seed = 1234 + i};
          runtime::SchemeResult dkr;
          dk.wall_ns = time_ns([&] {
            dkr = runtime::run_scheme("decay", w.graph, w.source, seeded);
          });
          dk.rounds = dkr.completion_round;
          dk.ok = dkr.all_informed;
          dk.extra = {{"label_bits", 0.0}};
          group.push_back(std::move(dk));
          return group;
        });
    for (auto& group : groups) {
      for (auto& s : group) ctx.record(std::move(s));
    }
  }
}

const bool registered = register_scenario(
    {"baselines",
     "B vs round-robin, color-robin over G^2, and randomized Decay",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
