// Micro-bench P3 — engine backend comparison: the same workloads resolved by
// the scalar CSR walk, the bit-parallel dense stepper, and b's compiled path
// (one memoized engine run, which by Lemma 2.8 is every run).  Two probes:
//  - engine_step/<family>: raw dense round stepping (everyone transmits on a
//    clique; a rotating 1/8 slice elsewhere), scalar vs bit.  The clique row
//    carries the headline assertion: at n >= 4096 the bit backend must be at
//    least 5x faster than scalar.
//  - broadcast/<family>: full algorithm-B executions, scalar engine vs bit
//    engine vs a cold compile, cross-checked for identical results.
#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace radiocast::bench {
namespace {

void step_family(Context& ctx, const std::string& family,
                 const graph::Graph& g, bool all_transmit,
                 bool assert_speedup) {
  constexpr std::uint64_t kSteps = 16;
  const auto scalar =
      run_dense_steps(g, sim::BackendKind::kScalar, all_transmit, kSteps);
  const auto bit =
      run_dense_steps(g, sim::BackendKind::kBit, all_transmit, kSteps);
  const bool agree =
      scalar.tx_total == bit.tx_total && scalar.rx_total == bit.rx_total;
  const double speedup = bit.wall_ns
                             ? static_cast<double>(scalar.wall_ns) /
                                   static_cast<double>(bit.wall_ns)
                             : 0.0;

  for (const auto* kind : {"scalar", "bit"}) {
    const auto& r = std::string(kind) == "scalar" ? scalar : bit;
    Sample s;
    s.family = "engine_step/" + family + "/" + kind;
    s.n = g.node_count();
    s.m = g.edge_count();
    s.rounds = kSteps;
    s.transmissions = r.tx_total;
    s.wall_ns = r.wall_ns;
    s.ok = agree;
    s.extra = {{"rx_total", static_cast<double>(r.rx_total)}};
    if (std::string(kind) == "bit") {
      s.extra.emplace_back("speedup_vs_scalar", speedup);
      // Headline acceptance: dense stepping must be >= 5x faster bit-parallel
      // once rows span >= 64 words.
      if (assert_speedup && g.node_count() >= 4096) {
        s.ok = s.ok && speedup >= 5.0;
      }
    }
    ctx.record(std::move(s));
  }
}

void broadcast_family(Context& ctx, const std::string& family,
                      const graph::Graph& g) {
  struct Variant {
    const char* name;
    runtime::SchemeResult run;
    std::uint64_t wall_ns = 0;
  };
  Variant variants[3] = {
      {"scalar", {}, 0}, {"bit", {}, 0}, {"compiled", {}, 0}};

  runtime::ExecutionConfig configs[3];
  configs[0].backend = sim::BackendKind::kScalar;
  configs[1].backend = sim::BackendKind::kBit;
  configs[2].backend = ctx.backend();
  configs[2].compiled = true;
  for (int k = 0; k < 3; ++k) {
    variants[k].wall_ns = time_ns([&] {
      variants[k].run = runtime::run_scheme("b", g, 0, {}, configs[k]);
    });
  }

  const auto& ref = variants[0].run;
  bool agree = ref.all_informed;
  for (const auto& v : variants) {
    agree = agree && v.run.all_informed &&
            v.run.completion_round == ref.completion_round &&
            v.run.max_node_tx == ref.max_node_tx && v.run.ell == ref.ell;
  }

  for (const auto& v : variants) {
    Sample s;
    s.family = "broadcast/" + family + "/" + v.name;
    s.n = g.node_count();
    s.m = g.edge_count();
    s.rounds = v.run.completion_round;
    s.wall_ns = v.wall_ns;
    s.ok = agree;
    ctx.record(std::move(s));
  }
}

void run(Context& ctx) {
  // Raw dense stepping: clique (everyone transmits — the acceptance family),
  // dense gnp and sparse grid with rotating slices (the crossover contrast).
  for (const std::uint32_t n : ctx.sizes(8192)) {
    step_family(ctx, "clique", graph::complete(n), /*all_transmit=*/true,
                /*assert_speedup=*/true);
  }
  for (const std::uint32_t n : ctx.sizes(4096)) {
    Rng rng(n);
    step_family(ctx, "gnp", graph::gnp_connected(n, 0.5, rng),
                /*all_transmit=*/false, /*assert_speedup=*/false);
  }
  for (const std::uint32_t n : ctx.sizes(4096)) {
    const auto side = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n))));
    step_family(ctx, "grid", graph::grid(side, side), /*all_transmit=*/false,
                /*assert_speedup=*/false);
  }

  // Full algorithm-B executions: scalar vs bit vs a cold compile.
  for (const std::uint32_t n : ctx.sizes(4096)) {
    Rng rng(n + 1);
    broadcast_family(ctx, "gnp", graph::gnp_connected(n, 0.3, rng));
    broadcast_family(ctx, "clique", graph::complete(n));
    const auto side = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n))));
    broadcast_family(ctx, "grid", graph::grid(side, side));
  }
}

const bool registered = register_scenario(
    {"engine_backends",
     "scalar vs bit-parallel engine backends vs the compiled path",
     {"smoke", "micro"},
     &run});

}  // namespace
}  // namespace radiocast::bench
