// Experiment E11 — §1.1 model contrast on symmetric networks: unlabeled
// broadcast without collision detection is provably blocked, the anonymous
// beep protocol with collision detection delivers, and the paper's 2-bit λ
// delivers without collision detection.
#include "harness.hpp"

#include "analysis/symmetry.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  constexpr std::uint32_t kBits = 8;
  constexpr std::uint32_t kMu = 0xB7;
  const runtime::SchemeOptions beep_opt{.mu = kMu, .frame_bits = kBits};

  struct Case {
    std::string name;
    graph::Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"C4", graph::cycle(4)});
  cases.push_back({"C16", graph::cycle(16)});
  cases.push_back({"K_{3,3}", graph::complete_bipartite(3, 3)});
  cases.push_back({"Q4-hypercube", graph::hypercube(4)});
  cases.push_back({"torus-4x4", graph::torus(4, 4)});
  cases.push_back({"path-P16", graph::path(16)});
  cases.push_back({"grid-4x4", graph::grid(4, 4)});

  for (const auto& c : cases) {
    Sample s;
    s.family = c.name;
    s.n = c.g.node_count();
    s.m = c.g.edge_count();
    bool blocked = false;
    runtime::SchemeResult beep;
    runtime::SchemeResult b;
    s.wall_ns = time_ns([&] {
      const std::vector<std::uint32_t> plain(c.g.node_count(), 0);
      blocked = analysis::analyze_symmetry(c.g, plain, 0).broadcast_blocked;
      beep = runtime::run_scheme("beep", c.g, 0, beep_opt);
      b = runtime::run_scheme("b", c.g, 0, {}, ctx.exec());
    });
    s.rounds = b.completion_round;
    s.transmissions = b.data_tx_count + b.stay_count;
    s.ok = beep.ok && b.all_informed;
    s.extra = {{"unlabeled_blocked", blocked ? 1.0 : 0.0},
               {"beep_rounds", static_cast<double>(beep.completion_round)},
               {"ecc", static_cast<double>(graph::eccentricity(c.g, 0))}};
    ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"collision_detection",
     "paper 1.1: collision detection vs 2-bit labels on symmetric networks",
     {"smoke", "experiment"},
     &run});

}  // namespace
}  // namespace radiocast::bench
