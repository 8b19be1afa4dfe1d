// Tests for the §1.1 collision-detection remark: anonymous bit-by-bit
// broadcast (beep protocol).  The headline property: it succeeds on exactly
// the symmetric networks where label-free broadcast WITHOUT collision
// detection is provably impossible (four-cycle and friends).
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "analysis/symmetry.hpp"
#include "baselines/beep.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

namespace radiocast::baselines {
namespace {

using runtime::run_scheme;

TEST(Beep, FourCycleSucceedsWhereUndetectableCollisionsFail) {
  // The paper's C4: impossible without collision detection (see
  // test_analysis), trivial with it.
  const auto g = graph::cycle(4);
  const std::vector<std::uint32_t> plain(4, 0);
  ASSERT_TRUE(analysis::analyze_symmetry(g, plain, 0).broadcast_blocked);
  const auto run = run_scheme("beep", g, 0, {.mu = 0b1011, .frame_bits = 4});
  EXPECT_TRUE(run.ok);
}

TEST(Beep, SingleEdgeDelivery) {
  const auto run =
      run_scheme("beep", graph::path(2), 0, {.mu = 0b101, .frame_bits = 3});
  EXPECT_TRUE(run.ok);
  // One frame = start beep + 3 bits (rounds 1..4); the receiver recognizes
  // the (possibly silent) final bit at the start of round 5.
  EXPECT_EQ(run.completion_round, 5u);
}

TEST(Beep, AllZeroAndAllOneMessages) {
  // Silence-heavy and energy-heavy frames both decode (framing is explicit).
  for (const std::uint32_t mu : {0b0000u, 0b1111u, 0b1000u, 0b0001u}) {
    const auto run =
        run_scheme("beep", graph::path(5), 0, {.mu = mu, .frame_bits = 4});
    EXPECT_TRUE(run.ok) << "mu=" << mu;
  }
}

TEST(Beep, CompletionIsEccTimesFrame) {
  // Layer d decodes by round d·(L+1): linear in eccentricity, not in n.
  const std::uint32_t bits = 8;
  for (const std::uint32_t n : {4u, 9u, 17u}) {
    const auto g = graph::path(n);
    const auto run =
        run_scheme("beep", g, 0, {.mu = 0xA5u, .frame_bits = bits});
    ASSERT_TRUE(run.ok);
    const std::uint64_t ecc = graph::eccentricity(g, 0);
    EXPECT_LE(run.completion_round, (ecc + 1) * (bits + 1) + 1) << "n=" << n;
  }
}

TEST(Beep, WorksOnAllBlockedSymmetricFamilies) {
  // Every impossibility witness from E7 becomes feasible with collision
  // detection — anonymity and symmetry stop mattering.
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::cycle(6));
  graphs.push_back(graph::cycle(12));
  graphs.push_back(graph::complete_bipartite(2, 3));
  graphs.push_back(graph::complete_bipartite(4, 4));
  graphs.push_back(graph::hypercube(3));
  graphs.push_back(graph::hypercube(4));
  for (const auto& g : graphs) {
    const std::vector<std::uint32_t> plain(g.node_count(), 0);
    ASSERT_TRUE(analysis::analyze_symmetry(g, plain, 0).broadcast_blocked)
        << g.summary();
    const auto run = run_scheme("beep", g, 0, {.mu = 0x2Au, .frame_bits = 6});
    EXPECT_TRUE(run.ok) << g.summary();
  }
}

TEST(Beep, ExhaustiveSmallGraphs) {
  // Anonymous broadcast with collision detection works on EVERY connected
  // graph — no labels needed at all.
  for (std::uint32_t n = 2; n <= 5; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      for (graph::NodeId s = 0; s < n; ++s) {
        const auto run =
            run_scheme("beep", g, s, {.mu = 0b110, .frame_bits = 3});
        ASSERT_TRUE(run.ok) << g.summary() << " source " << s;
      }
    });
  }
}

TEST(Beep, RandomGraphsRandomPayloads) {
  Rng rng(117);
  for (int rep = 0; rep < 20; ++rep) {
    const auto n = 5 + static_cast<std::uint32_t>(rng.below(40));
    const auto g = graph::gnp_connected(n, 0.15, rng);
    const auto mu = static_cast<std::uint32_t>(rng.below(1u << 16));
    const auto source = static_cast<graph::NodeId>(rng.below(n));
    const auto run =
        run_scheme("beep", g, source, {.mu = mu, .frame_bits = 16});
    EXPECT_TRUE(run.ok) << "rep " << rep;
  }
}

TEST(Beep, WideFramesUpTo32Bits) {
  const runtime::SchemeOptions opt{.mu = 0xDEADBEEFu, .frame_bits = 32};
  const auto run = run_scheme("beep", graph::grid(4, 4), 0, opt);
  EXPECT_TRUE(run.ok);
}

TEST(Beep, RejectsOversizedMessage) {
  EXPECT_THROW(BeepBroadcastProtocol(3, 8u), ContractViolation);
  EXPECT_THROW(BeepBroadcastProtocol(0, std::nullopt), ContractViolation);
}

TEST(Beep, SuiteSweep) {
  for (const auto& w : analysis::quick_suite(24, 4242)) {
    const auto run =
        run_scheme("beep", w.graph, w.source, {.mu = 0x5Bu, .frame_bits = 7});
    EXPECT_TRUE(run.ok) << w.family;
  }
}

}  // namespace
}  // namespace radiocast::baselines
