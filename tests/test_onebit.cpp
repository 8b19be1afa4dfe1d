// Tests for the §5 one-bit schemes: radius-<=2 graphs (the paper's explicit
// sketch), grids and series-parallel graphs (asserted without construction in
// the paper), and the 3-label-value acknowledged variant.
#include <gtest/gtest.h>

#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "onebit/labeler.hpp"
#include "runtime/scheme.hpp"
#include "support/rng.hpp"

namespace radiocast::onebit {
namespace {

using graph::NodeId;
using runtime::run_scheme;

TEST(OneBit, TrivialGraphs) {
  EXPECT_TRUE(run_scheme("onebit", graph::path(1), 0).ok);
  EXPECT_TRUE(run_scheme("onebit", graph::path(2), 0).ok);
  EXPECT_TRUE(run_scheme("onebit", graph::star(8), 0).ok);
}

TEST(OneBit, StarFromLeafIsRadiusTwo) {
  const auto run = run_scheme("onebit", graph::star(9), 3);
  EXPECT_TRUE(run.ok);
  EXPECT_LE(run.completion_round, 5u);
}

TEST(OneBit, CompletionRoundMatchesClosedFormDynamics) {
  Rng rng(71);
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::gnp_connected(12, 0.3, rng);
    const auto lab = find_onebit_labeling(g, 0);
    if (!lab.ok) continue;  // searcher may fail on some graphs; measured below
    const auto run = run_scheme("onebit", g, 0);
    ASSERT_TRUE(run.ok);
    EXPECT_EQ(run.completion_round, lab.completion_round)
        << "engine and closed-form dynamics disagree";
  }
}

TEST(OneBit, ReplayRejectsBadBits) {
  // All-zero bits on a path of 4: only the source ever transmits, so node 2
  // is never informed.
  const std::vector<bool> zeros(4, false);
  EXPECT_EQ(onebit_completion_round(graph::path(4), 0, zeros), 0u);
}

TEST(OneBit, ReplayAcceptsHandCraftedPathBits) {
  // Path 0-1-2: bit(1) = 1 relays to 2 (round 3).
  const std::vector<bool> bits = {false, true, false};
  EXPECT_EQ(onebit_completion_round(graph::path(3), 0, bits), 3u);
}

// --- Radius <= 2: exhaustive verification (the paper's concrete claim) ------

TEST(OneBitRadius2, ExhaustiveUpToSixNodes) {
  // Every connected graph on <= 6 nodes, every source with eccentricity <= 2.
  std::uint64_t cases = 0, solved = 0;
  for (std::uint32_t n = 2; n <= 6; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      for (NodeId s = 0; s < n; ++s) {
        if (graph::eccentricity(g, s) > 2) continue;
        ++cases;
        const auto lab = find_onebit_labeling(g, s, {.max_attempts = 128});
        if (lab.ok) ++solved;
      }
    });
  }
  EXPECT_EQ(solved, cases) << "1-bit labeling failed on a radius-2 graph";
  EXPECT_GT(cases, 10000u);  // sanity: the sweep is not vacuous
}

TEST(OneBitRadius2, RandomLargerGraphs) {
  // Dense G(n,p) graphs have radius <= 2 w.h.p.; verify the searcher handles
  // larger instances.
  Rng rng(72);
  int radius2_cases = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto g = graph::gnp_connected(30, 0.35, rng);
    if (graph::eccentricity(g, 0) > 2) continue;
    ++radius2_cases;
    const auto run = run_scheme("onebit", g, 0, {.max_attempts = 128});
    EXPECT_TRUE(run.ok) << "rep " << rep;
  }
  EXPECT_GE(radius2_cases, 5);
}

TEST(OneBitRadius2, CompleteBipartiteBothSides) {
  for (const NodeId s : {0u, 5u}) {
    const auto run = run_scheme("onebit", graph::complete_bipartite(5, 7), s);
    EXPECT_TRUE(run.ok) << "source " << s;
  }
}

// --- Grids and series-parallel (paper §5 assertions) -------------------------

class OneBitGrid : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(OneBitGrid, GridsAreOneBitLabelable) {
  const auto [rows, cols] = GetParam();
  const auto g = graph::grid(static_cast<std::uint32_t>(rows),
                             static_cast<std::uint32_t>(cols));
  const auto run = run_scheme("onebit", g, 0, {.max_attempts = 256});
  EXPECT_TRUE(run.ok) << rows << "x" << cols;
}

INSTANTIATE_TEST_SUITE_P(Sizes, OneBitGrid,
                         ::testing::Values(std::pair{2, 2}, std::pair{2, 5},
                                           std::pair{3, 3}, std::pair{3, 6},
                                           std::pair{4, 4}, std::pair{5, 5},
                                           std::pair{6, 7}, std::pair{8, 8}));

TEST(OneBitGrid, InteriorSource) {
  const auto g = graph::grid(5, 6);
  const NodeId interior = 2 * 6 + 2;  // (2, 2)
  const auto run = run_scheme("onebit", g, interior, {.max_attempts = 256});
  EXPECT_TRUE(run.ok);
}

class OneBitSp : public ::testing::TestWithParam<int> {};

TEST_P(OneBitSp, SeriesParallelAreOneBitLabelable) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const auto g = graph::series_parallel(
      20u + static_cast<std::uint32_t>(GetParam()) * 7u, rng);
  const auto run = run_scheme("onebit", g, 0, {.max_attempts = 256});
  EXPECT_TRUE(run.ok) << g.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneBitSp, ::testing::Range(0, 10));

TEST(OneBit, PathsAreOneBitLabelable) {
  // Paths are series-parallel; the wavefront should find the obvious scheme.
  for (const std::uint32_t n : {3u, 8u, 20u, 50u}) {
    const auto run = run_scheme("onebit", graph::path(n), 0);
    EXPECT_TRUE(run.ok) << "n=" << n;
    EXPECT_EQ(run.completion_round, 2 * n - 3) << "n=" << n;
  }
}

TEST(OneBit, TreesAreOneBitLabelable) {
  Rng rng(73);
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::random_tree(25, rng);
    const auto run = run_scheme("onebit", g, 0, {.max_attempts = 256});
    EXPECT_TRUE(run.ok) << "rep " << rep;
  }
}

TEST(OneBit, CyclesAreOneBitLabelable) {
  for (const std::uint32_t n : {3u, 4u, 5u, 8u, 15u}) {
    const auto run =
        run_scheme("onebit", graph::cycle(n), 0, {.max_attempts = 256});
    EXPECT_TRUE(run.ok) << "n=" << n;
  }
}

TEST(OneBit, DeterministicForSeed) {
  const auto g = graph::grid(4, 5);
  const auto a = find_onebit_labeling(g, 0, {.max_attempts = 64, .seed = 9});
  const auto b = find_onebit_labeling(g, 0, {.max_attempts = 64, .seed = 9});
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.attempts, b.attempts);
}

// --- Acknowledged one-bit (3 label values) -----------------------------------

TEST(OneBitAck, PathAcknowledged) {
  const auto run = run_scheme("onebit-ack", graph::path(8), 0);
  EXPECT_TRUE(run.ok);
  EXPECT_GT(run.ack_round, run.completion_round);
}

TEST(OneBitAck, GridAcknowledged) {
  const auto run =
      run_scheme("onebit-ack", graph::grid(4, 4), 0, {.max_attempts = 256});
  EXPECT_TRUE(run.ok);
  EXPECT_GT(run.ack_round, run.completion_round);
}

TEST(OneBitAck, RadiusTwoAcknowledged) {
  Rng rng(74);
  const auto g = graph::gnp_connected(20, 0.5, rng);
  ASSERT_LE(graph::eccentricity(g, 0), 2u);
  const auto run = run_scheme("onebit-ack", g, 0, {.max_attempts = 128});
  EXPECT_TRUE(run.ok);
}

TEST(OneBitAck, StarAcknowledged) {
  const auto run = run_scheme("onebit-ack", graph::star(12), 0);
  EXPECT_TRUE(run.ok);
  // Star: informed at 1, z acks at 2.
  EXPECT_EQ(run.ack_round, 2u);
}

}  // namespace
}  // namespace radiocast::onebit
