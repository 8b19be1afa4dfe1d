// Concurrent construction: racing first calls to `Graph::bit_adjacency`
// build one resident bitmap, identical to a fresh `BitAdjacency`.  Runs under
// both the `differential` and `threaded` ctest labels, so the TSan job
// exercises the memo for data races.  Also covers the stage-set membership
// bitmap and the streamed sparse generator the fixtures use.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "core/stages.hpp"
#include "graph/bit_adjacency.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

void expect_rows_equal(const graph::BitAdjacency& a,
                       const graph::BitAdjacency& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.words_per_row(), b.words_per_row());
  for (graph::NodeId v = 0; v < a.node_count(); ++v) {
    const auto ra = a.row(v);
    const auto rb = b.row(v);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) << v;
  }
}

TEST(ResidentBitmap, RacingFirstCallsBuildOneBitmap) {
  Rng rng(19);
  const auto g = graph::gnp_connected(700, 0.2, rng);
  ASSERT_FALSE(g.has_bit_adjacency());
  constexpr int kThreads = 8;
  std::vector<const graph::BitAdjacency*> seen(kThreads, nullptr);
  {
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        seen[t] = &g.bit_adjacency();
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto* bits : seen) EXPECT_EQ(bits, seen.front());
  ASSERT_TRUE(g.has_bit_adjacency());
  expect_rows_equal(*seen.front(), graph::BitAdjacency(g));

  // A copy of the graph describes the same edges, so it yields equal rows.
  const graph::Graph copy = g;
  expect_rows_equal(copy.bit_adjacency(), graph::BitAdjacency(g));
}

TEST(StageSetsMembership, BitmapMatchesLevelScanFallback) {
  Rng rng(29);
  const auto g = graph::gnp_connected(200, 0.03, rng);
  const auto s = core::build_stage_sets(g, 0);
  ASSERT_EQ(s.dom_member.size(), g.node_count());
  core::StageSets fallback = s;
  fallback.dom_member.clear();  // decoded/hand-built sets take this path
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(s.in_any_dom(v), fallback.in_any_dom(v)) << v;
  }
}

TEST(SparseGnp, ConnectedDeterministicAndNearTargetDegree) {
  Rng rng_a(31);
  Rng rng_b(31);
  const auto a = graph::sparse_gnp_connected(4096, 8.0, rng_a);
  const auto b = graph::sparse_gnp_connected(4096, 8.0, rng_b);
  EXPECT_TRUE(graph::is_connected(a));
  EXPECT_EQ(a.node_count(), 4096u);
  // Same seed, same graph (edge-for-edge).
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (graph::NodeId v = 0; v < a.node_count(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << v;
  }
  // Average degree within 25% of the target (binomial concentration at
  // n·deg/2 = 16384 expected edges makes this generous).
  const double avg = 2.0 * static_cast<double>(a.edge_count()) / 4096.0;
  EXPECT_GT(avg, 6.0);
  EXPECT_LT(avg, 10.0);
}

TEST(SparseGnp, DegenerateParametersStillConnect) {
  Rng rng(37);
  const auto zero = graph::sparse_gnp_connected(64, 0.0, rng);
  EXPECT_TRUE(graph::is_connected(zero));
  EXPECT_EQ(zero.edge_count(), 63u);  // pure stitching tree
  const auto one = graph::sparse_gnp_connected(1, 5.0, rng);
  EXPECT_EQ(one.node_count(), 1u);
  // avg_degree >= n-1 saturates to the clique.
  const auto dense = graph::sparse_gnp_connected(16, 100.0, rng);
  EXPECT_EQ(dense.edge_count(), 120u);
}

TEST(SparseGnp, DescriptorRoundTrip) {
  const auto g = graph::from_descriptor("sgnp:512:6:9");
  Rng rng(9);
  const auto direct = graph::sparse_gnp_connected(512, 6.0, rng);
  EXPECT_EQ(g.node_count(), direct.node_count());
  EXPECT_EQ(g.edge_count(), direct.edge_count());
}

}  // namespace
}  // namespace radiocast
