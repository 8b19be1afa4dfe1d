// Differential suite for the parallel square coloring: it must be
// BYTE-IDENTICAL to the sequential coloring at every thread count (the
// determinism contract of parallel/chunked.hpp).  Runs under both the
// `differential` and `threaded` ctest labels, so the TSan job exercises the
// pool fan-out for data races.  Also covers the stage-set membership bitmap
// and the streamed sparse generator the fixtures use.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/stages.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

/// The structurally diverse fixture set: a long path (worst-case stage
/// count), a grid, a random sparse gnp, a denser gnp, a random tree, and the
/// streamed sparse generator itself.
std::vector<std::pair<std::string, graph::Graph>> fixture_graphs() {
  std::vector<std::pair<std::string, graph::Graph>> out;
  out.emplace_back("path", graph::path(257));
  out.emplace_back("grid", graph::grid(17, 19));
  {
    Rng rng(7);
    out.emplace_back("gnp_sparse", graph::gnp_connected(300, 0.02, rng));
  }
  {
    Rng rng(11);
    out.emplace_back("gnp_dense", graph::gnp_connected(160, 0.15, rng));
  }
  {
    Rng rng(13);
    out.emplace_back("tree", graph::random_tree(400, rng));
  }
  {
    Rng rng(17);
    out.emplace_back("sgnp", graph::sparse_gnp_connected(500, 6.0, rng));
  }
  return out;
}

TEST(ParallelColoring, ByteIdenticalAcrossThreadCounts) {
  for (const auto& [name, g] : fixture_graphs()) {
    const auto seq = graph::square_coloring(g);
    for (const std::size_t threads : {2u, 8u, 0u}) {
      const auto par = graph::square_coloring(g, threads);
      const std::string what = name + "/t" + std::to_string(threads);
      EXPECT_EQ(seq.color, par.color) << what;
      EXPECT_EQ(seq.count, par.count) << what;
      EXPECT_TRUE(graph::is_square_proper(g, par)) << what;
    }
  }
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
