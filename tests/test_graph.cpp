// Tests for src/graph: CSR construction, generators, traversal, the square
// coloring, IO round-trips and exhaustive enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "graph/io.hpp"
#include "graph/traversal.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace radiocast::graph {
namespace {

TEST(GraphBuilder, BuildsSortedCsr) {
  GraphBuilder b(4);
  b.add_edge(2, 1).add_edge(0, 3).add_edge(1, 0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  const auto n1 = g.neighbors(1);
  EXPECT_TRUE(std::is_sorted(n1.begin(), n1.end()));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphBuilder, RejectsSelfLoops) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), ContractViolation);
}

TEST(GraphBuilder, RejectsOutOfRangeIds) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), ContractViolation);
}

TEST(GraphBuilder, SortedRunsMergeWithLooseEdges) {
  // Two presorted runs interleaved with unsorted add_edge calls must build
  // the same CSR as inserting every edge individually.
  const std::vector<std::pair<NodeId, NodeId>> run1 = {{0, 1}, {0, 5}, {2, 3}};
  const std::vector<std::pair<NodeId, NodeId>> run2 = {{1, 4}, {3, 5}};
  GraphBuilder streamed(6);
  streamed.add_edge(4, 2);
  streamed.add_sorted_run(run1);
  streamed.add_edge(5, 1);
  streamed.add_sorted_run(run2);
  streamed.add_edge(0, 3);
  const Graph a = std::move(streamed).build();

  GraphBuilder plain(6);
  plain.add_edge(4, 2).add_edge(5, 1).add_edge(0, 3);
  for (const auto& run : {run1, run2}) {
    for (const auto& [u, v] : run) plain.add_edge(u, v);
  }
  const Graph b = std::move(plain).build();

  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < 6; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << v;
  }
}

TEST(GraphBuilder, SortedRunsRejectUnsortedOrOutOfRangeInput) {
  GraphBuilder b(4);
  const std::vector<std::pair<NodeId, NodeId>> reversed = {{1, 2}, {0, 1}};
  EXPECT_THROW(b.add_sorted_run(reversed), ContractViolation);
  const std::vector<std::pair<NodeId, NodeId>> swapped = {{2, 1}};
  EXPECT_THROW(b.add_sorted_run(swapped), ContractViolation);
  const std::vector<std::pair<NodeId, NodeId>> oob = {{0, 4}};
  EXPECT_THROW(b.add_sorted_run(oob), ContractViolation);
}

TEST(GraphBuilder, SortedRunsDeduplicateAcrossRuns) {
  const std::vector<std::pair<NodeId, NodeId>> run = {{0, 1}, {1, 2}};
  GraphBuilder b(3);
  b.add_sorted_run(run);
  b.add_sorted_run(run);
  b.add_edge(0, 1);
  EXPECT_EQ(std::move(b).build().edge_count(), 2u);
}

TEST(GraphBuilder, FromSortedStreamMatchesPairListBuild) {
  // The two-pass streaming path must produce the same CSR as the classic
  // builder on a non-trivial generator (a grid, streamed in lex order).
  const std::uint32_t rows = 7, cols = 9, n = rows * cols;
  const auto id = [cols](std::uint32_t r, std::uint32_t c) {
    return r * cols + c;
  };
  const Graph streamed =
      GraphBuilder::from_sorted_stream(n, [&](auto&& edge) {
        for (std::uint32_t r = 0; r < rows; ++r) {
          for (std::uint32_t c = 0; c < cols; ++c) {
            if (c + 1 < cols) edge(id(r, c), id(r, c + 1));
            if (r + 1 < rows) edge(id(r, c), id(r + 1, c));
          }
        }
      });
  const Graph reference = grid(rows, cols);
  ASSERT_EQ(streamed.edge_count(), reference.edge_count());
  for (NodeId v = 0; v < n; ++v) {
    const auto ns = streamed.neighbors(v);
    const auto nr = reference.neighbors(v);
    EXPECT_TRUE(std::equal(ns.begin(), ns.end(), nr.begin(), nr.end())) << v;
  }
}

TEST(GraphBuilder, FromSortedStreamRejectsUnsortedStreams) {
  EXPECT_THROW(GraphBuilder::from_sorted_stream(
                   3,
                   [](auto&& edge) {
                     edge(1, 2);
                     edge(0, 1);
                   }),
               ContractViolation);
  EXPECT_THROW(GraphBuilder::from_sorted_stream(3,
                                                [](auto&& edge) {
                                                  edge(0, 1);
                                                  edge(0, 1);
                                                }),
               ContractViolation);
  EXPECT_THROW(
      GraphBuilder::from_sorted_stream(3, [](auto&& edge) { edge(2, 1); }),
      ContractViolation);
}

TEST(Graph, EmptyGraphQueries) {
  const Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, SummaryNamesCounts) {
  EXPECT_EQ(path(5).summary(), "Graph(n=5, m=4)");
}

// --- Generators: structural invariants -------------------------------------

TEST(Generators, PathStructure) {
  const Graph g = path(6);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(3), 2u);
  EXPECT_EQ(diameter(g), 5u);
}

TEST(Generators, SingleVertexPath) {
  const Graph g = path(1);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CycleStructure) {
  const Graph g = cycle(7);
  EXPECT_EQ(g.edge_count(), 7u);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(diameter(g), 3u);
}

TEST(Generators, StarStructure) {
  const Graph g = star(9);
  EXPECT_EQ(g.degree(0), 8u);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Generators, CompleteStructure) {
  const Graph g = complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Generators, CompleteBipartiteStructure) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.edge_count(), 12u);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 4u);
  for (NodeId v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 3));
}

TEST(Generators, GridStructure) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3 + 2u * 4);  // horizontal + vertical
  EXPECT_EQ(g.degree(0), 2u);                  // corner
  EXPECT_EQ(g.degree(5), 4u);                  // interior (1,1)
  EXPECT_EQ(diameter(g), 5u);
}

TEST(Generators, TorusIsFourRegular) {
  const Graph g = torus(4, 5);
  EXPECT_EQ(g.node_count(), 20u);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, HypercubeStructure) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(diameter(g), 4u);
}

TEST(Generators, BalancedTreeStructure) {
  const Graph g = balanced_tree(3, 2);  // 1 + 3 + 9
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_EQ(g.edge_count(), 12u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(1);
  for (const std::uint32_t n : {2u, 5u, 33u, 200u}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.edge_count(), n - 1u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, CaterpillarStructure) {
  const Graph g = caterpillar(4, 2);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 11u);  // tree
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, LollipopStructure) {
  const Graph g = lollipop(5, 3);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_EQ(g.edge_count(), 10u + 3u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(7), 1u);  // tail end
}

TEST(Generators, GnpConnectedAlwaysConnected) {
  Rng rng(7);
  for (const double p : {0.0, 0.01, 0.1, 0.5}) {
    for (int rep = 0; rep < 5; ++rep) {
      const Graph g = gnp_connected(40, p, rng);
      EXPECT_TRUE(is_connected(g)) << "p=" << p;
      EXPECT_EQ(g.node_count(), 40u);
    }
  }
}

TEST(Generators, GnpDeterministicForSeed) {
  Rng a(42), b(42);
  const Graph g1 = gnp_connected(30, 0.2, a);
  const Graph g2 = gnp_connected(30, 0.2, b);
  EXPECT_EQ(g1.edge_count(), g2.edge_count());
  for (NodeId v = 0; v < 30; ++v) EXPECT_EQ(g1.degree(v), g2.degree(v));
}

TEST(Generators, RandomGeometricConnectedEvenWhenSparse) {
  Rng rng(3);
  const Graph g = random_geometric(50, 0.05, rng);  // radius far too small
  EXPECT_TRUE(is_connected(g));                     // stitched
}

// The cell-grid neighbour search must reproduce the all-pairs unit-disk
// graph exactly.  Hashes recorded from the all-pairs generator: cold-deck
// shapes, graphs the closest-pair pass stitches together from tens to
// hundreds of components, radii of exactly 1/k, and radii of half the
// square or more (one cell).
TEST(Generators, RandomGeometricMatchesPinnedHashes) {
  const std::pair<const char*, const char*> pinned[] = {
      {"disk:4000:0.031:12345", "abf3ab98e3a61ca8"},  // 2 components
      {"disk:4000:0.031:777", "7a812176e3a8b715"},    // 3 components
      {"disk:600:0.05:3", "d56924cde670d5e0"},        // 20 components
      {"disk:300:0.05:11", "e92d0ded2215895e"},       // 84 components
      {"disk:400:0.03:6", "57fe698dc1716a95"},        // 208 components
      {"disk:1500:0.045:21", "4a0a66e81f3dc53e"},     // connected
      {"disk:200:0.25:5", "ce708d242abc60fd"},
      {"disk:64:0.25:9", "e38ec066554f5eda"},
      {"disk:50:0.5:2", "1bea40d474ab927d"},
      {"disk:40:0.75:8", "d826ba2f7bbd7516"},
      {"disk:30:1.5:4", "5d41a76fba3be63a"},
      {"disk:2:0.01:1", "505f902eddfa2326"},  // two points out of reach
      {"disk:1:0.3:1", "392209f14dea4c24"},
  };
  for (const auto& [descriptor, hash] : pinned) {
    EXPECT_EQ(hash_hex(canonical_hash(from_descriptor(descriptor))), hash)
        << descriptor;
  }
}

TEST(Generators, SeriesParallelConnected) {
  Rng rng(11);
  for (const std::uint32_t edges : {1u, 2u, 8u, 40u, 150u}) {
    const Graph g = series_parallel(edges, rng);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.node_count(), 2u);
    EXPECT_LE(g.edge_count(), edges);
  }
}

TEST(Generators, ClusteredConnected) {
  Rng rng(13);
  const Graph g = clustered(5, 6, 0.4, rng);
  EXPECT_EQ(g.node_count(), 30u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Figure1Shape) {
  const Graph g = figure1();
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_EQ(g.edge_count(), 16u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 3u);  // Γ(s) = {A, C, B}
}

// --- Traversal --------------------------------------------------------------

TEST(Traversal, BfsDistancesOnPath) {
  const Graph g = path(6);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Traversal, BfsDistancesFromMiddle) {
  const Graph g = path(7);
  const auto d = bfs_distances(g, 3);
  EXPECT_EQ(d[0], 3u);
  EXPECT_EQ(d[6], 3u);
  EXPECT_EQ(d[3], 0u);
}

TEST(Traversal, DisconnectedDetected) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const Graph g = std::move(b).build();
  EXPECT_FALSE(is_connected(g));
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(Traversal, EccentricityRequiresConnected) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_THROW(eccentricity(g, 0), ContractViolation);
}

TEST(Traversal, EccentricityAndDiameter) {
  const Graph g = path(9);
  EXPECT_EQ(eccentricity(g, 0), 8u);
  EXPECT_EQ(eccentricity(g, 4), 4u);
  EXPECT_EQ(diameter(g), 8u);
}

TEST(Traversal, BfsLayersPartitionVertices) {
  Rng rng(5);
  const Graph g = gnp_connected(25, 0.15, rng);
  const auto layers = bfs_layers(g, 0);
  std::set<NodeId> seen;
  const auto dist = bfs_distances(g, 0);
  for (std::size_t d = 0; d < layers.size(); ++d) {
    for (const NodeId v : layers[d]) {
      EXPECT_TRUE(seen.insert(v).second);
      EXPECT_EQ(dist[v], d);
    }
  }
  EXPECT_EQ(seen.size(), g.node_count());
}

// --- Square coloring --------------------------------------------------------

class SquareColoringTest : public ::testing::TestWithParam<int> {};

TEST_P(SquareColoringTest, ProperAtDistanceTwo) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = gnp_connected(40, 0.1 + 0.02 * GetParam(), rng);
  const auto c = square_coloring(g);
  EXPECT_TRUE(is_square_proper(g, c));
  const std::uint64_t delta = g.max_degree();
  EXPECT_LE(c.count, delta * delta + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SquareColoringTest, ::testing::Range(0, 8));

TEST(SquareColoring, StarNeedsNColors) {
  // All leaves are at distance 2 through the centre.
  const auto c = square_coloring(star(7));
  EXPECT_EQ(c.count, 7u);
  EXPECT_TRUE(is_square_proper(star(7), c));
}

TEST(SquareColoring, PathNeedsThreeColors) {
  const auto c = square_coloring(path(10));
  EXPECT_EQ(c.count, 3u);
}

TEST(SquareColoring, ImproperColoringDetected) {
  Coloring c;
  c.color = {0, 0, 1};  // adjacent nodes 0,1 share a color
  c.count = 2;
  EXPECT_FALSE(is_square_proper(path(3), c));
}

// --- IO ----------------------------------------------------------------------

TEST(Io, EdgeListRoundTrip) {
  Rng rng(17);
  const Graph g = gnp_connected(20, 0.2, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  ASSERT_EQ(h.node_count(), g.node_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const NodeId w : g.neighbors(v)) EXPECT_TRUE(h.has_edge(v, w));
  }
}

TEST(Io, ParsesCommentsAndHeader) {
  std::stringstream ss("# comment\nnodes 5\n0 1\n1 2 # trailing\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Io, DotContainsAllEdges) {
  const Graph g = cycle(4);
  const auto dot = to_dot(g, {}, 0);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("n3"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

// --- Enumeration -------------------------------------------------------------

TEST(Enumerate, CountsMatchOeisA001187) {
  // Connected labeled graphs: 1, 1, 4, 38, 728, 26704 for n = 1..6.
  EXPECT_EQ(connected_graph_count(1), 1u);
  EXPECT_EQ(connected_graph_count(2), 1u);
  EXPECT_EQ(connected_graph_count(3), 4u);
  EXPECT_EQ(connected_graph_count(4), 38u);
  EXPECT_EQ(connected_graph_count(5), 728u);
  EXPECT_EQ(connected_graph_count(6), 26704u);
}

TEST(Enumerate, AllVisitedGraphsAreConnected) {
  for_each_connected_graph(5, [](const Graph& g) {
    ASSERT_TRUE(is_connected(g));
    ASSERT_EQ(g.node_count(), 5u);
  });
}

}  // namespace
}  // namespace radiocast::graph
