/// \file coloring.hpp
/// \brief Greedy proper coloring of the square of a graph.
///
/// The paper's introduction observes that O(log Δ)-bit labels suffice for
/// broadcast "by using a proper colouring of the square of the graph": two
/// nodes within distance two never share a color, so same-color transmitters
/// can never collide at any listener.  This module provides that coloring; the
/// color-robin baseline protocol (src/baselines) consumes it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace radiocast::graph {

/// A vertex coloring together with the number of colors used.
struct Coloring {
  std::vector<std::uint32_t> color;  ///< per-vertex color in [0, count)
  std::uint32_t count = 0;           ///< number of distinct colors
};

/// Greedy coloring of G² (vertices adjacent iff at distance 1 or 2 in G) in
/// ascending id order.  Uses at most Δ² + 1 colors.
Coloring square_coloring(const Graph& g);

/// Verifies the distance-2 property: no two distinct vertices at distance
/// <= 2 share a color.  Returns true iff proper.
bool is_square_proper(const Graph& g, const Coloring& c);

}  // namespace radiocast::graph
