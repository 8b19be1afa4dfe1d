/// \file labeling.hpp
/// \brief The paper's labeling schemes: λ (2 bits), λ_ack (3 bits, 5 values),
///        λ_arb (3 bits, 6 values).
///
/// Labeling is the centralized half of the system: it sees the whole graph,
/// runs the stage construction of §2.1, and compresses its outcome into 2-3
/// bits per node.  The universal algorithms (protocols.hpp) never see anything
/// else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stages.hpp"
#include "graph/graph.hpp"

namespace radiocast::core {

/// A node label.  λ uses x1 x2; λ_ack and λ_arb add x3.
///  - x1: "transmit µ two rounds after first receiving it" (DOM membership)
///  - x2: "transmit 'stay' one round after first receiving µ" (designator)
///  - x3: λ_ack's unique last-informed node z / λ_arb's coordinator marker
struct Label {
  bool x1 = false;
  bool x2 = false;
  bool x3 = false;

  friend bool operator==(const Label&, const Label&) = default;

  /// "x1 x2 [x3]" as a bit string, e.g. "10" or "101".
  std::string to_string(int bits = 2) const;

  /// Encodes to an integer 0..7 (x1 is the most significant bit).
  std::uint8_t value() const noexcept {
    return static_cast<std::uint8_t>((x1 ? 4 : 0) | (x2 ? 2 : 0) |
                                     (x3 ? 1 : 0));
  }
};

/// Output of a labeling scheme; keeps the stage sets for verification.
struct Labeling {
  std::vector<Label> labels;
  StageSets stages;
  NodeId source = graph::kNoNode;
  /// λ_ack only: the unique node with x3 = 1 (informed in the last round).
  NodeId z = graph::kNoNode;
};

struct LabelingOptions {
  DomPolicy policy = DomPolicy::kAscendingId;
  std::uint64_t seed = 0;
};

/// λ (paper §2.2): 2-bit labels for broadcast from a known source.
Labeling label_broadcast(const Graph& g, NodeId source,
                         const LabelingOptions& opt = {});

/// λ_ack (paper §3.1): λ plus x3 = 1 at one node informed in the last round.
/// By Fact 3.1 the labels 101, 111 and 011 are never assigned.
Labeling label_acknowledged(const Graph& g, NodeId source,
                            const LabelingOptions& opt = {});

/// λ_arb (paper §4.1): source unknown at labeling time.  The coordinator r is
/// labeled 111 (never produced by λ_ack) and the rest is λ_ack with source r.
struct ArbLabeling {
  std::vector<Label> labels;
  NodeId coordinator = graph::kNoNode;  ///< r, labeled 111
  NodeId z = graph::kNoNode;            ///< the node labeled 001
  StageSets stages;                     ///< stage sets w.r.t. source r
};

ArbLabeling label_arbitrary(const Graph& g, NodeId coordinator = 0,
                            const LabelingOptions& opt = {});

/// Histogram of label values (index = Label::value(), 0..7).
std::vector<std::uint32_t> label_histogram(const std::vector<Label>& labels);

}  // namespace radiocast::core
