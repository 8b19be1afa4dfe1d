#include "core/labeling.hpp"

#include <utility>

namespace radiocast::core {

std::string Label::to_string(int bits) const {
  RC_EXPECTS(bits == 2 || bits == 3);
  std::string s;
  s += x1 ? '1' : '0';
  s += x2 ? '1' : '0';
  if (bits == 3) s += x3 ? '1' : '0';
  return s;
}

namespace {

/// Sets x2 = 1 at one NEW_i neighbour of every v ∈ DOM_{i+1} ∩ DOM_i
/// (the "stay" designators).  Existence: v ∈ DOM_i is minimal, so v has a
/// private frontier witness y (adjacent to no other DOM_i node), and y ∈ NEW_i.
/// Uniqueness of use: w ∈ NEW_i has exactly one DOM_i neighbour, so w can be
/// designated for at most one dominator, and two designators can never both be
/// adjacent to the same DOM_{i+1} node — which is what lets the algorithm
/// deliver every "stay" without collision (Lemma 2.8's proof).
void assign_designators(const Graph& g, const StageSets& s,
                        std::vector<Label>& labels) {
  // Every v ∈ DOM_{i+1} ∩ DOM_i, by two-pointer intersection of the sorted
  // levels, takes its lowest-id NEW_i neighbour (w ∈ NEW_i ⟺
  // stage_of[w] == i+1, Corollary 2.7).
  for (std::size_t i = 0; i + 1 < s.dom.size(); ++i) {
    const auto& dom_i = s.dom[i];
    const auto& dom_next = s.dom[i + 1];
    const auto fresh_stage = static_cast<std::uint32_t>(i + 1);
    std::size_t a = 0, b = 0;
    while (a < dom_next.size() && b < dom_i.size()) {
      if (dom_next[a] < dom_i[b]) {
        ++a;
      } else if (dom_i[b] < dom_next[a]) {
        ++b;
      } else {
        NodeId chosen = graph::kNoNode;
        for (const NodeId w : g.neighbors(dom_next[a])) {
          if (s.stage_of[w] == fresh_stage) {
            chosen = w;
            break;  // neighbours sorted: first hit is lowest id
          }
        }
        RC_ASSERT_MSG(chosen != graph::kNoNode,
                      "designator existence violated (private witness)");
        RC_ASSERT_MSG(!labels[chosen].x2,
                      "designator reused across dominators");
        labels[chosen].x2 = true;
        ++a;
        ++b;
      }
    }
  }
}

}  // namespace

Labeling label_broadcast(const Graph& g, NodeId source,
                         const LabelingOptions& opt) {
  Labeling out;
  out.source = source;
  out.stages = build_stage_sets(g, source, opt.policy, opt.seed);
  out.labels.assign(g.node_count(), Label{});
  for (const auto& dom : out.stages.dom) {
    for (const NodeId v : dom) out.labels[v].x1 = true;
  }
  assign_designators(g, out.stages, out.labels);
  return out;
}

Labeling label_acknowledged(const Graph& g, NodeId source,
                            const LabelingOptions& opt) {
  Labeling out = label_broadcast(g, source, opt);
  if (g.node_count() == 1) {
    // Degenerate: the source is the only node; no acknowledgement is needed,
    // but we still mark z = source so callers can detect the case.
    out.z = source;
    return out;
  }
  // z = lowest-id node informed in the last round (NEW_{ell-1}).
  RC_ASSERT(!out.stages.fresh.empty());
  const auto& last = out.stages.fresh.back();
  RC_ASSERT(!last.empty());
  out.z = last.front();
  // Fact 3.1: z never has x1 or x2 set (no DOM_i contains a node informed in
  // the final round, and no designators exist at the final stage).
  RC_ASSERT(!out.labels[out.z].x1 && !out.labels[out.z].x2);
  out.labels[out.z].x3 = true;
  return out;
}

ArbLabeling label_arbitrary(const Graph& g, NodeId coordinator,
                            const LabelingOptions& opt) {
  RC_EXPECTS(coordinator < g.node_count());
  Labeling ack = label_acknowledged(g, coordinator, opt);
  ArbLabeling out;
  out.coordinator = coordinator;
  out.z = ack.z;
  out.stages = std::move(ack.stages);
  out.labels = std::move(ack.labels);
  // The coordinator is marked 111 — a label λ_ack can never produce (Fact 3.1),
  // so it is recognizable by every node regardless of the actual source.
  out.labels[coordinator] = Label{true, true, true};
  return out;
}

std::vector<std::uint32_t> label_histogram(const std::vector<Label>& labels) {
  std::vector<std::uint32_t> hist(8, 0);
  for (const auto& l : labels) ++hist[l.value()];
  return hist;
}

}  // namespace radiocast::core
