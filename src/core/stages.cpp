#include "core/stages.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "graph/node_bitset.hpp"

namespace radiocast::core {

const char* to_string(DomPolicy p) {
  switch (p) {
    case DomPolicy::kAscendingId: return "ascending-id";
    case DomPolicy::kDescendingId: return "descending-id";
    case DomPolicy::kPreferDropOld: return "prefer-drop-old";
    case DomPolicy::kPreferDropNew: return "prefer-drop-new";
    case DomPolicy::kRandom: return "random";
    case DomPolicy::kGreedyCover: return "greedy-cover";
    case DomPolicy::kMaxFresh: return "max-fresh";
  }
  return "?";
}

bool StageSets::in_any_dom(NodeId v) const {
  if (!dom_member.empty()) return dom_member[v] != 0;
  for (const auto& d : dom) {
    if (std::binary_search(d.begin(), d.end(), v)) return true;
  }
  return false;
}

namespace {

/// Writes the removal-pass order of the candidates DOM_{i-1} ∪ NEW_{i-1}
/// to `out`.  Both levels are sorted and disjoint, so every policy's order
/// is a concatenation or a merge (reversed or shuffled) of them.
void order_candidates(const std::vector<NodeId>& veterans,
                      const std::vector<NodeId>& fresh, DomPolicy policy,
                      Rng& rng, std::vector<NodeId>& out) {
  out.clear();
  const auto append = [&out](const std::vector<NodeId>& level) {
    out.insert(out.end(), level.begin(), level.end());
  };
  if (policy == DomPolicy::kPreferDropOld) {
    // Veterans first in the removal order => they are removed when possible.
    append(veterans);
    append(fresh);
    return;
  }
  if (policy == DomPolicy::kPreferDropNew) {
    append(fresh);
    append(veterans);
    return;
  }
  std::merge(veterans.begin(), veterans.end(), fresh.begin(), fresh.end(),
             std::back_inserter(out));
  if (policy == DomPolicy::kDescendingId) std::reverse(out.begin(), out.end());
  if (policy == DomPolicy::kRandom) rng.shuffle(out);
}

/// Fills StageSets::dom_member from the finished DOM levels.
void finalize_dom_member(StageSets& s, std::uint32_t n) {
  s.dom_member.assign(n, 0);
  for (const auto& d : s.dom) {
    for (const NodeId v : d) s.dom_member[v] = 1;
  }
}

}  // namespace

StageSets build_stage_sets(const Graph& g, NodeId source, DomPolicy policy,
                           std::uint64_t seed) {
  const std::uint32_t n = g.node_count();
  RC_EXPECTS(source < n);

  StageSets out;
  out.source = source;
  out.stage_of.assign(n, 0);
  Rng rng(seed ^ 0x7261646f63617374ULL);

  std::vector<bool> informed(n, false);
  informed[source] = true;
  std::uint32_t informed_count = 1;

  // Stage 1 is fixed by the construction.
  std::vector<NodeId> new_prev(g.neighbors(source).begin(),
                               g.neighbors(source).end());
  std::vector<NodeId> dom_prev{source};
  out.dom.push_back(dom_prev);
  out.fresh.push_back(new_prev);
  out.frontier.push_back(new_prev);
  for (const NodeId v : new_prev) {
    informed[v] = true;
    out.stage_of[v] = 1;
    ++informed_count;
  }
  if (informed_count == n) {
    out.ell = (n == 1) ? 1 : 2;
    if (n == 1) {
      // Single vertex: INF_1 = V already; no stages exist.
      out.dom.clear();
      out.fresh.clear();
      out.frontier.clear();
    }
    finalize_dom_member(out, n);
    return out;
  }

  // cover / kept are stage scratch indexed by vertex.
  std::vector<std::uint32_t> cover(n, 0);
  std::vector<bool> kept(n, false);
  // cand_stamp[v] == stage marks v as a candidate this stage (no resets).
  std::vector<std::uint32_t> cand_stamp(n, 0);

  // FRONTIER_{i+1} = (FRONTIER_i \ NEW_i) ∪ (Γ(NEW_i) ∩ UNINF), marked in
  // `in_frontier` and read back ascending.  FRONTIER_1 = NEW_1 = Γ(s) is
  // all informed, so FRONTIER_2 = Γ(NEW_1) ∩ UNINF.
  graph::NodeBitset in_frontier(n);
  std::vector<NodeId> frontier;
  const auto advance_frontier = [&](const std::vector<NodeId>& fresh) {
    for (const NodeId v : frontier) {
      if (!informed[v]) in_frontier.insert(v);
    }
    for (const NodeId v : fresh) {
      for (const NodeId w : g.neighbors(v)) {
        if (!informed[w]) in_frontier.insert(w);
      }
    }
    in_frontier.members(frontier);
  };
  advance_frontier(new_prev);

  for (std::uint32_t stage = 2;; ++stage) {
    RC_ASSERT_MSG(stage <= n, "Lemma 2.6 violated: more than n stages");
    out.frontier.push_back(frontier);
    RC_ASSERT_MSG(!frontier.empty(),
                  "connected graph must have a nonempty frontier");

    // Candidates = DOM_{stage-1} ∪ NEW_{stage-1} (disjoint by construction).
    std::vector<NodeId> cand;
    cand.reserve(dom_prev.size() + new_prev.size());
    cand.insert(cand.end(), dom_prev.begin(), dom_prev.end());
    cand.insert(cand.end(), new_prev.begin(), new_prev.end());
    for (const NodeId v : cand) cand_stamp[v] = stage;

    // Cover counts over the frontier (cover[y] = |Γ(y) ∩ cand|); Lemma 2.5:
    // every frontier node is dominated by some candidate.
    for (const NodeId y : frontier) {
      std::uint32_t c = 0;
      for (const NodeId w : g.neighbors(y)) {
        c += cand_stamp[w] == stage ? 1u : 0u;
      }
      RC_ASSERT_MSG(c >= 1, "Lemma 2.5 violated: undominated frontier node");
      cover[y] = c;
    }

    std::vector<NodeId> dom_cur;
    // Minimalization pass in ascending id order.  Precondition: cover[y]
    // holds the selection's dominator count for every frontier y.
    auto minimalize_ascending = [&](std::vector<NodeId> selection) {
      std::sort(selection.begin(), selection.end());
      std::vector<NodeId> minimal;
      for (const NodeId v : selection) {
        bool removable = true;
        for (const NodeId w : g.neighbors(v)) {
          if (in_frontier.contains(w) && cover[w] < 2) {
            removable = false;
            break;
          }
        }
        if (removable) {
          for (const NodeId w : g.neighbors(v)) {
            if (in_frontier.contains(w)) --cover[w];
          }
        } else {
          minimal.push_back(v);
        }
      }
      return minimal;
    };

    if (policy == DomPolicy::kGreedyCover) {
      // Greedy max-coverage selection (first candidate of maximal gain in
      // candidate order), then a minimalization pass.
      std::vector<bool> covered(n, false);
      std::vector<NodeId> pool_nodes = cand;
      std::size_t uncovered_left = frontier.size();
      while (uncovered_left > 0) {
        NodeId best = graph::kNoNode;
        std::uint32_t best_gain = 0;
        for (const NodeId v : pool_nodes) {
          std::uint32_t gain = 0;
          for (const NodeId w : g.neighbors(v)) {
            if (in_frontier.contains(w) && !covered[w]) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best = v;
          }
        }
        RC_ASSERT(best != graph::kNoNode);
        dom_cur.push_back(best);
        for (const NodeId w : g.neighbors(best)) {
          if (in_frontier.contains(w) && !covered[w]) {
            covered[w] = true;
            --uncovered_left;
          }
        }
        std::erase(pool_nodes, best);
      }
      // Recompute cover w.r.t. the selection, then minimalize.
      for (const NodeId y : frontier) cover[y] = 0;
      for (const NodeId v : dom_cur) {
        for (const NodeId w : g.neighbors(v)) {
          if (in_frontier.contains(w)) ++cover[w];
        }
      }
      dom_cur = minimalize_ascending(std::move(dom_cur));
    } else if (policy == DomPolicy::kMaxFresh) {
      // Greedy |NEW_i| maximization: score = newly-covered − newly-collided
      // (frontier nodes whose dominator count rises from 1 to 2 stop being
      // uniquely dominated).  The set must still dominate everything, so
      // candidates with zero covering gain are skipped but coverage runs to
      // completion even at negative scores.  Ties go to the larger covering
      // gain, then to the earlier candidate.
      for (const NodeId y : frontier) cover[y] = 0;
      std::vector<bool> picked(n, false);
      std::size_t uncovered_left = frontier.size();
      while (uncovered_left > 0) {
        NodeId best = graph::kNoNode;
        std::int64_t best_score = std::numeric_limits<std::int64_t>::min();
        std::uint32_t best_gain = 0;
        for (const NodeId v : cand) {
          if (picked[v]) continue;
          std::uint32_t gain0 = 0, lose1 = 0;
          for (const NodeId w : g.neighbors(v)) {
            if (!in_frontier.contains(w)) continue;
            if (cover[w] == 0) {
              ++gain0;
            } else if (cover[w] == 1) {
              ++lose1;
            }
          }
          if (gain0 == 0) continue;  // no covering progress
          const auto score = static_cast<std::int64_t>(gain0) -
                             static_cast<std::int64_t>(lose1);
          if (score > best_score ||
              (score == best_score && gain0 > best_gain)) {
            best_score = score;
            best_gain = gain0;
            best = v;
          }
        }
        RC_ASSERT(best != graph::kNoNode);
        picked[best] = true;
        dom_cur.push_back(best);
        for (const NodeId w : g.neighbors(best)) {
          if (in_frontier.contains(w)) {
            if (cover[w] == 0) --uncovered_left;
            ++cover[w];
          }
        }
      }
      dom_cur = minimalize_ascending(std::move(dom_cur));
    } else {
      order_candidates(dom_prev, new_prev, policy, rng, cand);
      // One removal pass yields a minimal set: removability ("all my frontier
      // neighbours have >= 2 remaining dominators") is monotone — removals only
      // decrease cover counts, so a node that is kept can never become
      // removable later.
      for (const NodeId v : cand) kept[v] = false;
      for (const NodeId v : cand) {
        bool removable = true;
        for (const NodeId w : g.neighbors(v)) {
          if (in_frontier.contains(w) && cover[w] < 2) {
            removable = false;
            break;
          }
        }
        if (removable) {
          for (const NodeId w : g.neighbors(v)) {
            if (in_frontier.contains(w)) --cover[w];
          }
        } else {
          kept[v] = true;
        }
      }
      for (const NodeId v : cand) {
        if (kept[v]) dom_cur.push_back(v);
      }
      std::sort(dom_cur.begin(), dom_cur.end());
    }

    // NEW_stage = frontier nodes with exactly one DOM_stage neighbour.
    std::vector<NodeId> new_cur;
    for (const NodeId y : frontier) {
      if (cover[y] == 1) new_cur.push_back(y);
    }
    RC_ASSERT_MSG(!new_cur.empty(), "Lemma 2.4 violated: no progress");

    out.dom.push_back(dom_cur);
    out.fresh.push_back(new_cur);

    for (const NodeId v : new_cur) {
      informed[v] = true;
      out.stage_of[v] = stage;
      ++informed_count;
    }

    // Reset scratch for this stage's frontier.
    in_frontier.clear();
    for (const NodeId v : frontier) cover[v] = 0;

    if (informed_count == n) {
      out.ell = stage + 1;
      finalize_dom_member(out, n);
      return out;
    }

    advance_frontier(new_cur);
    dom_prev = std::move(dom_cur);
    new_prev = std::move(new_cur);
  }
}

std::string validate_stage_sets(const Graph& g, const StageSets& s) {
  const std::uint32_t n = g.node_count();
  auto fail = [](const std::string& msg) { return msg; };

  if (n == 1) {
    if (s.ell != 1 || !s.dom.empty()) {
      return fail("n=1 must have ell=1, no stages");
    }
    return {};
  }
  if (s.ell < 2 || s.dom.size() != s.ell - 1 || s.fresh.size() != s.ell - 1 ||
      s.frontier.size() != s.ell - 1) {
    return fail("stage vector sizes inconsistent with ell");
  }
  if (s.ell > n) return fail("Lemma 2.6 violated: ell > n");

  // Corollary 2.7: NEW_1..NEW_{ell-1} partition V \ {source}.
  std::vector<std::uint32_t> seen(n, 0);
  for (const auto& f : s.fresh) {
    for (const NodeId v : f) {
      if (v == s.source) return fail("source inside a NEW set");
      ++seen[v];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (v == s.source) {
      if (seen[v] != 0) return fail("source counted");
      continue;
    }
    if (seen[v] != 1) {
      return fail("NEW sets do not partition V \\ {s} (Cor 2.7)");
    }
  }

  // Per-stage structural checks.
  std::vector<bool> informed(n, false);
  informed[s.source] = true;
  for (std::size_t idx = 0; idx < s.dom.size(); ++idx) {
    const auto& frontier = s.frontier[idx];
    const auto& dom = s.dom[idx];
    const auto& fresh = s.fresh[idx];
    std::vector<bool> in_frontier(n, false);
    // FRONTIER = uninformed ∩ Γ(informed).
    for (const NodeId v : frontier) {
      if (informed[v]) return fail("frontier node already informed (Fact 2.1)");
      bool adj = false;
      for (const NodeId w : g.neighbors(v)) {
        if (informed[w]) adj = true;
      }
      if (!adj) return fail("frontier node has no informed neighbour");
      in_frontier[v] = true;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (!informed[v] && !in_frontier[v]) {
        for (const NodeId w : g.neighbors(v)) {
          if (informed[w]) {
            return fail(
                "uninformed node adjacent to informed missing from frontier");
          }
        }
      }
    }
    // DOM_i ⊆ DOM_{i-1} ∪ NEW_{i-1} (stage 1: {s}).
    for (const NodeId v : dom) {
      bool allowed;
      if (idx == 0) {
        allowed = (v == s.source);
      } else {
        allowed = std::binary_search(s.dom[idx - 1].begin(),
                                     s.dom[idx - 1].end(), v) ||
                  std::binary_search(s.fresh[idx - 1].begin(),
                                     s.fresh[idx - 1].end(), v);
      }
      if (!allowed) return fail("DOM_i not within DOM_{i-1} ∪ NEW_{i-1}");
    }
    // Domination, minimality, and NEW = exactly-one-dominator.
    std::vector<std::uint32_t> cover(n, 0);
    for (const NodeId v : dom) {
      for (const NodeId w : g.neighbors(v)) {
        if (in_frontier[w]) ++cover[w];
      }
    }
    for (const NodeId y : frontier) {
      if (cover[y] == 0) return fail("DOM_i does not dominate FRONTIER_i");
    }
    for (const NodeId v : dom) {
      bool has_private = false;
      for (const NodeId w : g.neighbors(v)) {
        if (in_frontier[w] && cover[w] == 1) has_private = true;
      }
      if (!has_private) return fail("DOM_i not minimal: removable member");
    }
    std::vector<NodeId> expect_fresh;
    for (const NodeId y : frontier) {
      if (cover[y] == 1) expect_fresh.push_back(y);
    }
    if (expect_fresh != fresh) {
      return fail("NEW_i mismatch with unique-dominator rule");
    }

    for (const NodeId v : fresh) informed[v] = true;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!informed[v]) return fail("INF_ell != V");
  }
  return {};
}

}  // namespace radiocast::core
