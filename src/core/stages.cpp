#include "core/stages.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <utility>

#include "graph/bit_adjacency.hpp"
#include "graph/node_bitset.hpp"
#include "sim/simd.hpp"

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

// The construction below is written once against a small set of
// frontier-relative primitives, implemented twice: `ListSets` walks
// adjacency lists, `BitSets` runs word loops over the graph's resident
// bitmap.  Both keep `cover[y]` for the current frontier's nodes only (no
// other entry is ever read), and both answer every query exactly, so the
// two emit byte-identical stage sets for every policy.

/// Stage-set primitives on adjacency lists: each query walks one vertex's
/// neighbours.  Sparse graphs take this path.
class ListSets {
 public:
  ListSets(const Graph& g, std::vector<std::uint32_t>& cover)
      : g_(g),
        cover_(cover),
        informed_(g.node_count(), false),
        in_frontier_(g.node_count()),
        stamp_(g.node_count(), 0) {}

  void inform(NodeId v) { informed_[v] = true; }

  /// Overwrites `frontier` (FRONTIER_i) with FRONTIER_{i+1} =
  /// (FRONTIER_i ∪ Γ(NEW_i)) \ INF, ascending; NEW_i is already informed.
  void advance_frontier(const std::vector<NodeId>& fresh,
                        std::vector<NodeId>& frontier) {
    in_frontier_.clear();
    for (const NodeId v : frontier) {
      if (!informed_[v]) in_frontier_.insert(v);
    }
    for (const NodeId v : fresh) {
      for (const NodeId w : g_.neighbors(v)) {
        if (!informed_[w]) in_frontier_.insert(w);
      }
    }
    in_frontier_.members(frontier);
  }

  /// cover[y] = |Γ(y) ∩ members| for every frontier node y.
  void count_cover(const std::vector<NodeId>& frontier,
                   const std::vector<NodeId>& members) {
    ++epoch_;
    for (const NodeId v : members) stamp_[v] = epoch_;
    for (const NodeId y : frontier) {
      std::uint32_t c = 0;
      for (const NodeId w : g_.neighbors(y)) c += stamp_[w] == epoch_ ? 1 : 0;
      cover_[y] = c;
    }
  }

  void start_removal(const std::vector<NodeId>&) {}

  /// Drops v from the dominating set iff each frontier neighbour keeps
  /// another dominator (cover >= 2), decrementing their counts.
  bool try_remove(NodeId v) {
    const auto nb = g_.neighbors(v);
    for (const NodeId w : nb) {
      if (in_frontier_.contains(w) && cover_[w] < 2) return false;
    }
    for (const NodeId w : nb) {
      if (in_frontier_.contains(w)) --cover_[w];
    }
    return true;
  }

  /// Zeroes the frontier's cover counts before a selection adds to them.
  void start_counting(const std::vector<NodeId>& frontier) {
    for (const NodeId y : frontier) cover_[y] = 0;
  }

  /// Frontier neighbours still at cover 0.
  std::uint32_t uncovered_gain(NodeId v) const {
    std::uint32_t gain = 0;
    for (const NodeId w : g_.neighbors(v)) {
      if (in_frontier_.contains(w) && cover_[w] == 0) ++gain;
    }
    return gain;
  }

  /// (frontier neighbours at cover 0, at cover 1); (0, 0) when v would
  /// cover nothing new.
  std::pair<std::uint32_t, std::uint32_t> fresh_gain(NodeId v) const {
    std::uint32_t gain0 = 0, lose1 = 0;
    for (const NodeId w : g_.neighbors(v)) {
      if (!in_frontier_.contains(w)) continue;
      if (cover_[w] == 0) {
        ++gain0;
      } else if (cover_[w] == 1) {
        ++lose1;
      }
    }
    if (gain0 == 0) return {0, 0};
    return {gain0, lose1};
  }

  /// Adds v to the selection's cover counts; returns how many of its
  /// frontier neighbours were at 0.
  std::uint32_t add_cover(NodeId v) {
    std::uint32_t newly = 0;
    for (const NodeId w : g_.neighbors(v)) {
      if (in_frontier_.contains(w) && cover_[w]++ == 0) ++newly;
    }
    return newly;
  }

 private:
  const Graph& g_;
  std::vector<std::uint32_t>& cover_;
  std::vector<bool> informed_;
  graph::NodeBitset in_frontier_;
  std::vector<std::uint32_t> stamp_;  ///< == epoch_: in count_cover's set
  std::uint32_t epoch_ = 0;
};

/// Stage-set primitives on the graph's resident adjacency bitmap: INF,
/// FRONTIER and each working set are word bitmaps, a count is one
/// `and_popcount` of a row against a set, and updates visit only the bits
/// of `row & frontier`.  Taken exactly where `graph::is_bit_dense` holds.
class BitSets {
 public:
  BitSets(const Graph& g, std::vector<std::uint32_t>& cover)
      : adj_(g.bit_adjacency()),
        words_(adj_.words_per_row()),
        and_popcount_(sim::simd::active_kernels().and_popcount),
        cover_(cover),
        informed_(words_, 0),
        frontier_(words_, 0),
        members_(words_, 0),
        fragile_(words_, 0),
        zero_(words_, 0),
        one_(words_, 0) {}

  void inform(NodeId v) { set(informed_, v); }

  void advance_frontier(const std::vector<NodeId>& fresh,
                        std::vector<NodeId>& frontier) {
    for (const NodeId v : fresh) {
      const std::uint64_t* r = row(v);
      for (std::size_t k = 0; k < words_; ++k) frontier_[k] |= r[k];
    }
    frontier.clear();
    for (std::size_t k = 0; k < words_; ++k) {
      frontier_[k] &= ~informed_[k];
      for_each_bit(k, frontier_[k], [&](NodeId v) { frontier.push_back(v); });
    }
  }

  void count_cover(const std::vector<NodeId>& frontier,
                   const std::vector<NodeId>& members) {
    for (const NodeId v : members) set(members_, v);
    for (const NodeId y : frontier) cover_[y] = count(y, members_);
    for (const NodeId v : members) members_[v >> 6] = 0;
  }

  /// fragile = frontier nodes that a removal must not leave undominated.
  void start_removal(const std::vector<NodeId>& frontier) {
    std::fill(fragile_.begin(), fragile_.end(), 0);
    for (const NodeId y : frontier) {
      if (cover_[y] < 2) set(fragile_, y);
    }
  }

  bool try_remove(NodeId v) {
    const std::uint64_t* r = row(v);
    for (std::size_t k = 0; k < words_; ++k) {
      if ((r[k] & fragile_[k]) != 0) return false;
    }
    for_each_frontier_bit(r, [&](NodeId w) {
      if (--cover_[w] < 2) set(fragile_, w);
    });
    return true;
  }

  /// `zero_` / `one_` hold the frontier nodes at cover 0 / cover 1.
  void start_counting(const std::vector<NodeId>& frontier) {
    for (const NodeId y : frontier) cover_[y] = 0;
    zero_ = frontier_;
    std::fill(one_.begin(), one_.end(), 0);
  }

  std::uint32_t uncovered_gain(NodeId v) const { return count(v, zero_); }

  std::pair<std::uint32_t, std::uint32_t> fresh_gain(NodeId v) const {
    const std::uint32_t gain0 = count(v, zero_);
    if (gain0 == 0) return {0, 0};
    return {gain0, count(v, one_)};
  }

  std::uint32_t add_cover(NodeId v) {
    std::uint32_t newly = 0;
    for_each_frontier_bit(row(v), [&](NodeId w) {
      const std::uint32_t before = cover_[w]++;
      if (before == 0) {
        ++newly;
        reset(zero_, w);
        set(one_, w);
      } else if (before == 1) {
        reset(one_, w);
      }
    });
    return newly;
  }

 private:
  static void set(std::vector<std::uint64_t>& s, NodeId v) {
    s[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  static void reset(std::vector<std::uint64_t>& s, NodeId v) {
    s[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }

  const std::uint64_t* row(NodeId v) const { return adj_.row(v).data(); }

  /// |Γ(v) ∩ s|.
  std::uint32_t count(NodeId v, const std::vector<std::uint64_t>& s) const {
    return static_cast<std::uint32_t>(and_popcount_(row(v), s.data(), words_));
  }

  /// Calls f(v) for each node v whose bit is set in `bits`, word k of a
  /// set, ascending.
  template <typename F>
  static void for_each_bit(std::size_t k, std::uint64_t bits, F&& f) {
    for (; bits != 0; bits &= bits - 1) {
      f(static_cast<NodeId>(k * 64 + std::countr_zero(bits)));
    }
  }

  template <typename F>
  void for_each_frontier_bit(const std::uint64_t* r, F&& f) const {
    for (std::size_t k = 0; k < words_; ++k) {
      for_each_bit(k, r[k] & frontier_[k], f);
    }
  }

  const graph::BitAdjacency& adj_;
  std::size_t words_;
  decltype(sim::simd::Kernels::and_popcount) and_popcount_;
  std::vector<std::uint32_t>& cover_;
  std::vector<std::uint64_t> informed_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> members_;  ///< count_cover scratch, all-zero
  std::vector<std::uint64_t> fragile_;
  std::vector<std::uint64_t> zero_;
  std::vector<std::uint64_t> one_;
};

template <typename Sets>
StageSets build(const Graph& g, NodeId source, DomPolicy policy,
                std::uint64_t seed) {
  const std::uint32_t n = g.node_count();
  RC_EXPECTS(source < n);

  StageSets out;
  out.source = source;
  out.stage_of.assign(n, 0);
  Rng rng(seed ^ 0x7261646f63617374ULL);

  // Stage 1 is fixed by the construction.
  std::vector<NodeId> new_prev(g.neighbors(source).begin(),
                               g.neighbors(source).end());
  std::vector<NodeId> dom_prev{source};
  out.dom.push_back(dom_prev);
  out.fresh.push_back(new_prev);
  out.frontier.push_back(new_prev);
  for (const NodeId v : new_prev) out.stage_of[v] = 1;
  auto informed_count = static_cast<std::uint32_t>(1 + new_prev.size());
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

  std::vector<std::uint32_t> cover(n, 0);
  Sets sets(g, cover);
  sets.inform(source);
  for (const NodeId v : new_prev) sets.inform(v);
  // FRONTIER_1 = NEW_1 = Γ(s) is all informed, so FRONTIER_2 =
  // Γ(NEW_1) \ INF_2: advance from an empty frontier.
  std::vector<NodeId> frontier;
  sets.advance_frontier(new_prev, frontier);

  // One removal pass in `order` yields a minimal set: removability ("all my
  // frontier neighbours have >= 2 remaining dominators") is monotone —
  // removals only decrease cover counts, so a node that is kept can never
  // become removable later.  Precondition: cover[y] holds the dominator
  // count of `order` for every frontier y.  Returns the kept nodes sorted.
  const auto removal_pass = [&](const std::vector<NodeId>& order) {
    sets.start_removal(frontier);
    std::vector<NodeId> kept;
    for (const NodeId v : order) {
      if (!sets.try_remove(v)) kept.push_back(v);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  };

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

    // Cover counts over the frontier (cover[y] = |Γ(y) ∩ cand|); Lemma 2.5:
    // every frontier node is dominated by some candidate.
    sets.count_cover(frontier, cand);
    for (const NodeId y : frontier) {
      RC_ASSERT_MSG(cover[y] > 0, "Lemma 2.5 violated: undominated frontier");
    }

    std::vector<NodeId> dom_cur;
    if (policy == DomPolicy::kGreedyCover) {
      // Greedy max-coverage selection (first candidate of maximal gain in
      // candidate order), then a minimalization pass in ascending id order.
      // The cover counts track the selection, so the pass can start at
      // once.
      sets.start_counting(frontier);
      std::vector<NodeId> pool_nodes = cand;
      std::size_t uncovered_left = frontier.size();
      while (uncovered_left > 0) {
        NodeId best = graph::kNoNode;
        std::uint32_t best_gain = 0;
        for (const NodeId v : pool_nodes) {
          const std::uint32_t gain = sets.uncovered_gain(v);
          if (gain > best_gain) {
            best_gain = gain;
            best = v;
          }
        }
        RC_ASSERT(best != graph::kNoNode);
        dom_cur.push_back(best);
        uncovered_left -= sets.add_cover(best);
        std::erase(pool_nodes, best);
      }
      std::sort(dom_cur.begin(), dom_cur.end());
      dom_cur = removal_pass(dom_cur);
    } else if (policy == DomPolicy::kMaxFresh) {
      // Greedy |NEW_i| maximization: score = newly-covered − newly-collided
      // (frontier nodes whose dominator count rises from 1 to 2 stop being
      // uniquely dominated).  The set must still dominate everything, so
      // candidates with zero covering gain are skipped but coverage runs to
      // completion even at negative scores.  Ties go to the larger covering
      // gain, then to the earlier candidate.  Minimalized like greedy cover.
      sets.start_counting(frontier);
      std::vector<bool> picked(n, false);
      std::size_t uncovered_left = frontier.size();
      while (uncovered_left > 0) {
        NodeId best = graph::kNoNode;
        std::int64_t best_score = std::numeric_limits<std::int64_t>::min();
        std::uint32_t best_gain = 0;
        for (const NodeId v : cand) {
          if (picked[v]) continue;
          const auto [gain0, lose1] = sets.fresh_gain(v);
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
        uncovered_left -= sets.add_cover(best);
      }
      std::sort(dom_cur.begin(), dom_cur.end());
      dom_cur = removal_pass(dom_cur);
    } else {
      order_candidates(dom_prev, new_prev, policy, rng, cand);
      dom_cur = removal_pass(cand);
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
      sets.inform(v);
      out.stage_of[v] = stage;
      ++informed_count;
    }
    if (informed_count == n) {
      out.ell = stage + 1;
      finalize_dom_member(out, n);
      return out;
    }

    sets.advance_frontier(new_cur, frontier);
    dom_prev = std::move(dom_cur);
    new_prev = std::move(new_cur);
  }
}

}  // namespace

StageSets build_stage_sets(const Graph& g, NodeId source, DomPolicy policy,
                           std::uint64_t seed) {
  if (graph::is_bit_dense(g)) return build<BitSets>(g, source, policy, seed);
  return build<ListSets>(g, source, policy, seed);
}

namespace detail {

StageSets build_stage_sets_list(const Graph& g, NodeId source, DomPolicy policy,
                                std::uint64_t seed) {
  return build<ListSets>(g, source, policy, seed);
}

}  // namespace detail

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
