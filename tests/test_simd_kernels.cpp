// Differential tests for the vectorized bit kernels (sim/simd.hpp) and the
// post-hear re-arm hint path:
//  - every kernel at every host-available ISA must be bit-exact against the
//    scalar oracle on randomized word arrays, including unaligned lengths,
//    tail words, and misaligned (offset) pointers;
//  - the stage-set construction on a dense graph's bitmap must emit the
//    adjacency-list walk's sets exactly under every forced ISA and policy;
//  - engines constructed under each forced ISA must produce traces identical
//    to scalar-forced engines on every bit backend, with and without
//    collision detection;
//  - every registry scheme must be trace-equal across scan dispatch,
//    active-set with the post-hear hint, and active-set without it — and the
//    hint must strictly drop polls on dense instances.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/arb.hpp"
#include "core/labeling.hpp"
#include "core/stages.hpp"
#include "graph/bit_adjacency.hpp"
#include "graph/generators.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "sim/simd.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

namespace simd = sim::simd;
using graph::Graph;
using graph::NodeId;

/// Restores the process-wide ISA force on scope exit so a failing test
/// cannot leak a forced ISA into later tests.
struct IsaGuard {
  ~IsaGuard() { simd::force_isa(simd::Isa::kAuto); }
};

std::vector<simd::Isa> available_isas() {
  std::vector<simd::Isa> out = {simd::Isa::kScalar};
  if (simd::available(simd::Isa::kAvx2)) out.push_back(simd::Isa::kAvx2);
  if (simd::available(simd::Isa::kAvx512)) out.push_back(simd::Isa::kAvx512);
  return out;
}

// ---------------------------------------------------------------------------
// Name and dispatch plumbing

TEST(SimdDispatch, IsaNamesRoundTrip) {
  for (const auto isa : {simd::Isa::kAuto, simd::Isa::kScalar,
                         simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    const auto parsed = simd::parse_isa(simd::to_string(isa));
    ASSERT_TRUE(parsed.has_value()) << simd::to_string(isa);
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(simd::parse_isa("sse2").has_value());
  EXPECT_FALSE(simd::parse_isa("").has_value());
  EXPECT_FALSE(simd::parse_isa("AVX2").has_value());
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndBestIsAvailable) {
  EXPECT_TRUE(simd::available(simd::Isa::kScalar));
  EXPECT_TRUE(simd::available(simd::best_available()));
  EXPECT_NE(simd::best_available(), simd::Isa::kAuto);
}

TEST(SimdDispatch, ForceOverridesAndAutoRestores) {
  IsaGuard guard;
  simd::force_isa(simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_kernels().isa, simd::Isa::kScalar);
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    EXPECT_EQ(simd::active_isa(), isa);
    EXPECT_EQ(simd::kernels_for(simd::Isa::kAuto).isa, isa);
  }
  simd::force_isa(simd::Isa::kAuto);
  // Auto = a valid RADIOCAST_FORCE_ISA (the sanitizer CI jobs pin scalar),
  // else the best available.
  simd::Isa expected = simd::best_available();
  if (const char* raw = std::getenv("RADIOCAST_FORCE_ISA")) {
    const auto pinned = simd::parse_isa(raw);
    if (pinned && *pinned != simd::Isa::kAuto && simd::available(*pinned)) {
      expected = *pinned;
    }
  }
  EXPECT_EQ(simd::active_isa(), expected);
}

TEST(SimdDispatch, KernelTablesCarryTheirIsa) {
  for (const auto isa : available_isas()) {
    EXPECT_EQ(simd::kernels_for(isa).isa, isa) << simd::to_string(isa);
  }
}

// ---------------------------------------------------------------------------
// Kernel oracles: every vector kernel against the scalar reference on
// randomized arrays.  Offsets shift the working pointers off their
// allocation base so unaligned loads/stores are actually exercised (shard
// word windows start at arbitrary offsets).

std::vector<std::uint64_t> random_words(std::size_t count, Rng& rng) {
  std::vector<std::uint64_t> out(count);
  for (auto& w : out) w = rng.next();
  return out;
}

void run_kernel_oracle(simd::Isa isa, std::size_t words, std::size_t offset,
                       std::uint64_t seed) {
  const auto& vk = simd::kernels_for(isa);
  const auto& sk = simd::kernels_for(simd::Isa::kScalar);
  const std::string what = std::string(simd::to_string(isa)) + " words=" +
                           std::to_string(words) + " offset=" +
                           std::to_string(offset);
  Rng rng(seed);
  const std::size_t alloc = words + offset;
  const auto row0 = random_words(alloc, rng);
  const auto row1 = random_words(alloc, rng);
  // A sparse-ish tx mask so heard bits actually survive.
  auto tx = random_words(alloc, rng);
  for (auto& w : tx) w &= rng.next();

  std::vector<std::uint64_t> once_v(alloc, ~0ull), twice_v(alloc, ~0ull);
  std::vector<std::uint64_t> once_s(alloc, ~0ull), twice_s(alloc, ~0ull);
  std::vector<std::uint64_t> heard_v(alloc, 0), heard_s(alloc, 0);

  // accumulate_first must overwrite the (poisoned) accumulators.
  vk.accumulate_first(once_v.data() + offset, twice_v.data() + offset,
                      row0.data() + offset, words);
  sk.accumulate_first(once_s.data() + offset, twice_s.data() + offset,
                      row0.data() + offset, words);
  EXPECT_EQ(once_v, once_s) << what << " accumulate_first/once";
  EXPECT_EQ(twice_v, twice_s) << what << " accumulate_first/twice";

  // A second and third row drive bits through the once->twice saturation.
  const std::vector<std::uint64_t>* extra_rows[] = {&row1, &tx};
  for (const auto* row : extra_rows) {
    vk.accumulate(once_v.data() + offset, twice_v.data() + offset,
                  row->data() + offset, words);
    sk.accumulate(once_s.data() + offset, twice_s.data() + offset,
                  row->data() + offset, words);
  }
  EXPECT_EQ(once_v, once_s) << what << " accumulate/once";
  EXPECT_EQ(twice_v, twice_s) << what << " accumulate/twice";

  const auto any_v =
      vk.heard_sweep(heard_v.data() + offset, once_v.data() + offset,
                     twice_v.data() + offset, tx.data() + offset, words);
  const auto any_s =
      sk.heard_sweep(heard_s.data() + offset, once_s.data() + offset,
                     twice_s.data() + offset, tx.data() + offset, words);
  EXPECT_EQ(heard_v, heard_s) << what << " heard";
  EXPECT_EQ(any_v, any_s) << what << " heard any-flag";

  // Semantic check against a from-scratch reference (independent of the
  // scalar kernel implementation).
  std::uint64_t any_ref = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const auto expect = once_s[offset + w] & ~twice_s[offset + w] &
                        ~tx[offset + w];
    EXPECT_EQ(heard_v[offset + w], expect) << what << " word " << w;
    any_ref |= expect;
  }
  EXPECT_EQ(any_v, any_ref) << what;

  // and_popcount: the bits two arrays share, against a from-scratch count.
  const std::uint64_t* a = row0.data() + offset;
  const std::uint64_t* b = row1.data() + offset;
  std::uint64_t shared_ref = 0;
  for (std::size_t w = 0; w < words; ++w) {
    shared_ref += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  EXPECT_EQ(vk.and_popcount(a, b, words), shared_ref) << what << " shared";
  EXPECT_EQ(sk.and_popcount(a, b, words), shared_ref) << what << " scalar";
  EXPECT_EQ(vk.and_popcount(a, a, words), sk.and_popcount(a, a, words)) << what;
}

TEST(SimdKernels, AllIsasMatchScalarOracleAcrossLengthsAndOffsets) {
  std::uint64_t seed = 0x51D0;
  for (const auto isa : available_isas()) {
    for (std::size_t words = 1; words <= 67; ++words) {
      run_kernel_oracle(isa, words, 0, ++seed);
    }
    for (const std::size_t words : {127u, 128u, 1000u}) {
      for (const std::size_t offset : {0u, 1u, 3u, 7u}) {
        run_kernel_oracle(isa, words, offset, ++seed);
      }
    }
  }
}

TEST(SimdKernels, ZeroWordCallsAreNoOps) {
  for (const auto isa : available_isas()) {
    const auto& k = simd::kernels_for(isa);
    std::uint64_t sentinel = 0xABCD;
    k.accumulate_first(&sentinel, &sentinel, &sentinel, 0);
    k.accumulate(&sentinel, &sentinel, &sentinel, 0);
    EXPECT_EQ(k.heard_sweep(&sentinel, &sentinel, &sentinel, &sentinel, 0),
              0u);
    EXPECT_EQ(k.and_popcount(&sentinel, &sentinel, 0), 0u);
    EXPECT_EQ(sentinel, 0xABCDu) << simd::to_string(isa);
  }
}

// ---------------------------------------------------------------------------
// Forced-ISA stage-set differential: on a graph `graph::is_bit_dense`
// accepts, build_stage_sets counts dominators with `and_popcount` over the
// resident bitmap.  Under every ISA and every DomPolicy it must emit the
// list walk's sets exactly.  Rows end in a partial word except at n = 1024.

const char* const kDenseGraphs[] = {
    "gnp:300:0.3:1",    // 5 words per row
    "gnp:700:0.1:2",    // 11 words
    "gnp:1024:0.08:3",  // 16 words, no partial word
    "gnp:1500:0.05:4",  // 24 words
    "bipartite:40:61",  // 2 words, complete bipartite
};

void expect_sets_equal(const core::StageSets& a, const core::StageSets& b,
                       const std::string& what) {
  EXPECT_EQ(a.ell, b.ell) << what;
  EXPECT_EQ(a.source, b.source) << what;
  EXPECT_EQ(a.dom, b.dom) << what;
  EXPECT_EQ(a.fresh, b.fresh) << what;
  EXPECT_EQ(a.frontier, b.frontier) << what;
  EXPECT_EQ(a.stage_of, b.stage_of) << what;
  EXPECT_EQ(a.dom_member, b.dom_member) << what;
}

TEST(SimdStageSetsDifferential, BitmapPathMatchesListWalkUnderEveryIsa) {
  IsaGuard guard;
  for (const char* descriptor : kDenseGraphs) {
    const Graph g = graph::from_descriptor(descriptor);
    ASSERT_TRUE(graph::is_bit_dense(g)) << descriptor;
    const NodeId n = g.node_count();
    for (const NodeId source : {NodeId{0}, n / 2, n - 1}) {
      for (const core::DomPolicy p : core::kAllDomPolicies) {
        std::string base = descriptor;
        base += " src " + std::to_string(source) + " " + core::to_string(p);
        const auto walk = core::detail::build_stage_sets_list(g, source, p, 9);
        ASSERT_EQ(core::validate_stage_sets(g, walk), "") << base;
        for (const auto isa : available_isas()) {
          simd::force_isa(isa);
          const auto dense = core::build_stage_sets(g, source, p, 9);
          expect_sets_equal(dense, walk, base + " @ " + simd::to_string(isa));
        }
        simd::force_isa(simd::Isa::kAuto);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Forced-ISA engine differentials: backends capture the kernel table at
// construction, so engines built under different forced ISAs must still be
// bit-exact — same traces, counters, and receptions.

/// Deterministic pseudo-random talker (same scheme as the backend
/// differential suite): transmits iff a hash of (seed, id, round) fires, so
/// independent engine instances make identical decisions.
class HashTalker final : public sim::Protocol {
 public:
  HashTalker(std::uint64_t seed, std::uint32_t id, std::uint32_t period)
      : seed_(seed), id_(id), period_(period) {}

  std::optional<sim::Message> on_round() override {
    ++round_;
    std::uint64_t h = seed_ ^ (std::uint64_t{id_} * 0x9e3779b97f4a7c15ull) ^
                      (round_ * 0xbf58476d1ce4e5b9ull);
    h ^= h >> 31;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 29;
    if (h % period_ != 0) return std::nullopt;
    return sim::Message{sim::MsgKind::kData, 0, id_, std::nullopt};
  }
  void on_hear(const sim::Message& m) override {
    heard_hash_ = heard_hash_ * 1099511628211ull ^ round_ ^ m.payload;
  }
  void on_collision() override { ++collisions_; }
  bool informed() const override { return heard_hash_ != 0; }

  std::uint64_t heard_hash() const { return heard_hash_; }
  std::uint64_t collisions() const { return collisions_; }

 private:
  std::uint64_t seed_;
  std::uint32_t id_;
  std::uint32_t period_;
  std::uint64_t round_ = 0;
  std::uint64_t heard_hash_ = 0;
  std::uint64_t collisions_ = 0;
};

std::vector<std::unique_ptr<sim::Protocol>> hash_talkers(std::uint32_t n,
                                                         std::uint64_t seed,
                                                         std::uint32_t period) {
  std::vector<std::unique_ptr<sim::Protocol>> out;
  out.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    out.push_back(std::make_unique<HashTalker>(seed, v, period));
  }
  return out;
}

void expect_engines_equal(const sim::Engine& a, const sim::Engine& b,
                          const std::string& what) {
  const auto n = a.graph().node_count();
  ASSERT_EQ(a.round(), b.round()) << what;
  EXPECT_EQ(a.transmissions_total(), b.transmissions_total()) << what;
  EXPECT_EQ(a.informed_count(), b.informed_count()) << what;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(a.first_data_reception(v), b.first_data_reception(v))
        << what << " node " << v;
    EXPECT_EQ(a.tx_count(v), b.tx_count(v)) << what << " node " << v;
    EXPECT_EQ(a.rx_count(v), b.rx_count(v)) << what << " node " << v;
  }
  const auto& ta = a.trace().rounds();
  const auto& tb = b.trace().rounds();
  ASSERT_EQ(ta.size(), tb.size()) << what;
  for (std::size_t r = 0; r < ta.size(); ++r) {
    EXPECT_EQ(ta[r].transmissions, tb[r].transmissions) << what << " r" << r;
    EXPECT_EQ(ta[r].deliveries, tb[r].deliveries) << what << " r" << r;
    EXPECT_EQ(ta[r].collisions, tb[r].collisions) << what << " r" << r;
  }
}

TEST(SimdEngineDifferential, ForcedIsasMatchScalarOnAllBitBackends) {
  IsaGuard guard;
  Rng graph_rng(0x51D1);
  // Word-boundary-straddling sizes stress the per-row tail handling; the
  // dense one makes every round touch many words.
  std::vector<Graph> graphs;
  graphs.push_back(graph::gnp_connected(61, 0.3, graph_rng));
  graphs.push_back(graph::gnp_connected(130, 0.15, graph_rng));
  graphs.push_back(graph::complete(97));

  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    for (const bool cd : {false, true}) {
      // Baseline: scalar-forced engine on the same backend.
      simd::force_isa(simd::Isa::kScalar);
      sim::EngineOptions base_opt;
      base_opt.trace = sim::TraceLevel::kFull;
      base_opt.collision_detection = cd;
      base_opt.backend = sim::BackendKind::kBit;
      sim::Engine base(g, hash_talkers(g.node_count(), 0xF00D + gi, 3),
                       base_opt);
      for (int r = 0; r < 32; ++r) base.step();

      for (const auto isa : available_isas()) {
        if (isa == simd::Isa::kScalar) continue;
        simd::force_isa(isa);
        sim::Engine vec(g, hash_talkers(g.node_count(), 0xF00D + gi, 3),
                        base_opt);
        for (int r = 0; r < 32; ++r) vec.step();
        const std::string what = std::string("bit/") + simd::to_string(isa) +
                                 " graph " + std::to_string(gi) +
                                 (cd ? " (cd)" : "");
        expect_engines_equal(base, vec, what);
        for (NodeId v = 0; v < g.node_count(); ++v) {
          const auto& pb = dynamic_cast<const HashTalker&>(base.protocol(v));
          const auto& pv = dynamic_cast<const HashTalker&>(vec.protocol(v));
          EXPECT_EQ(pb.heard_hash(), pv.heard_hash()) << what << " " << v;
          EXPECT_EQ(pb.collisions(), pv.collisions()) << what << " " << v;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Post-hear hint: every registry scheme must be trace-equal across scan,
// active-set with the hint (default), and active-set without it; the hint
// must never poll more, and on dense instances it must poll strictly less.

struct SchemeCase {
  std::string name;
  std::function<std::vector<std::unique_ptr<sim::Protocol>>()> make;
  std::function<bool(const sim::Engine&)> stop;
};

std::vector<SchemeCase> scheme_cases(const Graph& g, NodeId source) {
  std::vector<SchemeCase> out;
  {
    const auto labeling = core::label_broadcast(g, source);
    out.push_back({"B",
                   [labeling] {
                     return core::make_broadcast_protocols(labeling, 42);
                   },
                   [](const sim::Engine& e) { return e.all_informed(); }});
  }
  {
    const auto labeling = core::label_acknowledged(g, source);
    out.push_back(
        {"B_ack",
         [labeling] { return core::make_ack_protocols(labeling, 7); },
         [](const sim::Engine& e) { return e.all_informed(); }});
    out.push_back({"CommonRound",
                   [labeling] {
                     return core::make_common_round_protocols(labeling, 7);
                   },
                   [](const sim::Engine& e) { return e.all_informed(); }});
  }
  {
    const auto labeling = core::label_arbitrary(g, /*coordinator=*/0);
    out.push_back({"B_arb",
                   [labeling, source] {
                     return core::make_arb_protocols(labeling, source, 99);
                   },
                   [](const sim::Engine& e) { return e.all_informed(); }});
  }
  return out;
}

sim::EngineOptions hint_opts(sim::DispatchKind dispatch, bool hint,
                             bool cd = false) {
  sim::EngineOptions o;
  o.trace = sim::TraceLevel::kFull;
  o.collision_detection = cd;
  o.dispatch = dispatch;
  o.post_hear_hint = hint;
  return o;
}

TEST(PostHearHint, SchemesTraceEqualAcrossScanAndHintModes) {
  Rng rng(0x9057);
  std::vector<Graph> graphs;
  graphs.push_back(graph::path(24));
  graphs.push_back(graph::gnp_connected(40, 0.2, rng));
  graphs.push_back(graph::complete(33));
  graphs.push_back(graph::gnp_connected(65, 0.5, rng));

  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const NodeId source = static_cast<NodeId>((7 * gi + 1) % g.node_count());
    for (auto& c : scheme_cases(g, source)) {
      const auto budget = 20ull * g.node_count() + 64;
      sim::Engine scan(g, c.make(),
                       hint_opts(sim::DispatchKind::kScan, true));
      sim::Engine hint_on(g, c.make(),
                          hint_opts(sim::DispatchKind::kActiveSet, true));
      sim::Engine hint_off(g, c.make(),
                           hint_opts(sim::DispatchKind::kActiveSet, false));
      scan.run_until(c.stop, budget);
      hint_on.run_until(c.stop, budget);
      hint_off.run_until(c.stop, budget);
      const std::string what =
          c.name + " graph " + std::to_string(gi) + " " + g.summary();
      expect_engines_equal(scan, hint_on, what + " (hint on)");
      expect_engines_equal(scan, hint_off, what + " (hint off)");
      // The hint can only remove polls, never add them.
      EXPECT_LE(hint_on.polls_total(), hint_off.polls_total()) << what;
      EXPECT_LE(hint_off.polls_total(), scan.polls_total()) << what;
    }
  }
}

TEST(PostHearHint, DenseInstancesPollStrictlyLess) {
  // B_arb on a clique with collision detection: the all-collide x1/x2
  // rounds make the blanket path re-arm every listener, so the hint must
  // show a strict poll drop (this is the effect the post_hear_rearm bench
  // family gates on wall time).
  const Graph g = graph::complete(96);
  const auto labeling = core::label_arbitrary(g, 0);
  const auto make = [&] { return core::make_arb_protocols(labeling, 48, 5); };
  const auto stop = [](const sim::Engine& e) { return e.all_informed(); };

  sim::Engine hint_on(g, make(),
                      hint_opts(sim::DispatchKind::kActiveSet, true, true));
  sim::Engine hint_off(g, make(),
                       hint_opts(sim::DispatchKind::kActiveSet, false, true));
  hint_on.run_until(stop, 4096);
  hint_off.run_until(stop, 4096);
  ASSERT_EQ(hint_on.round(), hint_off.round());
  expect_engines_equal(hint_off, hint_on, "B_arb clique cd");
  EXPECT_LT(hint_on.polls_total(), hint_off.polls_total());
}

TEST(PostHearHint, HintlessProtocolsKeepBlanketRearm) {
  // Protocols that do not opt in (HashTalker has no hint at all — always
  // active) are unaffected by the option: identical polls either way.
  Rng rng(0x9058);
  const Graph g = graph::gnp_connected(48, 0.2, rng);
  sim::Engine on(g, hash_talkers(g.node_count(), 0xCAFE, 3),
                 hint_opts(sim::DispatchKind::kActiveSet, true));
  sim::Engine off(g, hash_talkers(g.node_count(), 0xCAFE, 3),
                  hint_opts(sim::DispatchKind::kActiveSet, false));
  for (int r = 0; r < 24; ++r) {
    EXPECT_EQ(on.step(), off.step());
  }
  expect_engines_equal(on, off, "hint-less");
  EXPECT_EQ(on.polls_total(), off.polls_total());
}

}  // namespace
}  // namespace radiocast
