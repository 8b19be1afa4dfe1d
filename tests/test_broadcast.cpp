// Tests for algorithm B (Algorithm 1): Theorem 2.9's 2n-3 bound, the exact
// Lemma 2.8 trace characterization, and the Figure 1 execution.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/experiments.hpp"
#include "core/runner.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast::core {
namespace {

using graph::NodeId;

TEST(Broadcast, TrivialSingleNode) {
  const auto run = run_broadcast(graph::path(1), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 0u);
}

TEST(Broadcast, TwoNodesOneRound) {
  const auto run = run_broadcast(graph::path(2), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 1u);
  EXPECT_EQ(run.bound, 1u);
}

TEST(Broadcast, PathAchievesTheBoundExactly) {
  // Theorem 2.9 is tight on end-sourced paths: completion = 2n-3.
  for (const std::uint32_t n : {3u, 5u, 10u, 31u}) {
    const auto run = run_broadcast(graph::path(n), 0);
    EXPECT_TRUE(run.all_informed);
    EXPECT_EQ(run.completion_round, 2ull * n - 3) << "n=" << n;
  }
}

TEST(Broadcast, Figure1CompletesInRound7) {
  const auto run = run_broadcast(graph::figure1(), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 7u);
  EXPECT_EQ(run.ell, 5u);
}

TEST(Broadcast, Figure1TraceMatchesLemma28) {
  const auto g = graph::figure1();
  const auto labeling = label_broadcast(g, 0);
  sim::Engine engine(g, make_broadcast_protocols(labeling, 1),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 32);
  EXPECT_TRUE(verify_lemma_2_8(g, labeling, engine.trace()).empty());
  // Figure 1 transmit sets, exactly.
  const auto& t = engine.trace();
  using V = std::vector<std::uint64_t>;
  EXPECT_EQ(t.transmit_rounds(0), V{1});
  EXPECT_EQ(t.transmit_rounds(1), V{3});
  EXPECT_EQ(t.transmit_rounds(2), (V{3, 5}));
  EXPECT_EQ(t.transmit_rounds(3), (V{3, 5, 7}));
  EXPECT_EQ(t.transmit_rounds(4), V{5});
  EXPECT_EQ(t.transmit_rounds(5), (V{4, 5}));
  EXPECT_EQ(t.transmit_rounds(6), (V{4, 5}));
  EXPECT_EQ(t.transmit_rounds(7), V{6});
  for (NodeId v = 8; v < 13; ++v) EXPECT_TRUE(t.transmit_rounds(v).empty());
}

TEST(Broadcast, SourceNeverRetransmitsWithoutStay) {
  // Lemma 2.8 corollary: stage-1 designators never exist, so the source
  // transmits exactly once.
  Rng rng(41);
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::gnp_connected(20, 0.2, rng);
    const auto labeling = label_broadcast(g, 0);
    sim::Engine engine(g, make_broadcast_protocols(labeling, 1),
                       {sim::TraceLevel::kFull});
    engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                     100);
    EXPECT_EQ(engine.trace().transmit_rounds(0).size(), 1u);
  }
}

TEST(Broadcast, QuiescentAfterCompletion) {
  // Observation 3.3: nothing is transmitted after round 2ℓ-3.
  const auto g = graph::figure1();
  const auto labeling = label_broadcast(g, 0);
  sim::Engine engine(g, make_broadcast_protocols(labeling, 1));
  for (int i = 0; i < 30; ++i) engine.step();
  EXPECT_TRUE(engine.all_informed());
  EXPECT_GE(engine.silent_streak(), 23u);  // silent since round 7
}

TEST(Broadcast, MessageContentIsTheSourcePayload) {
  const auto g = graph::path(4);
  const auto labeling = label_broadcast(g, 0);
  sim::Engine engine(g, make_broadcast_protocols(labeling, 0xDEAD),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 32);
  for (const auto& rec : engine.trace().rounds()) {
    for (const auto& [v, msg] : rec.transmissions) {
      if (msg.kind == sim::MsgKind::kData) {
        EXPECT_EQ(msg.payload, 0xDEADu);
      }
    }
  }
}

TEST(Broadcast, UsesOnlyDataAndStayKinds) {
  const auto g = graph::figure1();
  const auto labeling = label_broadcast(g, 0);
  sim::Engine engine(g, make_broadcast_protocols(labeling, 1),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 32);
  for (const auto& rec : engine.trace().rounds()) {
    for (const auto& [v, msg] : rec.transmissions) {
      EXPECT_TRUE(msg.kind == sim::MsgKind::kData ||
                  msg.kind == sim::MsgKind::kStay);
      EXPECT_FALSE(msg.stamp.has_value());  // Algorithm 1 is unstamped
    }
  }
}

// --- Family × policy × source sweep: Theorem 2.9 + Lemma 2.8 everywhere -----

using SweepParam = std::tuple<int, DomPolicy>;

class BroadcastSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  static const std::vector<analysis::Workload>& suite() {
    static const auto s = analysis::standard_suite(26, 2024);
    return s;
  }
};

TEST_P(BroadcastSweep, InformsEveryoneWithinBoundAndMatchesLemma) {
  const auto& [idx, policy] = GetParam();
  if (static_cast<std::size_t>(idx) >= suite().size()) GTEST_SKIP();
  const auto& w = suite()[static_cast<std::size_t>(idx)];
  const auto labeling =
      label_broadcast(w.graph, w.source, {policy, 17});
  sim::Engine engine(w.graph, make_broadcast_protocols(labeling, 5),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                   4ull * w.graph.node_count() + 8);
  ASSERT_TRUE(engine.all_informed()) << w.family;
  // Theorem 2.9.
  EXPECT_LE(engine.last_first_data_reception(),
            2ull * w.graph.node_count() - 3)
      << w.family;
  // Completion round is exactly 2ℓ-3.
  EXPECT_EQ(engine.last_first_data_reception(), 2ull * labeling.stages.ell - 3)
      << w.family;
  // Lemma 2.8, per round.
  const auto verdict = verify_lemma_2_8(w.graph, labeling, engine.trace());
  EXPECT_TRUE(verdict.empty()) << w.family << ": " << verdict;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesXPolicies, BroadcastSweep,
    ::testing::Combine(::testing::Range(0, 19),
                       ::testing::ValuesIn(kAllDomPolicies)),
    [](const ::testing::TestParamInfo<SweepParam>& pinfo) {
      std::string name = "w";
      name += std::to_string(std::get<0>(pinfo.param));
      name += "_";
      name += std::to_string(static_cast<int>(std::get<1>(pinfo.param)));
      return name;
    });

// Random (graph, source) fuzz: every vertex as source on random topologies.
class BroadcastFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastFuzz, AllSourcesAllInformed) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const auto g = graph::gnp_connected(14, 0.18, rng);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto labeling = label_broadcast(g, s);
    sim::Engine engine(g, make_broadcast_protocols(labeling, 3),
                       {sim::TraceLevel::kFull});
    engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 64);
    ASSERT_TRUE(engine.all_informed()) << "source " << s;
    const auto verdict = verify_lemma_2_8(g, labeling, engine.trace());
    ASSERT_TRUE(verdict.empty()) << "source " << s << ": " << verdict;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastFuzz, ::testing::Range(0, 12));

TEST(Broadcast, LinearTimeScaling) {
  // §5: "Our algorithm works in time O(n)" — check the constant on paths
  // (exactly 2n-3) and that denser families finish much faster.
  const auto path_run = run_broadcast(graph::path(64), 0);
  EXPECT_EQ(path_run.completion_round, 125u);
  const auto grid_run = run_broadcast(graph::grid(8, 8), 0);
  EXPECT_LT(grid_run.completion_round, 125u);
  const auto star_run = run_broadcast(graph::star(64), 0);
  EXPECT_EQ(star_run.completion_round, 1u);
}

TEST(Broadcast, StayAndDataCountsReported) {
  RunOptions opt;
  opt.trace = sim::TraceLevel::kFull;
  const auto run = run_broadcast(graph::figure1(), 0, opt);
  // Figure 1: µ transmissions {1}+{3}+{3,5}+{3,5,7}+{5}+{5}x2 = 10; stays: 3.
  EXPECT_EQ(run.data_tx_count, 10u);
  EXPECT_EQ(run.stay_count, 3u);
}

}  // namespace
}  // namespace radiocast::core
