// Tests for B_arb (§4): broadcast with the source unknown at labeling time.
// Every node must be able to act as the source — including the coordinator r
// and the ack anchor z — and all nodes must agree on a common completion
// round (the acknowledged variant of §4 step 3).
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "core/arb.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast::core {
namespace {

using graph::NodeId;
using runtime::run_scheme;

TEST(Arb, TwoNodesBothSources) {
  const auto g = graph::path(2);
  for (const NodeId src : {0u, 1u}) {
    const auto run = run_scheme("arb", g, src);
    EXPECT_TRUE(run.ok) << "source " << src;
    EXPECT_GE(run.T, 1u);
  }
}

TEST(Arb, EverySourceOnFigure1) {
  const auto g = graph::figure1();
  for (NodeId src = 0; src < g.node_count(); ++src) {
    const auto run = run_scheme("arb", g, src, {.mu = 4242});
    EXPECT_TRUE(run.ok) << "source " << src;
    EXPECT_NE(run.done_round, 0u) << "source " << src;
  }
}

TEST(Arb, CoordinatorAsSourceCornerCase) {
  Rng rng(61);
  for (int rep = 0; rep < 8; ++rep) {
    const auto g = graph::gnp_connected(12, 0.2, rng);
    const auto run = run_scheme("arb", g, /*source=*/0);
    EXPECT_TRUE(run.ok) << "rep " << rep;
  }
}

TEST(Arb, ZAsSourceCornerCase) {
  Rng rng(62);
  for (int rep = 0; rep < 8; ++rep) {
    const auto g = graph::gnp_connected(12, 0.2, rng);
    const auto labeling = label_arbitrary(g, 0);
    const auto run = run_scheme("arb", g, labeling.z);
    EXPECT_TRUE(run.ok) << "rep " << rep << " z=" << labeling.z;
  }
}

TEST(Arb, NonZeroCoordinatorWorks) {
  Rng rng(63);
  const auto g = graph::gnp_connected(15, 0.18, rng);
  const auto run = run_scheme("arb", g, 3, {.coordinator = 7});
  EXPECT_TRUE(run.ok);
  EXPECT_EQ(run.special, 7u);
}

TEST(Arb, TEqualsPhase1CompletionSpan) {
  // T = t_z = the last phase-1 informed round = 2ℓ-3 for the λ_ack stages
  // with source r.
  const auto g = graph::figure1();
  const auto labeling = label_arbitrary(g, 0);
  const auto run = run_scheme("arb", g, 5);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.T, 2ull * labeling.stages.ell - 3);
}

TEST(Arb, DoneRoundIsCommonAndAfterDelivery) {
  Rng rng(64);
  const auto g = graph::gnp_connected(14, 0.18, rng);
  const auto labeling = label_arbitrary(g, 0);
  sim::Engine engine(g, make_arb_protocols(labeling, /*source=*/5, 7));
  engine.run_until(
      [](const sim::Engine& e) {
        for (NodeId v = 0; v < e.graph().node_count(); ++v) {
          const auto& p = dynamic_cast<const ArbProtocol&>(e.protocol(v));
          if (!p.mu() || p.done_round() == 0) return false;
        }
        return true;
      },
      400);
  std::uint64_t done = 0, latest_delivery = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& p = dynamic_cast<const ArbProtocol&>(engine.protocol(v));
    ASSERT_TRUE(p.mu().has_value());
    EXPECT_EQ(*p.mu(), 7u);
    if (done == 0) done = p.done_round();
    EXPECT_EQ(p.done_round(), done) << "node " << v;
    latest_delivery = std::max(latest_delivery, engine.first_data_reception(v));
  }
  EXPECT_GE(done, latest_delivery);
}

TEST(Arb, PhasesAreTemporallyDisjoint) {
  // Phase tags on the wire must be non-decreasing over time: 1..1 2..2 3..3.
  const auto g = graph::figure1();
  const auto labeling = label_arbitrary(g, 0);
  sim::Engine engine(g, make_arb_protocols(labeling, 5, 7),
                     {sim::TraceLevel::kFull});
  engine.run_until(
      [](const sim::Engine& e) {
        for (NodeId v = 0; v < e.graph().node_count(); ++v) {
          const auto& p = dynamic_cast<const ArbProtocol&>(e.protocol(v));
          if (!p.mu() || p.done_round() == 0) return false;
        }
        return true;
      },
      400);
  std::uint8_t current = 1;
  for (const auto& rec : engine.trace().rounds()) {
    for (const auto& [v, msg] : rec.transmissions) {
      EXPECT_GE(msg.phase, current);
      EXPECT_LE(msg.phase, 3);
      current = std::max(current, msg.phase);
    }
  }
  EXPECT_EQ(current, 3);
}

TEST(Arb, AllSourcesAcrossFamilies) {
  const auto suite = analysis::quick_suite(14, 303);
  for (const auto& w : suite) {
    for (NodeId src = 0; src < w.graph.node_count(); src += 3) {
      const auto run = run_scheme("arb", w.graph, src);
      EXPECT_TRUE(run.ok) << w.family << " source " << src;
    }
  }
}

class ArbFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ArbFuzz, RandomGraphsEverySource) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const auto g = graph::gnp_connected(10, 0.25, rng);
  for (NodeId src = 0; src < g.node_count(); ++src) {
    const auto run = run_scheme("arb", g, src);
    ASSERT_TRUE(run.ok) << "seed " << GetParam() << " source " << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArbFuzz, ::testing::Range(0, 10));

TEST(Arb, RequiresTwoNodes) {
  EXPECT_THROW(run_scheme("arb", graph::path(1), 0), ContractViolation);
}

TEST(Arb, MuPropagatesVerbatim) {
  Rng rng(65);
  const auto g = graph::gnp_connected(12, 0.2, rng);
  const auto run = run_scheme("arb", g, 4, {.mu = 0xFEEDu});
  EXPECT_TRUE(run.ok);
}

}  // namespace
}  // namespace radiocast::core
