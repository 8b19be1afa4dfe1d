// Tests for Algorithm 2 (B_ack) and the §3 common-round wrapper:
// Theorem 3.9's windows, Lemma 3.5 (stamps equal true round numbers),
// Lemma 3.6 (lone transmitter after the broadcast), Observation 3.4, and the
// paper's off-by-one on ℓ = n graphs (documented in EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "core/protocols.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast::core {
namespace {

using graph::NodeId;
using runtime::run_scheme;

TEST(Ack, TwoNodeChain) {
  const auto run = run_scheme("ack", graph::path(2), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 1u);
  EXPECT_EQ(run.ack_round, 2u);
  EXPECT_EQ(run.special, 1u);
}

TEST(Ack, PathChainTiming) {
  // Path 0-1-2, source 0: informed by 3, z = 2 acks at 4, node 1 forwards at
  // 5, source hears at 5 (= 3ℓ-4 with ℓ=3).
  const auto run = run_scheme("ack", graph::path(3), 0);
  EXPECT_EQ(run.completion_round, 3u);
  EXPECT_EQ(run.ack_round, 5u);
}

TEST(Ack, Figure1AckArrives) {
  const auto run = run_scheme("ack", graph::figure1(), 0);
  EXPECT_TRUE(run.all_informed);
  EXPECT_EQ(run.completion_round, 7u);
  EXPECT_EQ(run.special, 12u);  // H
  // Corollary 3.8 window: [2ℓ-2, 3ℓ-4] = [8, 11] for ℓ = 5.
  EXPECT_GE(run.ack_round, 8u);
  EXPECT_LE(run.ack_round, 11u);
}

TEST(Ack, Corollary38WindowAcrossFamilies) {
  const auto suite = analysis::standard_suite(22, 5);
  for (const auto& w : suite) {
    const auto run = run_scheme("ack", w.graph, w.source);
    ASSERT_TRUE(run.all_informed) << w.family;
    ASSERT_NE(run.ack_round, 0u) << w.family;
    const std::uint64_t ell = run.ell;
    EXPECT_GE(run.ack_round, 2 * ell - 2) << w.family;
    EXPECT_LE(run.ack_round, 3 * ell - 4) << w.family;
    // Theorem 3.9 as corrected: t' ∈ [t+1, t+n-1].  The paper states t+n-2,
    // which fails exactly on ℓ = n graphs (see EXPERIMENTS.md).
    EXPECT_GE(run.ack_round, run.completion_round + 1) << w.family;
    EXPECT_LE(run.ack_round, run.completion_round + w.graph.node_count() - 1)
        << w.family;
  }
}

TEST(Ack, PaperWindowOffByOneOnPaths) {
  // ℓ = n on end-sourced paths: t' = t + n - 1 > t + n - 2.  This documents
  // the (benign) discrepancy in the stated Theorem 3.9 range.
  for (const std::uint32_t n : {2u, 3u, 6u, 12u}) {
    const auto run = run_scheme("ack", graph::path(n), 0);
    EXPECT_EQ(run.ell, n);
    EXPECT_EQ(run.ack_round, run.completion_round + n - 1) << "n=" << n;
  }
}

TEST(Ack, StampsEqualTrueRoundNumbers) {
  // Lemma 3.5: a message stamped t is transmitted exactly in global round t.
  Rng rng(51);
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::gnp_connected(16, 0.15, rng);
    const auto labeling = label_acknowledged(g, 0);
    sim::Engine engine(g, make_ack_protocols(labeling, 9),
                       {sim::TraceLevel::kFull});
    auto& src = dynamic_cast<AckBroadcastProtocol&>(engine.protocol(0));
    engine.run_until(
        [&src](const sim::Engine&) { return src.ack_round() != 0; },
                     128);
    ASSERT_NE(src.ack_round(), 0u);
    const auto& rounds = engine.trace().rounds();
    for (std::size_t t0 = 0; t0 < rounds.size(); ++t0) {
      for (const auto& [v, msg] : rounds[t0].transmissions) {
        if (msg.kind == sim::MsgKind::kData ||
            msg.kind == sim::MsgKind::kStay) {
          ASSERT_TRUE(msg.stamp.has_value());
          EXPECT_EQ(*msg.stamp, t0 + 1)
              << "node " << v << " kind " << sim::to_string(msg.kind);
        }
      }
    }
  }
}

TEST(Ack, LoneTransmitterAfterBroadcast) {
  // Lemma 3.6: after round 2ℓ-3, at most one node transmits per round.
  Rng rng(52);
  for (int rep = 0; rep < 10; ++rep) {
    const auto g = graph::gnp_connected(14, 0.2, rng);
    const auto labeling = label_acknowledged(g, 0);
    sim::Engine engine(g, make_ack_protocols(labeling, 9),
                       {sim::TraceLevel::kFull});
    auto& src = dynamic_cast<AckBroadcastProtocol&>(engine.protocol(0));
    engine.run_until(
        [&src](const sim::Engine&) { return src.ack_round() != 0; },
                     128);
    const std::uint64_t last_bcast = 2ull * labeling.stages.ell - 3;
    const auto& rounds = engine.trace().rounds();
    for (std::size_t t0 = last_bcast; t0 < rounds.size(); ++t0) {
      EXPECT_LE(rounds[t0].transmissions.size(), 1u) << "round " << t0 + 1;
    }
  }
}

TEST(Ack, FirstAckIsFromZ) {
  // Observation 3.4: the first ack is transmitted by z in round 2ℓ-2.
  const auto g = graph::figure1();
  const auto labeling = label_acknowledged(g, 0);
  sim::Engine engine(g, make_ack_protocols(labeling, 9),
                     {sim::TraceLevel::kFull});
  auto& src = dynamic_cast<AckBroadcastProtocol&>(engine.protocol(0));
  engine.run_until([&src](const sim::Engine&) { return src.ack_round() != 0; },
                   64);
  const std::uint64_t ack_start = 2ull * labeling.stages.ell - 2;  // 8
  bool found = false;
  const auto& rounds = engine.trace().rounds();
  for (std::size_t t0 = 0; t0 < rounds.size(); ++t0) {
    for (const auto& [v, msg] : rounds[t0].transmissions) {
      if (msg.kind == sim::MsgKind::kAck) {
        EXPECT_EQ(t0 + 1, ack_start);
        EXPECT_EQ(v, labeling.z);
        found = true;
        break;
      }
    }
    if (found) break;
  }
  EXPECT_TRUE(found);
}

TEST(Ack, AckChainDescendsInformedRounds) {
  // Lemma 3.7: consecutive ack stamps strictly decrease toward the source.
  const auto g = graph::path(6);
  const auto labeling = label_acknowledged(g, 0);
  sim::Engine engine(g, make_ack_protocols(labeling, 9),
                     {sim::TraceLevel::kFull});
  auto& src = dynamic_cast<AckBroadcastProtocol&>(engine.protocol(0));
  engine.run_until([&src](const sim::Engine&) { return src.ack_round() != 0; },
                   64);
  std::vector<std::uint64_t> ack_stamps;
  for (const auto& rec : engine.trace().rounds()) {
    for (const auto& [v, msg] : rec.transmissions) {
      if (msg.kind == sim::MsgKind::kAck) ack_stamps.push_back(*msg.stamp);
    }
  }
  ASSERT_GE(ack_stamps.size(), 2u);
  for (std::size_t i = 1; i < ack_stamps.size(); ++i) {
    EXPECT_LT(ack_stamps[i], ack_stamps[i - 1]);
  }
}

TEST(Ack, StampsStayLogarithmic) {
  // The O(log n) message-size claim: max stamp <= ack completion round <= 3n.
  const auto run = run_scheme("ack", graph::path(40), 0);
  EXPECT_LE(run.max_stamp, 3ull * 40);
  EXPECT_GE(run.max_stamp, run.completion_round);
}

TEST(Ack, AllSourcesFuzz) {
  Rng rng(53);
  const auto g = graph::gnp_connected(12, 0.2, rng);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto run = run_scheme("ack", g, s);
    ASSERT_TRUE(run.all_informed) << "source " << s;
    ASSERT_NE(run.ack_round, 0u) << "source " << s;
    EXPECT_GT(run.ack_round, run.completion_round);
  }
}

// --- Common-round wrapper
// -----------------------------------------------------

TEST(CommonRound, AllNodesAgreeOn2m) {
  const auto run = run_scheme("common-round", graph::figure1(), 0);
  EXPECT_TRUE(run.ok);
  // m = first ack round (9 on figure-1: z informed at 7, ack at 8, one hop to
  // B at 9?  m is measured, just check consistency).
  EXPECT_EQ(run.done_round, 2 * run.T);
  EXPECT_LT(run.last_learned, run.done_round);
}

TEST(CommonRound, HoldsAcrossFamilies) {
  const auto suite = analysis::quick_suite(20, 77);
  for (const auto& w : suite) {
    const auto run = run_scheme("common-round", w.graph, w.source);
    EXPECT_TRUE(run.ok) << w.family;
    EXPECT_LT(run.last_learned, run.done_round) << w.family;
  }
}

TEST(CommonRound, EveryNodeLearnsMBeforeRound2m) {
  Rng rng(54);
  for (int rep = 0; rep < 8; ++rep) {
    const auto g = graph::gnp_connected(15, 0.18, rng);
    const auto run = run_scheme("common-round", g, 0);
    ASSERT_TRUE(run.ok);
    EXPECT_LT(run.last_learned, 2 * run.T);
  }
}

TEST(CommonRound, RequiresTwoNodes) {
  EXPECT_THROW(run_scheme("common-round", graph::path(1), 0),
               ContractViolation);
}

}  // namespace
}  // namespace radiocast::core
