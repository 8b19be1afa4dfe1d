// Tests for the Lemma 2.8 trace verifier itself: it must accept exactly the
// executions the lemma describes and reject every perturbation — otherwise
// the hundreds of sweep tests that rely on it prove nothing.
#include <gtest/gtest.h>

#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast::core {
namespace {

using sim::Message;
using sim::MsgKind;
using sim::RoundRecord;
using sim::Trace;

/// Runs B on figure1 and returns (labeling, honest trace).
std::pair<Labeling, Trace> honest_run() {
  const auto g = graph::figure1();
  auto labeling = label_broadcast(g, 0);
  sim::Engine engine(g, make_broadcast_protocols(labeling, 1),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 32);
  return {std::move(labeling), engine.trace()};
}

Trace truncate(const Trace& t, std::size_t rounds) {
  Trace out;
  for (std::size_t i = 0; i < rounds && i < t.rounds().size(); ++i) {
    out.push(t.rounds()[i]);
  }
  return out;
}

TEST(Verifier, AcceptsHonestTrace) {
  const auto [labeling, trace] = honest_run();
  EXPECT_TRUE(verify_lemma_2_8(graph::figure1(), labeling, trace).empty());
}

TEST(Verifier, AcceptsTruncatedQuiescentTail) {
  // Rounds after completion are silent; verifying a prefix that still covers
  // all activity must pass.
  const auto [labeling, trace] = honest_run();
  const auto t7 = truncate(trace, 7);
  EXPECT_TRUE(verify_lemma_2_8(graph::figure1(), labeling, t7).empty());
}

TEST(Verifier, RejectsExtraTransmitter) {
  const auto [labeling, trace] = honest_run();
  Trace bad = truncate(trace, 7);
  // Inject a rogue µ transmission in round 3 by node 4 (D ∉ DOM_2).
  Trace tampered;
  for (std::size_t i = 0; i < bad.rounds().size(); ++i) {
    RoundRecord r = bad.rounds()[i];
    if (i == 2) {
      r.transmissions.emplace_back(
          4u, Message{MsgKind::kData, 0, 1, std::nullopt});
      std::sort(r.transmissions.begin(), r.transmissions.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    tampered.push(r);
  }
  const auto verdict = verify_lemma_2_8(graph::figure1(), labeling, tampered);
  EXPECT_NE(verdict.find("DOM"), std::string::npos) << verdict;
}

TEST(Verifier, RejectsMissingTransmitter) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 2) r.transmissions.pop_back();  // drop one DOM_2 member
    tampered.push(r);
  }
  EXPECT_FALSE(verify_lemma_2_8(graph::figure1(), labeling, tampered).empty());
}

TEST(Verifier, RejectsStayInOddRound) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 4) {
      r.transmissions.emplace_back(
          12u, Message{MsgKind::kStay, 0, 0, std::nullopt});
    }
    tampered.push(r);
  }
  EXPECT_FALSE(verify_lemma_2_8(graph::figure1(), labeling, tampered).empty());
}

TEST(Verifier, RejectsForgedFirstReception) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 2) {
      // Node 12 (H ∈ NEW_4) pretending to be informed in round 3.
      r.deliveries.emplace_back(
          12u, Message{MsgKind::kData, 0, 1, std::nullopt});
    }
    tampered.push(r);
  }
  const auto verdict = verify_lemma_2_8(graph::figure1(), labeling, tampered);
  EXPECT_NE(verdict.find("NEW"), std::string::npos) << verdict;
}

TEST(Verifier, RejectsActivityAfterCompletion) {
  const auto [labeling, trace] = honest_run();
  Trace tampered = truncate(trace, 8);
  RoundRecord late;  // round 9: a µ transmission after 2ℓ-3 = 7
  late.transmissions.emplace_back(
      3u, Message{MsgKind::kData, 0, 1, std::nullopt});
  tampered.push(late);
  EXPECT_FALSE(verify_lemma_2_8(graph::figure1(), labeling, tampered).empty());
}

TEST(Verifier, RejectsWrongStaySender) {
  const auto [labeling, trace] = honest_run();
  Trace tampered;
  for (std::size_t i = 0; i < 7; ++i) {
    RoundRecord r = trace.rounds()[i];
    if (i == 3) {
      // Round 4's stays are {E, F}; replace F (6) with D (4, x2 = 0).
      for (auto& [v, msg] : r.transmissions) {
        if (v == 6) v = 4;
      }
    }
    tampered.push(r);
  }
  const auto verdict = verify_lemma_2_8(graph::figure1(), labeling, tampered);
  EXPECT_NE(verdict.find("stay"), std::string::npos) << verdict;
}

TEST(Verifier, SingleNodeGraphTriviallyValid) {
  const auto g = graph::path(1);
  const auto labeling = label_broadcast(g, 0);
  Trace empty;
  EXPECT_TRUE(verify_lemma_2_8(g, labeling, empty).empty());
}

TEST(Verifier, AgreesWithHonestRunsOnRandomGraphs) {
  Rng rng(777);
  for (int rep = 0; rep < 15; ++rep) {
    const auto g = graph::gnp_connected(15, 0.2, rng);
    const auto labeling = label_broadcast(g, 0);
    sim::Engine engine(g, make_broadcast_protocols(labeling, 2),
                       {sim::TraceLevel::kFull});
    engine.run_until([](const sim::Engine& e) { return e.all_informed(); }, 64);
    EXPECT_TRUE(verify_lemma_2_8(g, labeling, engine.trace()).empty());
  }
}

}  // namespace
}  // namespace radiocast::core
