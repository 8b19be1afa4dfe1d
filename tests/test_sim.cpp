// Tests for src/sim: the exact radio semantics of paper §1.1 — unique
// transmitter delivery, collision = silence, transmitters never hear — plus
// trace recording and engine bookkeeping.
#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "support/contracts.hpp"

namespace radiocast::sim {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;

/// Transmits Data(payload = own id) in a fixed set of rounds; records what it
/// hears.  `informed()` reports whether anything was ever heard.
class ScriptedProtocol final : public Protocol {
 public:
  explicit ScriptedProtocol(std::uint32_t id, std::set<std::uint64_t> tx_rounds)
      : id_(id), tx_rounds_(std::move(tx_rounds)) {}

  std::optional<Message> on_round() override {
    ++round_;
    if (tx_rounds_.contains(round_)) {
      return Message{MsgKind::kData, 0, id_, std::nullopt};
    }
    return std::nullopt;
  }

  void on_hear(const Message& m) override { heard_.emplace_back(round_, m); }
  bool informed() const override { return !heard_.empty(); }

  const std::vector<std::pair<std::uint64_t, Message>>& heard() const {
    return heard_;
  }

 private:
  std::uint32_t id_;
  std::set<std::uint64_t> tx_rounds_;
  std::uint64_t round_ = 0;
  std::vector<std::pair<std::uint64_t, Message>> heard_;
};

std::vector<std::unique_ptr<Protocol>> scripted(
    std::initializer_list<std::set<std::uint64_t>> scripts) {
  std::vector<std::unique_ptr<Protocol>> out;
  std::uint32_t id = 0;
  for (const auto& s : scripts) {
    out.push_back(std::make_unique<ScriptedProtocol>(id++, s));
  }
  return out;
}

const ScriptedProtocol& at(const Engine& e, NodeId v) {
  return dynamic_cast<const ScriptedProtocol&>(e.protocol(v));
}

TEST(Engine, UniqueTransmitterDeliversToAllNeighbours) {
  // Star: centre 0 transmits in round 1; every leaf hears exactly it.
  const Graph g = graph::star(5);
  Engine e(g, scripted({{1}, {}, {}, {}, {}}), {TraceLevel::kFull});
  e.step();
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    ASSERT_EQ(at(e, leaf).heard().size(), 1u);
    EXPECT_EQ(at(e, leaf).heard()[0].second.payload, 0u);
    EXPECT_EQ(at(e, leaf).heard()[0].first, 1u);
  }
  EXPECT_TRUE(at(e, 0).heard().empty());
}

TEST(Engine, TwoTransmittersCollideAtCommonListener) {
  // Path 0-1-2: 0 and 2 transmit simultaneously; 1 hears nothing.
  const Graph g = graph::path(3);
  Engine e(g, scripted({{1}, {}, {1}}), {TraceLevel::kFull});
  e.step();
  EXPECT_TRUE(at(e, 1).heard().empty());
  ASSERT_EQ(e.trace().rounds().size(), 1u);
  EXPECT_EQ(e.trace().rounds()[0].collisions, std::vector<NodeId>{1});
  EXPECT_TRUE(e.trace().rounds()[0].deliveries.empty());
}

TEST(Engine, TransmitterNeverHears) {
  // Edge 0-1, both transmit in round 1: neither hears.
  const Graph g = graph::path(2);
  Engine e(g, scripted({{1}, {1}}));
  e.step();
  EXPECT_TRUE(at(e, 0).heard().empty());
  EXPECT_TRUE(at(e, 1).heard().empty());
}

TEST(Engine, TransmitterMissesConcurrentNeighbourMessage) {
  // Path 0-1-2: 1 transmits while 0 transmits; 2 hears 1, but 1 misses 0.
  const Graph g = graph::path(3);
  Engine e(g, scripted({{1}, {1}, {}}));
  e.step();
  EXPECT_TRUE(at(e, 1).heard().empty());
  ASSERT_EQ(at(e, 2).heard().size(), 1u);
  EXPECT_EQ(at(e, 2).heard()[0].second.payload, 1u);
}

TEST(Engine, NonNeighbourTransmissionsDoNotInterfere) {
  // Path 0-1-2-3: 0 and 3 transmit; 1 hears 0, 2 hears 3 (no interference).
  const Graph g = graph::path(4);
  Engine e(g, scripted({{1}, {}, {}, {1}}));
  e.step();
  ASSERT_EQ(at(e, 1).heard().size(), 1u);
  EXPECT_EQ(at(e, 1).heard()[0].second.payload, 0u);
  ASSERT_EQ(at(e, 2).heard().size(), 1u);
  EXPECT_EQ(at(e, 2).heard()[0].second.payload, 3u);
}

TEST(Engine, CollisionIsIndistinguishableFromSilence) {
  // C4 with both source neighbours transmitting: the antipode's protocol
  // observes nothing at all — there is no collision-detection callback.
  const Graph g = graph::cycle(4);
  Engine e(g, scripted({{}, {1}, {}, {1}}), {TraceLevel::kFull});
  e.step();
  EXPECT_TRUE(at(e, 2).heard().empty());
  EXPECT_TRUE(at(e, 0).heard().empty());
  // The observer-side trace still knows it was a collision.
  const auto& collisions = e.trace().rounds()[0].collisions;
  EXPECT_EQ(collisions, (std::vector<NodeId>{0, 2}));
}

TEST(Engine, StepReturnsWhetherAnyoneTransmitted) {
  const Graph g = graph::path(2);
  Engine e(g, scripted({{2}, {}}));
  EXPECT_FALSE(e.step());
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.round(), 3u);
}

TEST(Engine, SilentStreakCounts) {
  const Graph g = graph::path(2);
  Engine e(g, scripted({{2}, {}}));
  e.step();
  EXPECT_EQ(e.silent_streak(), 1u);
  e.step();
  EXPECT_EQ(e.silent_streak(), 0u);
  e.step();
  e.step();
  EXPECT_EQ(e.silent_streak(), 2u);
}

TEST(Engine, FirstDataReceptionTracked) {
  const Graph g = graph::path(3);
  Engine e(g, scripted({{1, 3}, {}, {}}));
  e.step();
  e.step();
  e.step();
  EXPECT_EQ(e.first_data_reception(1), 1u);  // re-reception at 3 not counted
  EXPECT_EQ(e.first_data_reception(2), 0u);  // never heard
  EXPECT_EQ(e.last_first_data_reception(), 1u);
}

TEST(Engine, RunUntilStopsAtPredicate) {
  const Graph g = graph::path(2);
  Engine e(g, scripted({{5}, {}}));
  const auto r = e.run_until(
      [](const Engine& en) { return en.informed_count() == 1; }, 100);
  EXPECT_EQ(r, 5u);
  EXPECT_EQ(e.round(), 5u);
}

TEST(Engine, RunUntilReturnsZeroOnTimeout) {
  const Graph g = graph::path(2);
  Engine e(g, scripted({{}, {}}));
  const auto r = e.run_until([](const Engine&) { return false; }, 10);
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(e.round(), 10u);
}

TEST(Engine, RunUntilZeroBudgetIsAnExplicitNoOp) {
  // Contract: 0 always means "the predicate never held".  A zero budget
  // runs no round and never touches a protocol — the predicate is not even
  // evaluated (a held-at-round-0 predicate must not fabricate a round).
  const Graph g = graph::path(2);
  Engine e(g, scripted({{1}, {}}));
  const auto r = e.run_until([](const Engine&) { return true; }, 0);
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(e.round(), 0u);
  EXPECT_EQ(e.transmissions_total(), 0u);
}

TEST(Engine, RequiresOneProtocolPerVertex) {
  const Graph g = graph::path(3);
  EXPECT_THROW(Engine(g, scripted({{}, {}})), ContractViolation);
}

TEST(Engine, TraceRequiresFullLevel) {
  const Graph g = graph::path(2);
  Engine e(g, scripted({{}, {}}));
  EXPECT_THROW((void)e.trace(), ContractViolation);
}

TEST(Engine, MaxStampTracked) {
  class Stamper final : public Protocol {
   public:
    std::optional<Message> on_round() override {
      ++r_;
      return Message{MsgKind::kData, 0, 0, r_ * 10};
    }
    void on_hear(const Message&) override {}
    bool informed() const override { return true; }

   private:
    std::uint64_t r_ = 0;
  };
  const Graph g = graph::path(2);
  std::vector<std::unique_ptr<Protocol>> p;
  p.push_back(std::make_unique<Stamper>());
  p.push_back(std::make_unique<ScriptedProtocol>(1, std::set<std::uint64_t>{}));
  Engine e(g, std::move(p));
  e.step();
  e.step();
  EXPECT_EQ(e.max_stamp_seen(), 20u);
}

TEST(Trace, TransmitAndReceptionQueries) {
  const Graph g = graph::path(3);
  Engine e(g, scripted({{1, 3}, {2}, {}}), {TraceLevel::kFull});
  for (int i = 0; i < 4; ++i) e.step();
  const auto& t = e.trace();
  EXPECT_EQ(t.transmit_rounds(0), (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(t.transmit_rounds(1), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(t.transmit_rounds(2), std::vector<std::uint64_t>{});
  EXPECT_EQ(t.reception_rounds(2), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(t.reception_rounds(1), (std::vector<std::uint64_t>{1, 3}));
  ASSERT_TRUE(t.first_reception(2, MsgKind::kData).has_value());
  EXPECT_EQ(*t.first_reception(2, MsgKind::kData), 2u);
  EXPECT_FALSE(t.first_reception(2, MsgKind::kStay).has_value());
  EXPECT_EQ(e.transmissions(MsgKind::kData), 3u);
  EXPECT_EQ(e.transmissions(MsgKind::kStay), 0u);
  EXPECT_EQ(t.transmitters(1), std::vector<NodeId>{0});
}

TEST(Trace, DeliveriesAtListsMessages) {
  const Graph g = graph::path(2);
  Engine e(g, scripted({{1, 2}, {}}), {TraceLevel::kFull});
  e.step();
  e.step();
  const auto d = e.trace().deliveries_at(1);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, 1u);
  EXPECT_EQ(d[1].first, 2u);
  EXPECT_EQ(d[0].second.kind, MsgKind::kData);
}

TEST(Message, ToStringRendersFields) {
  const Message m{MsgKind::kAck, 2, 17, 9};
  EXPECT_EQ(to_string(m), "Ack/ph2(p=17)@9");
  const Message plain{MsgKind::kStay, 0, 0, std::nullopt};
  EXPECT_EQ(to_string(plain), "Stay(p=0)");
}

TEST(Engine, PerNodeEnergyCounters) {
  const Graph g = graph::path(3);
  Engine e(g, scripted({{1, 3}, {2}, {}}));
  for (int i = 0; i < 4; ++i) e.step();
  EXPECT_EQ(e.tx_count(0), 2u);
  EXPECT_EQ(e.tx_count(1), 1u);
  EXPECT_EQ(e.tx_count(2), 0u);
  EXPECT_EQ(e.rx_count(1), 2u);  // rounds 1 and 3 from node 0
  EXPECT_EQ(e.rx_count(2), 1u);  // round 2 from node 1
  EXPECT_EQ(e.rx_count(0), 1u);  // round 2 from node 1
  EXPECT_EQ(e.max_tx_count(), 2u);
}

TEST(Engine, CollisionsDoNotCountAsReceptions) {
  const Graph g = graph::path(3);
  Engine e(g, scripted({{1}, {}, {1}}));
  e.step();
  EXPECT_EQ(e.rx_count(1), 0u);
}

// --- Collision-detection mode (§1.1 model variant) ---------------------------

/// Listener that counts collision signals (usable only with the CD engine).
class CollisionCounter final : public Protocol {
 public:
  std::optional<Message> on_round() override { return std::nullopt; }
  void on_hear(const Message&) override { ++heard_; }
  void on_collision() override { ++collisions_; }
  bool informed() const override { return heard_ > 0; }
  int heard() const { return heard_; }
  int collisions() const { return collisions_; }

 private:
  int heard_ = 0;
  int collisions_ = 0;
};

TEST(CollisionDetection, DefaultEngineNeverSignalsCollisions) {
  const Graph g = graph::path(3);
  std::vector<std::unique_ptr<Protocol>> p;
  p.push_back(
      std::make_unique<ScriptedProtocol>(0, std::set<std::uint64_t>{1}));
  p.push_back(std::make_unique<CollisionCounter>());
  p.push_back(
      std::make_unique<ScriptedProtocol>(2, std::set<std::uint64_t>{1}));
  Engine e(g, std::move(p));  // collision_detection = false (paper's model)
  e.step();
  const auto& mid = dynamic_cast<const CollisionCounter&>(e.protocol(1));
  EXPECT_EQ(mid.collisions(), 0);
  EXPECT_EQ(mid.heard(), 0);
}

TEST(CollisionDetection, CdEngineSignalsNoiseOnlyOnRealCollisions) {
  const Graph g = graph::path(3);
  std::vector<std::unique_ptr<Protocol>> p;
  p.push_back(
      std::make_unique<ScriptedProtocol>(0, std::set<std::uint64_t>{1, 2}));
  p.push_back(std::make_unique<CollisionCounter>());
  p.push_back(
      std::make_unique<ScriptedProtocol>(2, std::set<std::uint64_t>{1}));
  Engine e(g, std::move(p),
           EngineOptions{TraceLevel::kCounters, /*collision_detection=*/true});
  e.step();  // round 1: both ends transmit -> collision at the middle
  e.step();  // round 2: only node 0 transmits -> clean delivery
  const auto& mid = dynamic_cast<const CollisionCounter&>(e.protocol(1));
  EXPECT_EQ(mid.collisions(), 1);
  EXPECT_EQ(mid.heard(), 1);
}

TEST(CollisionDetection, TransmitterGetsNoCollisionSignal) {
  const Graph g = graph::complete(3);
  std::vector<std::unique_ptr<Protocol>> p;
  p.push_back(
      std::make_unique<ScriptedProtocol>(0, std::set<std::uint64_t>{1}));
  p.push_back(
      std::make_unique<ScriptedProtocol>(1, std::set<std::uint64_t>{1}));
  p.push_back(std::make_unique<CollisionCounter>());
  Engine e(g, std::move(p),
           EngineOptions{TraceLevel::kCounters, /*collision_detection=*/true});
  e.step();
  // Node 2 (listener) senses the collision; the transmitters sense nothing —
  // transmitting nodes never hear in this model.
  const auto& l = dynamic_cast<const CollisionCounter&>(e.protocol(2));
  EXPECT_EQ(l.collisions(), 1);
}

TEST(Engine, LargeFanoutDelivery) {
  // Complete graph: one transmitter, everyone else hears in the same round.
  const Graph g = graph::complete(50);
  std::vector<std::unique_ptr<Protocol>> p;
  p.push_back(
      std::make_unique<ScriptedProtocol>(0, std::set<std::uint64_t>{1}));
  for (std::uint32_t v = 1; v < 50; ++v) {
    p.push_back(
        std::make_unique<ScriptedProtocol>(v, std::set<std::uint64_t>{}));
  }
  Engine e(g, std::move(p));
  e.step();
  EXPECT_EQ(e.informed_count(), 49u);
  EXPECT_FALSE(e.all_informed());  // transmitter itself heard nothing
}

}  // namespace
}  // namespace radiocast::sim
