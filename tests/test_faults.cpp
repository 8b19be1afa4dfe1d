// Differential oracles for the fault-injection layer (sim/faults.hpp):
//  - parse/format round-trips and clause-level error reporting;
//  - FaultSession window bookkeeping (touching crash windows never produce
//    spurious restarts; nested jam windows stay jammed);
//  - seed determinism: the same fault plan produces bit-identical traces on
//    every backend, at any thread count, under either dispatch strategy;
//  - faults-disabled (and enabled-but-harmless) runs are byte-identical to
//    the unfaulted engine for every registry scheme;
//  - crash/restart re-arms the calendar under kActiveSet (kScan-vs-kActiveSet
//    trace equality through a crash window) and notifies the protocol;
//  - jam rounds suppress every delivery and, with collision detection on,
//    signal on_collision to every non-crashed listener;
//  - the graceful-degradation gate: resilient B_ack completes under 10%
//    edge loss on a long path where plain B's fixed Lemma-2.8 schedule
//    stalls forever.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using graph::Graph;
using graph::NodeId;

// ---------------------------------------------------------------------------
// Helpers

/// Deterministic pseudo-random talker (mirrors test_engine_backends): its
/// decisions depend only on (seed, id, polled round), so two engines running
/// separate instances behave identically.  Also records every restart
/// notification and skipped-round catch-up so crash windows are observable.
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
    sim::Message m{sim::MsgKind::kData, 0, id_, std::nullopt};
    if (id_ % 2 == 1) m.stamp = round_ + id_;
    return m;
  }
  void on_hear(const sim::Message& m) override {
    heard_.emplace_back(round_, m);
  }
  void on_collision() override { collision_rounds_.push_back(round_); }
  bool informed() const override { return !heard_.empty(); }
  void skip_rounds(std::uint64_t rounds) override {
    round_ += rounds;
    skipped_ += rounds;
  }
  void on_restart() override { restart_rounds_.push_back(round_); }

  const std::vector<std::pair<std::uint64_t, sim::Message>>& heard() const {
    return heard_;
  }
  const std::vector<std::uint64_t>& collision_rounds() const {
    return collision_rounds_;
  }
  const std::vector<std::uint64_t>& restart_rounds() const {
    return restart_rounds_;
  }
  std::uint64_t skipped() const { return skipped_; }

 private:
  std::uint64_t seed_;
  std::uint32_t id_;
  std::uint32_t period_;
  std::uint64_t round_ = 0;
  std::uint64_t skipped_ = 0;
  std::vector<std::pair<std::uint64_t, sim::Message>> heard_;
  std::vector<std::uint64_t> collision_rounds_;
  std::vector<std::uint64_t> restart_rounds_;
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

void expect_traces_equal(const sim::Trace& a, const sim::Trace& b,
                         const std::string& what) {
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << what;
  for (std::size_t r = 0; r < a.rounds().size(); ++r) {
    const auto& ra = a.rounds()[r];
    const auto& rb = b.rounds()[r];
    EXPECT_EQ(ra.transmissions, rb.transmissions) << what << " round " << r + 1;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << what << " round " << r + 1;
    EXPECT_EQ(ra.collisions, rb.collisions) << what << " round " << r + 1;
  }
}

/// Runs `rounds` rounds of hash talkers under `options` and returns the
/// engine for inspection.
std::unique_ptr<sim::Engine> run_talkers(const Graph& g, std::uint64_t seed,
                                         std::uint64_t rounds,
                                         sim::EngineOptions options) {
  options.trace = sim::TraceLevel::kFull;
  auto engine = std::make_unique<sim::Engine>(
      g, hash_talkers(g.node_count(), seed, 3), options);
  for (std::uint64_t r = 0; r < rounds; ++r) engine->step();
  return engine;
}

// ---------------------------------------------------------------------------
// Parsing and formatting

TEST(FaultPlan, ParsesAndFormatsEveryClause) {
  const auto parsed =
      sim::parse_fault_plan("edge-loss:0.1:7,crash:3:5:9,jam:4,jam:12:15");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const sim::FaultPlan& p = parsed.plan;
  EXPECT_EQ(p.edge_loss_ppm, 100000u);
  EXPECT_EQ(p.seed, 7u);
  ASSERT_EQ(p.crashes.size(), 1u);
  EXPECT_EQ(p.crashes[0].node, 3u);
  EXPECT_EQ(p.crashes[0].from_round, 5u);
  EXPECT_EQ(p.crashes[0].until_round, 9u);
  ASSERT_EQ(p.jams.size(), 2u);
  EXPECT_EQ(p.jams[0].from_round, 4u);
  EXPECT_EQ(p.jams[0].until_round, 4u);
  EXPECT_TRUE(p.enabled());

  // Percent spelling hits the same fixed-point value.
  const auto percent = sim::parse_fault_plan("edge-loss:10%:7");
  ASSERT_TRUE(percent.ok) << percent.error;
  EXPECT_EQ(percent.plan.edge_loss_ppm, 100000u);

  // format -> parse round-trips the plan exactly.
  const auto again = sim::parse_fault_plan(sim::format_fault_plan(p));
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.plan, p);

  // A default plan is disabled; a seed alone does not enable anything.
  EXPECT_FALSE(sim::FaultPlan{}.enabled());
  sim::FaultPlan seeded;
  seeded.seed = 99;
  EXPECT_FALSE(seeded.enabled());
}

TEST(FaultPlan, RejectsMalformedClauses) {
  for (const char* bad :
       {"", "edge-loss", "edge-loss:2.0", "edge-loss:-1", "crash:1:2",
        "crash:1:0:5", "crash:1:9:5", "jam", "jam:0", "jam:9:5",
        "warp:1:2", "edge-loss:0.1,"}) {
    const auto parsed = sim::parse_fault_plan(bad);
    EXPECT_FALSE(parsed.ok) << "accepted: \"" << bad << "\"";
    EXPECT_FALSE(parsed.error.empty()) << bad;
  }
  // validate() catches out-of-range nodes against a concrete graph.
  sim::FaultPlan p;
  p.crashes.push_back({9, 1, 2});
  EXPECT_FALSE(p.validate(4).empty());
  EXPECT_TRUE(p.validate(10).empty());
}

TEST(FaultSession, TouchingCrashWindowsNeverRestartInBetween) {
  sim::FaultPlan p;
  p.crashes.push_back({1, 2, 5});
  p.crashes.push_back({1, 6, 9});   // touches the first window
  p.crashes.push_back({2, 4, 4});
  sim::FaultSession session(p, 4);
  std::vector<NodeId> restarted;
  for (std::uint64_t r = 1; r <= 12; ++r) {
    session.begin_round(r, restarted);
    EXPECT_EQ(session.crashed(1), r >= 2 && r <= 9) << "round " << r;
    EXPECT_EQ(session.crashed(2), r == 4) << "round " << r;
    if (r == 5) {
      // Node 2's window [4,4] ended; node 1 stays down across the seam.
      EXPECT_EQ(restarted, std::vector<NodeId>{2});
    } else if (r == 10) {
      EXPECT_EQ(restarted, std::vector<NodeId>{1});
    } else {
      EXPECT_TRUE(restarted.empty()) << "round " << r;
    }
  }
  EXPECT_FALSE(session.any_crashed());
}

// ---------------------------------------------------------------------------
// Seed determinism across backends, threads, and dispatch

TEST(Faults, SeedDeterminismAcrossBackendsThreadsAndDispatch) {
  Rng rng(23);
  std::vector<Graph> graphs;
  graphs.push_back(graph::path(48));
  graphs.push_back(graph::grid(6, 7));
  graphs.push_back(graph::gnp_connected(70, 0.15, rng));
  graphs.push_back(graph::complete(33));

  sim::FaultPlan plan;
  plan.edge_loss_ppm = 150000;  // 15%
  plan.seed = 42;
  plan.crashes.push_back({2, 4, 11});
  plan.crashes.push_back({5, 8, 8});
  plan.jams.push_back({6, 7});

  constexpr std::uint64_t kRounds = 40;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    sim::EngineOptions ref_opt;
    ref_opt.backend = sim::BackendKind::kScalar;
    ref_opt.threads = 1;
    ref_opt.dispatch = sim::DispatchKind::kScan;
    ref_opt.faults = plan;
    const auto ref = run_talkers(g, 7 + gi, kRounds, ref_opt);

    for (const sim::BackendKind backend :
         {sim::BackendKind::kScalar, sim::BackendKind::kBit,
          sim::BackendKind::kSharded}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const sim::DispatchKind dispatch :
             {sim::DispatchKind::kScan, sim::DispatchKind::kActiveSet}) {
          sim::EngineOptions opt;
          opt.backend = backend;
          opt.threads = threads;
          opt.dispatch = dispatch;
          opt.faults = plan;
          const auto engine = run_talkers(g, 7 + gi, kRounds, opt);
          const std::string what =
              "graph " + std::to_string(gi) + " backend " +
              std::to_string(static_cast<int>(backend)) + " threads " +
              std::to_string(threads) + " dispatch " +
              std::to_string(static_cast<int>(dispatch));
          expect_traces_equal(ref->trace(), engine->trace(), what);
          EXPECT_EQ(ref->faults_lost_deliveries(),
                    engine->faults_lost_deliveries())
              << what;
          EXPECT_EQ(ref->faults_jammed_rounds(),
                    engine->faults_jammed_rounds())
              << what;
          EXPECT_EQ(ref->transmissions_total(), engine->transmissions_total())
              << what;
        }
      }
    }
    // The plan actually bit: both jam rounds happened inside the horizon,
    // and deliveries were lost wherever deliveries happen at all (on the
    // complete graph nearly every round is a collision, so loss may have
    // nothing to act on — skip the lost-delivery assertion there).
    EXPECT_EQ(ref->faults_jammed_rounds(), 2u) << "graph " << gi;
    if (gi < 3) {
      EXPECT_GT(ref->faults_lost_deliveries(), 0u) << "graph " << gi;
    }
  }
}

// ---------------------------------------------------------------------------
// Faults disabled (or enabled but harmless) is byte-identical

TEST(Faults, HarmlessPlanIsByteIdenticalForEveryRegistryScheme) {
  const Graph g = graph::grid(3, 4);
  const NodeId source = 1;

  // Enabled-but-harmless: the window sits far past any execution horizon,
  // so the engine takes the fault-session code path (clocked dispatch,
  // apply_faults probes) yet must change nothing observable.
  sim::FaultPlan harmless;
  harmless.jams.push_back({1u << 30, 1u << 30});

  for (const runtime::Scheme* scheme :
       runtime::SchemeRegistry::instance().schemes()) {
    const std::string what(scheme->name());
    runtime::SchemeOptions opt;
    opt.seed = 7;
    runtime::ExecutionConfig plain;
    plain.trace = sim::TraceLevel::kFull;
    plain.collision_detection = scheme->needs_collision_detection();
    runtime::ExecutionConfig faulted = plain;
    faulted.faults = harmless;

    const runtime::PlanPtr plan = scheme->label(g, source, opt);
    ASSERT_NE(plan, nullptr) << what;
    const auto a = runtime::run_with_plan(*scheme, g, source, plan, opt,
                                          plain);
    const auto b = runtime::run_with_plan(*scheme, g, source, plan, opt,
                                          faulted);
    EXPECT_EQ(a.ok, b.ok) << what;
    EXPECT_EQ(a.all_informed, b.all_informed) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.completion_round, b.completion_round) << what;
    EXPECT_EQ(a.ack_round, b.ack_round) << what;
    EXPECT_EQ(a.tx_total, b.tx_total) << what;
    expect_traces_equal(a.trace, b.trace, what);
  }
}

// ---------------------------------------------------------------------------
// Crash windows: dropped polls, restart notification, calendar re-arm

TEST(Faults, CrashWindowSilencesAndRestartNotifies) {
  const Graph g = graph::path(6);
  sim::FaultPlan plan;
  plan.crashes.push_back({3, 4, 9});

  sim::EngineOptions opt;
  opt.trace = sim::TraceLevel::kFull;
  opt.faults = plan;
  sim::Engine engine(g, hash_talkers(6, 5, 2), opt);
  for (int r = 0; r < 20; ++r) engine.step();

  // Node 3 never appears as a transmitter inside [4, 9].
  for (std::size_t r = 0; r < engine.trace().rounds().size(); ++r) {
    const auto& round = engine.trace().rounds()[r];
    if (r + 1 >= 4 && r + 1 <= 9) {
      EXPECT_EQ(std::count_if(round.transmissions.begin(),
                              round.transmissions.end(),
                              [](const auto& t) { return t.first == 3; }),
                0)
          << "round " << r + 1;
      for (const auto& d : round.deliveries) {
        EXPECT_NE(d.first, NodeId{3}) << "round " << r + 1;
      }
    }
  }
  // Exactly one restart, delivered before the node's round-10 poll: the
  // engine first catches the local clock up through round 9, so the
  // notification observes round_ == 9.
  const auto& talker = dynamic_cast<const HashTalker&>(engine.protocol(3));
  ASSERT_EQ(talker.restart_rounds().size(), 1u);
  EXPECT_EQ(talker.restart_rounds()[0], 9u);
  EXPECT_EQ(talker.skipped(), 6u);  // rounds 4..9 were never polled
}

TEST(Faults, CrashRestartTraceIdenticalAcrossDispatchStrategies) {
  // The registry schemes drive real calendar activity (kIdle sleeps, far
  // wakes); a crash through their schedule is exactly what can desync the
  // active-set dispatcher if the wake is not re-armed on restart.
  const Graph g = graph::path(24);
  sim::FaultPlan plan;
  plan.crashes.push_back({7, 5, 40});
  plan.crashes.push_back({15, 20, 33});
  plan.edge_loss_ppm = 50000;  // 5%
  plan.seed = 13;

  for (const char* name : {"b", "ack", "arb"}) {
    const runtime::Scheme* scheme =
        runtime::SchemeRegistry::instance().find(name);
    ASSERT_NE(scheme, nullptr) << name;
    runtime::SchemeOptions opt;
    opt.seed = 3;
    const runtime::PlanPtr plan_ptr = scheme->label(g, 0, opt);

    runtime::ExecutionConfig scan;
    scan.trace = sim::TraceLevel::kFull;
    scan.dispatch = sim::DispatchKind::kScan;
    scan.faults = plan;
    scan.max_rounds = 600;
    runtime::ExecutionConfig active = scan;
    active.dispatch = sim::DispatchKind::kActiveSet;

    const auto a = runtime::run_with_plan(*scheme, g, 0, plan_ptr, opt, scan);
    const auto b =
        runtime::run_with_plan(*scheme, g, 0, plan_ptr, opt, active);
    EXPECT_EQ(a.all_informed, b.all_informed) << name;
    EXPECT_EQ(a.rounds, b.rounds) << name;
    expect_traces_equal(a.trace, b.trace,
                        std::string(name) + " scan-vs-active");
  }
}

// ---------------------------------------------------------------------------
// Jam windows

TEST(Faults, JamSuppressesDeliveriesAndSignalsCollisions) {
  const Graph g = graph::complete(5);
  sim::FaultPlan plan;
  plan.jams.push_back({2, 3});

  for (const bool cd : {false, true}) {
    sim::EngineOptions opt;
    opt.trace = sim::TraceLevel::kFull;
    opt.collision_detection = cd;
    opt.faults = plan;
    sim::Engine engine(g, hash_talkers(5, 9, 2), opt);
    for (int r = 0; r < 6; ++r) engine.step();

    EXPECT_EQ(engine.faults_jammed_rounds(), 2u);
    std::uint64_t expected_signals = 0;
    for (std::size_t r = 0; r < engine.trace().rounds().size(); ++r) {
      const auto& round = engine.trace().rounds()[r];
      if (r + 1 >= 2 && r + 1 <= 3) {
        EXPECT_TRUE(round.deliveries.empty()) << "cd " << cd << " round "
                                              << r + 1;
        // The full trace records the jam-perceived noise for every
        // non-transmitting listener regardless of the CD mode, exactly
        // like it records natural collisions.
        EXPECT_EQ(round.collisions.size(), 5u - round.transmissions.size())
            << "cd " << cd << " round " << r + 1;
        expected_signals += round.collisions.size();
      }
    }
    // But the on_collision *signal* is delivered to protocols only in
    // collision-detection mode.
    std::uint64_t signals = 0;
    for (NodeId v = 0; v < 5; ++v) {
      const auto& talker = dynamic_cast<const HashTalker&>(engine.protocol(v));
      signals += static_cast<std::uint64_t>(std::count_if(
          talker.collision_rounds().begin(), talker.collision_rounds().end(),
          [](std::uint64_t r) { return r == 2 || r == 3; }));
    }
    EXPECT_EQ(signals, cd ? expected_signals : 0u) << "cd " << cd;
  }
}

// ---------------------------------------------------------------------------
// The graceful-degradation gate

TEST(Faults, ResilientAckCompletesUnderLossWhereBStalls) {
  const Graph g = graph::path(256);
  sim::FaultPlan plan;
  plan.edge_loss_ppm = 100000;  // 10%
  plan.seed = 7;

  runtime::ExecutionConfig config;
  config.faults = plan;
  config.max_rounds = 64 * 256;

  // Plain B replays Lemma 2.8's fixed schedule: one lost delivery on a path
  // severs the frontier permanently — no retransmission ever repairs it.
  const auto b = runtime::run_scheme("b", g, 0, {}, config);
  EXPECT_FALSE(b.all_informed)
      << "plain B unexpectedly survived 10% loss on a path";

  // Resilient B_ack retries data on the frontier and acks on the way back,
  // so the same loss process only inflates rounds.
  runtime::SchemeOptions resilient;
  resilient.resilient = true;
  const auto ack = runtime::run_scheme("ack", g, 0, resilient, config);
  EXPECT_TRUE(ack.all_informed) << "resilient B_ack failed to inform";
  EXPECT_NE(ack.ack_round, 0u) << "resilient B_ack never closed the ack";
  EXPECT_TRUE(ack.ok);
}

}  // namespace
}  // namespace radiocast
