// Differential tests for the pluggable engine backends: the scalar CSR walk,
// the bit-parallel dense stepper (and the graph-resident bitmap it borrows),
// and the compiled paths (the memoized engine run for B and B_ack, the
// stamped-chain prediction for B_arb) must be bit-exact — identical
// per-round traces (transmissions, deliveries, collisions), identical
// first-data receptions, ack rounds, tx/rx counters, and stamp accounting —
// on randomized graphs, with and without collision detection (paper §1.1:
// hear iff exactly one neighbour transmits; transmitters hear nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/arb.hpp"
#include "core/compiled_schedule.hpp"
#include "graph/bit_adjacency.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using graph::Graph;
using graph::NodeId;
using runtime::ExecutionConfig;

// ---------------------------------------------------------------------------
// Helpers

/// Deterministic pseudo-random talker: transmits in round r iff a hash of
/// (seed, id, r) says so, independent of anything it hears — so two engines
/// running separate instances make identical decisions.  Odd ids stamp their
/// messages (exercising max_stamp bookkeeping); every node records what it
/// hears and how many collision signals it got.
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
  void on_collision() override { ++collisions_; }
  bool informed() const override { return !heard_.empty(); }

  const std::vector<std::pair<std::uint64_t, sim::Message>>& heard() const {
    return heard_;
  }
  std::uint64_t collisions() const { return collisions_; }

 private:
  std::uint64_t seed_;
  std::uint32_t id_;
  std::uint32_t period_;
  std::uint64_t round_ = 0;
  std::vector<std::pair<std::uint64_t, sim::Message>> heard_;
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

/// A pool of randomized connected graphs spanning sparse and dense regimes.
std::vector<Graph> random_graphs(std::size_t count, std::uint64_t seed) {
  std::vector<Graph> graphs;
  Rng rng(seed);
  while (graphs.size() < count) {
    switch (graphs.size() % 5) {
      case 0: {
        const auto n = 2 + static_cast<std::uint32_t>(rng.below(40));
        const double p = 0.05 + 0.01 * static_cast<double>(rng.below(85));
        graphs.push_back(graph::gnp_connected(n, p, rng));
        break;
      }
      case 1:
        graphs.push_back(graph::random_tree(
            2 + static_cast<std::uint32_t>(rng.below(48)), rng));
        break;
      case 2:
        graphs.push_back(
            graph::grid(2 + static_cast<std::uint32_t>(rng.below(6)),
                        2 + static_cast<std::uint32_t>(rng.below(6))));
        break;
      case 3:
        graphs.push_back(
            graph::complete(2 + static_cast<std::uint32_t>(rng.below(66))));
        break;
      default: {
        // Word-boundary sizes: n around 64/128 stresses the last-word masks.
        const auto n = 60 + static_cast<std::uint32_t>(rng.below(10));
        graphs.push_back(graph::gnp_connected(n, 0.4, rng));
        break;
      }
    }
  }
  return graphs;
}

/// Sparse graphs spanning many 64-bit words (n ~ 300-5000), so a round's
/// listeners land in many words and the scalar backend's touched-word
/// extraction order is exercised.
std::vector<Graph> sparse_multiword_graphs(std::size_t count,
                                           std::uint64_t seed) {
  std::vector<Graph> graphs;
  Rng rng(seed);
  while (graphs.size() < count) {
    const auto n = 300 + static_cast<std::uint32_t>(rng.below(4700));
    switch (graphs.size() % 4) {
      case 0:
        graphs.push_back(graph::sparse_gnp_connected(
            n, 3.0 + static_cast<double>(rng.below(6)), rng));
        break;
      case 1:
        graphs.push_back(graph::random_tree(n, rng));
        break;
      case 2: {
        const auto rows = 10 + static_cast<std::uint32_t>(rng.below(40));
        graphs.push_back(graph::grid(rows, n / rows));
        break;
      }
      default:
        graphs.push_back(graph::random_geometric(
            n, 1.5 / std::sqrt(static_cast<double>(n)), rng));
        break;
    }
  }
  return graphs;
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

void expect_engines_equal(const sim::Engine& a, const sim::Engine& b,
                          const std::string& what) {
  const auto n = a.graph().node_count();
  EXPECT_EQ(a.round(), b.round()) << what;
  EXPECT_EQ(a.transmissions_total(), b.transmissions_total()) << what;
  EXPECT_EQ(a.max_stamp_seen(), b.max_stamp_seen()) << what;
  EXPECT_EQ(a.silent_streak(), b.silent_streak()) << what;
  EXPECT_EQ(a.informed_count(), b.informed_count()) << what;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(a.first_data_reception(v), b.first_data_reception(v))
        << what << " node " << v;
    EXPECT_EQ(a.tx_count(v), b.tx_count(v)) << what << " node " << v;
    EXPECT_EQ(a.rx_count(v), b.rx_count(v)) << what << " node " << v;
  }
  expect_traces_equal(a.trace(), b.trace(), what);
}

// ---------------------------------------------------------------------------
// BitAdjacency

TEST(BitAdjacency, MatchesCsrNeighbourhoods) {
  Rng rng(11);
  for (const std::uint32_t n : {1u, 5u, 63u, 64u, 65u, 130u}) {
    const Graph g = n < 3 ? graph::path(n) : graph::gnp_connected(n, 0.3, rng);
    const graph::BitAdjacency adj(g);
    ASSERT_EQ(adj.node_count(), g.node_count());
    ASSERT_EQ(adj.words_per_row(), (n + 63) / 64);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(adj.test(u, v), g.has_edge(u, v)) << u << "-" << v;
      }
    }
  }
}

TEST(BitAdjacency, RowBitsAreExactlyNeighbours) {
  const Graph g = graph::star(70);  // centre 0, leaves 1..69: two words
  const graph::BitAdjacency adj(g);
  const auto row = adj.row(0);
  std::uint32_t bits = 0;
  for (const auto word : row) {
    bits += static_cast<std::uint32_t>(std::popcount(word));
  }
  EXPECT_EQ(bits, 69u);
  EXPECT_FALSE(adj.test(0, 0));
}

TEST(ResidentBitmap, BitEnginesOnOneDenseGraphBorrowOneBitmap) {
  Rng rng(5);
  const Graph g = graph::gnp_connected(200, 0.3, rng);
  ASSERT_EQ(sim::choose_backend(g, sim::BackendKind::kAuto),
            sim::BackendKind::kBit);
  EXPECT_FALSE(g.has_bit_adjacency());
  const sim::BitEngine first(g);
  const sim::BitEngine second(g);
  EXPECT_TRUE(g.has_bit_adjacency());
  EXPECT_EQ(&first.adjacency(), &second.adjacency());
  EXPECT_EQ(&first.adjacency(), &g.bit_adjacency());
  // kAuto, compiled replays and engines all resolve through the same rows.
  const auto via_auto = sim::make_engine_backend(g, sim::BackendKind::kAuto);
  EXPECT_EQ(&dynamic_cast<const sim::BitEngine&>(*via_auto).adjacency(),
            &first.adjacency());
}

TEST(ResidentBitmap, ExplicitBitOnASparseGraphKeepsAPrivateBitmap) {
  // Outside kAuto's bit region an explicit kBit builds a private bitmap per
  // engine and never fills the graph's memo.
  const Graph g = graph::path(300);
  ASSERT_EQ(sim::choose_backend(g, sim::BackendKind::kAuto),
            sim::BackendKind::kScalar);
  const sim::BitEngine first(g);
  const sim::BitEngine second(g);
  EXPECT_FALSE(g.has_bit_adjacency());
  EXPECT_NE(&first.adjacency(), &second.adjacency());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto a = first.adjacency().row(v);
    const auto b = second.adjacency().row(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
  }
}

// ---------------------------------------------------------------------------
// Backend selection

TEST(BackendSelection, ExplicitRequestsAreHonored) {
  const Graph g = graph::complete(128);
  EXPECT_EQ(sim::choose_backend(g, sim::BackendKind::kScalar),
            sim::BackendKind::kScalar);
  EXPECT_EQ(sim::choose_backend(g, sim::BackendKind::kBit),
            sim::BackendKind::kBit);
  EXPECT_EQ(sim::make_engine_backend(g, sim::BackendKind::kBit)->kind(),
            sim::BackendKind::kBit);
}

TEST(BackendSelection, ShardedNameIsRejected) {
  // The sharded multi-core backend is gone (engines run single-threaded);
  // its name must not parse back into some other backend.
  EXPECT_FALSE(sim::parse_backend("sharded").has_value());
  EXPECT_FALSE(sim::parse_backend("shard").has_value());
}

TEST(BackendSelection, HybridNameIsRejected) {
  // The hybrid sparse backend is gone (the scalar walk covers its graphs);
  // its name must not parse back into some other backend.
  EXPECT_FALSE(sim::parse_backend("hybrid").has_value());
  EXPECT_FALSE(sim::parse_backend("hyb").has_value());
}

TEST(BackendSelection, AutoPicksScalarPastTheBitmapCap) {
  // n = 30000 and 65536 would need 107 MiB and 512 MiB bitmaps: past
  // graph::kBitAdjacencyMemoryCap kAuto resolves to the scalar walk at any
  // size.
  for (const std::uint32_t n : {30000u, 65536u}) {
    const Graph g = graph::path(n);
    EXPECT_EQ(sim::choose_backend(g, sim::BackendKind::kAuto),
              sim::BackendKind::kScalar)
        << n;
    EXPECT_EQ(sim::make_engine_backend(g, sim::BackendKind::kAuto)->kind(),
              sim::BackendKind::kScalar)
        << n;
  }
}

TEST(BackendSelection, AutoPicksByDensity) {
  // Dense: a clique's average degree n-1 far exceeds n/64 words per row.
  EXPECT_EQ(sim::choose_backend(graph::complete(256), sim::BackendKind::kAuto),
            sim::BackendKind::kBit);
  // Sparse: a long path (average degree ~2) should stay scalar.
  EXPECT_EQ(sim::choose_backend(graph::path(4096), sim::BackendKind::kAuto),
            sim::BackendKind::kScalar);
  // Tiny graphs stay scalar regardless of density.
  EXPECT_EQ(sim::choose_backend(graph::complete(8), sim::BackendKind::kAuto),
            sim::BackendKind::kScalar);
}

TEST(BackendSelection, AutoKeepsBigDenseGraphsOnTheBitBackend) {
  // Engines run single-threaded, so size never moves kAuto off the bit
  // backend: G(8192, 0.05) has average degree ~410 against 128 words per
  // row and an 8 MiB bitmap, and resolves like the small clique does.
  Rng rng(42);
  const Graph big = graph::gnp_connected(8192, 0.05, rng);
  EXPECT_EQ(sim::choose_backend(big, sim::BackendKind::kAuto),
            sim::BackendKind::kBit);
  EXPECT_EQ(sim::make_engine_backend(big, sim::BackendKind::kAuto)->kind(),
            sim::BackendKind::kBit);
  EXPECT_EQ(sim::choose_backend(graph::complete(256), sim::BackendKind::kAuto),
            sim::BackendKind::kBit);
}

TEST(BackendSelection, EngineReportsResolvedKind) {
  const Graph g = graph::complete(256);
  sim::Engine e(g, hash_talkers(g.node_count(), 1, 4),
                {sim::TraceLevel::kCounters, false, sim::BackendKind::kAuto});
  EXPECT_EQ(e.backend_kind(), sim::BackendKind::kBit);
  EXPECT_STREQ(e.backend_name(), "bit");
}

// ---------------------------------------------------------------------------
// Scalar vs bit: randomized protocol traffic, with and without collision
// detection.  60 randomized small graphs per mode, plus sparse multi-word
// graphs.

void run_random_traffic_differential(const std::vector<Graph>& graphs,
                                     bool collision_detection,
                                     std::uint64_t seed,
                                     sim::BackendKind challenger) {
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    const std::uint32_t period = 2 + static_cast<std::uint32_t>(i % 5);
    sim::Engine scalar(g, hash_talkers(n, seed + i, period),
                       {sim::TraceLevel::kFull, collision_detection,
                        sim::BackendKind::kScalar});
    sim::Engine other(
        g, hash_talkers(n, seed + i, period),
        {sim::TraceLevel::kFull, collision_detection, challenger});
    const std::uint64_t rounds = 24;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      EXPECT_EQ(scalar.step(), other.step());
    }
    const std::string what =
        "graph " + std::to_string(i) + " " + g.summary() +
        (collision_detection ? " (cd)" : "") + " vs " + other.backend_name();
    expect_engines_equal(scalar, other, what);
    for (NodeId v = 0; v < n; ++v) {
      const auto& ps = dynamic_cast<const HashTalker&>(scalar.protocol(v));
      const auto& pb = dynamic_cast<const HashTalker&>(other.protocol(v));
      EXPECT_EQ(ps.heard(), pb.heard()) << what << " node " << v;
      EXPECT_EQ(ps.collisions(), pb.collisions()) << what << " node " << v;
      if (!collision_detection) {
        EXPECT_EQ(ps.collisions(), 0u) << what;
      }
    }
  }
}

TEST(BackendDifferential, RandomTrafficScalarVsBit) {
  run_random_traffic_differential(random_graphs(60, 0xC0FFEE),
                                  /*collision_detection=*/false, 0xC0FFEE,
                                  sim::BackendKind::kBit);
}

TEST(BackendDifferential, RandomTrafficScalarVsBitWithCollisionDetection) {
  run_random_traffic_differential(random_graphs(60, 0xBEEF),
                                  /*collision_detection=*/true, 0xBEEF,
                                  sim::BackendKind::kBit);
}

TEST(BackendDifferential, RandomTrafficScalarVsBitOnSparseMultiWordGraphs) {
  run_random_traffic_differential(sparse_multiword_graphs(12, 0x4B1D),
                                  /*collision_detection=*/false, 0x4B1D,
                                  sim::BackendKind::kBit);
}

TEST(BackendDifferential,
     RandomTrafficScalarVsBitOnSparseMultiWordGraphsWithCollisionDetection) {
  run_random_traffic_differential(sparse_multiword_graphs(12, 0xFADE),
                                  /*collision_detection=*/true, 0xFADE,
                                  sim::BackendKind::kBit);
}

TEST(BackendDifferential, AutoBroadcastPastBitmapCapMatchesCompiled) {
  // A sparse graph past the bitmap cap, end-to-end: kAuto resolves to the
  // scalar walk, and the engine run must agree with the label-determined
  // compiled replay (Lemma 2.8).
  Rng rng(123);
  const Graph g = graph::sparse_gnp_connected(70000, 6.0, rng);
  ASSERT_EQ(sim::choose_backend(g, sim::BackendKind::kAuto),
            sim::BackendKind::kScalar);
  // A full-trace engine run resolves every node; the compiled entry memoizes
  // a listening-masked counters run.
  const ExecutionConfig traced{.trace = sim::TraceLevel::kFull};
  const auto engine = runtime::run_scheme("b", g, 0, {}, traced);
  EXPECT_TRUE(engine.all_informed);
  EXPECT_LE(engine.completion_round, engine.bound);
  const ExecutionConfig compiled_cfg{.compiled = true};
  const auto compiled = runtime::run_scheme("b", g, 0, {}, compiled_cfg);
  EXPECT_EQ(compiled.all_informed, engine.all_informed);
  EXPECT_EQ(compiled.completion_round, engine.completion_round);
  EXPECT_EQ(compiled.data_tx_count, engine.data_tx_count);
  EXPECT_EQ(compiled.stay_count, engine.stay_count);
  EXPECT_EQ(compiled.max_node_tx, engine.max_node_tx);
}

// ---------------------------------------------------------------------------
// Algorithm B: scalar engine vs bit engine on 110 randomized graphs —
// traces, informed rounds, and counters.  b's compiled path is one engine
// run, pinned to it by SchemeDifferential.CompiledReplayMatchesEngineTrace.

TEST(BackendDifferential, BroadcastScalarVsBitVsCompiled) {
  const auto graphs = random_graphs(110, 0xF00D);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    const NodeId source = static_cast<NodeId>(i % n);
    const std::uint32_t mu = 42;
    const auto labeling = core::label_broadcast(g, source);

    sim::Engine scalar(
        g, core::make_broadcast_protocols(labeling, mu),
        {sim::TraceLevel::kFull, false, sim::BackendKind::kScalar});
    sim::Engine bit(g, core::make_broadcast_protocols(labeling, mu),
                    {sim::TraceLevel::kFull, false, sim::BackendKind::kBit});
    const std::uint64_t max_rounds = 4ull * n + 16;
    scalar.run_until([](const sim::Engine& e) { return e.all_informed(); },
                     max_rounds);
    bit.run_until([](const sim::Engine& e) { return e.all_informed(); },
                  max_rounds);

    const std::string what = "graph " + std::to_string(i) + " " + g.summary();
    ASSERT_TRUE(scalar.all_informed()) << what;
    expect_engines_equal(scalar, bit, what);
  }
}

// ---------------------------------------------------------------------------
// Stamped messages (B_ack) across backends: max_stamp accounting must agree.

TEST(BackendDifferential, AcknowledgedBroadcastScalarVsBit) {
  const auto graphs = random_graphs(20, 0xACDC);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    if (g.node_count() < 2) continue;
    const ExecutionConfig scalar_cfg{.backend = sim::BackendKind::kScalar};
    const ExecutionConfig bit_cfg{.backend = sim::BackendKind::kBit};
    const auto scalar = runtime::run_scheme("ack", g, 0, {}, scalar_cfg);
    const auto bit = runtime::run_scheme("ack", g, 0, {}, bit_cfg);
    const std::string what = "graph " + std::to_string(i) + " " + g.summary();
    EXPECT_EQ(scalar.all_informed, bit.all_informed) << what;
    EXPECT_EQ(scalar.completion_round, bit.completion_round) << what;
    EXPECT_EQ(scalar.ack_round, bit.ack_round) << what;
    EXPECT_EQ(scalar.max_stamp, bit.max_stamp) << what;
  }
}

// ---------------------------------------------------------------------------
// Scheme-level equivalence: b across backends + compiled variant.

TEST(BackendDifferential, RunnersAgreeAcrossBackends) {
  const auto graphs = random_graphs(15, 0x5EED);
  for (const auto& g : graphs) {
    ExecutionConfig cfg{.trace = sim::TraceLevel::kFull};
    cfg.backend = sim::BackendKind::kScalar;
    const auto scalar = runtime::run_scheme("b", g, 0, {}, cfg);
    cfg.backend = sim::BackendKind::kBit;
    const auto bit = runtime::run_scheme("b", g, 0, {}, cfg);
    const ExecutionConfig compiled_cfg{.compiled = true};
    const auto compiled = runtime::run_scheme("b", g, 0, {}, compiled_cfg);
    EXPECT_TRUE(scalar.all_informed) << g.summary();
    for (const auto* run : {&bit, &compiled}) {
      EXPECT_EQ(run->all_informed, scalar.all_informed) << g.summary();
      EXPECT_EQ(run->completion_round, scalar.completion_round) << g.summary();
      EXPECT_EQ(run->max_node_tx, scalar.max_node_tx) << g.summary();
      EXPECT_EQ(run->ell, scalar.ell) << g.summary();
      EXPECT_EQ(run->stay_count, scalar.stay_count) << g.summary();
      EXPECT_EQ(run->data_tx_count, scalar.data_tx_count) << g.summary();
    }
  }
}

TEST(BackendDifferential, OneBitRunnerAgreesAcrossBackends) {
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    const Graph g = graph::grid(2 + i, 3 + i);
    const ExecutionConfig scalar_cfg{.backend = sim::BackendKind::kScalar};
    const ExecutionConfig bit_cfg{.backend = sim::BackendKind::kBit};
    const auto scalar = runtime::run_scheme("onebit", g, 0, {}, scalar_cfg);
    const auto bit = runtime::run_scheme("onebit", g, 0, {}, bit_cfg);
    EXPECT_EQ(scalar.ok, bit.ok) << g.summary();
    EXPECT_EQ(scalar.completion_round, bit.completion_round) << g.summary();
    EXPECT_EQ(scalar.ones, bit.ones) << g.summary();
  }
}

// ---------------------------------------------------------------------------
// A compiled replay must reproduce the engine execution round for round —
// transmissions, deliveries, collisions, informed rounds, and tx/rx/stamp
// counters.

void expect_replay_matches_engine(const core::ReplayResult& replay,
                                  const sim::Engine& engine,
                                  const std::string& what) {
  const auto n = engine.graph().node_count();
  EXPECT_EQ(replay.rounds, engine.round()) << what;
  EXPECT_EQ(replay.completion_round, engine.last_first_data_reception())
      << what;
  EXPECT_EQ(replay.tx_total, engine.transmissions_total()) << what;
  EXPECT_EQ(replay.max_stamp, engine.max_stamp_seen()) << what;
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(replay.first_data[v], engine.first_data_reception(v))
        << what << " node " << v;
    EXPECT_EQ(replay.tx_count[v], engine.tx_count(v)) << what << " node " << v;
    EXPECT_EQ(replay.rx_count[v], engine.rx_count(v)) << what << " node " << v;
  }
  expect_traces_equal(replay.trace, engine.trace(), what);
}

/// Small random graphs plus sparse multi-word ones, whose agenda slots span
/// many 64-bit words.
std::vector<Graph> replay_graphs(std::size_t small, std::size_t multiword,
                                 std::uint64_t seed) {
  auto graphs = random_graphs(small, seed);
  for (Graph& g : sparse_multiword_graphs(multiword, seed + 1)) {
    graphs.push_back(std::move(g));
  }
  return graphs;
}

TEST(CompiledAck, RunnerAgreesWithEngineRunner) {
  const auto graphs = random_graphs(25, 0xACE2);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    if (g.node_count() < 2) continue;
    const NodeId source = static_cast<NodeId>(i % g.node_count());
    const auto engine_run = runtime::run_scheme("ack", g, source);
    const auto compiled_run =
        runtime::run_scheme("ack", g, source, {}, {.compiled = true});
    const std::string what = "graph " + std::to_string(i) + " " + g.summary();
    EXPECT_EQ(compiled_run.all_informed, engine_run.all_informed) << what;
    EXPECT_EQ(compiled_run.completion_round, engine_run.completion_round)
        << what;
    EXPECT_EQ(compiled_run.ack_round, engine_run.ack_round) << what;
    EXPECT_EQ(compiled_run.max_stamp, engine_run.max_stamp) << what;
    EXPECT_EQ(compiled_run.ell, engine_run.ell) << what;
    EXPECT_EQ(compiled_run.special, engine_run.special) << what;
  }
}

// ---------------------------------------------------------------------------
// Compiled B_arb replay: all three phases (Init broadcast, Ready/T with the
// source countdown, final µ broadcast with T - t_v completion timers) must
// match the engine + ArbProtocol execution exactly.

TEST(CompiledArb, ReplayMatchesEngineOnRandomGraphs) {
  const auto graphs = replay_graphs(30, 8, 0xA7B);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    if (n < 2) continue;
    // Rotate both the source and the coordinator; include source == r.
    const NodeId source = static_cast<NodeId>(i % n);
    const NodeId coordinator =
        i % 3 == 0 ? source : static_cast<NodeId>((i / 2) % n);
    const std::uint32_t mu = 99;
    const auto labeling = core::label_arbitrary(g, coordinator);

    sim::Engine engine(g, core::make_arb_protocols(labeling, source, mu),
                       {sim::TraceLevel::kFull, false,
                        sim::BackendKind::kScalar});
    const auto max_rounds = core::default_round_budget(n, 16);
    engine.run_until(
        [](const sim::Engine& e) {
          for (NodeId v = 0; v < e.graph().node_count(); ++v) {
            const auto& p = dynamic_cast<const core::ArbProtocol&>(
                e.protocol(v));
            if (!p.mu() || p.done_round() == 0) return false;
          }
          return true;
        },
        max_rounds);

    core::CompiledArbRunner compiled(g, labeling.labels, coordinator, source,
                                   mu);
    const auto replay = compiled.run(sim::TraceLevel::kFull);
    const std::string what = "graph " + std::to_string(i) + " " +
                             g.summary() + " src=" + std::to_string(source) +
                             " r=" + std::to_string(coordinator) +
                             " (compiled arb)";
    expect_replay_matches_engine(replay, engine, what);
    const auto& prediction = compiled.prediction();
    EXPECT_EQ(prediction.total_rounds, engine.round()) << what;
    EXPECT_EQ(prediction.completion_round, engine.last_first_data_reception())
        << what;
    for (NodeId v = 0; v < n; ++v) {
      const auto& p = dynamic_cast<const core::ArbProtocol&>(
          engine.protocol(v));
      if (p.is_coordinator()) {
        EXPECT_EQ(prediction.T, p.T()) << what;
      }
      if (prediction.ok) {
        EXPECT_EQ(prediction.done_round, p.done_round())
            << what << " node " << v;
      }
    }
  }
}

TEST(CompiledArb, RunnerAgreesWithEngineRunner) {
  const auto graphs = random_graphs(20, 0xA7B2);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    if (n < 2) continue;
    const NodeId source = static_cast<NodeId>((i + 1) % n);
    const auto engine_run = runtime::run_scheme("arb", g, source);
    const auto compiled_run =
        runtime::run_scheme("arb", g, source, {}, {.compiled = true});
    const std::string what = "graph " + std::to_string(i) + " " + g.summary();
    EXPECT_TRUE(engine_run.ok) << what;
    EXPECT_EQ(compiled_run.ok, engine_run.ok) << what;
    EXPECT_EQ(compiled_run.rounds, engine_run.rounds) << what;
    EXPECT_EQ(compiled_run.done_round, engine_run.done_round) << what;
    EXPECT_EQ(compiled_run.T, engine_run.T) << what;
    EXPECT_EQ(compiled_run.special, engine_run.special) << what;
  }
}

// ---------------------------------------------------------------------------
// Collision-detection equivalence at the engine-option level (§1.1 remark).

TEST(CollisionDetection, SignalDeliveredIdenticallyAcrossBackends) {
  // K4: three neighbours transmitting at once → every listener collides.
  const Graph g = graph::complete(65);  // spans a word boundary
  for (const auto kind : {sim::BackendKind::kScalar, sim::BackendKind::kBit}) {
    sim::Engine e(g, hash_talkers(g.node_count(), 5, 2),
                  {sim::TraceLevel::kFull, true, kind});
    for (int r = 0; r < 8; ++r) e.step();
    std::uint64_t signals = 0, recorded = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      signals += dynamic_cast<const HashTalker&>(e.protocol(v)).collisions();
    }
    for (const auto& round : e.trace().rounds()) {
      recorded += round.collisions.size();
    }
    EXPECT_EQ(signals, recorded) << to_string(kind);
    EXPECT_GT(signals, 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace radiocast
