// Differential and regression tests for the engine's protocol-dispatch
// strategies.  The active-set dispatcher (calendar queue fed by the
// Protocol activity contract) must be bit-exact with the full scan —
// identical traces, counters, informed rounds, and protocol-observable
// histories — for every paper protocol, on every backend, with and without
// collision detection.  The silent-round
// fast path must do literally nothing: zero on_round() polls and zero heap
// allocations when the calendar says nobody is awake.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/arb.hpp"
#include "core/multi.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "sim/dispatch.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter for the silent-round fast-path test.  Replacing
// operator new/delete is per-binary, so this instrumentation is visible to
// every allocation the engine makes in this test executable.  The nothrow
// forms are replaced too (as in test_population): std::inplace_merge's
// temporary buffer, which G(n, p) graphs with stitched components build
// through, comes from them and goes back through the replaced delete.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
// The deletes stay out of line: once GCC 12 inlines a std::free into a
// caller that paired it with the replaced new, -Wmismatched-new-delete
// fires at -O3.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace radiocast {
namespace {

using graph::Graph;
using graph::NodeId;
using runtime::ExecutionConfig;
using runtime::SchemeOptions;

// ---------------------------------------------------------------------------
// Helpers

/// Deterministic pseudo-random talker with NO activity hint (kAlwaysActive):
/// exercises the calendar's every-round rescheduling path on arbitrary
/// traffic.  Mirrors test_engine_backends' HashTalker.
class HashTalker final : public sim::Protocol {
 public:
  HashTalker(std::uint64_t seed, std::uint32_t id, std::uint32_t period)
      : seed_(seed), id_(id), period_(period) {}

  std::optional<sim::Message> on_round() override {
    ++round_;
    ++polls_;
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
  std::uint64_t polls() const { return polls_; }

 private:
  std::uint64_t seed_;
  std::uint32_t id_;
  std::uint32_t period_;
  std::uint64_t round_ = 0;
  std::uint64_t polls_ = 0;
  std::vector<std::pair<std::uint64_t, sim::Message>> heard_;
  std::uint64_t collisions_ = 0;
};

/// Hint-complete protocol transmitting at a fixed set of local rounds and
/// counting every poll — the oracle for calendar wake-ups (near and far) and
/// for the zero-poll silent-round assertion.
class PulseProtocol final : public sim::Protocol {
 public:
  explicit PulseProtocol(std::vector<std::uint64_t> pulses)
      : pulses_(std::move(pulses)) {}

  std::optional<sim::Message> on_round() override {
    ++round_;
    ++polls_;
    for (const auto p : pulses_) {
      if (p == round_) {
        return sim::Message{sim::MsgKind::kData, 0,
                            static_cast<std::uint32_t>(round_), std::nullopt};
      }
    }
    return std::nullopt;
  }
  void on_hear(const sim::Message& m) override {
    heard_.emplace_back(round_, m);
  }
  bool informed() const override { return true; }

  std::uint64_t next_active_round() const override {
    std::uint64_t next = kIdle;
    for (const auto p : pulses_) {
      if (p > round_ && p < next) next = p;
    }
    return next;
  }
  void skip_rounds(std::uint64_t rounds) override { round_ += rounds; }

  std::uint64_t polls() const { return polls_; }
  const std::vector<std::pair<std::uint64_t, sim::Message>>& heard() const {
    return heard_;
  }

 private:
  std::vector<std::uint64_t> pulses_;
  std::uint64_t round_ = 0;
  std::uint64_t polls_ = 0;
  std::vector<std::pair<std::uint64_t, sim::Message>> heard_;
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

std::vector<Graph> random_graphs(std::size_t count, std::uint64_t seed) {
  std::vector<Graph> graphs;
  Rng rng(seed);
  while (graphs.size() < count) {
    switch (graphs.size() % 4) {
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
      default:
        graphs.push_back(graph::path(
            2 + static_cast<std::uint32_t>(rng.below(30))));
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

sim::EngineOptions opts(sim::DispatchKind dispatch,
                        sim::BackendKind backend = sim::BackendKind::kScalar,
                        bool collision_detection = false) {
  sim::EngineOptions o;
  o.trace = sim::TraceLevel::kFull;
  o.collision_detection = collision_detection;
  o.backend = backend;
  o.dispatch = dispatch;
  return o;
}

// ---------------------------------------------------------------------------
// Strategy selection and parsing

TEST(DispatchSelection, ParseAndNameRoundTrip) {
  using sim::DispatchKind;
  EXPECT_STREQ(sim::to_string(DispatchKind::kAuto), "auto");
  EXPECT_STREQ(sim::to_string(DispatchKind::kScan), "scan");
  EXPECT_STREQ(sim::to_string(DispatchKind::kActiveSet), "active");
  for (const auto k : {DispatchKind::kAuto, DispatchKind::kScan,
                       DispatchKind::kActiveSet}) {
    const auto parsed = sim::parse_dispatch(sim::to_string(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(sim::parse_dispatch("activeset").has_value());
  EXPECT_FALSE(sim::parse_dispatch("").has_value());
}

TEST(DispatchSelection, AutoPicksActiveSetIffProtocolsHint) {
  const Graph g = graph::path(16);
  // Hint-less population: kAuto stays with the zero-overhead scan.
  sim::Engine scan(g, hash_talkers(16, 1, 3), {});
  EXPECT_EQ(scan.dispatch_kind(), sim::DispatchKind::kScan);
  // The paper protocols hint, so kAuto upgrades.
  const auto labeling = core::label_broadcast(g, 0);
  sim::Engine active(g, core::make_broadcast_protocols(labeling, 7), {});
  EXPECT_EQ(active.dispatch_kind(), sim::DispatchKind::kActiveSet);
  // Explicit requests are honored in both directions.
  sim::Engine forced_active(g, hash_talkers(16, 1, 3),
                            opts(sim::DispatchKind::kActiveSet));
  EXPECT_EQ(forced_active.dispatch_kind(), sim::DispatchKind::kActiveSet);
  sim::Engine forced_scan(g, core::make_broadcast_protocols(labeling, 7),
                          opts(sim::DispatchKind::kScan));
  EXPECT_EQ(forced_scan.dispatch_kind(), sim::DispatchKind::kScan);
}

// ---------------------------------------------------------------------------
// Random-traffic differentials: hint-less protocols force the calendar's
// every-round rescheduling; scan and active-set must match exactly.

void run_traffic_differential(bool collision_detection, std::uint64_t seed,
                              sim::BackendKind backend) {
  const auto graphs = random_graphs(30, seed);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    const std::uint32_t period = 2 + static_cast<std::uint32_t>(i % 5);
    sim::Engine scan(g, hash_talkers(n, seed + i, period),
                     opts(sim::DispatchKind::kScan, sim::BackendKind::kScalar,
                          collision_detection));
    sim::Engine active(
        g, hash_talkers(n, seed + i, period),
        opts(sim::DispatchKind::kActiveSet, backend, collision_detection));
    for (int r = 0; r < 24; ++r) {
      EXPECT_EQ(scan.step(), active.step());
    }
    const std::string what = "graph " + std::to_string(i) + " " + g.summary() +
                             (collision_detection ? " (cd)" : "");
    expect_engines_equal(scan, active, what);
    for (NodeId v = 0; v < n; ++v) {
      const auto& ps = dynamic_cast<const HashTalker&>(scan.protocol(v));
      const auto& pa = dynamic_cast<const HashTalker&>(active.protocol(v));
      EXPECT_EQ(ps.heard(), pa.heard()) << what << " node " << v;
      EXPECT_EQ(ps.collisions(), pa.collisions()) << what << " node " << v;
      // Hint-less protocols must still be polled every round.
      EXPECT_EQ(ps.polls(), pa.polls()) << what << " node " << v;
    }
  }
}

TEST(DispatchDifferential, RandomTrafficScanVsActive) {
  run_traffic_differential(false, 0xD15, sim::BackendKind::kScalar);
}

TEST(DispatchDifferential, RandomTrafficScanVsActiveWithCollisionDetection) {
  run_traffic_differential(true, 0xD16, sim::BackendKind::kScalar);
}

TEST(DispatchDifferential, RandomTrafficActiveOnBitBackend) {
  run_traffic_differential(false, 0xD17, sim::BackendKind::kBit);
  run_traffic_differential(true, 0xD18, sim::BackendKind::kBit);
}

// ---------------------------------------------------------------------------
// Paper protocols: every scheme, scan vs active-set, trace for trace.  The
// active engine additionally runs on the bit backend so dispatch and
// resolution strategies are exercised orthogonally.

template <typename MakeProtocols, typename Stop>
void scheme_differential(const Graph& g, MakeProtocols make, Stop stop,
                         std::uint64_t max_rounds, const std::string& what) {
  sim::Engine scan(g, make(), opts(sim::DispatchKind::kScan));
  sim::Engine active(g, make(), opts(sim::DispatchKind::kActiveSet));
  sim::Engine active_bit(
      g, make(),
      opts(sim::DispatchKind::kActiveSet, sim::BackendKind::kBit));
  scan.run_until(stop, max_rounds);
  active.run_until(stop, max_rounds);
  active_bit.run_until(stop, max_rounds);
  expect_engines_equal(scan, active, what + " (active)");
  expect_engines_equal(scan, active_bit, what + " (active+bit)");
  // Dispatch savings observable: active never polls more than scan.
  EXPECT_LE(active.polls_total(), scan.polls_total()) << what;
}

TEST(DispatchDifferential, BroadcastSchemeScanVsActive) {
  const auto graphs = random_graphs(40, 0xB40);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const NodeId source = static_cast<NodeId>(i % g.node_count());
    const auto labeling = core::label_broadcast(g, source);
    scheme_differential(
        g, [&] { return core::make_broadcast_protocols(labeling, 42); },
        [](const sim::Engine& e) { return e.all_informed(); },
        core::default_round_budget(g.node_count(), 4),
        "B graph " + std::to_string(i) + " " + g.summary());
  }
}

TEST(DispatchDifferential, AckSchemeScanVsActive) {
  const auto graphs = random_graphs(30, 0xB41);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    if (g.node_count() < 2) continue;
    const NodeId source = static_cast<NodeId>(i % g.node_count());
    const auto labeling = core::label_acknowledged(g, source);
    scheme_differential(
        g, [&] { return core::make_ack_protocols(labeling, 7); },
        [source](const sim::Engine& e) {
          const auto& src = dynamic_cast<const core::AckBroadcastProtocol&>(
              e.protocol(source));
          return src.ack_round() != 0;
        },
        core::default_round_budget(g.node_count(), 6),
        "B_ack graph " + std::to_string(i) + " " + g.summary());
  }
}

TEST(DispatchDifferential, CommonRoundSchemeScanVsActive) {
  const auto graphs = random_graphs(20, 0xB42);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    if (g.node_count() < 2) continue;
    const NodeId source = static_cast<NodeId>(i % g.node_count());
    const auto labeling = core::label_acknowledged(g, source);
    scheme_differential(
        g, [&] { return core::make_common_round_protocols(labeling, 7); },
        [](const sim::Engine& e) {
          for (NodeId v = 0; v < e.graph().node_count(); ++v) {
            const auto& p = dynamic_cast<const core::CommonRoundProtocol&>(
                e.protocol(v));
            if (p.knows_done_at() == 0) return false;
          }
          return true;
        },
        core::default_round_budget(g.node_count(), 10),
        "common graph " + std::to_string(i) + " " + g.summary());
  }
}

TEST(DispatchDifferential, ArbSchemeScanVsActive) {
  const auto graphs = random_graphs(30, 0xB43);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    const auto n = g.node_count();
    if (n < 2) continue;
    // Rotate source and coordinator; include the source == r corner case
    // whose phase-3 start runs off the coordinator's own timer.
    const NodeId source = static_cast<NodeId>(i % n);
    const NodeId coordinator =
        i % 3 == 0 ? source : static_cast<NodeId>((i / 2) % n);
    const auto labeling = core::label_arbitrary(g, coordinator);
    scheme_differential(
        g, [&] { return core::make_arb_protocols(labeling, source, 99); },
        [](const sim::Engine& e) {
          for (NodeId v = 0; v < e.graph().node_count(); ++v) {
            const auto& p =
                dynamic_cast<const core::ArbProtocol&>(e.protocol(v));
            if (!p.mu() || p.done_round() == 0) return false;
          }
          return true;
        },
        core::default_round_budget(n, 16),
        "B_arb graph " + std::to_string(i) + " src=" +
            std::to_string(source) + " r=" + std::to_string(coordinator) +
            " " + g.summary());
  }
}

TEST(DispatchDifferential, RunnersAgreeAcrossDispatchModes) {
  const auto graphs = random_graphs(12, 0xB44);
  for (const auto& g : graphs) {
    if (g.node_count() < 2) continue;
    const ExecutionConfig scan_cfg{.dispatch = sim::DispatchKind::kScan};
    const ExecutionConfig active_cfg{.dispatch = sim::DispatchKind::kActiveSet};
    const auto scan = runtime::run_scheme("ack", g, 0, {}, scan_cfg);
    const auto active = runtime::run_scheme("ack", g, 0, {}, active_cfg);
    EXPECT_EQ(scan.all_informed, active.all_informed) << g.summary();
    EXPECT_EQ(scan.completion_round, active.completion_round) << g.summary();
    EXPECT_EQ(scan.ack_round, active.ack_round) << g.summary();
    EXPECT_EQ(scan.max_stamp, active.max_stamp) << g.summary();

    const SchemeOptions multi{.payloads = {5, 6, 7}};
    const auto multi_scan = runtime::run_scheme("multi", g, 0, multi, scan_cfg);
    const auto multi_active =
        runtime::run_scheme("multi", g, 0, multi, active_cfg);
    EXPECT_EQ(multi_scan.ok, multi_active.ok) << g.summary();
    EXPECT_EQ(multi_scan.ack_rounds, multi_active.ack_rounds) << g.summary();
    EXPECT_EQ(multi_scan.rounds, multi_active.rounds) << g.summary();
  }
}

TEST(DispatchDifferential, OneBitRunnerAgreesAcrossDispatchModes) {
  for (int i = 0; i < 4; ++i) {
    const Graph g = graph::grid(2 + i, 3 + i);
    const ExecutionConfig scan_cfg{.dispatch = sim::DispatchKind::kScan};
    const ExecutionConfig active_cfg{.dispatch = sim::DispatchKind::kActiveSet};
    const auto scan = runtime::run_scheme("onebit", g, 0, {}, scan_cfg);
    const auto active = runtime::run_scheme("onebit", g, 0, {}, active_cfg);
    EXPECT_EQ(scan.ok, active.ok) << g.summary();
    EXPECT_EQ(scan.completion_round, active.completion_round) << g.summary();
    const auto ack_scan = runtime::run_scheme("onebit-ack", g, 0, {}, scan_cfg);
    const auto ack_active =
        runtime::run_scheme("onebit-ack", g, 0, {}, active_cfg);
    EXPECT_EQ(ack_scan.ok, ack_active.ok) << g.summary();
    EXPECT_EQ(ack_scan.ack_round, ack_active.ack_round) << g.summary();
  }
}

// ---------------------------------------------------------------------------
// Incremental informed counter

TEST(DispatchDifferential, InformedCounterMatchesProtocolScan) {
  const auto graphs = random_graphs(10, 0x1F0);
  for (const auto& g : graphs) {
    const auto labeling = core::label_broadcast(g, 0);
    sim::Engine e(g, core::make_broadcast_protocols(labeling, 5),
                  opts(sim::DispatchKind::kActiveSet));
    const auto max_rounds = core::default_round_budget(g.node_count(), 4);
    for (std::uint64_t r = 0; r < max_rounds; ++r) {
      e.step();
      std::uint32_t manual = 0;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        manual += e.protocol(v).informed() ? 1u : 0u;
      }
      ASSERT_EQ(e.informed_count(), manual) << g.summary() << " round " << r;
      ASSERT_EQ(e.all_informed(), manual == g.node_count()) << g.summary();
    }
    EXPECT_TRUE(e.all_informed()) << g.summary();
  }
}

// ---------------------------------------------------------------------------
// Silent-round fast path: when the calendar says nobody is awake, a step
// must issue zero on_round() polls, allocate nothing, and still advance
// silent_streak_.

TEST(SilentRound, NoPollsNoAllocationsStreakAdvances) {
  // Node 0 pulses in rounds 1 and 12; everyone else is idle until re-armed.
  // After round 2 (the re-arm poll of 0's neighbours), rounds 3..11 have an
  // empty calendar.
  const Graph g = graph::path(6);
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  protocols.push_back(
      std::make_unique<PulseProtocol>(std::vector<std::uint64_t>{1, 12}));
  for (NodeId v = 1; v < g.node_count(); ++v) {
    protocols.push_back(
        std::make_unique<PulseProtocol>(std::vector<std::uint64_t>{}));
  }
  sim::Engine e(g, std::move(protocols),
                {.dispatch = sim::DispatchKind::kActiveSet});
  ASSERT_EQ(e.dispatch_kind(), sim::DispatchKind::kActiveSet);

  e.step();  // round 1: node 0 transmits, node 1 hears
  e.step();  // round 2: node 1's re-arm poll (returns nullopt)
  const auto polls_before = e.polls_total();
  const auto streak_before = e.silent_streak();

  const auto allocs_before = g_allocations.load(std::memory_order_relaxed);
  for (int r = 3; r <= 11; ++r) e.step();  // provably silent rounds
  const auto allocs_after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after, allocs_before) << "silent rounds must not allocate";
  EXPECT_EQ(e.polls_total(), polls_before)
      << "silent rounds must not poll any protocol";
  EXPECT_EQ(e.silent_streak(), streak_before + 9);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& p = dynamic_cast<const PulseProtocol&>(e.protocol(v));
    EXPECT_LE(p.polls(), 2u) << "node " << v;
  }

  // Round 12: the calendar wakes node 0 again and the message lands with
  // the correct local round stamp at node 1 (clock restored via
  // skip_rounds).
  e.step();
  EXPECT_EQ(e.transmissions_total(), 2u);
  const auto& n1 = dynamic_cast<const PulseProtocol&>(e.protocol(1));
  ASSERT_EQ(n1.heard().size(), 2u);
  EXPECT_EQ(n1.heard()[0].first, 1u);
  EXPECT_EQ(n1.heard()[1].first, 12u);
  EXPECT_EQ(e.silent_streak(), 0u);
}

TEST(SilentRound, FarWakesBeyondCalendarWindowFire) {
  // A pulse far past the 64-slot calendar ring exercises the far-wake heap.
  const Graph g = graph::path(3);
  std::vector<std::unique_ptr<sim::Protocol>> protocols;
  protocols.push_back(
      std::make_unique<PulseProtocol>(std::vector<std::uint64_t>{1, 200}));
  protocols.push_back(
      std::make_unique<PulseProtocol>(std::vector<std::uint64_t>{100}));
  protocols.push_back(
      std::make_unique<PulseProtocol>(std::vector<std::uint64_t>{}));
  sim::Engine e(g, std::move(protocols),
                {.dispatch = sim::DispatchKind::kActiveSet});
  for (int r = 1; r <= 200; ++r) e.step();
  EXPECT_EQ(e.tx_count(0), 2u);
  EXPECT_EQ(e.tx_count(1), 1u);
  const auto& n2 = dynamic_cast<const PulseProtocol&>(e.protocol(2));
  ASSERT_EQ(n2.heard().size(), 1u);
  EXPECT_EQ(n2.heard()[0].first, 100u);  // clock correct after a 97-round nap
  const auto& n0 = dynamic_cast<const PulseProtocol&>(e.protocol(0));
  ASSERT_EQ(n0.heard().size(), 1u);
  EXPECT_EQ(n0.heard()[0].first, 100u);
  // Dispatch cost stayed proportional to activity, not rounds x nodes.
  EXPECT_LT(e.polls_total(), 20u);
}

// ---------------------------------------------------------------------------
// Dispatch-cost observable: on a path, B keeps O(1) nodes active per round,
// so the active set polls a vanishing fraction of what the scan pays.

TEST(DispatchDifferential, ActiveSetPollsTrackActivityOnPath) {
  const Graph g = graph::path(256);
  const auto labeling = core::label_broadcast(g, 0);
  const auto max_rounds = core::default_round_budget(g.node_count(), 4);
  sim::Engine scan(g, core::make_broadcast_protocols(labeling, 1),
                   opts(sim::DispatchKind::kScan));
  sim::Engine active(g, core::make_broadcast_protocols(labeling, 1),
                     opts(sim::DispatchKind::kActiveSet));
  scan.run_until([](const sim::Engine& e) { return e.all_informed(); },
                 max_rounds);
  active.run_until([](const sim::Engine& e) { return e.all_informed(); },
                   max_rounds);
  ASSERT_TRUE(active.all_informed());
  EXPECT_EQ(scan.round(), active.round());
  // Scan pays n polls per round; the active set pays O(1) per round here.
  EXPECT_EQ(scan.polls_total(), scan.round() * g.node_count());
  EXPECT_LT(active.polls_total() * 10, scan.polls_total());
}

}  // namespace
}  // namespace radiocast
