// Differential suite for the flat populations (core/population.hpp).  The
// array-based B, B_ack, common-round and B_arb must reproduce the per-node
// protocol classes they port: every SchemeResult field, polls included,
// and the full trace, on every backend, with and without collision
// detection, under edge loss, crash/restart and jam faults, on random,
// sparse multi-word and every connected graph of up to five nodes.  Also
// pinned here: the dispatch cost model (on fault-free runs every poll
// transmits), the listening mask (a masked counters run is the full run),
// silent rounds on the population path poll and allocate nothing, sweep
// output is byte-identical at any thread count, and both implementations
// are anonymous — a run on a node-permuted network with permuted labels is
// the permuted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "core/arb.hpp"
#include "core/population.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"
#include "support/rng.hpp"

// Global allocation counter for the silent-round check (operator new is
// replaced per binary, as in test_dispatch).  The nothrow forms are
// replaced too: std::inplace_merge's temporary buffer comes from them and
// goes back through the replaced delete, which sanitizers check.
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
using runtime::PlanPtr;
using runtime::Scheme;
using runtime::SchemeOptions;
using runtime::SchemeResult;

const char* const kSchemes[] = {"b", "ack", "common-round", "arb"};

const Scheme& scheme_named(const char* name) {
  const Scheme* scheme = runtime::SchemeRegistry::instance().find(name);
  RC_EXPECTS(scheme != nullptr);
  return *scheme;
}

enum class Impl { kPopulation, kProtocols };

/// `run_with_plan`'s engine path with the implementation chosen
/// explicitly: the scheme's flat population or its per-node protocols,
/// under `config.dispatch` either way.  `inspect` sees the finished engine.
SchemeResult run_engine(
    const Scheme& scheme, const Graph& g, NodeId source, const PlanPtr& plan,
    const SchemeOptions& opt, const ExecutionConfig& config, Impl impl,
    const std::function<void(const sim::Engine&)>& inspect = {}) {
  std::unique_ptr<sim::Population> population;
  if (impl == Impl::kPopulation) {
    population = scheme.make_population(g, source, *plan, opt);
    RC_EXPECTS(population != nullptr);
  } else {
    population = std::make_unique<sim::ProtocolPopulation>(
        scheme.make_protocols(g, source, *plan, opt));
  }
  sim::EngineOptions engine_opt = config.engine_options();
  sim::Engine engine(g, std::move(population), engine_opt);
  const std::uint64_t budget = config.max_rounds
                                   ? config.max_rounds
                                   : scheme.round_budget(g, *plan, opt);
  engine.run_until(
      [&](const sim::Engine& e) { return scheme.done(e, source, opt); },
      budget);
  SchemeResult out;
  out.rounds = engine.round();
  out.tx_total = engine.transmissions_total();
  out.max_node_tx = engine.max_tx_count();
  out.polls = engine.polls_total();
  out.all_informed = engine.all_informed();
  scheme.collect(engine, g, source, *plan, opt, config, out);
  if (inspect) inspect(engine);
  if (config.trace == sim::TraceLevel::kFull) out.trace = engine.take_trace();
  return out;
}

void expect_traces_equal(const sim::Trace& a, const sim::Trace& b,
                         const std::string& what) {
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << what;
  for (std::size_t t = 0; t < a.rounds().size(); ++t) {
    const auto& ra = a.rounds()[t];
    const auto& rb = b.rounds()[t];
    ASSERT_EQ(ra.transmissions, rb.transmissions) << what << " round " << t + 1;
    ASSERT_EQ(ra.deliveries, rb.deliveries) << what << " round " << t + 1;
    ASSERT_EQ(ra.collisions, rb.collisions) << what << " round " << t + 1;
  }
}

/// Every SchemeResult field (`polls` only when both ran the same dispatch)
/// and the trace.
void expect_same_run(const SchemeResult& a, const SchemeResult& b,
                     const std::string& what, bool same_dispatch) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.all_informed, b.all_informed) << what;
  EXPECT_EQ(a.labeling_found, b.labeling_found) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.completion_round, b.completion_round) << what;
  EXPECT_EQ(a.ack_round, b.ack_round) << what;
  EXPECT_EQ(a.bound, b.bound) << what;
  EXPECT_EQ(a.ell, b.ell) << what;
  EXPECT_EQ(a.special, b.special) << what;
  EXPECT_EQ(a.max_stamp, b.max_stamp) << what;
  EXPECT_EQ(a.done_round, b.done_round) << what;
  EXPECT_EQ(a.T, b.T) << what;
  EXPECT_EQ(a.last_learned, b.last_learned) << what;
  EXPECT_EQ(a.stay_count, b.stay_count) << what;
  EXPECT_EQ(a.data_tx_count, b.data_tx_count) << what;
  EXPECT_EQ(a.max_node_tx, b.max_node_tx) << what;
  EXPECT_EQ(a.tx_total, b.tx_total) << what;
  if (same_dispatch) {
    EXPECT_EQ(a.polls, b.polls) << what;
  }
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.ones, b.ones) << what;
  EXPECT_EQ(a.label_bits, b.label_bits) << what;
  EXPECT_EQ(a.ack_rounds, b.ack_rounds) << what;
  EXPECT_EQ(a.rounds_per_message, b.rounds_per_message) << what;
  expect_traces_equal(a.trace, b.trace, what);
}

/// The four fault regimes: none, Bernoulli edge loss, crash/restart (the
/// usual source 0 from round 1, plus a mid-run window), and jam rounds.
std::vector<std::pair<std::string, sim::FaultPlan>> fault_plans(NodeId n) {
  std::vector<std::pair<std::string, sim::FaultPlan>> out;
  out.emplace_back("none", sim::FaultPlan{});
  sim::FaultPlan loss;
  loss.edge_loss_ppm = 150000;
  loss.seed = 7;
  out.emplace_back("loss", loss);
  sim::FaultPlan crash;
  crash.crashes.push_back({0, 1, 3});
  crash.crashes.push_back({n / 2, 4, 9});
  out.emplace_back("crash", crash);
  sim::FaultPlan jam;
  jam.jams.push_back({3, 4});
  jam.jams.push_back({9, 9});
  out.emplace_back("jam", jam);
  return out;
}

struct Variant {
  sim::BackendKind backend;
  const char* tag;
};

constexpr Variant kAllBackends[] = {
    {sim::BackendKind::kScalar, "scalar"},
    {sim::BackendKind::kBit, "bit"},
};

/// The population against the per-node protocols at the same dispatch
/// (every field, polls included), and — `with_scan` — against the kScan
/// reference that `run_with_plan` runs (every field but polls).
void check_against_protocols(const Scheme& scheme, const Graph& g,
                             NodeId source, const SchemeOptions& opt,
                             const PlanPtr& plan, ExecutionConfig config,
                             const std::string& what, bool with_scan = true) {
  config.trace = sim::TraceLevel::kFull;
  config.dispatch = sim::DispatchKind::kActiveSet;
  const auto flat =
      run_engine(scheme, g, source, plan, opt, config, Impl::kPopulation);
  const auto nodes =
      run_engine(scheme, g, source, plan, opt, config, Impl::kProtocols);
  expect_same_run(flat, nodes, what + " active", /*same_dispatch=*/true);
  if (!with_scan) return;
  config.dispatch = sim::DispatchKind::kScan;
  const auto scan =
      runtime::run_with_plan(scheme, g, source, plan, opt, config);
  expect_same_run(flat, scan, what + " vs scan", /*same_dispatch=*/false);
}

/// Connected graphs spanning sparse and dense regimes, n in [2, 70).
std::vector<Graph> random_graphs(std::size_t count, std::uint64_t seed) {
  std::vector<Graph> graphs;
  Rng rng(seed);
  while (graphs.size() < count) {
    switch (graphs.size() % 4) {
      case 0:
        graphs.push_back(graph::gnp_connected(
            2 + static_cast<std::uint32_t>(rng.below(40)),
            0.05 + 0.01 * static_cast<double>(rng.below(60)), rng));
        break;
      case 1:
        graphs.push_back(graph::random_tree(
            2 + static_cast<std::uint32_t>(rng.below(60)), rng));
        break;
      case 2:
        graphs.push_back(
            graph::grid(2 + static_cast<std::uint32_t>(rng.below(6)),
                        2 + static_cast<std::uint32_t>(rng.below(7))));
        break;
      default:
        graphs.push_back(
            graph::complete(2 + static_cast<std::uint32_t>(rng.below(12))));
        break;
    }
  }
  return graphs;
}

/// Sparse graphs spanning many 64-bit words, n in [300, 5000) (the
/// test_engine_backends recipe).
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

// ---------------------------------------------------------------------------
// Equality with the per-node classes

TEST(PopulationHook, PaperSchemesProvideOneOthersRunProtocols) {
  const Graph g = graph::grid(3, 4);
  SchemeOptions opt;
  for (const char* name : kSchemes) {
    const Scheme& scheme = scheme_named(name);
    EXPECT_NE(scheme.make_population(g, 0, *scheme.label(g, 0, opt), opt),
              nullptr)
        << name;
  }
  for (const char* name : {"multi", "onebit", "onebit-ack", "round-robin",
                           "color-robin", "decay", "beep"}) {
    const Scheme& scheme = scheme_named(name);
    EXPECT_EQ(scheme.make_population(g, 0, *scheme.label(g, 0, opt), opt),
              nullptr)
        << name;
  }
  SchemeOptions resilient;
  resilient.resilient = true;
  const Scheme& ack = scheme_named("ack");
  EXPECT_EQ(ack.make_population(g, 0, *ack.label(g, 0, resilient), resilient),
            nullptr);
}

TEST(PopulationDifferential, MatchesProtocolsOnRandomGraphs) {
  const auto graphs = random_graphs(12, 0xF1A7);
  Rng rng(0xF1A7);
  for (const char* name : kSchemes) {
    const Scheme& scheme = scheme_named(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const auto source = static_cast<NodeId>(rng.below(g.node_count()));
      SchemeOptions opt;
      opt.coordinator = static_cast<NodeId>(rng.below(g.node_count()));
      const PlanPtr plan = scheme.label(g, source, opt);
      for (const Variant& v : kAllBackends) {
        for (const bool cd : {false, true}) {
          for (const auto& [fault_tag, faults] : fault_plans(g.node_count())) {
            ExecutionConfig config;
            config.backend = v.backend;
            config.collision_detection = cd;
            config.faults = faults;
            check_against_protocols(
                scheme, g, source, opt, plan, config,
                std::string(name) + " graph#" + std::to_string(gi) + " " +
                    g.summary() + " " + v.tag + (cd ? " +cd " : " ") +
                    fault_tag);
          }
        }
      }
    }
  }
}

TEST(PopulationDifferential, MatchesProtocolsOnSparseMultiWordGraphs) {
  const auto graphs = sparse_multiword_graphs(4, 0x5EED);
  for (const char* name : kSchemes) {
    const Scheme& scheme = scheme_named(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const NodeId source = g.node_count() / 3;
      SchemeOptions opt;
      opt.coordinator = g.node_count() - 1;
      const PlanPtr plan = scheme.label(g, source, opt);
      for (const Variant& v : kAllBackends) {
        for (const auto& [fault_tag, faults] : fault_plans(g.node_count())) {
          if (fault_tag != "none" && fault_tag != "loss") continue;
          ExecutionConfig config;
          config.backend = v.backend;
          config.faults = faults;
          // A kScan run here polls thousands of nodes for up to 16n rounds
          // (a lossy run may never finish); the random and exhaustive
          // suites pin the scan reference.
          check_against_protocols(scheme, g, source, opt, plan, config,
                                  std::string(name) + " multiword#" +
                                      std::to_string(gi) + " " + g.summary() +
                                      " " + v.tag + " " + fault_tag,
                                  /*with_scan=*/false);
        }
      }
    }
  }
}

TEST(PopulationDifferential, MatchesProtocolsOnEveryGraphUpToFiveNodes) {
  for (std::uint32_t n = 2; n <= 5; ++n) {
    std::size_t count = 0;
    graph::for_each_connected_graph(n, [&](const Graph& g) {
      ++count;
      for (const char* name : kSchemes) {
        const Scheme& scheme = scheme_named(name);
        for (NodeId source = 0; source < n; ++source) {
          SchemeOptions opt;
          opt.coordinator = (source + 1) % n;
          const PlanPtr plan = scheme.label(g, source, opt);
          for (const bool cd : {false, true}) {
            ExecutionConfig config;
            config.backend = sim::BackendKind::kScalar;
            config.collision_detection = cd;
            check_against_protocols(
                scheme, g, source, opt, plan, config,
                std::string(name) + " " + std::to_string(n) + "-node#" +
                    std::to_string(count) + " source " +
                    std::to_string(source) + (cd ? " +cd" : ""));
          }
        }
      }
    });
    EXPECT_EQ(count, graph::connected_graph_count(n));
  }
}

// ---------------------------------------------------------------------------
// The dispatch cost model: a node is woken only where its label acts, so on
// fault-free runs every poll transmits — on the population and on the
// per-node reference alike.

void expect_polls_transmit(const Scheme& scheme, const Graph& g,
                           NodeId source, const SchemeOptions& opt,
                           const PlanPtr& plan, ExecutionConfig config,
                           const std::string& what) {
  config.dispatch = sim::DispatchKind::kActiveSet;
  for (const Impl impl : {Impl::kPopulation, Impl::kProtocols}) {
    const auto r = run_engine(scheme, g, source, plan, opt, config, impl);
    EXPECT_TRUE(r.ok) << what;
    EXPECT_EQ(r.polls, r.tx_total)
        << what << (impl == Impl::kPopulation ? " population" : " protocols");
  }
}

TEST(PopulationCostModel, EveryPollTransmitsOnRandomGraphs) {
  const auto graphs = random_graphs(12, 0xC057);
  Rng rng(0xC057);
  for (const char* name : kSchemes) {
    const Scheme& scheme = scheme_named(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const auto source = static_cast<NodeId>(rng.below(g.node_count()));
      SchemeOptions opt;
      opt.coordinator = static_cast<NodeId>(rng.below(g.node_count()));
      const PlanPtr plan = scheme.label(g, source, opt);
      for (const Variant& v : kAllBackends) {
        for (const bool cd : {false, true}) {
          ExecutionConfig config;
          config.backend = v.backend;
          config.collision_detection = cd;
          expect_polls_transmit(scheme, g, source, opt, plan, config,
                                std::string(name) + " graph#" +
                                    std::to_string(gi) + " " + g.summary() +
                                    " " + v.tag + (cd ? " +cd" : ""));
        }
      }
    }
  }
}

TEST(PopulationCostModel, EveryPollTransmitsOnSparseMultiWordGraphs) {
  const auto graphs = sparse_multiword_graphs(4, 0xC058);
  for (const char* name : kSchemes) {
    const Scheme& scheme = scheme_named(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const NodeId source = g.node_count() / 3;
      SchemeOptions opt;
      opt.coordinator = g.node_count() - 1;
      const PlanPtr plan = scheme.label(g, source, opt);
      for (const Variant& v : kAllBackends) {
        for (const bool cd : {false, true}) {
          ExecutionConfig config;
          config.backend = v.backend;
          config.collision_detection = cd;
          expect_polls_transmit(scheme, g, source, opt, plan, config,
                                std::string(name) + " multiword#" +
                                    std::to_string(gi) + " " + g.summary() +
                                    " " + v.tag + (cd ? " +cd" : ""));
        }
      }
    }
  }
}

TEST(PopulationCostModel, EveryPollTransmitsOnEveryGraphUpToFiveNodes) {
  for (std::uint32_t n = 2; n <= 5; ++n) {
    std::size_t count = 0;
    graph::for_each_connected_graph(n, [&](const Graph& g) {
      ++count;
      for (const char* name : kSchemes) {
        const Scheme& scheme = scheme_named(name);
        for (NodeId source = 0; source < n; ++source) {
          SchemeOptions opt;
          opt.coordinator = (source + 1) % n;
          const PlanPtr plan = scheme.label(g, source, opt);
          for (const Variant& v : kAllBackends) {
            for (const bool cd : {false, true}) {
              ExecutionConfig config;
              config.backend = v.backend;
              config.collision_detection = cd;
              expect_polls_transmit(
                  scheme, g, source, opt, plan, config,
                  std::string(name) + " " + std::to_string(n) + "-node#" +
                      std::to_string(count) + " source " +
                      std::to_string(source) + " " + v.tag +
                      (cd ? " +cd" : ""));
            }
          }
        }
      }
    });
    EXPECT_EQ(count, graph::connected_graph_count(n));
  }
}

// ---------------------------------------------------------------------------
// The listening mask: a counters run on the active set resolves rounds for
// the population's listening nodes only, a full-trace run for every node.
// The two must agree on everything but the receptions the mask withheld.

struct NodeTotals {
  std::vector<std::uint64_t> first_data;
  std::vector<std::uint64_t> tx_count;
  std::uint64_t rx_total = 0;
};

SchemeResult run_recording(const Scheme& scheme, const Graph& g,
                           NodeId source, const SchemeOptions& opt,
                           const PlanPtr& plan, const ExecutionConfig& config,
                           NodeTotals& totals) {
  return run_engine(scheme, g, source, plan, opt, config, Impl::kPopulation,
                    [&](const sim::Engine& e) {
                      for (NodeId v = 0; v < g.node_count(); ++v) {
                        totals.first_data.push_back(e.first_data_reception(v));
                        totals.tx_count.push_back(e.tx_count(v));
                        totals.rx_total += e.rx_count(v);
                      }
                    });
}

/// Returns how many receptions the mask withheld.
std::uint64_t expect_masked_run_is_full_run(const Scheme& scheme,
                                            const Graph& g, NodeId source,
                                            const SchemeOptions& opt,
                                            ExecutionConfig config,
                                            const std::string& what) {
  const PlanPtr plan = scheme.label(g, source, opt);
  config.dispatch = sim::DispatchKind::kActiveSet;
  NodeTotals masked, full;
  config.trace = sim::TraceLevel::kCounters;
  const auto a = run_recording(scheme, g, source, opt, plan, config, masked);
  config.trace = sim::TraceLevel::kFull;
  auto b = run_recording(scheme, g, source, opt, plan, config, full);
  b.trace = {};
  EXPECT_TRUE(a.ok) << what;
  expect_same_run(a, b, what, /*same_dispatch=*/true);
  EXPECT_EQ(masked.first_data, full.first_data) << what;
  EXPECT_EQ(masked.tx_count, full.tx_count) << what;
  EXPECT_LE(masked.rx_total, full.rx_total) << what;
  return full.rx_total - std::min(masked.rx_total, full.rx_total);
}

TEST(PopulationListening, MaskedRunMatchesFullRun) {
  std::vector<Graph> graphs = random_graphs(8, 0x1157);
  Rng rng(0x1157);
  // Dense graphs inside kAuto's bit region, where a delivery costs a word
  // scan per transmitter.
  for (const std::uint32_t n : {96u, 200u, 320u}) {
    graphs.push_back(graph::gnp_connected(n, 0.15, rng));
    EXPECT_TRUE(graph::is_bit_dense(graphs.back())) << n;
  }
  for (auto& g : sparse_multiword_graphs(3, 0x1157)) {
    graphs.push_back(std::move(g));
  }
  std::uint64_t withheld = 0;
  for (const char* name : kSchemes) {
    const Scheme& scheme = scheme_named(name);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const auto source = static_cast<NodeId>(rng.below(g.node_count()));
      // B_arb: the source apart from the coordinator, then the source as
      // the coordinator (the timer corner case).
      std::vector<NodeId> coordinators = {
          static_cast<NodeId>((source + 1 + rng.below(g.node_count() - 1)) %
                              g.node_count())};
      if (std::string(name) == "arb") coordinators.push_back(source);
      for (const NodeId coordinator : coordinators) {
        SchemeOptions opt;
        opt.coordinator = coordinator;
        for (const Variant& v : kAllBackends) {
          for (const bool cd : {false, true}) {
            ExecutionConfig config;
            config.backend = v.backend;
            config.collision_detection = cd;
            withheld += expect_masked_run_is_full_run(
                scheme, g, source, opt, config,
                std::string(name) + " graph#" + std::to_string(gi) + " " +
                    g.summary() + " coordinator " +
                    std::to_string(coordinator) + " " + v.tag +
                    (cd ? " +cd" : ""));
          }
        }
      }
    }
  }
  // The mask is in force on the counters runs.
  EXPECT_GT(withheld, 0u);
}

// ---------------------------------------------------------------------------
// Sweeps: the registry path runs populations; batches stay byte-identical
// at any thread count and agree with the per-node reference.

std::vector<runtime::ExperimentSpec> sweep_specs(sim::DispatchKind dispatch) {
  std::vector<runtime::ExperimentSpec> specs;
  sim::FaultPlan loss;
  loss.edge_loss_ppm = 100000;
  loss.seed = 3;
  for (const char* generator :
       {"gnp:60:0.1:5", "tree:300:9", "grid:8:9", "disk:400:0.09:4"}) {
    for (const char* name : kSchemes) {
      for (const NodeId source : {0u, 17u}) {
        for (const bool faulted : {false, true}) {
          runtime::ExperimentSpec spec;
          spec.scheme = name;
          spec.graph.generator = generator;
          spec.source = source;
          spec.options.coordinator = 5;
          spec.config.dispatch = dispatch;
          if (faulted) spec.config.faults = loss;
          specs.push_back(std::move(spec));
        }
      }
    }
  }
  return specs;
}

std::vector<SchemeResult> run_sweep(std::size_t threads,
                                    sim::DispatchKind dispatch) {
  par::ThreadPool pool(threads);
  runtime::SweepRunner runner(pool);
  return runner.run(sweep_specs(dispatch));
}

TEST(PopulationSweep, ByteIdenticalAtAnyThreadCount) {
  const auto encode = [](const std::vector<SchemeResult>& results) {
    std::vector<std::string> out;
    for (const auto& r : results) {
      out.push_back(runtime::wire::to_json(r).dump());
    }
    return out;
  };
  const auto one = run_sweep(1, sim::DispatchKind::kAuto);
  const auto lines = encode(one);
  EXPECT_EQ(encode(run_sweep(2, sim::DispatchKind::kAuto)), lines);
  EXPECT_EQ(encode(run_sweep(8, sim::DispatchKind::kAuto)), lines);
  const auto reference = run_sweep(2, sim::DispatchKind::kScan);
  ASSERT_EQ(reference.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_same_run(one[i], reference[i], "spec " + std::to_string(i),
                    /*same_dispatch=*/false);
  }
}

// ---------------------------------------------------------------------------
// Silent rounds: once the calendar is empty, a population engine polls
// nothing, allocates nothing, and still advances the silent streak.

TEST(PopulationSilentRound, NoPollsNoAllocationsStreakAdvances) {
  const Graph g = graph::grid(6, 7);
  for (const char* name : kSchemes) {
    const Scheme& scheme = scheme_named(name);
    SchemeOptions opt;
    opt.coordinator = 11;
    const PlanPtr plan = scheme.label(g, 4, opt);
    sim::Engine e(g, scheme.make_population(g, 4, *plan, opt),
                  {.dispatch = sim::DispatchKind::kActiveSet});
    ASSERT_EQ(e.dispatch_kind(), sim::DispatchKind::kActiveSet);
    const auto done = e.run_until(
        [&](const sim::Engine& en) { return scheme.done(en, 4, opt); },
        scheme.round_budget(g, *plan, opt));
    ASSERT_NE(done, 0u) << name;
    // Let the last wakes drain, then watch provably silent rounds.
    for (int r = 0; r < 64 && e.silent_streak() < 4; ++r) e.step();
    ASSERT_GE(e.silent_streak(), 4u) << name;
    const auto polls_before = e.polls_total();
    const auto streak_before = e.silent_streak();
    const auto allocs_before = g_allocations.load(std::memory_order_relaxed);
    for (int r = 0; r < 100; ++r) e.step();  // crosses the calendar ring
    const auto allocs_after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(allocs_after, allocs_before) << name;
    EXPECT_EQ(e.polls_total(), polls_before) << name;
    EXPECT_EQ(e.silent_streak(), streak_before + 100) << name;
  }
}

// ---------------------------------------------------------------------------
// Anonymity: the paper's nodes have no identifiers, so renaming the nodes
// (graph, labels and source alike) must rename the execution and change
// nothing else.

std::unique_ptr<sim::Population> make_run(
    const char* name, Impl impl, const std::vector<core::Label>& labels,
    NodeId source) {
  constexpr std::uint32_t kMu = 42;
  const std::string scheme = name;
  const bool flat = impl == Impl::kPopulation;
  if (scheme == "arb") {
    if (flat) {
      return std::make_unique<core::ArbPopulation>(labels, source, kMu);
    }
    return std::make_unique<sim::ProtocolPopulation>(
        core::make_arb_protocols(labels, source, kMu));
  }
  if (scheme == "b") {
    if (flat) {
      return std::make_unique<core::BroadcastPopulation>(labels, source, kMu);
    }
    return std::make_unique<sim::ProtocolPopulation>(
        core::make_broadcast_protocols(labels, source, kMu));
  }
  if (scheme == "ack") {
    if (flat) {
      return std::make_unique<core::AckPopulation>(labels, source, kMu);
    }
    return std::make_unique<sim::ProtocolPopulation>(
        core::make_ack_protocols(labels, source, kMu));
  }
  if (flat) {
    return std::make_unique<core::CommonRoundPopulation>(labels, source, kMu);
  }
  return std::make_unique<sim::ProtocolPopulation>(
      core::make_common_round_protocols(labels, source, kMu));
}

std::vector<core::Label> scheme_labels(const char* name, const Graph& g,
                                       NodeId source, NodeId coordinator) {
  if (std::string(name) == "arb") {
    return core::label_arbitrary(g, coordinator).labels;
  }
  return core::label_acknowledged(g, source).labels;
}

Graph permuted(const Graph& g, const std::vector<NodeId>& pi) {
  graph::GraphBuilder b(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) b.add_edge(pi[u], pi[v]);
    }
  }
  return std::move(b).build();
}

template <typename T>
std::vector<std::pair<NodeId, T>> renamed(
    const std::vector<std::pair<NodeId, T>>& events,
    const std::vector<NodeId>& pi) {
  std::vector<std::pair<NodeId, T>> out;
  for (const auto& [v, x] : events) out.emplace_back(pi[v], x);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

TEST(PopulationAnonymity, PermutedNetworkYieldsPermutedTrace) {
  auto graphs = random_graphs(8, 0xA707);
  graphs.push_back(sparse_multiword_graphs(1, 0xA707).front());
  Rng rng(0xA707);
  for (const char* name : kSchemes) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      const NodeId n = g.node_count();
      std::vector<NodeId> pi(n);
      std::iota(pi.begin(), pi.end(), NodeId{0});
      rng.shuffle(pi);
      const Graph pg = permuted(g, pi);
      const auto source = static_cast<NodeId>(rng.below(n));
      const auto coordinator = static_cast<NodeId>(rng.below(n));
      const auto labels = scheme_labels(name, g, source, coordinator);
      std::vector<core::Label> plabels(n);
      for (NodeId v = 0; v < n; ++v) plabels[pi[v]] = labels[v];
      const std::uint64_t rounds =
          scheme_named(name).round_budget(g, *scheme_named(name).label(
                                                 g, source, SchemeOptions{}),
                                          SchemeOptions{});
      for (const Impl impl : {Impl::kPopulation, Impl::kProtocols}) {
        const std::string what =
            std::string(name) + " graph#" + std::to_string(gi) + " " +
            g.summary() +
            (impl == Impl::kPopulation ? " population" : " protocols");
        sim::EngineOptions opt{.trace = sim::TraceLevel::kFull,
                               .backend = sim::BackendKind::kScalar};
        sim::Engine base(g, make_run(name, impl, labels, source), opt);
        sim::Engine perm(pg, make_run(name, impl, plabels, pi[source]), opt);
        for (std::uint64_t r = 0; r < rounds; ++r) {
          base.step();
          perm.step();
        }
        const auto& bt = base.trace().rounds();
        const auto& pt = perm.trace().rounds();
        ASSERT_EQ(bt.size(), pt.size()) << what;
        for (std::size_t t = 0; t < bt.size(); ++t) {
          ASSERT_EQ(renamed(bt[t].transmissions, pi), pt[t].transmissions)
              << what << " round " << t + 1;
          ASSERT_EQ(renamed(bt[t].deliveries, pi), pt[t].deliveries)
              << what << " round " << t + 1;
          std::vector<NodeId> collisions;
          for (const NodeId v : bt[t].collisions) collisions.push_back(pi[v]);
          std::sort(collisions.begin(), collisions.end());
          ASSERT_EQ(collisions, pt[t].collisions) << what << " round " << t + 1;
        }
        EXPECT_GT(base.transmissions_total(), 0u) << what;
        EXPECT_EQ(base.transmissions_total(), perm.transmissions_total())
            << what;
        EXPECT_EQ(base.polls_total(), perm.polls_total()) << what;
        EXPECT_EQ(base.max_stamp_seen(), perm.max_stamp_seen()) << what;
        EXPECT_EQ(base.informed_count(), perm.informed_count()) << what;
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(base.first_data_reception(v),
                    perm.first_data_reception(pi[v]))
              << what << " node " << v;
          ASSERT_EQ(base.tx_count(v), perm.tx_count(pi[v]))
              << what << " node " << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace radiocast
