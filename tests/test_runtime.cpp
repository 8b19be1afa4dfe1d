// The runtime layer's oracles:
//  - a registry-driven differential suite that iterates every registered
//    scheme uniformly across engine backends (scalar/bit), dispatch
//    strategies (scan/active-set), and ± collision detection, asserting
//    full trace equality against the scalar × scan oracle;
//  - compiled-replay trace equality for the label-determined schemes;
//  - b on the shared λ_ack plan against B on a λ labeling;
//  - SweepRunner determinism (byte-identical batch output at 1, 2, and 8
//    worker threads, workers sharing one resident bitmap on a dense graph,
//    and concurrent batches on one runner matching serial runs) and
//    PlanCache hit/miss accounting (labelings computed exactly once per
//    cache key, also across concurrent batches);
//  - the activity-contract satellite: multi-message, round-robin,
//    color-robin, decay, and beep now hint, so the active set polls
//    strictly less than the scan while staying bit-exact.
#include <gtest/gtest.h>

#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hpp"
#include "baselines/baselines.hpp"
#include "baselines/beep.hpp"
#include "core/runner.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"
#include "sim/faults.hpp"
#include "support/rng.hpp"

namespace radiocast {
namespace {

using graph::Graph;
using runtime::ExecutionConfig;
using runtime::ExperimentSpec;
using runtime::SchemeOptions;
using runtime::SchemeRegistry;
using runtime::SchemeResult;

void expect_trace_equal(const sim::Trace& a, const sim::Trace& b,
                        const std::string& context) {
  ASSERT_EQ(a.rounds().size(), b.rounds().size()) << context;
  for (std::size_t t = 0; t < a.rounds().size(); ++t) {
    const auto& ra = a.rounds()[t];
    const auto& rb = b.rounds()[t];
    EXPECT_EQ(ra.transmissions, rb.transmissions)
        << context << " round " << t + 1;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << context << " round " << t + 1;
    EXPECT_EQ(ra.collisions, rb.collisions) << context << " round " << t + 1;
  }
}

void expect_results_equal(const SchemeResult& a, const SchemeResult& b,
                          const std::string& context) {
  EXPECT_EQ(a.ok, b.ok) << context;
  EXPECT_EQ(a.all_informed, b.all_informed) << context;
  EXPECT_EQ(a.rounds, b.rounds) << context;
  EXPECT_EQ(a.completion_round, b.completion_round) << context;
  EXPECT_EQ(a.ack_round, b.ack_round) << context;
  EXPECT_EQ(a.done_round, b.done_round) << context;
  EXPECT_EQ(a.T, b.T) << context;
  EXPECT_EQ(a.tx_total, b.tx_total) << context;
  EXPECT_EQ(a.max_node_tx, b.max_node_tx) << context;
  EXPECT_EQ(a.max_stamp, b.max_stamp) << context;
  EXPECT_EQ(a.ack_rounds, b.ack_rounds) << context;
}

/// The largest number of transmissions any one node made in `trace`.
std::uint64_t max_node_tx(const sim::Trace& trace, graph::NodeId n) {
  std::vector<std::uint64_t> per_node(n, 0);
  std::uint64_t best = 0;
  for (const auto& round : trace.rounds()) {
    for (const auto& tx : round.transmissions) {
      best = std::max(best, ++per_node[tx.first]);
    }
  }
  return best;
}

std::vector<Graph> differential_graphs() {
  Rng rng(0xC0FFEE);
  std::vector<Graph> graphs;
  graphs.push_back(graph::path(9));
  graphs.push_back(graph::grid(3, 4));
  graphs.push_back(graph::star(8));
  graphs.push_back(graph::gnp_connected(12, 0.3, rng));
  return graphs;
}

TEST(SchemeRegistry, ListsEveryBuiltinScheme) {
  auto& registry = SchemeRegistry::instance();
  for (const char* name :
       {"b", "ack", "common-round", "arb", "multi", "onebit", "onebit-ack",
        "round-robin", "color-robin", "decay", "beep"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  const auto all = registry.schemes();
  EXPECT_GE(all.size(), 11u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name(), all[i]->name());  // sorted, unique
  }
  EXPECT_EQ(registry.find("no-such-scheme"), nullptr);
}

// Every registered scheme, uniformly: scalar × scan (the seed path) is the
// oracle; every other (backend × dispatch) combination and the
// collision-detection mode must reproduce its trace bit for bit.
TEST(SchemeDifferential, AllSchemesAgreeAcrossBackendsAndDispatch) {
  const auto graphs = differential_graphs();
  struct Variant {
    sim::BackendKind backend;
    sim::DispatchKind dispatch;
    const char* tag;
  };
  const Variant variants[] = {
      {sim::BackendKind::kBit, sim::DispatchKind::kScan, "bit/scan"},
      {sim::BackendKind::kScalar, sim::DispatchKind::kActiveSet,
       "scalar/active"},
      {sim::BackendKind::kBit, sim::DispatchKind::kActiveSet, "bit/active"},
  };
  SchemeOptions opt;
  opt.payloads = {7, 8};  // exercised by "multi" only
  for (const auto* scheme : SchemeRegistry::instance().schemes()) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      for (const bool cd : {false, true}) {
        ExecutionConfig oracle_cfg;
        oracle_cfg.backend = sim::BackendKind::kScalar;
        oracle_cfg.dispatch = sim::DispatchKind::kScan;
        oracle_cfg.collision_detection = cd;
        oracle_cfg.trace = sim::TraceLevel::kFull;
        const auto plan = scheme->label(g, 0, opt);
        const auto oracle =
            runtime::run_with_plan(*scheme, g, 0, plan, opt, oracle_cfg);
        // run_with_plan fills the duty cycle for every engine-path scheme.
        EXPECT_EQ(oracle.max_node_tx, max_node_tx(oracle.trace, g.node_count()))
            << scheme->name() << " graph#" << gi;
        for (const Variant& v : variants) {
          ExecutionConfig cfg = oracle_cfg;
          cfg.backend = v.backend;
          cfg.dispatch = v.dispatch;
          const std::string context = std::string(scheme->name()) +
                                      " graph#" + std::to_string(gi) + " " +
                                      v.tag + (cd ? " +cd" : "");
          const auto run =
              runtime::run_with_plan(*scheme, g, 0, plan, opt, cfg);
          expect_results_equal(oracle, run, context);
          expect_trace_equal(oracle.trace, run.trace, context);
        }
      }
    }
  }
}

// The compiled fast paths must replay the exact engine execution, and both
// paths report the same worst per-node duty cycle: the engine's maximum
// per-node transmission count.
TEST(SchemeDifferential, CompiledReplayMatchesEngineTrace) {
  const auto graphs = differential_graphs();
  for (const char* name : {"b", "ack", "arb"}) {
    const auto* scheme = SchemeRegistry::instance().find(name);
    ASSERT_NE(scheme, nullptr);
    ASSERT_TRUE(scheme->can_compile());
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const Graph& g = graphs[gi];
      ExecutionConfig engine_cfg;
      engine_cfg.trace = sim::TraceLevel::kFull;
      ExecutionConfig compiled_cfg = engine_cfg;
      compiled_cfg.compiled = true;
      const auto engine = runtime::run_scheme(*scheme, g, 0, {}, engine_cfg);
      const auto compiled =
          runtime::run_scheme(*scheme, g, 0, {}, compiled_cfg);
      const std::string context =
          std::string(name) + " graph#" + std::to_string(gi);
      EXPECT_EQ(engine.ok, compiled.ok) << context;
      EXPECT_EQ(engine.rounds, compiled.rounds) << context;
      if (std::string(name) != "arb") {
        // Compiled B_arb results still report completion round 0 (the
        // prediction itself carries it; see test_engine_backends); B and
        // B_ack predict it exactly.
        EXPECT_EQ(engine.completion_round, compiled.completion_round)
            << context;
      }
      EXPECT_EQ(engine.ack_round, compiled.ack_round) << context;
      EXPECT_EQ(engine.done_round, compiled.done_round) << context;
      EXPECT_EQ(engine.tx_total, compiled.tx_total) << context;
      EXPECT_EQ(engine.max_node_tx, compiled.max_node_tx) << context;
      EXPECT_EQ(engine.max_node_tx, max_node_tx(engine.trace, g.node_count()))
          << context;
      EXPECT_GT(engine.max_node_tx, 0u) << context;
      expect_trace_equal(engine.trace, compiled.trace, context);
    }
  }
}

TEST(SchemeRuntime, WrappersForwardLosslessly) {
  Rng rng(7);
  const Graph g = graph::gnp_connected(14, 0.25, rng);
  const auto direct = runtime::run_scheme("b", g, 0);
  const auto wrapped = core::run_broadcast(g, 0);
  EXPECT_EQ(wrapped.all_informed, direct.all_informed);
  EXPECT_EQ(wrapped.completion_round, direct.completion_round);
  EXPECT_EQ(wrapped.bound, direct.bound);
  EXPECT_EQ(wrapped.ell, direct.ell);
  EXPECT_EQ(wrapped.max_node_tx, direct.max_node_tx);

  SchemeOptions beep_opt;
  beep_opt.mu = 9;
  beep_opt.frame_bits = 6;
  const auto beep_direct = runtime::run_scheme("beep", g, 0, beep_opt);
  const auto beep_wrapped = baselines::run_beep(g, 0, 9, 6);
  EXPECT_EQ(beep_wrapped.ok, beep_direct.ok);
  EXPECT_EQ(beep_wrapped.completion_round, beep_direct.completion_round);
}

TEST(SchemeRuntime, VerifyHookChecksLemma28) {
  const Graph g = graph::grid(4, 4);
  const auto* scheme = SchemeRegistry::instance().find("b");
  ASSERT_NE(scheme, nullptr);
  const auto plan = scheme->label(g, 0, {});
  ExecutionConfig cfg;
  cfg.trace = sim::TraceLevel::kFull;
  const auto run = runtime::run_with_plan(*scheme, g, 0, plan, {}, cfg);
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(scheme->verify(g, 0, *plan, run.trace), "");
}

// Satellite: the multi-message protocol and the baselines now implement the
// sim::Protocol activity contract, so the active set does strictly less
// dispatch work than the scan while reproducing it exactly.
TEST(ActivityContract, NewHintsCutPollsWithoutChangingResults) {
  const Graph g = graph::path(64);
  for (const char* name : {"multi", "round-robin", "color-robin", "beep"}) {
    const auto* scheme = SchemeRegistry::instance().find(name);
    ASSERT_NE(scheme, nullptr);
    SchemeOptions opt;
    opt.payloads = {3, 4};
    const auto plan = scheme->label(g, 0, opt);
    ExecutionConfig scan_cfg;
    scan_cfg.dispatch = sim::DispatchKind::kScan;
    scan_cfg.trace = sim::TraceLevel::kFull;
    ExecutionConfig active_cfg = scan_cfg;
    active_cfg.dispatch = sim::DispatchKind::kActiveSet;
    const auto scan = runtime::run_with_plan(*scheme, g, 0, plan, opt,
                                             scan_cfg);
    const auto active = runtime::run_with_plan(*scheme, g, 0, plan, opt,
                                               active_cfg);
    expect_results_equal(scan, active, name);
    expect_trace_equal(scan.trace, active.trace, name);
    EXPECT_LT(active.polls, scan.polls) << name;
    // kAuto must now resolve to the active set for these protocols.
    ExecutionConfig auto_cfg = scan_cfg;
    auto_cfg.dispatch = sim::DispatchKind::kAuto;
    const auto resolved = runtime::run_with_plan(*scheme, g, 0, plan, opt,
                                                 auto_cfg);
    EXPECT_EQ(resolved.polls, active.polls) << name;
  }
  // Decay: identical rng draw sequence, so bit-exact too.
  const auto* decay = SchemeRegistry::instance().find("decay");
  SchemeOptions opt;
  opt.seed = 99;
  const auto plan = decay->label(g, 0, opt);
  ExecutionConfig scan_cfg;
  scan_cfg.dispatch = sim::DispatchKind::kScan;
  scan_cfg.trace = sim::TraceLevel::kFull;
  ExecutionConfig active_cfg = scan_cfg;
  active_cfg.dispatch = sim::DispatchKind::kActiveSet;
  const auto scan = runtime::run_with_plan(*decay, g, 0, plan, opt, scan_cfg);
  const auto active =
      runtime::run_with_plan(*decay, g, 0, plan, opt, active_cfg);
  expect_results_equal(scan, active, "decay");
  expect_trace_equal(scan.trace, active.trace, "decay");
  EXPECT_LT(active.polls, scan.polls) << "decay";
}

// ---------------------------------------------------------------------------
// SweepRunner + PlanCache
// ---------------------------------------------------------------------------

std::vector<std::string> run_suite_batch(std::size_t threads) {
  par::ThreadPool pool(threads);
  runtime::SweepRunner runner(pool);
  auto suite = analysis::quick_suite(16, /*seed=*/3);
  // A dense graph kAuto sends to bit: its specs run concurrently on one
  // resident bitmap.
  Rng rng(3);
  suite.push_back({"gnp-dense", graph::gnp_connected(150, 0.3, rng), 0});
  EXPECT_EQ(sim::choose_backend(suite.back().graph, sim::BackendKind::kAuto),
            sim::BackendKind::kBit);
  ExecutionConfig engine_cfg;
  auto specs = analysis::scheme_specs(
      runner, suite,
      {"b", "ack", "common-round", "arb", "multi", "round-robin",
       "color-robin", "decay", "beep"},
      engine_cfg);
  const runtime::GraphRef dense = specs.back().graph;
  // Mix in compiled specs: same scheme, compiled execution path.
  ExecutionConfig compiled_cfg;
  compiled_cfg.compiled = true;
  for (const char* name : {"b", "ack", "arb"}) {
    ExperimentSpec spec;
    spec.scheme = name;
    spec.graph = specs.front().graph;
    spec.source = 0;
    spec.config = compiled_cfg;
    spec.label = std::string("compiled/") + name;
    specs.push_back(std::move(spec));
  }
  const auto results = runner.run(specs);
  EXPECT_TRUE(runner.resolve(dense).has_bit_adjacency());
  return analysis::format_sweep(specs, results);
}

TEST(SweepRunner, BatchOutputIsIdenticalAtAnyThreadCount) {
  const auto one = run_suite_batch(1);
  const auto two = run_suite_batch(2);
  const auto eight = run_suite_batch(8);
  ASSERT_EQ(one.size(), two.size());
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], two[i]) << "line " << i;
    EXPECT_EQ(one[i], eight[i]) << "line " << i;
  }
}

TEST(SweepRunner, PlanCacheComputesEachKeyOnceAndCountsHits) {
  par::ThreadPool pool(4);
  runtime::SweepRunner runner(pool);
  const runtime::GraphRef g = runner.add_graph(graph::path(10));

  const auto spec = [&](const char* scheme, graph::NodeId source) {
    ExperimentSpec s;
    s.scheme = scheme;
    s.graph = g;
    s.source = source;
    return s;
  };
  // b and ack share the λ_ack family: five specs share the src-0
  // labeling and one uses src 1, so 2 distinct keys, 6 lookups.
  const std::vector<ExperimentSpec> batch = {spec("b", 0),   spec("b", 0),
                                             spec("b", 0),   spec("b", 1),
                                             spec("ack", 0), spec("ack", 0)};
  const auto first = runner.run(batch);
  auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 2u);
  EXPECT_EQ(stats.plan_hits, 4u);
  EXPECT_EQ(runner.cache().plan_count(), 2u);
  for (const auto& r : first) EXPECT_TRUE(r.ok);

  // Identical batch again: every lookup is a warm hit.
  const auto second = runner.run(batch);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 2u);
  EXPECT_EQ(stats.plan_hits, 10u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].completion_round, second[i].completion_round);
    EXPECT_EQ(first[i].rounds, second[i].rounds);
  }

  // B_arb's labeling ignores the source, so two sources share one plan.
  const std::vector<ExperimentSpec> arb_batch = {spec("arb", 0),
                                                 spec("arb", 3)};
  runner.run(arb_batch);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_hits, 11u);

  // Compiled executions cache per (graph, scheme, source, µ).
  ExperimentSpec compiled = spec("b", 0);
  compiled.config.compiled = true;
  const std::vector<ExperimentSpec> compiled_batch = {compiled, compiled};
  const auto compiled_results = runner.run(compiled_batch);
  stats = runner.cache_stats();
  EXPECT_EQ(stats.compiled_misses, 1u);
  EXPECT_EQ(stats.compiled_hits, 1u);
  EXPECT_EQ(stats.plan_misses, 3u);  // labeling reused from the cache
  EXPECT_EQ(compiled_results[0].completion_round,
            first[0].completion_round);

  runner.clear_cache();
  EXPECT_EQ(runner.cache().plan_count(), 0u);
  EXPECT_EQ(runner.cache_stats().plan_hits, 0u);
}

TEST(SweepRunner, GraphsAreContentAddressed) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  const runtime::GraphRef ref = runner.add_graph(graph::cycle(8));
  EXPECT_NE(ref.hash, 0u);
  EXPECT_TRUE(runner.has_graph(ref.hash));
  EXPECT_EQ(runner.resolve(ref).node_count(), 8u);
  EXPECT_EQ(runner.graph_count(), 1u);

  // Registering the same graph again is idempotent — content addressing.
  const runtime::GraphRef again = runner.add_graph(graph::cycle(8));
  EXPECT_EQ(again.hash, ref.hash);
  EXPECT_EQ(runner.graph_count(), 1u);

  // A ref the runner has never seen materializes from its descriptor.
  runtime::GraphRef by_gen;
  by_gen.generator = "star:6";
  EXPECT_EQ(runner.resolve(by_gen).node_count(), 6u);
  EXPECT_EQ(runner.graph_count(), 2u);

  // A hash that matches neither a registered graph nor the descriptor is
  // a contract violation, not a silent wrong-graph execution.
  runtime::GraphRef wrong;
  wrong.hash = 0xdeadbeefdeadbeefull;
  wrong.generator = "star:6";
  EXPECT_THROW(runner.resolve(wrong), ContractViolation);
  runtime::GraphRef unknown;
  unknown.hash = 0x1234u;
  EXPECT_THROW(runner.resolve(unknown), ContractViolation);
}

TEST(SweepRunner, LambdaAckFamilySharesOneLabelingAcrossSchemes) {
  par::ThreadPool pool(4);
  runtime::SweepRunner runner(pool);
  const runtime::GraphRef g = runner.add_graph(graph::grid(4, 4));

  // ack, common-round, and multi all construct λ_ack: one labeling must
  // serve all three (the cache-stats oracle for plan-family keying).
  std::vector<ExperimentSpec> batch;
  for (const char* scheme : {"ack", "common-round", "multi"}) {
    ExperimentSpec s;
    s.scheme = scheme;
    s.graph = g;
    s.source = 0;
    batch.push_back(std::move(s));
  }
  const auto results = runner.run(batch);
  for (const auto& r : results) EXPECT_TRUE(r.ok);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 2u);
  EXPECT_EQ(runner.cache().plan_count(), 1u);

  // B reads only λ_ack's x1 and x2, so it shares the family too.
  ExperimentSpec b;
  b.scheme = "b";
  b.graph = g;
  b.source = 0;
  EXPECT_TRUE(runner.run({b})[0].ok);
  EXPECT_EQ(runner.cache_stats().plan_misses, 1u);
  EXPECT_EQ(runner.cache_stats().plan_hits, 3u);
}

// Four threads start overlapping cold batches on one store-backed runner
// at once: each thread's results are byte-identical (wire JSON) to its
// batch run alone, and every distinct key is labeled and compiled exactly
// once across all of them.
TEST(SweepRunner, ConcurrentBatchesMatchSerialRunsAndBuildEachKeyOnce) {
  constexpr int kThreads = 4;
  const auto batch_for = [](int t) {
    std::vector<ExperimentSpec> batch;
    const auto add = [&](const char* scheme, const std::string& generator,
                         graph::NodeId source, bool compiled) {
      ExperimentSpec spec;
      spec.scheme = scheme;
      spec.graph.generator = generator;
      spec.source = source;
      spec.config.compiled = compiled;
      batch.push_back(std::move(spec));
    };
    // Every thread sweeps grid:3:4 (shared keys, sources 0-2 across
    // threads); pairs of threads share a path.
    for (const char* scheme : {"b", "ack", "arb", "round-robin"}) {
      add(scheme, "grid:3:4", static_cast<graph::NodeId>(t % 3), false);
    }
    add("b", "grid:3:4", 0, true);
    add("arb", "grid:3:4", 1, true);
    add("b", "path:" + std::to_string(10 + t % 2), 0, false);
    add("ack", "path:" + std::to_string(10 + t % 2), 0, true);
    return batch;
  };
  const auto wire_lines = [](const std::vector<SchemeResult>& results) {
    std::vector<std::string> lines;
    for (const auto& r : results) {
      lines.push_back(runtime::wire::to_json(r).dump());
    }
    return lines;
  };

  std::vector<std::vector<ExperimentSpec>> batches;
  std::vector<std::vector<std::string>> expected;
  runtime::PlanCacheStats serial_stats;
  {
    par::ThreadPool pool(2);
    runtime::SweepRunner serial(pool);  // all batches in turn: the key count
    for (int t = 0; t < kThreads; ++t) {
      batches.push_back(batch_for(t));
      par::ThreadPool alone_pool(1);
      runtime::SweepRunner alone(alone_pool);
      expected.push_back(wire_lines(alone.run(batches.back())));
      serial.run(batches.back());
    }
    serial_stats = serial.cache_stats();
  }
  ASSERT_GT(serial_stats.plan_misses, 0u);
  ASSERT_GT(serial_stats.compiled_misses, 0u);

  const std::string dir =
      ::testing::TempDir() + "radiocast_concurrent_sweep_store";
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::filesystem::remove_all(dir);
    par::ThreadPool pool(workers);
    runtime::PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    std::vector<std::vector<std::string>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        got[t] = wire_lines(runner.run(batches[t]));
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t], expected[t]) << "thread " << t << " @ " << workers;
    }
    const auto stats = runner.cache_stats();
    EXPECT_EQ(stats.plan_misses, serial_stats.plan_misses) << workers;
    EXPECT_EQ(stats.compiled_misses, serial_stats.compiled_misses) << workers;
    EXPECT_EQ(stats.plan_store_hits, 0u) << workers;
  }
  std::filesystem::remove_all(dir);
}

// One compiled-or-engine decision: a sweep must answer what run_scheme
// answers when the compiled path does not apply.  A faulted compiled b spec
// must run the engine under its faults (not replay the fault-free
// schedule), and a compiled resilient ack spec, which the scheme does not
// compile, must run the engine instead of failing the batch — and neither
// may touch the compiled cache.  Each batch holds two copies of the spec
// (an owner and a sharer of one key) and runs twice (cold, then warm), at
// 1 and 4 workers, with and without a store.
TEST(SweepRunner, FaultedAndDeclinedCompilesAnswerLikeRunScheme) {
  struct Case {
    const char* scheme;
    const char* graph;
    const char* faults;
    bool resilient;
  };
  const Case cases[] = {
      {"b", "grid:8:8", "edge-loss:0.5:7", false},
      {"ack", "grid:4:4", "", true},
  };
  const std::string dir = ::testing::TempDir() + "radiocast_sweep_decision";
  for (const Case& c : cases) {
    SchemeOptions opt;
    opt.resilient = c.resilient;
    ExecutionConfig cfg;
    cfg.compiled = true;
    if (*c.faults != '\0') {
      const auto parsed = sim::parse_fault_plan(c.faults);
      ASSERT_TRUE(parsed.ok) << parsed.error;
      cfg.faults = parsed.plan;
    }
    const Graph g = graph::from_descriptor(c.graph);
    const SchemeResult want = runtime::run_scheme(c.scheme, g, 0, opt, cfg);
    ExperimentSpec spec;
    spec.scheme = c.scheme;
    spec.graph.generator = c.graph;
    spec.options = opt;
    spec.config = cfg;
    const std::vector<ExperimentSpec> batch{spec, spec};
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      for (const bool with_store : {false, true}) {
        std::filesystem::remove_all(dir);
        par::ThreadPool pool(workers);
        runtime::PlanStore store(dir);
        runtime::SweepRunner runner(pool);
        if (with_store) runner.attach_store(&store);
        std::string context = std::string(c.scheme) + " on " + c.graph;
        context += with_store ? " +store @ " : " @ ";
        context += std::to_string(workers);
        for (const char* pass : {" cold #", " warm #"}) {
          const auto got = runner.run(batch);
          ASSERT_EQ(got.size(), batch.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            const std::string what = context + pass + std::to_string(i);
            expect_results_equal(got[i], want, what);
            EXPECT_EQ(got[i].labeling_found, want.labeling_found) << what;
            EXPECT_EQ(got[i].bound, want.bound) << what;
            EXPECT_EQ(got[i].ell, want.ell) << what;
            EXPECT_EQ(got[i].special, want.special) << what;
            EXPECT_EQ(got[i].last_learned, want.last_learned) << what;
            EXPECT_EQ(got[i].stay_count, want.stay_count) << what;
            EXPECT_EQ(got[i].data_tx_count, want.data_tx_count) << what;
            EXPECT_EQ(got[i].polls, want.polls) << what;
            EXPECT_EQ(got[i].attempts, want.attempts) << what;
            EXPECT_EQ(got[i].ones, want.ones) << what;
            EXPECT_EQ(got[i].label_bits, want.label_bits) << what;
            EXPECT_EQ(got[i].rounds_per_message, want.rounds_per_message)
                << what;
          }
        }
        // Neither spec takes the compiled path, so nothing is compiled,
        // cached or counted.
        EXPECT_EQ(runner.cache().compiled_count(), 0u);
        EXPECT_EQ(runner.cache_stats().compiled_hits, 0u) << context;
        EXPECT_EQ(runner.cache_stats().compiled_misses, 0u) << context;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// b runs on the shared λ_ack plan.  λ_ack differs from λ only by x3 at z,
// and B reads only x1 and x2, so b (engine and compiled) must reproduce B
// over a λ labeling round for round, and pass the Lemma 2.8 verifier.
TEST(SchemeRegistry, BOnLambdaAckMatchesBOnLambda) {
  Rng rng(0xB0A);
  std::vector<Graph> graphs = differential_graphs();
  for (int i = 0; i < 12; ++i) {
    graphs.push_back(graph::gnp_connected(
        5 + static_cast<std::uint32_t>(rng.below(60)), 0.15, rng));
  }
  graphs.push_back(graph::sparse_gnp_connected(3000, 6.0, rng));
  graphs.push_back(graph::random_tree(2500, rng));
  graphs.push_back(graph::grid(40, 60));
  graphs.push_back(graph::random_geometric(2000, 0.04, rng));

  const runtime::Scheme& b = *SchemeRegistry::instance().find("b");
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const auto source = static_cast<graph::NodeId>((gi * 7) % g.node_count());
    const std::string context = "graph#" + std::to_string(gi);
    const auto lambda = core::label_broadcast(g, source);
    const auto lambda_ack = core::label_acknowledged(g, source);
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const core::Label want{lambda.labels[v].x1, lambda.labels[v].x2,
                             v == lambda_ack.z};
      EXPECT_EQ(lambda_ack.labels[v], want) << context << " node " << v;
    }

    sim::Engine engine(g, core::make_broadcast_protocols(lambda, 42),
                       {sim::TraceLevel::kFull});
    engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                     core::default_round_budget(g.node_count(), 4));

    ExecutionConfig cfg;
    cfg.trace = sim::TraceLevel::kFull;
    for (const bool compiled : {false, true}) {
      cfg.compiled = compiled;
      const std::string what = context + (compiled ? " compiled" : " engine");
      const SchemeResult run = runtime::run_scheme(b, g, source, {}, cfg);
      EXPECT_TRUE(run.ok) << what;
      EXPECT_EQ(run.all_informed, engine.all_informed()) << what;
      EXPECT_EQ(run.rounds, engine.round()) << what;
      EXPECT_EQ(run.completion_round, engine.last_first_data_reception())
          << what;
      EXPECT_EQ(run.tx_total, engine.transmissions_total()) << what;
      EXPECT_EQ(run.max_node_tx, engine.max_tx_count()) << what;
      EXPECT_EQ(run.ell, lambda.stages.ell) << what;
      expect_trace_equal(engine.trace(), run.trace, what);
      EXPECT_EQ(core::verify_lemma_2_8(g, lambda_ack, run.trace), "") << what;
    }
  }
}

}  // namespace
}  // namespace radiocast
