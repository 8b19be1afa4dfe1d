// Micro-bench P2 — simulator throughput: full B executions on sparse random
// graphs, worst-case dense engine stepping, and thread-pooled sweep scaling —
// the HPC-facing measurements of the harness itself.
#include "harness.hpp"

#include <algorithm>
#include <memory>

#include "core/labeling.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "sim/simd.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace radiocast::bench {
namespace {

void run(Context& ctx) {
  // Full broadcast executions on sparse gnp graphs.
  for (const std::uint32_t n : ctx.sizes(16384)) {
    Rng rng(n);
    const auto g = graph::gnp_connected(n, 6.0 / n, rng);
    const auto labeling = core::label_broadcast(g, 0);
    Sample s;
    s.family = "full_broadcast/gnp";
    s.n = g.node_count();
    s.m = g.edge_count();
    bool informed = false;
    std::uint64_t rounds = 0;
    s.wall_ns = time_ns([&] {
      sim::Engine engine(g, core::make_broadcast_protocols(labeling, 1),
                         {sim::TraceLevel::kCounters, false, ctx.backend()});
      engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                       4ull * n + 8);
      rounds = engine.round();
      informed = engine.all_informed();
    });
    s.rounds = rounds;
    s.ok = informed;
    ctx.record(std::move(s));
  }

  // Worst-case per-round cost: everyone transmits every round (all collide).
  for (const std::uint32_t n : ctx.sizes(512)) {
    const auto g = graph::complete(n);
    std::vector<std::unique_ptr<sim::Protocol>> protocols;
    for (std::uint32_t v = 0; v < n; ++v) {
      protocols.push_back(std::make_unique<Chatter>());
    }
    sim::Engine engine(g, std::move(protocols),
                       {sim::TraceLevel::kCounters, false, ctx.backend()});
    constexpr std::uint64_t kSteps = 64;
    Sample s;
    s.family = "engine_step/complete";
    s.n = g.node_count();
    s.m = g.edge_count();
    s.wall_ns = time_ns([&] {
      for (std::uint64_t i = 0; i < kSteps; ++i) engine.step();
    });
    s.rounds = kSteps;
    s.transmissions = kSteps * n;
    s.ok = true;
    ctx.record(std::move(s));
  }

  // Regression guard for the sparse-round hot path: resolving a round with a
  // single degree-1 transmitter must cost O(deg), independent of n.  The seed
  // engine allocated and zeroed an O(n) std::vector<bool> per round; this
  // asserts that per-round cost stays flat (generous 32x slack + an absolute
  // 1µs floor against timer noise) as n grows 16x.
  {
    constexpr std::uint64_t kRounds = 1 << 14;
    const std::uint32_t small_n = 4096, large_n = 65536;
    double per_round[2] = {0, 0};
    const std::uint32_t ns[2] = {small_n, large_n};
    for (int i = 0; i < 2; ++i) {
      const auto g = graph::path(ns[i]);
      const auto backend =
          sim::make_engine_backend(g, sim::BackendKind::kScalar);
      const graph::NodeId tx[1] = {0};
      sim::RoundResolution res;
      const auto wall = time_ns([&] {
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          backend->resolve(tx, /*want_collisions=*/true, res);
        }
      });
      per_round[i] = static_cast<double>(wall) / kRounds;
      Sample s;
      s.family = "engine_step/sparse_round";
      s.n = ns[i];
      s.m = g.edge_count();
      s.rounds = kRounds;
      s.transmissions = kRounds;
      s.wall_ns = wall;
      s.extra = {{"ns_per_round", per_round[i]}};
      s.ok = i == 0 ||
             per_round[1] <
                 std::max(1000.0, 32.0 * std::max(per_round[0], 1.0));
      ctx.record(std::move(s));
    }
  }

  // Regression guard for the bit backend's sparse-round cost: the once /
  // twice accumulators are engine-owned scratch initialized by the first
  // transmitter row, so a single-transmitter round must stay O(n/64) words
  // — per-word cost flat as rows grow 4x (generous 16x slack + a 1µs
  // absolute floor against timer noise).  A reintroduced per-round O(n)
  // allocation or superlinear pass trips this.
  {
    constexpr std::uint64_t kRounds = 1 << 13;
    const std::uint32_t ns[2] = {4096, 16384};
    double per_word[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      const auto g = graph::path(ns[i]);
      const auto backend = sim::make_engine_backend(g, sim::BackendKind::kBit);
      const graph::NodeId tx[1] = {0};
      sim::RoundResolution res;
      const auto wall = time_ns([&] {
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          backend->resolve(tx, /*want_collisions=*/true, res);
        }
      });
      const double words = static_cast<double>(ns[i]) / 64.0;
      per_word[i] = static_cast<double>(wall) / kRounds / words;
      Sample s;
      s.family = "engine_step/bit_sparse_round";
      s.n = ns[i];
      s.m = g.edge_count();
      s.rounds = kRounds;
      s.transmissions = kRounds;
      s.wall_ns = wall;
      s.extra = {{"ns_per_round", static_cast<double>(wall) / kRounds},
                 {"ns_per_word", per_word[i]}};
      s.ok = i == 0 || static_cast<double>(wall) / kRounds < 1000.0 ||
             per_word[1] < 16.0 * std::max(per_word[0], 0.01);
      ctx.record(std::move(s));
    }
  }

  // Raw kernel word throughput: the scalar accumulate/heard kernels vs the
  // best ISA the host offers, on an L1/L2-resident word array.  The kernels
  // are fetched explicitly through `kernels_for`, so the comparison is
  // unaffected by --isa / RADIOCAST_FORCE_ISA.  Gate: the vector kernels
  // must beat scalar by >= 1.5x; hosts without AVX2 self-skip (ok stays
  // true, extra.skipped = 1) so the gate never fails on machines the
  // speedup cannot exist on.
  {
    namespace simd = sim::simd;
    const auto best = simd::best_available();
    // L1-resident: 5 arrays x 4 KiB.  Larger footprints turn the comparison
    // into a cache-bandwidth race where the wider ISA cannot show its ALU
    // advantage (engine rows are usually cache-hot across rounds, so this is
    // also the representative regime).
    constexpr std::size_t kWords = 512;
    constexpr std::uint64_t kIters = 4096;
    constexpr int kTrials = 5;
    Sample s;
    s.family = "engine_step/word_throughput";
    s.n = static_cast<std::uint32_t>(kWords * 64);
    if (best == simd::Isa::kScalar) {
      s.ok = true;
      s.extra = {{"skipped", 1.0}};
      ctx.record(std::move(s));
    } else {
      Rng rng(17);
      std::vector<std::uint64_t> row(kWords), tx(kWords);
      for (auto& w : row) w = rng.next();
      for (auto& w : tx) w = rng.next() & rng.next();
      std::vector<std::uint64_t> once(kWords), twice(kWords), heard(kWords);
      std::uint64_t sink = 0;
      const auto measure = [&](const simd::Kernels& k) {
        std::uint64_t best_wall = ~0ull;
        for (int t = 0; t < kTrials; ++t) {
          std::fill(once.begin(), once.end(), 0);
          std::fill(twice.begin(), twice.end(), 0);
          const auto wall = time_ns([&] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
              k.accumulate(once.data(), twice.data(), row.data(), kWords);
              sink ^= k.heard_sweep(heard.data(), once.data(), twice.data(),
                                    tx.data(), kWords);
            }
          });
          best_wall = std::min(best_wall, wall);
        }
        return best_wall;
      };
      const auto scalar_wall = measure(simd::kernels_for(simd::Isa::kScalar));
      const auto vector_wall = measure(simd::kernels_for(best));
      const double speedup = static_cast<double>(scalar_wall) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 vector_wall, 1));
      // Two kernel passes per iteration.
      const double words = 2.0 * static_cast<double>(kWords) * kIters;
      s.wall_ns = scalar_wall + vector_wall;
      s.ok = speedup >= 1.5 && sink != 0xdeadbeef;  // sink defeats DCE
      s.extra = {{"speedup", speedup},
                 {"scalar_words_per_ns",
                  words / static_cast<double>(scalar_wall)},
                 {"vector_words_per_ns",
                  words / static_cast<double>(vector_wall)},
                 {"best_isa", static_cast<double>(best)}};
      ctx.record(std::move(s));
    }
  }

  // Post-hear re-arm cost: B_arb on dense graphs under forced active-set
  // dispatch, with the post-hear hint disabled vs enabled.  Dense delivery
  // and collision rounds hit every listener; the blanket re-arm turns each
  // into n polls next round, the hint version re-queries and skips the
  // idle ones.  Gate (dense families only): hint on must beat hint off by
  // >= 1.3x on run_until wall time (engine construction excluded), with
  // identical completion rounds.
  {
    struct DenseKey {
      const char* name;
      graph::Graph g;
      // The clique runs with collision detection on: its x1/x2 rounds are
      // all-collide, and with CD every such round makes the blanket path
      // re-arm all n listeners for a wasted poll while B_arb's no-op
      // `on_collision` leaves the hint path idle.  CD only adds collision
      // signals, so the execution is otherwise identical.
      bool collision_detection;
    };
    Rng rng(23);
    // The clique completes in ~6 rounds with only ~2 of them generating
    // blanket re-arm waste — delivery work dominates its wall time, so the
    // wall gate lives on the long-running dense-gnp key and on the dense
    // aggregate; the clique key gates trace equality (identical completion
    // round) and reports its speedup.
    std::vector<DenseKey> keys;
    keys.push_back({"clique", graph::complete(2048), true});
    keys.push_back(
        {"gnp_dense", graph::gnp_connected(4096, 256.0 / 4096, rng), false});
    std::uint64_t total_off = 0, total_on = 0;
    for (auto& key : keys) {
      const auto labeling = core::label_arbitrary(key.g, /*coordinator=*/0);
      const graph::NodeId source = key.g.node_count() / 2;
      constexpr int kReps = 24;
      const auto measure = [&](bool hint, std::uint64_t& rounds_out) {
        std::uint64_t total = 0;
        for (int i = 0; i < kReps; ++i) {
          sim::EngineOptions eopt;
          eopt.trace = sim::TraceLevel::kCounters;
          eopt.collision_detection = key.collision_detection;
          eopt.backend = ctx.backend();
          eopt.dispatch = sim::DispatchKind::kActiveSet;
          eopt.post_hear_hint = hint;
          sim::Engine engine(key.g,
                             core::make_arb_protocols(labeling, source, 42),
                             eopt);
          total += time_ns([&] {
            engine.run_until(
                [](const sim::Engine& e) { return e.all_informed(); },
                16ull * key.g.node_count());
          });
          rounds_out = engine.round();
        }
        return total;
      };
      std::uint64_t rounds_off = 0, rounds_on = 0;
      const auto off_wall = measure(false, rounds_off);
      const auto on_wall = measure(true, rounds_on);
      const double speedup =
          static_cast<double>(off_wall) /
          static_cast<double>(std::max<std::uint64_t>(on_wall, 1));
      total_off += off_wall;
      total_on += on_wall;
      const bool wall_gated = std::string(key.name) == "gnp_dense";
      Sample s;
      s.family = std::string("engine_step/post_hear_rearm/") + key.name;
      s.n = key.g.node_count();
      s.m = key.g.edge_count();
      s.rounds = rounds_on;
      s.wall_ns = off_wall + on_wall;
      s.ok = rounds_off == rounds_on && (!wall_gated || speedup >= 1.3);
      s.extra = {{"speedup", speedup},
                 {"off_wall_ns", static_cast<double>(off_wall)},
                 {"on_wall_ns", static_cast<double>(on_wall)},
                 {"reps", static_cast<double>(kReps)}};
      ctx.record(std::move(s));
    }
    // Aggregate gate across the dense keys.
    const double agg = static_cast<double>(total_off) /
                       static_cast<double>(std::max<std::uint64_t>(total_on,
                                                                   1));
    Sample s;
    s.family = "engine_step/post_hear_rearm/dense_total";
    s.wall_ns = total_off + total_on;
    s.ok = agg >= 1.3;
    s.extra = {{"speedup", agg}};
    ctx.record(std::move(s));
  }

  // End-to-end sweep throughput on the shared pool.
  {
    constexpr std::size_t kGraphs = 32;
    const std::uint32_t n = std::min(256u, ctx.sizes().back());
    Rng rng(7);
    std::vector<graph::Graph> graphs;
    for (std::size_t i = 0; i < kGraphs; ++i) {
      graphs.push_back(graph::gnp_connected(n, 6.0 / n, rng));
    }
    Sample s;
    s.family = "parallel_sweep/gnp";
    s.n = n;
    std::uint64_t total_rounds = 0;
    s.wall_ns = time_ns([&] {
      core::RunOptions run_opt;
      run_opt.backend = ctx.backend();
      const auto rounds =
          par::parallel_map(ctx.pool(), graphs.size(), [&](std::size_t i) {
            return core::run_broadcast(graphs[i], 0, run_opt).completion_round;
          });
      for (const auto r : rounds) total_rounds += r;
    });
    s.rounds = total_rounds;
    s.ok = true;
    s.extra = {{"graphs", static_cast<double>(kGraphs)},
               {"threads", static_cast<double>(ctx.pool().thread_count())}};
    ctx.record(std::move(s));
  }
}

const bool registered = register_scenario(
    {"sim_throughput",
     "simulator throughput: full runs, dense stepping, kernel ISA and "
     "post-hear re-arm gates, pooled sweeps",
     {"smoke", "micro", "engine_step"},
     &run});

}  // namespace
}  // namespace radiocast::bench
