// Micro-bench P6 — the serve daemon: an in-process `serve::Server` under
// real socket load.  Families:
//  - serve/multi-client: 4 concurrent Client threads stream spec batches
//    at a warm server; reports specs/sec plus per-batch p50/p99 latency.
//    Recorded, not gated (latency is host-dependent).
//  - serve/saturating: 8 clients fire small overhead-dominated batches as
//    fast as the server answers them; reports specs/sec plus per-batch
//    p50/p99.  Recorded, not gated.
//  - serve/restart/{cold,warm}: the persistence row.  A server with a plan
//    store answers a compiled clique batch (b/ack/arb, several sources,
//    n >= 4096), is torn down, and a *fresh* server over the same store
//    directory answers the identical batch.  The warm restart must report
//    zero plan/compile constructions and reproduce the cold results line
//    for line.  Its speedup over cold is recorded, not gated: most of
//    either side is materializing and hashing the clique, which no plan or
//    store can skip.
#include "harness.hpp"

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/sweep.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace radiocast::bench {
namespace {

constexpr std::uint32_t kCliqueMinNodes = 4096;
constexpr std::uint32_t kCliqueMaxNodes = 8192;

std::vector<runtime::ExperimentSpec> client_specs(std::uint32_t n) {
  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb", "round-robin"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:4:" + std::to_string(std::max(2u, n / 4));
    spec.label = std::string("serve/") + scheme;
    specs.push_back(std::move(spec));
  }
  return specs;
}

double percentile(std::vector<std::uint64_t> sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  std::sort(sorted_ns.begin(), sorted_ns.end());
  const std::size_t idx = std::min(
      sorted_ns.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[idx]) / 1e6;  // ms
}

/// `clients` concurrent Client threads each stream `batches` copies of
/// `specs` at one server whose cache was warmed first, so the measured
/// regime is the daemon's steady state.  Records one sample: specs/sec and
/// per-batch p50/p99 latency.
void closed_loop(Context& ctx, std::uint32_t n, const std::string& family,
                 const std::vector<runtime::ExperimentSpec>& specs,
                 int clients, int batches) {
  runtime::SweepRunner runner(ctx.pool());
  serve::Server server(runner, serve::ServerOptions{});
  server.start();
  {
    serve::Client warmup;
    if (!warmup.connect_tcp(server.tcp_port())) return;
    if (!warmup.run_batch(specs).ok) return;
  }

  std::vector<std::vector<std::uint64_t>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<char> client_ok(static_cast<std::size_t>(clients), 1);
  const std::uint64_t wall_ns = time_ns([&] {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const auto slot = static_cast<std::size_t>(c);
        serve::Client client;
        if (!client.connect_tcp(server.tcp_port())) {
          client_ok[slot] = 0;
          return;
        }
        for (int b = 0; b < batches; ++b) {
          serve::BatchOutcome outcome;
          latencies[slot].push_back(time_ns([&] {
            outcome = client.run_batch(specs, static_cast<std::uint64_t>(b));
          }));
          if (!outcome.ok || outcome.results.size() != specs.size()) {
            client_ok[slot] = 0;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  server.stop();

  std::vector<std::uint64_t> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  const std::size_t total_specs = all.size() * specs.size();
  const double secs = static_cast<double>(wall_ns) / 1e9;

  Sample s;
  s.family = family;
  s.n = n;
  s.rounds = total_specs;
  s.wall_ns = wall_ns;
  s.ok = std::all_of(client_ok.begin(), client_ok.end(),
                     [](char ok) { return ok != 0; });
  s.extra = {
      {"specs_per_sec",
       secs > 0 ? static_cast<double>(total_specs) / secs : 0.0},
      {"batch_p50_ms", percentile(all, 0.50)},
      {"batch_p99_ms", percentile(all, 0.99)},
      {"clients", static_cast<double>(clients)},
  };
  ctx.record(std::move(s));
}

/// Concurrent clients streaming batches at one warm server.
void multi_client_family(Context& ctx, std::uint32_t n) {
  closed_loop(ctx, n, "serve/multi-client", client_specs(n), 4, 8);
}

/// 8 clients × 16 batches of two tiny specs: the per-batch-overhead-
/// dominated regime.
void saturating_family(Context& ctx, std::uint32_t n) {
  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "path:" + std::to_string(std::max(8u, n / 64));
    spec.label = std::string("saturating/") + scheme;
    specs.push_back(std::move(spec));
  }
  closed_loop(ctx, n, "serve/saturating", specs, 8, 16);
}

struct ServedBatch {
  std::uint64_t wall_ns = 0;
  bool ok = false;
  std::vector<std::string> lines;
  std::uint64_t plan_misses = 0;
  std::uint64_t compiled_misses = 0;
  std::uint64_t store_hits = 0;
};

/// One daemon lifetime: start a server over `dir`, run the batch, stop.
ServedBatch serve_once(Context& ctx, const std::string& dir,
                       const std::vector<runtime::ExperimentSpec>& specs) {
  ServedBatch out;
  runtime::PlanStore store(dir);
  runtime::SweepRunner runner(ctx.pool());
  runner.attach_store(&store);
  serve::Server server(runner, serve::ServerOptions{});
  server.start();
  serve::Client client;
  if (!client.connect_tcp(server.tcp_port())) return out;
  serve::BatchOutcome outcome;
  out.wall_ns = time_ns([&] { outcome = client.run_batch(specs); });
  out.ok = outcome.ok && outcome.results.size() == specs.size();
  if (out.ok) {
    out.lines = analysis::format_sweep(specs, outcome.results);
    const auto& stats = outcome.done.get("stats");
    out.plan_misses = stats.get("plan_misses").as_uint();
    out.compiled_misses = stats.get("compiled_misses").as_uint();
    out.store_hits = stats.get("plan_store_hits").as_uint() +
                     stats.get("compiled_store_hits").as_uint();
  }
  server.stop();
  return out;
}

/// Kill-and-restart on the compiled clique: the acceptance comparison.
void restart_family(Context& ctx, std::uint32_t n) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("radiocast_serve_bench_" + std::to_string(n)))
          .string();
  std::filesystem::remove_all(dir);

  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb"}) {
    for (graph::NodeId source = 0; source < 16; ++source) {
      runtime::ExperimentSpec spec;
      spec.scheme = scheme;
      spec.graph.generator = "complete:" + std::to_string(n);
      spec.source = source;
      spec.config = ctx.exec();
      spec.config.compiled = true;
      spec.label = std::string("clique/") + scheme;
      specs.push_back(std::move(spec));
    }
  }

  const ServedBatch cold = serve_once(ctx, dir, specs);
  const ServedBatch warm = serve_once(ctx, dir, specs);
  std::filesystem::remove_all(dir);

  const bool agree = cold.ok && warm.ok && cold.lines == warm.lines;
  // The restarted daemon must answer purely from the store.
  const bool warm_from_store = warm.plan_misses == 0 &&
                               warm.compiled_misses == 0 &&
                               warm.store_hits > 0;
  const double speedup = warm.wall_ns ? static_cast<double>(cold.wall_ns) /
                                            static_cast<double>(warm.wall_ns)
                                      : 0.0;
  for (const auto* run : {&cold, &warm}) {
    Sample s;
    s.family = std::string("serve/restart/") + (run == &cold ? "cold" : "warm");
    s.n = n;
    s.m = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    s.rounds = specs.size();
    s.wall_ns = run->wall_ns;
    s.ok = agree;
    const double secs = static_cast<double>(run->wall_ns) / 1e9;
    s.extra = {
        {"specs_per_sec",
         secs > 0 ? static_cast<double>(specs.size()) / secs : 0.0},
        {"warm_speedup", speedup},
        {"plan_misses", static_cast<double>(run->plan_misses)},
        {"store_hits", static_cast<double>(run->store_hits)},
    };
    if (run == &warm) s.ok = s.ok && warm_from_store;
    ctx.record(std::move(s));
  }
}

void run(Context& ctx) {
  for (const std::uint32_t n : ctx.sizes(1024)) {
    multi_client_family(ctx, n);
    saturating_family(ctx, n);
  }
  // Raise the ladder to the clique sizes (>= 4096).
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t s : ctx.sizes(kCliqueMaxNodes)) {
    const std::uint32_t n = std::max(kCliqueMinNodes, s);
    if (std::find(sizes.begin(), sizes.end(), n) == sizes.end()) {
      sizes.push_back(n);
    }
  }
  for (const std::uint32_t n : sizes) {
    restart_family(ctx, n);
  }
}

const bool registered = register_scenario(
    {"serve_throughput",
     "Serve daemon: multi-client specs/sec + p50/p99 latency, and the "
     "cold-vs-warm-restart plan-store round trip",
     {"micro", "scaling"},
     &run});

}  // namespace
}  // namespace radiocast::bench
