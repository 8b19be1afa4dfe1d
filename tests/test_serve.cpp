// The serve daemon end to end, in process: a Server on an ephemeral
// loopback port (or a Unix socket) and real Client connections.
//  - batch results match a local SweepRunner run byte for byte;
//  - the server materializes graphs it has never been sent, from the
//    GraphRef generator alone;
//  - protocol errors (unknown type, unknown scheme, malformed spec, bad
//    version) answer error frames and leave the connection usable;
//  - concurrent clients run side by side with results byte-identical to
//    local runs, in per-batch order, at several pool widths, and a bad
//    batch fails only its own client (TSan runs this suite via its
//    labels);
//  - the binary result encoding matches the JSON results field for field;
//  - error frames carry stable machine-readable codes (a malformed
//    generator descriptor fails only its batch), and the compact control
//    frame GCs the plan store;
//  - shutdown drains cleanly, and a restarted server over the same plan
//    store answers its first batch with zero labeling constructions.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/sweep.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"

namespace radiocast {
namespace {

using serve::Client;
using serve::Server;
using serve::ServerOptions;
using support::Json;

std::vector<runtime::ExperimentSpec> demo_specs() {
  std::vector<runtime::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb", "round-robin"}) {
    runtime::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:3:4";
    spec.source = 1;
    specs.push_back(std::move(spec));
  }
  runtime::ExperimentSpec compiled;
  compiled.scheme = "b";
  compiled.graph.generator = "grid:3:4";
  compiled.config.compiled = true;
  specs.push_back(std::move(compiled));
  return specs;
}

TEST(Serve, PingPongOverEphemeralTcp) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.tcp_port(), 0);

  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.ping());  // the connection is reusable
  client.close();
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(Serve, BatchMatchesLocalRunAndMaterializesGraphs) {
  const auto specs = demo_specs();

  // Local ground truth.
  par::ThreadPool local_pool(2);
  runtime::SweepRunner local(local_pool);
  const auto expected = analysis::format_sweep(specs, local.run(specs));

  // The server's runner has never seen the graph: the batch's GraphRef
  // generator descriptors must be enough.
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  EXPECT_EQ(runner.graph_count(), 0u);

  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
  const auto outcome = client.run_batch(specs, /*id=*/42);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.results.size(), specs.size());
  EXPECT_EQ(analysis::format_sweep(specs, outcome.results), expected);
  EXPECT_EQ(runner.graph_count(), 1u);
  EXPECT_EQ(outcome.done.get("id").as_uint(), 42u);
  EXPECT_EQ(outcome.done.get("count").as_uint(), specs.size());
  EXPECT_GT(outcome.done.get("stats").get("plan_misses").as_uint(), 0u);

  // A second identical batch is served from the warm cache.
  const auto warm = client.run_batch(specs, /*id=*/43);
  ASSERT_TRUE(warm.ok) << warm.error;
  const auto warm_stats = warm.done.get("stats");
  EXPECT_EQ(warm_stats.get("plan_misses").as_uint(),
            outcome.done.get("stats").get("plan_misses").as_uint());
  EXPECT_GT(warm_stats.get("plan_hits").as_uint(), 0u);

  const auto server_stats = server.stats();
  EXPECT_EQ(server_stats.batches, 2u);
  EXPECT_EQ(server_stats.specs_run, 2 * specs.size());
  EXPECT_EQ(server_stats.errors, 0u);
}

TEST(Serve, UnixSocketServesBatches) {
  const std::string path = ::testing::TempDir() + "radiocast_serve_test.sock";
  std::filesystem::remove(path);
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  ServerOptions options;
  options.unix_path = path;
  Server server(runner, options);
  server.start();

  Client client;
  ASSERT_TRUE(client.connect_unix(path));
  runtime::ExperimentSpec spec;
  spec.scheme = "ack";
  spec.graph.generator = "star:9";
  const auto outcome = client.run_batch({spec});
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_TRUE(outcome.results[0].ok);

  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path)) << "socket file not cleaned up";
}

TEST(Serve, ProtocolErrorsAnswerErrorFramesAndKeepTheConnection) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));

  const auto expect_error = [&](Json request, const char* what) {
    ASSERT_TRUE(client.send(request)) << what;
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value()) << what;
    EXPECT_EQ(reply->get("type").as_string(), "error") << what;
    EXPECT_FALSE(reply->get("error").as_string().empty()) << what;
  };

  Json unknown(Json::Object{});
  unknown.set("v", Json(std::uint64_t{1}));
  unknown.set("type", Json(std::string("frobnicate")));
  expect_error(unknown, "unknown type");

  Json future(Json::Object{});
  future.set("v", Json(std::uint64_t{99}));
  future.set("type", Json(std::string("ping")));
  expect_error(future, "future version");

  // A batch with one bad spec is rejected atomically: no partial results.
  runtime::ExperimentSpec good;
  good.scheme = "b";
  good.graph.generator = "path:6";
  runtime::ExperimentSpec bad;
  bad.scheme = "no-such-scheme";
  bad.graph.generator = "path:6";

  Json batch(Json::Object{});
  batch.set("v", Json(std::uint64_t{1}));
  batch.set("type", Json(std::string("batch")));
  Json specs(Json::Array{});
  specs.push_back(runtime::wire::to_json(good));
  specs.push_back(runtime::wire::to_json(bad));
  batch.set("specs", specs);
  expect_error(batch, "unregistered scheme in batch");
  EXPECT_EQ(server.stats().batches, 0u);

  Json malformed(Json::Object{});
  malformed.set("v", Json(std::uint64_t{1}));
  malformed.set("type", Json(std::string("batch")));
  malformed.set("specs", Json(std::string("not an array")));
  expect_error(malformed, "specs not an array");

  // After all that abuse the connection still serves real work.
  EXPECT_TRUE(client.ping());
  const auto ok_run = client.run_batch({good});
  EXPECT_TRUE(ok_run.ok) << ok_run.error;
  EXPECT_GE(server.stats().errors, 4u);
}

TEST(Serve, StatsFrameReportsCacheAndServerCounters) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));

  runtime::ExperimentSpec spec;
  spec.scheme = "b";
  spec.graph.generator = "cycle:10";
  ASSERT_TRUE(client.run_batch({spec}).ok);

  Json request(Json::Object{});
  request.set("v", Json(std::uint64_t{1}));
  request.set("type", Json(std::string("stats")));
  ASSERT_TRUE(client.send(request));
  const auto reply = client.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->get("type").as_string(), "stats");
  EXPECT_EQ(reply->get("cache").get("plan_misses").as_uint(), 1u);
  EXPECT_EQ(reply->get("server").get("batches").as_uint(), 1u);
  EXPECT_EQ(reply->get("server").get("specs_run").as_uint(), 1u);
}

TEST(Serve, ConcurrentClientsAllGetConsistentResults) {
  const auto specs = demo_specs();
  par::ThreadPool local_pool(2);
  runtime::SweepRunner local(local_pool);
  const auto expected = analysis::format_sweep(specs, local.run(specs));

  par::ThreadPool pool(4);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();

  constexpr int kClients = 6;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect_tcp(server.tcp_port())) {
        errors[c] = "connect failed";
        return;
      }
      for (int round = 0; round < 3; ++round) {
        const auto outcome =
            client.run_batch(specs, static_cast<std::uint64_t>(c));
        if (!outcome.ok) {
          errors[c] = outcome.error.empty() ? "batch failed" : outcome.error;
          return;
        }
        if (analysis::format_sweep(specs, outcome.results) != expected) {
          errors[c] = "results diverged";
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], "") << "client " << c;
  }
  EXPECT_EQ(server.stats().batches, kClients * 3u);

  // The labeling was still computed exactly once per distinct key.
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.plan_misses, 4u);  // lambda-ack@1 (b and ack),
                                     // lambda-ack@0 (compiled b), arb,
                                     // round-robin on one graph
}

TEST(Serve, ShutdownRequestStopsTheServer) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
  EXPECT_TRUE(client.shutdown_server());
  server.wait();
  EXPECT_FALSE(server.running());
  // New connections are refused once stopped.
  Client late;
  EXPECT_FALSE(late.connect_tcp(server.tcp_port()) && late.ping());
}

// N concurrent clients × overlapping and disjoint batches at several pool
// widths: every batch's results must be byte-identical to a local run, in
// the batch's own spec order (run_batch checks index order).
TEST(Serve, ConcurrentClientsMatchLocalRunsAcrossThreadCounts) {
  constexpr int kClients = 4;
  constexpr int kRounds = 3;

  // Per-client workload: even clients share demo_specs() (overlapping —
  // these share labelings), odd clients sweep their own graph (disjoint).
  std::vector<std::vector<runtime::ExperimentSpec>> batches(kClients);
  for (int c = 0; c < kClients; ++c) {
    if (c % 2 == 0) {
      batches[c] = demo_specs();
    } else {
      for (const char* scheme : {"b", "ack"}) {
        runtime::ExperimentSpec spec;
        spec.scheme = scheme;
        spec.graph.generator = "path:" + std::to_string(12 + c);
        batches[c].push_back(std::move(spec));
      }
    }
  }
  par::ThreadPool local_pool(2);
  runtime::SweepRunner local(local_pool);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    expected[c] = analysis::format_sweep(batches[c], local.run(batches[c]));
  }

  for (const std::size_t pool_threads : {std::size_t{1}, std::size_t{2},
                                         std::size_t{8}}) {
    par::ThreadPool pool(pool_threads);
    runtime::SweepRunner runner(pool);
    Server server(runner, ServerOptions{});
    server.start();

    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        if (!client.connect_tcp(server.tcp_port())) {
          errors[c] = "connect failed";
          return;
        }
        for (int round = 0; round < kRounds; ++round) {
          const auto outcome = client.run_batch(
              batches[c], static_cast<std::uint64_t>(c * kRounds + round));
          if (!outcome.ok) {
            errors[c] = outcome.error.empty() ? "batch failed" : outcome.error;
            return;
          }
          if (analysis::format_sweep(batches[c], outcome.results) !=
              expected[c]) {
            errors[c] = "results diverged from the local run";
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(errors[c], "") << "client " << c << " @ pool=" << pool_threads;
    }
    EXPECT_EQ(server.stats().batches,
              static_cast<std::uint64_t>(kClients * kRounds));
  }
}

// One client's unresolvable batch fails only that batch: the same
// connection's back-to-back batches before and after it still answer in
// order, and concurrent clients are unaffected.
TEST(Serve, BadBatchFailsOnlyItsOwnClient) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();

  runtime::ExperimentSpec good;
  good.scheme = "b";
  good.graph.generator = "grid:3:4";
  runtime::ExperimentSpec bad;
  bad.scheme = "b";
  bad.graph.hash = 0xdeadbeef;  // unknown hash, no generator: unresolvable

  constexpr int kGoodClients = 3;
  std::vector<std::string> errors(kGoodClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kGoodClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect_tcp(server.tcp_port())) {
        errors[c] = "connect failed";
        return;
      }
      for (int round = 0; round < 5; ++round) {
        if (!client.run_batch({good}).ok) {
          errors[c] = "batch failed";
          return;
        }
      }
    });
  }

  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
  // Good, bad, good back-to-back before reading any response.
  for (std::size_t b = 0; b < 3; ++b) {
    Json request(Json::Object{});
    request.set("v", Json(runtime::wire::kWireVersion));
    request.set("type", Json(std::string("batch")));
    request.set("id", Json(std::uint64_t{b}));
    Json specs_json(Json::Array{});
    specs_json.push_back(runtime::wire::to_json(b == 1 ? bad : good));
    request.set("specs", std::move(specs_json));
    ASSERT_TRUE(client.send(request));
  }
  for (std::size_t b = 0; b < 3; ++b) {
    const auto first = client.receive();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->get("id").as_uint(), b) << "responses out of order";
    if (b == 1) {
      EXPECT_EQ(first->get("type").as_string(), "error");
      EXPECT_EQ(first->get("code").as_string(), "run_failed");
      continue;
    }
    EXPECT_EQ(first->get("type").as_string(), "result");
    const auto done = client.receive();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->get("type").as_string(), "done");
    EXPECT_EQ(done->get("id").as_uint(), b);
  }

  for (auto& t : threads) t.join();
  for (int c = 0; c < kGoodClients; ++c) {
    EXPECT_EQ(errors[c], "") << "client " << c;
  }
  EXPECT_EQ(server.stats().errors, 1u);
  EXPECT_EQ(server.stats().batches, kGoodClients * 5u + 2u);
}

// A generator descriptor off the wire that does not parse fails its batch
// with run_failed; the daemon and the connection stay up for the next one.
TEST(Serve, MalformedDescriptorFailsOnlyItsBatch) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));

  // Each descriptor with the argument its error must name.  The message
  // names it but not the server's source location.
  const std::pair<const char*, const char*> cases[] = {
      {"gnp:100:abc:1", "('abc')"},
      {"path:99999999999999999999999", "('99999999999999999999999')"},
      {"gnp:50:1e999:3", "('1e999')"},
      {"grid:4294967298:1", "('4294967298')"}};
  for (const auto& [descriptor, argument] : cases) {
    runtime::ExperimentSpec bad;
    bad.scheme = "b";
    bad.graph.generator = descriptor;
    const auto failed = client.run_batch({bad});
    EXPECT_FALSE(failed.ok) << descriptor;
    EXPECT_EQ(failed.code, "run_failed") << descriptor;
    EXPECT_NE(failed.error.find(argument), std::string::npos) << failed.error;
    EXPECT_EQ(failed.error.find(".cpp:"), std::string::npos) << failed.error;

    runtime::ExperimentSpec good;
    good.scheme = "b";
    good.graph.generator = "grid:3:4";
    const auto served = client.run_batch({good});
    ASSERT_TRUE(served.ok) << descriptor << ": " << served.error;
    ASSERT_EQ(served.results.size(), 1u);
    EXPECT_TRUE(served.results[0].ok) << descriptor;
  }
  EXPECT_EQ(server.stats().errors, 4u);
}

// "encoding":"binary" answers the same outcomes as the JSON path, field
// for field, via the radiocast-resbin/1 raw frame.
TEST(Serve, BinaryEncodingMatchesJsonResults) {
  const auto specs = demo_specs();
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));

  const auto json_outcome = client.run_batch(specs, /*id=*/1);
  ASSERT_TRUE(json_outcome.ok) << json_outcome.error;
  const auto binary_outcome = client.run_batch_binary(specs, /*id=*/2);
  ASSERT_TRUE(binary_outcome.ok) << binary_outcome.error;
  ASSERT_EQ(binary_outcome.records.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& record = binary_outcome.records[i];
    const auto& full = json_outcome.results[i];
    EXPECT_EQ(record.ok, full.ok) << i;
    EXPECT_EQ(record.all_informed, full.all_informed) << i;
    EXPECT_EQ(record.labeling_found, full.labeling_found) << i;
    EXPECT_EQ(record.rounds, full.rounds) << i;
    EXPECT_EQ(record.completion_round, full.completion_round) << i;
    EXPECT_EQ(record.ack_round, full.ack_round) << i;
    EXPECT_EQ(record.tx_total, full.tx_total) << i;
    EXPECT_EQ(record.polls, full.polls) << i;
  }
  EXPECT_EQ(binary_outcome.done.get("count").as_uint(), specs.size());
}

// Every rejection carries a stable machine-readable code.
TEST(Serve, ErrorFramesCarryStableCodes) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));

  const auto expect_code = [&](Json request, const char* code) {
    ASSERT_TRUE(client.send(request)) << code;
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value()) << code;
    EXPECT_EQ(reply->get("type").as_string(), "error") << code;
    EXPECT_EQ(reply->get("code").as_string(), code);
  };

  Json future(Json::Object{});
  future.set("v", Json(std::uint64_t{99}));
  future.set("type", Json(std::string("ping")));
  expect_code(future, "bad_version");

  Json unknown(Json::Object{});
  unknown.set("v", Json(std::uint64_t{2}));
  unknown.set("type", Json(std::string("frobnicate")));
  expect_code(unknown, "bad_request");

  Json malformed(Json::Object{});
  malformed.set("v", Json(std::uint64_t{2}));
  malformed.set("type", Json(std::string("batch")));
  malformed.set("specs", Json(std::string("not an array")));
  expect_code(malformed, "bad_request");

  runtime::ExperimentSpec bad;
  bad.scheme = "no-such-scheme";
  bad.graph.generator = "path:6";
  Json batch(Json::Object{});
  batch.set("v", Json(std::uint64_t{2}));
  batch.set("type", Json(std::string("batch")));
  Json specs_json(Json::Array{});
  specs_json.push_back(runtime::wire::to_json(bad));
  batch.set("specs", std::move(specs_json));
  expect_code(batch, "bad_spec");

  runtime::ExperimentSpec good;
  good.scheme = "b";
  good.graph.generator = "path:6";
  Json bad_encoding(Json::Object{});
  bad_encoding.set("v", Json(std::uint64_t{2}));
  bad_encoding.set("type", Json(std::string("batch")));
  bad_encoding.set("encoding", Json(std::string("xml")));
  Json good_specs(Json::Array{});
  good_specs.push_back(runtime::wire::to_json(good));
  bad_encoding.set("specs", std::move(good_specs));
  expect_code(bad_encoding, "bad_request");

  // A retired backend name is a field error, never a silent fallback.
  for (const char* retired : {"hybrid", "sharded"}) {
    Json spec = runtime::wire::to_json(good);
    Json config(Json::Object{});
    config.set("backend", Json(std::string(retired)));
    spec.set("config", std::move(config));
    Json batch(Json::Object{});
    batch.set("v", Json(std::uint64_t{2}));
    batch.set("type", Json(std::string("batch")));
    Json specs(Json::Array{});
    specs.push_back(std::move(spec));
    batch.set("specs", std::move(specs));
    ASSERT_TRUE(client.send(batch));
    const auto reply = client.receive();
    ASSERT_TRUE(reply.has_value()) << retired;
    EXPECT_EQ(reply->get("code").as_string(), "bad_spec") << retired;
    EXPECT_NE(reply->get("error").as_string().find("\"backend\""),
              std::string::npos)
        << reply->get("error").as_string();
  }

  Json compact(Json::Object{});
  compact.set("v", Json(std::uint64_t{2}));
  compact.set("type", Json(std::string("compact")));
  compact.set("max_bytes", Json(std::uint64_t{0}));
  expect_code(compact, "no_store");  // no store attached
}

// The compact control frame evicts plan-store records down to a byte
// budget and reports the eviction in the stats frame.
TEST(Serve, CompactControlFrameEvictsStoreRecords) {
  const std::string dir = ::testing::TempDir() + "radiocast_serve_gc_store";
  std::filesystem::remove_all(dir);
  par::ThreadPool pool(2);
  runtime::PlanStore store(dir);
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));

  ASSERT_TRUE(client.run_batch(demo_specs()).ok);
  ASSERT_GT(store.entry_count(), 0u);

  Json compact(Json::Object{});
  compact.set("v", Json(runtime::wire::kWireVersion));
  compact.set("type", Json(std::string("compact")));
  compact.set("max_bytes", Json(std::uint64_t{0}));
  ASSERT_TRUE(client.send(compact));
  const auto reply = client.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->get("type").as_string(), "compacted");
  EXPECT_GT(reply->get("records_evicted").as_uint(), 0u);
  EXPECT_EQ(reply->get("records").as_uint(), 0u);
  EXPECT_EQ(reply->get("bytes").as_uint(), 0u);
  EXPECT_EQ(store.entry_count(), 0u);

  Json stats_req(Json::Object{});
  stats_req.set("v", Json(runtime::wire::kWireVersion));
  stats_req.set("type", Json(std::string("stats")));
  ASSERT_TRUE(client.send(stats_req));
  const auto stats_reply = client.receive();
  ASSERT_TRUE(stats_reply.has_value());
  EXPECT_GT(stats_reply->get("store").get("records_evicted").as_uint(), 0u);

  // The warm PlanCache still answers the old specs (no recompute, and no
  // re-write: store puts only happen on construction).  A batch over a
  // graph the daemon has never seen constructs, runs, and persists again.
  ASSERT_TRUE(client.run_batch(demo_specs()).ok);
  EXPECT_EQ(store.entry_count(), 0u);
  runtime::ExperimentSpec fresh;
  fresh.scheme = "b";
  fresh.graph.generator = "path:9";
  ASSERT_TRUE(client.run_batch({fresh}).ok);
  EXPECT_GT(store.entry_count(), 0u);
}

// The stats frame's namespaced shape: server / cache (+ store when
// attached).
TEST(Serve, StatsFrameHasNamespacedSections) {
  par::ThreadPool pool(2);
  runtime::SweepRunner runner(pool);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
  const auto outcome = client.run_batch(demo_specs());
  ASSERT_TRUE(outcome.ok);
  // Done frames carry the traffic counters only.
  EXPECT_TRUE(outcome.done.get("stats").get("bytes").is_null());

  Json request(Json::Object{});
  request.set("v", Json(runtime::wire::kWireVersion));
  request.set("type", Json(std::string("stats")));
  ASSERT_TRUE(client.send(request));
  const auto reply = client.receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->get("server").get("graphs").as_uint(), 1u);
  EXPECT_EQ(reply->get("server").get("batches").as_uint(), 1u);
  EXPECT_TRUE(reply->get("store").is_null());  // no store attached
  const Json& cache = reply->get("cache");
  EXPECT_GT(cache.get("plan_misses").as_uint(), 0u);
  // What the plans hold: λ_ack at sources 1 and 0, λ_arb, round-robin's
  // empty plan, and the compiled b entry.
  EXPECT_EQ(cache.get("plans").as_uint(), 4u);
  EXPECT_EQ(cache.get("compiled").as_uint(), 1u);
  EXPECT_GT(cache.get("bytes").as_uint(), 0u);
  EXPECT_EQ(cache.get("bytes").as_uint(), runner.cache().bytes());
}

TEST(Serve, WarmRestartThroughTheDaemonSkipsAllConstruction) {
  const std::string dir = ::testing::TempDir() + "radiocast_serve_store";
  std::filesystem::remove_all(dir);
  const auto specs = demo_specs();

  std::vector<std::string> cold_lines;
  {
    par::ThreadPool pool(2);
    runtime::PlanStore store(dir);
    runtime::SweepRunner runner(pool);
    runner.attach_store(&store);
    Server server(runner, ServerOptions{});
    server.start();
    Client client;
    ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
    const auto outcome = client.run_batch(specs);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    cold_lines = analysis::format_sweep(specs, outcome.results);
    EXPECT_GT(outcome.done.get("stats").get("plan_misses").as_uint(), 0u);
    server.stop();
  }

  // Restart: new pool, runner, server — only the store directory survives.
  par::ThreadPool pool(2);
  runtime::PlanStore store(dir);
  runtime::SweepRunner runner(pool);
  runner.attach_store(&store);
  Server server(runner, ServerOptions{});
  server.start();
  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port()));
  const auto outcome = client.run_batch(specs);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  const auto stats = outcome.done.get("stats");
  EXPECT_EQ(stats.get("plan_misses").as_uint(), 0u)
      << "warm restart must not construct any labeling";
  EXPECT_EQ(stats.get("compiled_misses").as_uint(), 0u);
  EXPECT_GT(stats.get("plan_store_hits").as_uint(), 0u);
  EXPECT_EQ(analysis::format_sweep(specs, outcome.results), cold_lines);
}

}  // namespace
}  // namespace radiocast
