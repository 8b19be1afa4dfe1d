// serve_warm: radiocast_serve as a child process, restarted over a prepared
// plan store and driven by closed-loop serve::Client connections.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "host.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/wire.hpp"
#include "serve/client.hpp"
#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace rt = radiocast::runtime;
using radiocast::serve::Client;
using radiocast::support::Json;

namespace {

constexpr std::uint32_t kConnections = 4;  ///< two JSON, two binary
constexpr std::uint64_t kPingEvery = 25;   ///< traced loop: batches per ping
constexpr std::uint64_t kReplayPerConnection = 100;

/// radiocast_serve on an ephemeral loopback port over `store_dir`.  The
/// destructor stops it (shutdown frame, then SIGKILL after a grace period)
/// and reaps it.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& store_dir) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<std::string> args = {bin, "--tcp", "0", "--store", store_dir};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      ::close(out_fd_);
      throw std::runtime_error("cannot start " + bin);
    }
    port_ = read_port();
    if (port_ == 0) {
      stop();
      throw std::runtime_error("radiocast_serve did not report a port");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  void stop() {
    if (pid_ < 0) return;
    if (port_ != 0) {
      Client client;
      if (client.connect_tcp(port_)) client.shutdown_server();
    }
    int status = 0;
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::close(out_fd_);
    pid_ = -1;
  }

 private:
  /// Reads the daemon's stdout until "listening tcp PORT" (30 s limit).
  std::uint16_t read_port() {
    std::string buffer;
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    while (now_ns() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return 0;
      buffer.append(chunk, static_cast<std::size_t>(n));
      const auto at = buffer.find("listening tcp ");
      if (at != std::string::npos) {
        const auto eol = buffer.find('\n', at);
        if (eol != std::string::npos) {
          return static_cast<std::uint16_t>(
              std::stoul(buffer.substr(at + 14, eol - at - 14)));
        }
      }
    }
    return 0;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

Json stats_frame(std::uint16_t port) {
  Client client;
  Json request(Json::Object{});
  request.set("v", Json(rt::wire::kWireVersion));
  request.set("type", Json("stats"));
  if (!client.connect_tcp(port) || !client.send(request)) return Json();
  return client.receive().value_or(Json());
}

std::uint64_t stat(const Json& frame, const char* ns, const char* key) {
  return frame.get(ns).get(key).as_uint();
}

/// One served batch: when it completed, its round trip, its size.
struct Served {
  std::int64_t end_ns = 0;
  double rtt_ms = 0;  ///< +inf when the batch failed
  std::uint64_t specs = 0;
};

/// What one closed-loop phase saw.
struct Loop {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t specs = 0;
  std::uint64_t failed = 0;
  std::vector<Served> served;
  std::vector<double> ping_us;
  /// Daemon CPU seconds at each one-second window boundary (untraced).
  std::vector<double> cpu_marks;
  /// Served batches kept for the in-process replay: draws per connection.
  std::vector<std::vector<std::vector<std::size_t>>> draws;
  double wall_s() const { return static_cast<double>(end_ns - start_ns) / 1e9; }

  /// One-second windows, each with the batches that completed in it.
  std::vector<Window> windows() const {
    std::vector<Window> out;
    for (std::size_t k = 0; k + 1 < cpu_marks.size(); ++k) {
      const std::int64_t lo =
          start_ns + static_cast<std::int64_t>(k) * kWindowNs;
      Window w;
      w.wall_s = static_cast<double>(kWindowNs) / 1e9;
      w.cpu_s = cpu_marks[k + 1] - cpu_marks[k];
      for (const Served& s : served) {
        if (s.end_ns >= lo && s.end_ns < lo + kWindowNs) {
          w.specs += static_cast<double>(s.specs);
          w.latency_ms.push_back(s.rtt_ms);
        }
      }
      out.push_back(std::move(w));
    }
    return out;
  }

  static constexpr std::int64_t kWindowNs = 1'000'000'000;
};

class ServeBench {
 public:
  explicit ServeBench(const RunOptions& options)
      : options_(options),
        deck_(make_serve_deck(options.seed)),
        store_dir_(options.work_dir + "/store") {}

  RunReport run() {
    RunReport report;
    prepare();
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    const int restarts = options_.trace ? 1 : kServeRestarts;
    for (int k = 0; k < restarts; ++k) {
      daemon.reset();
      const std::int64_t t0 = now_ns();
      daemon = std::make_unique<Daemon>(options_.serve_bin, store_dir_);
      Client client;
      if (!client.connect_tcp(daemon->port())) {
        throw std::runtime_error("cannot connect to radiocast_serve");
      }
      const auto out = client.run_batch(deck_.warmup);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      check_batch(report.outcome, warmup_index_, out.ok, &out.results,
                  nullptr);
    }
    report.values.set("setup_s", median(setup_s));

    if (!options_.trace) {
      const Loop loop =
          closed_loop(*daemon, options_.seconds, nullptr, daemon->pid());
      const auto usage = process_usage(daemon->pid());
      const Json stats = stats_frame(daemon->port());
      if (!usage) throw std::runtime_error("daemon exited");
      report.outcome.attempted += loop.specs;
      report.outcome.failed += loop.failed;
      const WindowSummary s = summarize(loop.windows());
      if (s.windows < 3) report.notes.push_back("fewer than 3 windows");
      if (s.p90_ms == 0) report.notes.push_back("no window had 100 batches");
      MetricValues& v = report.values;
      v.set("specs_per_s", s.specs_per_s *
                               static_cast<double>(loop.specs - loop.failed) /
                               static_cast<double>(loop.specs));
      v.set("cpu_ms_per_spec", s.cpu_ms_per_spec);
      v.set("peak_rss_mb", usage->peak_rss_mib);
      v.set("batch_p50_ms", s.p50_ms);
      v.set("batch_p90_ms", s.p90_ms);
      require_warm(stats, report);
      v.set("ok_ratio", report.outcome.ok_ratio());
      v.set("rounds_per_spec", rounds_per_spec_);
      return report;
    }

    // Traced run: an untraced half, then a traced half whose round trips and
    // pings are spans; then the served batches replay in-process.
    const Loop plain = closed_loop(*daemon, options_.seconds / 2, nullptr, -1);
    const Json stats0 = stats_frame(daemon->port());
    Tracer tracer(true);
    const Loop traced =
        closed_loop(*daemon, options_.seconds / 2, &tracer, -1);
    const Json stats1 = stats_frame(daemon->port());
    report.outcome.attempted += plain.specs + traced.specs;
    report.outcome.failed += plain.failed + traced.failed;
    require_warm(stats1, report);
    MetricValues& v = report.values;
    v.set("trace.overhead_ratio",
          (plain.specs / plain.wall_s()) / (traced.specs / traced.wall_s()) -
              1.0);
    traced_metrics(traced, tracer, stats0, stats1, report);
    if (!options_.spans_path.empty() && !tracer.write(options_.spans_path)) {
      report.notes.push_back("could not write " + options_.spans_path);
    }
    return report;
  }

 private:
  /// Untimed: fills the plan store with one cold pass over every pool spec
  /// and computes the reference digests.
  void prepare() {
    std::filesystem::remove_all(store_dir_);
    store_.emplace(store_dir_);
    runner_.attach_store(&*store_);
    pool_specs_ = deck_.compiled_pool;
    pool_specs_.insert(pool_specs_.end(), deck_.engine_pool.begin(),
                       deck_.engine_pool.end());
    runner_.run(pool_specs_);
    reference_ = compute_reference(runner_, pool_, pool_specs_, kLemmaEvery);
    for (const rt::ExperimentSpec& w : deck_.warmup) {
      const auto it = std::find_if(
          pool_specs_.begin(), pool_specs_.end(),
          [&](const rt::ExperimentSpec& s) {
            return rt::wire::encode_spec(s) == rt::wire::encode_spec(w);
          });
      warmup_index_.push_back(
          static_cast<std::size_t>(it - pool_specs_.begin()));
    }
    // A drawn spec's expected rounds: the batch composition's weighted mean.
    double compiled = 0, engine = 0;
    const std::size_t nc = deck_.compiled_pool.size();
    for (std::size_t i = 0; i < pool_specs_.size(); ++i) {
      const double r = static_cast<double>(reference_.digests[i].rounds);
      (i < nc ? compiled : engine) += r;
    }
    rounds_per_spec_ =
        (kServeCompiledPerBatch * compiled / nc +
         kServeEnginePerBatch * engine / deck_.engine_pool.size()) /
        (kServeCompiledPerBatch + kServeEnginePerBatch);
  }

  /// Counts one batch's specs against the reference (`indices` into the
  /// pool); a failed batch fails all of its specs.
  void check_batch(Outcome& outcome, const std::vector<std::size_t>& indices,
                   bool ok, const std::vector<rt::SchemeResult>* json,
                   const std::vector<rt::wire::BinaryResult>* binary) {
    outcome.attempted += indices.size();
    outcome.failed += count_failures(indices, ok, json, binary);
  }

  std::uint64_t count_failures(
      const std::vector<std::size_t>& indices, bool ok,
      const std::vector<rt::SchemeResult>* json,
      const std::vector<rt::wire::BinaryResult>* binary) const {
    if (!ok) return indices.size();
    std::uint64_t failed = 0;
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const Digest& ref = reference_.digests[indices[j]];
      const bool match = json != nullptr ? matches(ref, (*json)[j])
                                         : matches(ref, (*binary)[j]);
      if (!match) ++failed;
    }
    return failed;
  }

  /// kConnections closed-loop clients for `seconds`; even connections ask
  /// for JSON results, odd ones for binary.  With `pid` > 0 a sampler reads
  /// the daemon's CPU time at every window boundary.
  Loop closed_loop(const Daemon& daemon, double seconds, Tracer* tracer,
                   pid_t pid) {
    Loop loop;
    loop.draws.resize(kConnections);
    std::mutex mu;
    std::atomic<bool> broken{false};
    loop.start_ns = now_ns();
    const std::int64_t deadline =
        loop.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    std::thread sampler;
    if (pid > 0) {
      sampler = std::thread([&] {
        for (std::int64_t t = loop.start_ns; t <= deadline;
             t += Loop::kWindowNs) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(t)));
          const auto usage = process_usage(pid);
          if (!usage) return;
          loop.cpu_marks.push_back(usage->cpu_s);
        }
      });
    }
    auto client_loop = [&](std::uint32_t conn) {
      Client client;
      if (!client.connect_tcp(daemon.port())) {
        broken = true;
        return;
      }
      std::vector<Served> served;
      std::vector<double> pings;
      std::vector<std::vector<std::size_t>> kept;
      std::uint64_t specs = 0, failed = 0;
      for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
        const auto draw = serve_draw(deck_, options_.seed, conn, i);
        std::vector<rt::ExperimentSpec> specs_batch;
        for (const std::size_t d : draw) {
          specs_batch.push_back(serve_spec(deck_, d));
        }
        const std::uint64_t id = (std::uint64_t{conn} << 32) | i;
        const std::int64_t t0 = now_ns();
        std::uint64_t bad = 0;
        {
          Scope span(tracer != nullptr ? *tracer : null_tracer_, "roundtrip",
                     Layer::kServe, id);
          if (conn % 2 == 0) {
            const auto out = client.run_batch(specs_batch, id);
            bad = count_failures(draw, out.ok, &out.results, nullptr);
          } else {
            const auto out = client.run_batch_binary(specs_batch, id);
            bad = count_failures(draw, out.ok, nullptr, &out.records);
          }
        }
        const std::int64_t t1 = now_ns();
        const double ms = static_cast<double>(t1 - t0) / 1e6;
        served.push_back(
            {t1, bad == draw.size() ? kFailedSample : ms, draw.size() - bad});
        specs += draw.size();
        failed += bad;
        if (kept.size() < kReplayPerConnection) kept.push_back(draw);
        if (tracer != nullptr && i % kPingEvery == 0) {
          const std::int64_t p0 = now_ns();
          Scope span(*tracer, "ping", Layer::kServe, id);
          if (client.ping()) {
            pings.push_back(static_cast<double>(now_ns() - p0) / 1e3);
          }
        }
      }
      const std::lock_guard<std::mutex> lock(mu);
      loop.served.insert(loop.served.end(), served.begin(), served.end());
      loop.ping_us.insert(loop.ping_us.end(), pings.begin(), pings.end());
      loop.draws[conn] = std::move(kept);
      loop.specs += specs;
      loop.failed += failed;
      loop.end_ns = std::max(loop.end_ns, now_ns());
    };
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(client_loop, c);
    }
    for (std::thread& t : threads) t.join();
    if (sampler.joinable()) sampler.join();
    if (broken) throw std::runtime_error("cannot connect to radiocast_serve");
    return loop;
  }

  /// The restart must be warm: no error frames, no plan or compiled misses.
  static void require_warm(const Json& stats, RunReport& report) {
    const std::uint64_t bad = stat(stats, "server", "errors") +
                              stat(stats, "cache", "plan_misses") +
                              stat(stats, "cache", "compiled_misses");
    if (stats.is_null() || bad != 0) {
      report.notes.push_back("daemon not warm or reported errors: " +
                             stats.dump());
      report.outcome.failed += std::max<std::uint64_t>(bad, 1);
    }
  }

  void traced_metrics(const Loop& loop, Tracer& tracer, const Json& stats0,
                      const Json& stats1, RunReport& report) {
    MetricValues& v = report.values;
    const auto workers = pool_.thread_count();

    // The served batches again, in-process: spec decode, run_merged on a
    // warm runner, result encoders — and the same batches through the
    // traced public-call replay to split execution across layers.
    Tracer exec(true);
    LookupCounts lookups;
    std::vector<double> exec_ms;
    double decode_ms = 0, json_ms = 0, binary_ms = 0;
    double json_bytes = 0, binary_bytes = 0;
    std::uint64_t specs = 0, batches = 0;
    const std::int64_t exec_t0 = now_ns();
    for (std::uint32_t c = 0; c < kConnections; ++c) {
      for (const auto& draw : loop.draws[c]) {
        std::vector<std::string> texts;
        for (const std::size_t d : draw) {
          texts.push_back(rt::wire::encode_spec(serve_spec(deck_, d)));
        }
        std::vector<rt::ExperimentSpec> decoded;
        std::int64_t t = now_ns();
        for (const std::string& text : texts) {
          Scope s(tracer, "spec_decode", Layer::kRuntime);
          decoded.push_back(rt::wire::decode_spec(text).value);
        }
        decode_ms += static_cast<double>(now_ns() - t) / 1e6;
        t = now_ns();
        auto merged = runner_.run_merged({&decoded});
        exec_ms.push_back(static_cast<double>(now_ns() - t) / 1e6);
        t = now_ns();
        for (const auto& r : merged[0].results) {
          json_bytes += static_cast<double>(rt::wire::encode_result(r).size());
        }
        json_ms += static_cast<double>(now_ns() - t) / 1e6;
        t = now_ns();
        std::vector<rt::wire::BinaryResult> records;
        for (std::size_t j = 0; j < merged[0].results.size(); ++j) {
          records.push_back(rt::wire::binary_result(
              merged[0].results[j], merged[0].spec_wall_ns[j]));
        }
        binary_bytes += static_cast<double>(
            rt::wire::encode_results_binary(records).size());
        binary_ms += static_cast<double>(now_ns() - t) / 1e6;
        report.outcome.failed +=
            count_failures(draw, true, &merged[0].results, nullptr);
        report.outcome.attempted += draw.size();
        const auto replayed =
            traced_batch(runner_, pool_, decoded, exec, ++batches, lookups);
        report.outcome.failed +=
            count_failures(draw, true, &replayed, nullptr);
        report.outcome.attempted += draw.size();
        specs += draw.size();
      }
    }
    const std::int64_t exec_t1 = now_ns();
    const auto exec_spans = exec.spans();
    sweep_layer_metrics(exec_spans, exec_t0, exec_t1, batches, workers, v);

    // A restart's store reads and graph builds, timed in-process: a fresh
    // runner over the prepared store runs every pool spec once.
    {
      Tracer restart(true);
      rt::PlanStore store(store_dir_);
      rt::SweepRunner fresh(pool_);
      fresh.attach_store(&store);
      const std::uint64_t edges =
          register_graphs(fresh, deck_.graphs, restart);
      LookupCounts ignored;
      const auto results =
          traced_batch(fresh, pool_, pool_specs_, restart, 1, ignored);
      std::vector<std::size_t> all(pool_specs_.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      report.outcome.failed += count_failures(all, true, &results, nullptr);
      report.outcome.attempted += all.size();
      const auto ops = op_stats(restart.spans(), INT64_MIN, INT64_MAX);
      auto mean_of = [&](const char* key) {
        const auto it = ops.find(key);
        return it == ops.end() ? 0.0 : it->second.mean_ms();
      };
      v.set("graph.materialize_ms", mean_of("graph.materialize"));
      v.set("graph.hash_ms", mean_of("graph.hash"));
      v.set("graph.edges_m", static_cast<double>(edges) / 1e6);
      v.set("runtime.store_get_ms", mean_of("runtime.store_get"));
      v.set("runtime.plan_decode_ms", mean_of("runtime.plan_decode"));
    }

    const double n = static_cast<double>(specs);
    const double nb = static_cast<double>(batches);
    v.set("runtime.spec_decode_us", decode_ms * 1e3 / n);
    v.set("runtime.result_json_us", json_ms * 1e3 / n);
    v.set("runtime.result_binary_us", binary_ms * 1e3 / n);
    v.set("runtime.bytes_per_spec.json", json_bytes / n);
    v.set("runtime.bytes_per_spec.binary", binary_bytes / n);
    v.set("serve.ping_rtt_us", median(loop.ping_us));
    const double exec_per_batch = mean(exec_ms);
    // Half the connections ask for JSON results, half for binary.
    const double codec_per_batch =
        (decode_ms + 0.5 * (json_ms + binary_ms)) / nb;
    std::vector<double> finite;
    for (const Served& s : loop.served) {
      if (s.rtt_ms != kFailedSample) finite.push_back(s.rtt_ms);
    }
    const double rtt = mean(finite);
    v.set("serve.exec_ms", exec_per_batch);
    v.set("serve.overhead_ms", rtt - exec_per_batch - codec_per_batch);

    // Daemon counters over the traced loop.
    auto delta = [&](const char* ns, const char* key) {
      return static_cast<double>(stat(stats1, ns, key) - stat(stats0, ns, key));
    };
    v.set("serve.coalesced_share", ratio(delta("pipeline", "coalesced_batches"),
                                         delta("pipeline", "batches")));
    v.set("serve.specs_per_submission",
          ratio(delta("pipeline", "specs"), delta("pipeline", "submissions")));
    v.set("serve.max_queue_depth",
          static_cast<double>(stat(stats1, "pipeline", "max_queue_depth")));
    const double hits =
        delta("cache", "plan_hits") + delta("cache", "plan_store_hits");
    v.set("runtime.plan_hit_ratio",
          ratio(hits, hits + delta("cache", "plan_misses")));
    // Store reads happen at restart, so this ratio covers the whole run.
    v.set("runtime.store_hit_ratio",
          ratio(static_cast<double>(stat(stats1, "store", "read_hits")),
                static_cast<double>(stat(stats1, "store", "reads"))));

    // Layer shares of the loop: round trips and pings are serve time; each
    // round trip's codec and execution parts go to the runtime codecs and,
    // by the replay's own attribution, to the layers that executed it.
    const Attribution loop_a =
        attribute(tracer.spans(), loop.start_ns, loop.end_ns);
    const Attribution exec_a = attribute(exec_spans, exec_t0, exec_t1);
    const double covered = loop_a.covered_ns;
    const double codec_share = rtt > 0 ? codec_per_batch / rtt : 0.0;
    const double exec_share = rtt > 0 ? exec_per_batch / rtt : 0.0;
    Attribution mixed;
    mixed.wall_ns = loop_a.wall_ns;
    const auto serve = static_cast<std::size_t>(Layer::kServe);
    const auto runtime = static_cast<std::size_t>(Layer::kRuntime);
    mixed.self_ns[serve] =
        covered * std::max(0.0, 1 - codec_share - exec_share);
    mixed.self_ns[runtime] += covered * codec_share;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      mixed.self_ns[l] += covered * exec_share *
                          ratio(exec_a.self_ns[l], exec_a.covered_ns);
    }
    for (const double s : mixed.self_ns) mixed.covered_ns += s;
    share_metrics(mixed, v);
  }

  const RunOptions& options_;
  const ServeDeck deck_;
  const std::string store_dir_;
  Tracer null_tracer_{false};
  radiocast::par::ThreadPool pool_{0};
  std::optional<rt::PlanStore> store_;
  rt::SweepRunner runner_{pool_};
  std::vector<rt::ExperimentSpec> pool_specs_;
  std::vector<std::size_t> warmup_index_;
  Reference reference_;
  double rounds_per_spec_ = 0;
};

}  // namespace

RunReport run_serve_workload(const RunOptions& options) {
  ServeBench bench(options);
  return bench.run();
}

}  // namespace perfbench
