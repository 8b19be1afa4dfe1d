// radiocast_serve — the sweep daemon: a long-lived SweepRunner behind a
// Unix or loopback-TCP socket, with an optional on-disk plan store so a
// restarted daemon answers its first batch from persisted labelings.
//
//   radiocast_serve --unix PATH | --tcp PORT
//                   [--store DIR] [--threads N] [--cache-bytes BYTES]
//                   [--pipeline-depth N] [--coalesce-window-ms M]
//
//   --unix PATH         listen on a Unix-domain socket at PATH
//   --tcp PORT          listen on 127.0.0.1:PORT (0 = ephemeral; the bound
//                       port is printed on stdout as "listening tcp PORT")
//   --store DIR         attach a PlanStore at DIR (created if absent):
//                       plans persist across restarts
//   --threads N         worker threads for batch execution (0 = hardware)
//   --cache-bytes B     PlanCache byte budget (0 = unlimited); evicted
//                       entries reload from the store instead of recompute
//   --pipeline-depth N  admission-queue capacity of the staged pipeline
//                       (default 32; 0 = serial legacy path, one batch at a
//                       time on the runner mutex)
//   --coalesce-window-ms M  extra wait for more batches to merge into one
//                       sweep before submitting (default 0: merge whatever
//                       has queued while the previous sweep ran)
//
// Protocol: u32-LE length-prefixed JSON frames; see src/serve/server.hpp
// and the README's radiocast_serve section for the frame catalogue and a
// worked example.  SIGINT/SIGTERM stop the daemon cleanly.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "parallel/thread_pool.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/sweep.hpp"
#include "serve/server.hpp"
#include "support/contracts.hpp"

namespace {

std::atomic<radiocast::serve::Server*> g_server{nullptr};

/// Only requests the stop (async-signal-safe); main's wait() performs it.
void handle_signal(int) {
  if (auto* server = g_server.load()) server->request_stop();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: radiocast_serve --unix PATH | --tcp PORT\n"
      "                       [--store DIR] [--threads N] "
      "[--cache-bytes BYTES]\n"
      "                       [--pipeline-depth N] "
      "[--coalesce-window-ms M]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace radiocast;

  serve::ServerOptions options;
  bool tcp = false;
  std::string store_dir;
  std::size_t threads = 0;
  std::size_t cache_bytes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--unix") == 0 && i + 1 < argc) {
      options.unix_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc) {
      tcp = true;
      options.tcp_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--cache-bytes") == 0 && i + 1 < argc) {
      cache_bytes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--pipeline-depth") == 0 &&
               i + 1 < argc) {
      options.executor.pipeline_depth =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--coalesce-window-ms") == 0 &&
               i + 1 < argc) {
      options.executor.coalesce_window_ms =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return usage();
    }
  }
  if (options.unix_path.empty() && !tcp) return usage();

  try {
    par::ThreadPool pool(threads);
    runtime::SweepRunner runner(pool);
    if (cache_bytes != 0) runner.cache().set_byte_budget(cache_bytes);
    std::optional<runtime::PlanStore> store;
    if (!store_dir.empty()) {
      store.emplace(store_dir);
      runner.attach_store(&*store);
      std::printf("plan store %s (%zu records)\n",
                  store->directory().c_str(), store->entry_count());
    }

    serve::Server server(runner, options);
    server.start();
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    if (!options.unix_path.empty()) {
      std::printf("listening unix %s\n", options.unix_path.c_str());
    } else {
      std::printf("listening tcp %u\n", server.tcp_port());
    }
    std::fflush(stdout);

    server.wait();
    g_server = nullptr;

    const auto stats = server.stats();
    std::printf("served %llu batches / %llu specs over %llu connections\n",
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.specs_run),
                static_cast<unsigned long long>(stats.connections));
    const auto pipeline = server.pipeline_stats();
    if (pipeline.submissions != 0) {
      std::printf(
          "pipeline: %llu submissions, %llu coalesced batches, "
          "%llu merged specs\n",
          static_cast<unsigned long long>(pipeline.submissions),
          static_cast<unsigned long long>(pipeline.coalesced_batches),
          static_cast<unsigned long long>(pipeline.merged_specs));
    }
    return 0;
  } catch (const ContractViolation& violation) {
    std::fprintf(stderr, "radiocast_serve: %s\n", violation.what());
    return 1;
  }
}
