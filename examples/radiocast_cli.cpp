// radiocast_cli — command-line front end for the library.
//
//   radiocast_cli gen <family> [args...]          emit an edge list
//   radiocast_cli label  [--source N] [--scheme NAME] < edges  labels
//   radiocast_cli run    [--source N] [--scheme NAME] < edges  any scheme
//   radiocast_cli verify [--source N] < edges     run B + Lemma 2.8 check
//   radiocast_cli dot    [--source N] < edges     Graphviz with labels
//   radiocast_cli sweep  [--suite standard|quick] [--n N] [--schemes ...]
//                        [--repeat K]             batched registry sweep
//
// Families for `gen`: path N | cycle N | star N | complete N | grid R C |
// torus R C | hypercube D | tree N SEED | gnp N P SEED | disk N R SEED |
// sp M SEED | wheel N | petersen
//
// Examples:
//   radiocast_cli gen grid 4 6 | radiocast_cli run --scheme ack
//   radiocast_cli gen gnp 30 0.15 7 | radiocast_cli verify
//   radiocast_cli sweep --suite quick --n 32 --schemes b,ack,arb --repeat 2
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/labeling.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/traversal.hpp"
#include "onebit/labeler.hpp"
#include "runtime/flags.hpp"
#include "runtime/scheme.hpp"
#include "runtime/sweep.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace radiocast;

int usage() {
  std::fprintf(stderr,
               "usage: radiocast_cli gen <family> [args...]\n"
               "       radiocast_cli {label|run|verify|dot} [--source N] "
               "[--scheme NAME]\n"
               "                     [--backend auto|scalar|bit|compiled]\n"
               "                     [--dispatch auto|scan|active] "
               "< edge-list\n"
               "       radiocast_cli sweep [--suite standard|quick] [--n N] "
               "[--seed S]\n"
               "                     [--schemes LIST|all] [--repeat K] "
               "[--backend ...] [--dispatch ...]\n"
               "                     [--threads N] [--store DIR] "
               "[--store-gc-bytes B] [--faults ...]\n"
               "       (run takes any registered scheme, label b, arb, "
               "onebit or any lambda-ack scheme;\n"
               "        --backend compiled answers from the scheme's cached "
               "compiled entry; run --scheme b|ack|arb;\n"
               "        --dispatch picks the protocol-dispatch strategy "
               "[auto = active-set when hinted];\n"
               "        --threads sets the sweep worker count "
               "(engines run single-threaded), 0 = hardware;\n"
               "        --faults injects deterministic faults "
               "(run/sweep, engine path only):\n"
               "          %s\n"
               "        --resilient (run --scheme ack) turns on B_ack's "
               "loss-tolerant retry mode;\n"
               "        sweep runs every listed registry scheme over a "
               "workload suite with a shared\n"
               "        plan cache — --repeat K reruns the batch to "
               "demonstrate warm-cache hits)\n",
               std::string(runtime::faults_flag_values()).c_str());
  return 2;
}

struct Options {
  graph::NodeId source = 0;
  std::string scheme = "b";
  runtime::ExecutionConfig exec;
  bool resilient = false;
  bool ok = true;
};

Options parse_options(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto shared = runtime::parse_execution_flag(
        argv[i], value, /*allow_compiled=*/true, opt.exec);
    if (shared.status == runtime::FlagStatus::kOk) {
      ++i;
      continue;
    }
    if (shared.status == runtime::FlagStatus::kError) {
      std::fprintf(stderr, "%s\n", shared.error.c_str());
      opt.ok = false;
      return opt;
    }
    if (std::strcmp(argv[i], "--source") == 0 && i + 1 < argc) {
      opt.source = static_cast<graph::NodeId>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--scheme") == 0 && i + 1 < argc) {
      opt.scheme = argv[++i];
    } else if (std::strcmp(argv[i], "--resilient") == 0) {
      opt.resilient = true;
    }
  }
  return opt;
}

/// The registered scheme `name`, or nullptr after listing the registered
/// names on stderr.
const runtime::Scheme* find_scheme(const std::string& name) {
  auto& registry = runtime::SchemeRegistry::instance();
  if (const auto* scheme = registry.find(name)) return scheme;
  std::fprintf(stderr, "unknown scheme '%s'; registered:", name.c_str());
  for (const auto* s : registry.schemes()) {
    std::fprintf(stderr, " %s", std::string(s->name()).c_str());
  }
  std::fprintf(stderr, "\n");
  return nullptr;
}

/// Display name of the selected backend ("compiled" wins over the engine
/// backend, mirroring how the run commands treat the flag).
const char* backend_display(const Options& opt) {
  return opt.exec.compiled ? "compiled" : sim::to_string(opt.exec.backend);
}

int cmd_gen(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string family = argv[2];
  auto arg = [&](int k, std::uint32_t fallback) {
    return argc > 2 + k ? static_cast<std::uint32_t>(std::stoul(argv[2 + k]))
                        : fallback;
  };
  graph::Graph g;
  if (family == "path") {
    g = graph::path(arg(1, 10));
  } else if (family == "cycle") {
    g = graph::cycle(arg(1, 10));
  } else if (family == "star") {
    g = graph::star(arg(1, 10));
  } else if (family == "complete") {
    g = graph::complete(arg(1, 8));
  } else if (family == "grid") {
    g = graph::grid(arg(1, 4), arg(2, 4));
  } else if (family == "torus") {
    g = graph::torus(arg(1, 4), arg(2, 4));
  } else if (family == "hypercube") {
    g = graph::hypercube(arg(1, 4));
  } else if (family == "wheel") {
    g = graph::wheel(arg(1, 8));
  } else if (family == "petersen") {
    g = graph::petersen();
  } else if (family == "tree") {
    Rng rng(arg(2, 1));
    g = graph::random_tree(arg(1, 16), rng);
  } else if (family == "gnp") {
    const double p = argc > 4 ? std::stod(argv[4]) : 0.2;
    Rng rng(argc > 5 ? std::stoull(argv[5]) : 1);
    g = graph::gnp_connected(arg(1, 20), p, rng);
  } else if (family == "disk") {
    const double r = argc > 4 ? std::stod(argv[4]) : 0.3;
    Rng rng(argc > 5 ? std::stoull(argv[5]) : 1);
    g = graph::random_geometric(arg(1, 20), r, rng);
  } else if (family == "sp") {
    Rng rng(arg(2, 1));
    g = graph::series_parallel(arg(1, 20), rng);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }
  graph::write_edge_list(g, std::cout);
  return 0;
}

int cmd_label(const graph::Graph& g, const Options& opt) {
  const auto* scheme = find_scheme(opt.scheme);
  if (scheme == nullptr) return 2;
  const auto print = [&](const std::vector<core::Label>& labels, int bits) {
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      std::printf("%u %s\n", v, labels[v].to_string(bits).c_str());
    }
  };
  if (opt.scheme == "b") {
    print(core::label_broadcast(g, opt.source).labels, 2);
  } else if (opt.scheme == "arb") {
    print(core::label_arbitrary(g, opt.source).labels, 3);
  } else if (opt.scheme == "onebit") {
    const auto lab = onebit::find_onebit_labeling(g, opt.source);
    if (!lab.ok) {
      std::fprintf(stderr, "no one-bit labeling found\n");
      return 1;
    }
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      std::printf("%u %d\n", v, lab.bits[v] ? 1 : 0);
    }
  } else if (scheme->plan_family() == "lambda-ack") {
    // ack, common-round and multi all run on one λ_ack labeling.
    print(core::label_acknowledged(g, opt.source).labels, 3);
  } else {
    std::fprintf(stderr,
                 "label has no printer for scheme '%s'; it takes b, arb, "
                 "onebit or a lambda-ack scheme (ack, common-round, multi)\n",
                 opt.scheme.c_str());
    return 2;
  }
  return 0;
}

int cmd_run(const graph::Graph& g, const Options& opt) {
  const auto* scheme = find_scheme(opt.scheme);
  if (scheme == nullptr) return 2;
  if (opt.resilient && opt.scheme != "ack") {
    std::fprintf(stderr,
                 "--resilient is B_ack's retry mode; it needs --scheme ack\n");
    return 2;
  }
  const bool faulted = opt.exec.faults.enabled() || opt.resilient;
  if (opt.exec.compiled && faulted) {
    std::fprintf(stderr,
                 "--backend compiled answers for the fault-free run; "
                 "--faults/--resilient need the engine\n");
    return 2;
  }
  if (opt.exec.compiled && !scheme->can_compile()) {
    std::fprintf(stderr,
                 "--backend compiled requires --scheme b, ack, or arb (the "
                 "label-determined algorithms, whose runs it caches)\n");
    return 2;
  }
  runtime::SchemeOptions sopt;
  sopt.resilient = opt.resilient;
  runtime::ExecutionConfig exec = opt.exec;
  if (faulted && exec.max_rounds == 0) {
    // Retries stretch past the fault-free theorem bound; give faulted
    // runs a generous linear budget instead of the scheme default.
    exec.max_rounds = 64 * std::max<std::uint64_t>(g.node_count(), 16);
  }
  const auto run = runtime::run_scheme(*scheme, g, opt.source, sopt, exec);
  if (!faulted && opt.scheme == "b") {
    std::printf("scheme=lambda(2-bit) backend=%s n=%u informed=%s rounds=%llu "
                "bound=%llu ell=%u\n",
                backend_display(opt), g.node_count(),
                run.all_informed ? "all" : "NOT-ALL",
                static_cast<unsigned long long>(run.completion_round),
                static_cast<unsigned long long>(run.bound), run.ell);
    return run.all_informed ? 0 : 1;
  }
  if (!faulted && opt.scheme == "ack") {
    std::printf("scheme=lambda_ack(3-bit) informed=%s t=%llu t'=%llu z=%u\n",
                run.all_informed ? "all" : "NOT-ALL",
                static_cast<unsigned long long>(run.completion_round),
                static_cast<unsigned long long>(run.ack_round), run.special);
    return run.all_informed && run.ack_round != 0 ? 0 : 1;
  }
  if (!faulted && opt.scheme == "arb") {
    std::printf("scheme=lambda_arb(3-bit) ok=%s total_rounds=%llu "
                "common_done=%llu T=%llu\n",
                run.ok ? "yes" : "NO",
                static_cast<unsigned long long>(run.rounds),
                static_cast<unsigned long long>(run.done_round),
                static_cast<unsigned long long>(run.T));
    return run.ok ? 0 : 1;
  }
  if (!faulted && opt.scheme == "onebit") {
    std::printf("scheme=onebit ok=%s rounds=%llu ones=%u attempts=%u\n",
                run.ok ? "yes" : "NO",
                static_cast<unsigned long long>(run.completion_round),
                run.ones, run.attempts);
    return run.ok ? 0 : 1;
  }
  // Every other run, and every faulted or resilient one, prints the
  // scheme-generic line.
  std::string setting;
  if (faulted) {
    setting = " faults=[" + sim::format_fault_plan(opt.exec.faults) + "]";
    if (opt.resilient) setting += " resilient";
  }
  std::printf("scheme=%s%s ok=%s informed=%s rounds=%llu completion=%llu\n",
              opt.scheme.c_str(), setting.c_str(), run.ok ? "yes" : "NO",
              run.all_informed ? "all" : "NOT-ALL",
              static_cast<unsigned long long>(run.rounds),
              static_cast<unsigned long long>(run.completion_round));
  return run.ok ? 0 : 1;
}

int cmd_verify(const graph::Graph& g, const Options& opt) {
  // The registry's verify hook: run "b" with a full trace and check it
  // against the paper's per-round characterization (Lemma 2.8).
  const auto* scheme = runtime::SchemeRegistry::instance().find("b");
  const auto plan = scheme->label(g, opt.source, {});
  runtime::ExecutionConfig config = opt.exec;
  config.compiled = false;
  config.trace = sim::TraceLevel::kFull;
  const auto run =
      runtime::run_with_plan(*scheme, g, opt.source, plan, {}, config);
  const auto verdict = scheme->verify(g, opt.source, *plan, run.trace);
  std::printf("informed=%s completion=%llu lemma2.8=%s\n",
              run.all_informed ? "all" : "NOT-ALL",
              static_cast<unsigned long long>(run.completion_round),
              verdict.empty() ? "OK" : verdict.c_str());
  return run.all_informed && verdict.empty() ? 0 : 1;
}

/// `radiocast_cli sweep`: a batched registry sweep over a workload suite
/// with a shared plan cache.  One line per (workload × scheme), in spec
/// order — byte-identical at any --threads value.
int cmd_sweep(int argc, char** argv) {
  std::string suite_name = "quick";
  std::uint32_t n = 32;
  std::uint64_t seed = 1;
  int repeat = 1;
  std::string schemes_arg =
      "b,ack,common-round,arb,multi,round-robin,color-robin,decay,beep";
  std::string store_dir;
  std::uint64_t store_gc_bytes = 0;
  bool store_gc = false;
  runtime::ExecutionConfig config;
  for (int i = 2; i < argc; ++i) {
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto shared = runtime::parse_execution_flag(
        argv[i], value, /*allow_compiled=*/true, config);
    if (shared.status == runtime::FlagStatus::kOk) {
      ++i;
      continue;
    }
    if (shared.status == runtime::FlagStatus::kError) {
      std::fprintf(stderr, "%s\n", shared.error.c_str());
      return 2;
    }
    if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
      suite_name = argv[++i];
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--schemes") == 0 && i + 1 < argc) {
      schemes_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--store-gc-bytes") == 0 &&
               i + 1 < argc) {
      store_gc_bytes = std::stoull(argv[++i]);
      store_gc = true;
    } else {
      std::fprintf(stderr, "unknown sweep argument '%s'\n", argv[i]);
      return 2;
    }
  }
  if (store_gc && store_dir.empty()) {
    std::fprintf(stderr, "--store-gc-bytes needs --store DIR\n");
    return 2;
  }
  if (n < 8) {
    std::fprintf(stderr, "--n must be >= 8 (workload-suite minimum)\n");
    return 2;
  }
  if (repeat < 1) {
    std::fprintf(stderr, "--repeat must be >= 1\n");
    return 2;
  }
  if (suite_name != "standard" && suite_name != "quick") {
    std::fprintf(stderr, "--suite must be standard or quick\n");
    return 2;
  }
  if (config.compiled && config.faults.enabled()) {
    std::fprintf(stderr, "--backend compiled answers for the fault-free "
                         "run; drop it to sweep with --faults\n");
    return 2;
  }

  auto& registry = runtime::SchemeRegistry::instance();
  std::vector<std::string> schemes;
  if (schemes_arg == "all") {
    for (const auto* s : registry.schemes()) {
      schemes.emplace_back(s->name());
    }
  } else {
    std::string cur;
    for (const char c : schemes_arg + ",") {
      if (c != ',') {
        cur.push_back(c);
        continue;
      }
      if (cur.empty()) continue;
      if (find_scheme(cur) == nullptr) return 2;
      schemes.push_back(cur);
      cur.clear();
    }
  }

  const auto suite = suite_name == "standard"
                         ? analysis::standard_suite(n, seed)
                         : analysis::quick_suite(n, seed);
  par::ThreadPool pool(config.threads);
  runtime::SweepRunner runner(pool);
  std::optional<runtime::PlanStore> store;
  if (!store_dir.empty()) {
    store.emplace(store_dir);
    runner.attach_store(&*store);
  }
  const auto specs = analysis::scheme_specs(runner, suite, schemes, config);

  std::vector<runtime::SchemeResult> results;
  Stopwatch watch;
  for (int rep = 0; rep < repeat; ++rep) {
    results = runner.run(specs);
  }
  const double ms = watch.millis();

  bool all_ok = true;
  const auto lines = analysis::format_sweep(specs, results);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    all_ok = all_ok && results[i].ok;
    std::printf("%s\n", lines[i].c_str());
  }
  const auto stats = runner.cache_stats();
  std::printf(
      "sweep: %zu experiments x %d repeat(s) in %.2f ms | plan cache: "
      "%llu hits / %llu misses / %llu store-hits, compiled: %llu hits / "
      "%llu misses / %llu store-hits\n",
      specs.size(), repeat, ms,
      static_cast<unsigned long long>(stats.plan_hits),
      static_cast<unsigned long long>(stats.plan_misses),
      static_cast<unsigned long long>(stats.plan_store_hits),
      static_cast<unsigned long long>(stats.compiled_hits),
      static_cast<unsigned long long>(stats.compiled_misses),
      static_cast<unsigned long long>(stats.compiled_store_hits));
  if (store_gc) {
    // GC after the sweep: the records this run just read (or wrote) are the
    // most recently used, so eviction trims the cold tail first.
    const std::size_t evicted =
        store->compact(static_cast<std::size_t>(store_gc_bytes));
    std::printf("store gc: evicted %zu record(s), %zu left (%zu bytes)\n",
                evicted, store->entry_count(), store->total_bytes());
  }
  return all_ok ? 0 : 1;
}

int cmd_dot(const graph::Graph& g, const Options& opt) {
  const auto lab = core::label_broadcast(g, opt.source);
  std::vector<std::string> text(g.node_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    text[v] = lab.labels[v].to_string(2);
  }
  std::printf("%s", graph::to_dot(g, text, opt.source).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return cmd_gen(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);

  const Options opt = parse_options(argc, argv, 2);
  if (!opt.ok) return 2;
  graph::Graph g = graph::read_edge_list(std::cin);
  if (g.node_count() == 0) {
    std::fprintf(stderr, "empty graph on stdin\n");
    return 2;
  }
  if (!graph::is_connected(g)) {
    std::fprintf(stderr, "input graph is not connected\n");
    return 2;
  }
  if (opt.source >= g.node_count()) {
    std::fprintf(stderr, "source out of range\n");
    return 2;
  }

  if (opt.exec.compiled && cmd != "run") {
    std::fprintf(stderr, "--backend compiled only applies to 'run'\n");
    return 2;
  }
  if ((opt.exec.faults.enabled() || opt.resilient) && cmd != "run") {
    std::fprintf(stderr, "--faults/--resilient only apply to 'run' (and "
                         "'sweep', which parses its own flags)\n");
    return 2;
  }
  if (cmd == "label") return cmd_label(g, opt);
  if (cmd == "run") return cmd_run(g, opt);
  if (cmd == "verify") return cmd_verify(g, opt);
  if (cmd == "dot") return cmd_dot(g, opt);
  return usage();
}
