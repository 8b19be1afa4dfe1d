// perfbench — the repository benchmark (run it through run.py, which builds
// it first).
//
//   perfbench --workload cold_sweep|warm_sweep|serve_warm --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--serve-bin PATH] [--spans-out FILE]
//   perfbench --list-metrics
//
// Prints a `# host {...}` fingerprint line, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1.  Exits 0
// iff every result matched the reference path, 1 on a mismatch, 2 when the
// run could not be made (no result line then).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "host.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload cold_sweep|warm_sweep|serve_warm "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "                 [--serve-bin PATH] [--spans-out FILE]\n"
               "       perfbench --list-metrics\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.serve_bin = PERFBENCH_SERVE_BIN;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto* catalogue : {&end_to_end_metrics(),
                                    &per_layer_metrics()}) {
        const char* kind =
            catalogue == &end_to_end_metrics() ? "end_to_end" : "per_layer";
        for (const MetricDef& m : *catalogue) {
          std::printf("%s %s %s\n", kind, m.name.c_str(), m.unit.c_str());
        }
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        const auto w = parse_workload(value);
        if (!w) return usage(("unknown workload '" + value + "'").c_str());
        options.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--work-dir") {
        options.work_dir = value;
      } else if (arg == "--serve-bin") {
        options.serve_bin = value;
      } else if (arg == "--spans-out") {
        options.spans_path = value;
      } else {
        return usage(("unknown argument '" + arg + "'").c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value '" + value + "' for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("%s\n", host_line(host_info(), workload_name(options.workload),
                                options.seed, options.trace)
                          .c_str());
  std::fflush(stdout);
  try {
    const RunReport report = run_workload(options);
    for (const std::string& note : report.notes) {
      std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    }
    std::printf("%s\n",
                result_line(report.outcome,
                            options.trace ? per_layer_metrics()
                                          : end_to_end_metrics(),
                            report.values)
                    .c_str());
    return report.outcome.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 2;
  }
}
