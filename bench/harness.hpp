/// \file harness.hpp
/// \brief The unified radiocast_bench harness: a scenario registry, a shared
///        CLI (--filter/--repeat/--sizes/--json), batched sweeps on the
///        project thread pool, and machine-readable JSON output.
///
/// Each scenario lives in one register_<name>.cpp translation unit that calls
/// `register_scenario` from a namespace-scope initializer.  The harness runs
/// the selected scenarios, collects `Sample` records (one per measured
/// (graph, run) point), prints a human table, and optionally emits the full
/// sample set as JSON — the repo's perf trajectory format.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "runtime/config.hpp"
#include "sim/backend.hpp"
#include "sim/dispatch.hpp"
#include "sim/simd.hpp"

namespace radiocast::bench {

/// One measured data point.  `rounds`/`transmissions` are simulated-model
/// quantities; `wall_ns` is host wall time for the work that produced the
/// point.  Scenario-specific metrics ride in `extra` as key/value pairs.
struct Sample {
  std::string family;   ///< sub-case within the scenario (graph family, ...)
  std::uint32_t n = 0;  ///< node count of the instance
  std::uint64_t m = 0;  ///< edge count of the instance
  std::uint64_t rounds = 0;         ///< simulated rounds to completion
  std::uint64_t transmissions = 0;  ///< total messages sent in the run
  std::uint64_t wall_ns = 0;        ///< host wall time for this point
  bool ok = true;                   ///< scenario invariant held for this point
  int rep = 0;                      ///< repetition index ([0, --repeat))
  std::vector<std::pair<std::string, double>> extra;  ///< scenario metrics
};

/// Wall-clock helper: returns the elapsed nanoseconds of `fn()`.
template <typename Fn>
std::uint64_t time_ns(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Per-invocation state handed to a scenario: the shared pool, the requested
/// size ladder, and a thread-safe sample sink.
class Context {
 public:
  Context(par::ThreadPool& pool, std::vector<std::uint32_t> sizes, int repeat,
          int rep, runtime::ExecutionConfig exec = {})
      : pool_(pool),
        sizes_(std::move(sizes)),
        repeat_(repeat),
        rep_(rep),
        exec_(exec) {}

  par::ThreadPool& pool() { return pool_; }

  /// The full --backend/--dispatch/--threads selection for engine-driving
  /// scenarios.
  const runtime::ExecutionConfig& exec() const noexcept { return exec_; }

  /// The --backend selection for engine-driving scenarios (default kAuto).
  sim::BackendKind backend() const noexcept { return exec_.backend; }

  /// The --dispatch selection for engine-driving scenarios (default kAuto).
  sim::DispatchKind dispatch() const noexcept { return exec_.dispatch; }

  /// The --sizes ladder (default 16,64,256).  Scenarios with an intrinsic
  /// instance-size cap should clamp via `sizes(cap)`.
  const std::vector<std::uint32_t>& sizes() const { return sizes_; }

  /// The ladder with every entry clamped to `cap` (deduplicated, ordered).
  std::vector<std::uint32_t> sizes(std::uint32_t cap) const;

  int repeat() const { return repeat_; }  ///< total repetitions requested
  int rep() const { return rep_; }        ///< current repetition index

  /// Thread-safe: scenarios may record from pool workers.
  void record(Sample s);

  std::vector<Sample>& samples() { return samples_; }

 private:
  par::ThreadPool& pool_;
  std::vector<std::uint32_t> sizes_;
  int repeat_;
  int rep_;
  runtime::ExecutionConfig exec_;
  std::mutex mu_;
  std::vector<Sample> samples_;
};

/// A registered benchmark scenario.
struct Scenario {
  std::string name;         ///< unique id, e.g. "broadcast_time"
  std::string description;  ///< one line for --list
  std::vector<std::string> tags;  ///< e.g. {"smoke", "experiment"}
  void (*run)(Context&) = nullptr;
};

/// Registers a scenario at static-initialization time; returns true so the
/// call can seed a namespace-scope constant.  Duplicate names are rejected
/// (first registration wins).
bool register_scenario(Scenario s);

/// All registered scenarios, sorted by name.
std::vector<Scenario> registry();

/// Selection: `filter` is a comma-separated list of terms; a scenario is
/// selected when any term is a substring of its name or exactly matches one
/// of its tags.  An empty filter selects everything.
bool matches_filter(const Scenario& s, const std::string& filter);
std::vector<Scenario> select(const std::string& filter);

/// Parsed command line.  The execution knobs (--backend/--dispatch/
/// --threads) land in `exec` via the shared runtime flag parser, so the
/// bench accepts exactly the values (and prints exactly the errors) that
/// `radiocast_cli` does.
struct Options {
  std::string filter;                        ///< --filter
  int repeat = 1;                            ///< --repeat
  std::vector<std::uint32_t> sizes = {16, 64, 256};  ///< --sizes
  std::string json_path;                     ///< --json (empty = no JSON)
  runtime::ExecutionConfig exec;             ///< --backend/--dispatch/--threads
  sim::simd::Isa isa = sim::simd::Isa::kAuto;  ///< --isa (kernel ISA force)
  bool list = false;                         ///< --list
  bool help = false;                         ///< --help
  std::string error;                         ///< non-empty on a parse error
};

Options parse_args(int argc, const char* const* argv);

/// One scenario's execution record (all repetitions).
struct ScenarioResult {
  Scenario scenario;
  std::vector<Sample> samples;
  std::uint64_t wall_ns = 0;  ///< total wall time across repetitions
  bool ok = true;             ///< conjunction of sample.ok
};

/// Runs every selected scenario `opt.repeat` times on a shared pool.
std::vector<ScenarioResult> run_scenarios(const std::vector<Scenario>& chosen,
                                          const Options& opt);

/// Serializes results to the radiocast-bench/1 JSON document.
std::string to_json(const std::vector<ScenarioResult>& results,
                    const Options& opt);

/// JSON string escaping (exposed for tests).
std::string json_escape(const std::string& s);

/// Full CLI entry point (parse, run, report, emit JSON).  Returns the
/// process exit code: 0 iff every selected scenario passed.
int run_main(int argc, const char* const* argv, std::ostream& out);

}  // namespace radiocast::bench
