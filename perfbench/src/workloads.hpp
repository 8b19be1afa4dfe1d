/// \file workloads.hpp
/// \brief The three benchmark workloads, untraced and traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deck.hpp"
#include "metrics.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kColdSweep;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for plan stores and span dumps (inside the
  /// checkout); created if absent, the run's own files removed at exit.
  std::string work_dir;
  std::string serve_bin;  ///< the radiocast_serve executable
  std::string spans_path;  ///< traced runs write their spans here ("" = no)
};

struct RunReport {
  Outcome outcome;
  MetricValues values;
  std::vector<std::string> notes;  ///< diagnostics printed to stderr
};

/// Runs one workload.  Untraced runs fill every end-to-end metric; traced
/// runs fill the per-layer metrics.  Throws std::runtime_error when the
/// program cannot be driven at all (daemon fails to start, ...).
RunReport run_workload(const RunOptions& options);

/// cold_sweep / warm_sweep (sweeps.cpp) and serve_warm (serve.cpp).
RunReport run_sweep_workload(const RunOptions& options);
RunReport run_serve_workload(const RunOptions& options);

/// Set-ups per run: set-up time is the median of this many.
inline constexpr int kSweepSetups = 5;
inline constexpr int kServeRestarts = 5;

/// Every this-many-th b spec of a deck is also checked with Lemma 2.8.
inline constexpr std::size_t kLemmaEvery = 4;

}  // namespace perfbench
