/// \file host.hpp
/// \brief Host fingerprint and per-process resource usage.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

/// What a result depends on besides the code: printed in the output header
/// so a host change is not read as a regression.
struct HostInfo {
  unsigned nproc = 0;
  std::string isa;  ///< what sim::simd::active_kernels() resolves to
  std::string thp;  ///< transparent_hugepage mode ("madvise", ...)
  double calibration_ms = 0;  ///< wall time of a fixed integer loop
};

HostInfo host_info();

/// `# host {...}` header line (JSON after the prefix).
std::string host_line(const HostInfo& host, const char* workload,
                      std::uint64_t seed, bool trace);

/// CPU seconds (user + system) and peak resident memory of one process.
struct Usage {
  double cpu_s = 0;
  double peak_rss_mib = 0;
};

/// This process, from getrusage(RUSAGE_SELF).
Usage self_usage();

/// A child process, from /proc/<pid>/stat and /proc/<pid>/status (all of
/// its threads); nullopt once it has exited.
std::optional<Usage> process_usage(pid_t pid);

}  // namespace perfbench
