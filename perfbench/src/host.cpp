#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "metrics.hpp"
#include "sim/simd.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unavailable";
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return line;
  return line.substr(open + 1, close - open - 1);
}

/// A dependent chain of xorshift steps: pure integer latency, no memory.
double calibration_ms() {
  volatile std::uint64_t sink = 0;
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

}  // namespace

HostInfo host_info() {
  HostInfo host;
  host.nproc = std::thread::hardware_concurrency();
  host.isa = radiocast::sim::simd::to_string(
      radiocast::sim::simd::active_isa());
  host.thp = thp_mode();
  host.calibration_ms = calibration_ms();
  return host;
}

std::string host_line(const HostInfo& host, const char* workload,
                      std::uint64_t seed, bool trace) {
  std::ostringstream out;
  out << "# host {\"nproc\": " << host.nproc << ", \"isa\": \"" << host.isa
      << "\", \"thp\": \"" << host.thp
      << "\", \"calibration_ms\": " << format_number(host.calibration_ms)
      << ", \"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"trace\": " << (trace ? 1 : 0) << "}";
  return out.str();
}

Usage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return u;
}

std::optional<Usage> process_usage(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string text;
  if (!std::getline(stat, text)) return std::nullopt;
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  Usage u;
  u.cpu_s = static_cast<double>(utime + stime) /
            static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream status(base + "/status");
  while (std::getline(status, text)) {
    if (text.rfind("VmHWM:", 0) == 0) {
      u.peak_rss_mib = std::stod(text.substr(6)) / 1024.0;  // kB
    }
  }
  return u;
}

}  // namespace perfbench
