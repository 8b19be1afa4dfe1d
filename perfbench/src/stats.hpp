/// \file stats.hpp
/// \brief Order statistics for benchmark samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that failed (a batch that errored) are recorded as +infinity so
/// they count against every latency percentile.
inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

/// Fewest samples that must lie beyond a reported percentile (the
/// choosing-metrics rule: report the highest percentile with at least ten
/// samples past it).
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `samples` (0 < p < 1), or nullopt when fewer
/// than `kMinTailSamples` samples lie beyond it — p90 needs at least 100.
inline std::optional<double> tail_percentile(std::vector<double> samples,
                                             double p) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Arithmetic mean; 0 when empty.
inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload never
/// reaches).
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// One slice of a measured phase.  The end-to-end figures are medians over
/// a run's windows, so a burst of outside load in one window does not set
/// the run's number.
struct Window {
  double wall_s = 0;
  double specs = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;  ///< per-batch (serve) or per-spec samples
};

struct WindowSummary {
  double specs_per_s = 0;
  double cpu_ms_per_spec = 0;
  double p50_ms = 0;
  double p90_ms = 0;  ///< 0 when no window had 100 samples
  std::size_t windows = 0;
};

inline WindowSummary summarize(const std::vector<Window>& windows) {
  std::vector<double> rate, cpu, p50, p90;
  for (const Window& w : windows) {
    if (w.wall_s <= 0 || w.specs <= 0) continue;
    rate.push_back(w.specs / w.wall_s);
    cpu.push_back(w.cpu_s * 1e3 / w.specs);
    p50.push_back(median(w.latency_ms));
    if (const auto p = tail_percentile(w.latency_ms, 0.9)) p90.push_back(*p);
  }
  WindowSummary s;
  s.specs_per_s = median(rate);
  s.cpu_ms_per_spec = median(cpu);
  s.p50_ms = median(p50);
  s.p90_ms = median(p90);
  s.windows = rate.size();
  return s;
}

}  // namespace perfbench
