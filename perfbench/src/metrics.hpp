/// \file metrics.hpp
/// \brief The benchmark's metric catalogue and its result line.
///
/// Every metric the benchmark can print is declared here once, with its
/// unit.  A run fills in values by name; `result_line` then emits every
/// catalogue metric of the requested kind, so a per-layer metric a workload
/// never reaches still appears (as 0) and every run prints the same key set.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics (printed with --trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics (printed with --trace 1).
const std::vector<MetricDef>& per_layer_metrics();

/// True iff `name` is non-empty, at most 64 characters, made only of
/// [A-Za-z0-9_.-] and starts with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Metric values by name.  Setting a name outside both catalogues is a
/// programming error (aborts), so a typo cannot silently drop a metric.
class MetricValues {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;  ///< 0 when never set

 private:
  std::map<std::string, double> values_;
};

/// Outcome counts of a run: specs attempted and specs whose result did not
/// match the reference (or never arrived).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const { return attempted > 0 && failed == 0; }
  double ok_ratio() const {
    return attempted == 0
               ? 0.0
               : static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted);
  }
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}} over every metric of the
/// chosen catalogue.
std::string result_line(const Outcome& outcome,
                        const std::vector<MetricDef>& catalogue,
                        const MetricValues& values);

/// Shortest round-trip decimal spelling of a finite double ("null" for
/// non-finite values, which JSON cannot carry).
std::string format_number(double value);

}  // namespace perfbench
