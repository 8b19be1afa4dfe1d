#include "metrics.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::vector<MetricDef> build_per_layer() {
  std::vector<MetricDef> out = {
      {"graph.materialize_ms", "ms"},
      {"graph.hash_ms", "ms"},
      {"graph.edges_m", "Medges"},
      {"core.label_ms", "ms"},
      {"core.stage_sets_ms", "ms"},
      {"core.designators_ms", "ms"},
      {"core.labelings", "count/batch"},
      {"core.compile_ms", "ms"},
      {"core.compiles", "count/batch"},
      {"runtime.plan_encode_ms", "ms"},
      {"runtime.store_put_ms", "ms"},
      {"runtime.plan_bytes", "bytes"},
      {"runtime.store_get_ms", "ms"},
      {"runtime.plan_decode_ms", "ms"},
      {"runtime.plan_hit_ratio", "ratio"},
      {"runtime.store_hit_ratio", "ratio"},
  };
  for (const char* backend : {"scalar", "bit", "sharded", "hybrid"}) {
    const std::string b(backend);
    out.push_back({"sim.specs." + b, "count/batch"});
    out.push_back({"sim.build_ms." + b, "ms"});
    out.push_back({"sim.run_ms." + b, "ms"});
    out.push_back({"sim.ns_per_round." + b, "ns"});
  }
  const std::vector<MetricDef> rest = {
      {"sim.protocols_ms", "ms"},
      {"sim.collect_ms", "ms"},
      {"sim.polls_per_round", "polls/round"},
      {"parallel.pool_busy_ratio", "ratio"},
      {"parallel.tail_ms", "ms"},
      {"runtime.spec_decode_us", "us"},
      {"runtime.result_json_us", "us"},
      {"runtime.result_binary_us", "us"},
      {"runtime.bytes_per_spec.json", "bytes"},
      {"runtime.bytes_per_spec.binary", "bytes"},
      {"serve.ping_rtt_us", "us"},
      {"serve.exec_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.coalesced_share", "ratio"},
      {"serve.specs_per_submission", "specs"},
      {"serve.max_queue_depth", "batches"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.coverage", "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  for (const char* layer :
       {"graph", "core", "sim", "runtime", "parallel", "serve"}) {
    out.push_back({std::string("trace.self_share.") + layer, "ratio"});
  }
  return out;
}

bool in_catalogue(const std::vector<MetricDef>& catalogue,
                  const std::string& name) {
  for (const MetricDef& def : catalogue) {
    if (def.name == name) return true;
  }
  return false;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"specs_per_s", "specs/s"},
      {"cpu_ms_per_spec", "ms"},
      {"peak_rss_mb", "MiB"},
      {"ok_ratio", "ratio"},
      {"rounds_per_spec", "rounds"},
      {"batch_p50_ms", "ms"},
      {"batch_p90_ms", "ms"},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = build_per_layer();
  return metrics;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum && (i == 0 || (c != '_' && c != '.' && c != '-'))) {
      return false;
    }
  }
  return true;
}

void MetricValues::set(const std::string& name, double value) {
  if (!in_catalogue(end_to_end_metrics(), name) &&
      !in_catalogue(per_layer_metrics(), name)) {
    std::fprintf(stderr, "perfbench: metric '%s' is not in the catalogue\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double MetricValues::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string result_line(const Outcome& outcome,
                        const std::vector<MetricDef>& catalogue,
                        const MetricValues& values) {
  std::string out = "{\"correct\": ";
  out += outcome.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : catalogue) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + def.name + "\": {\"value\": " +
           format_number(values.get(def.name)) + ", \"unit\": \"" + def.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
