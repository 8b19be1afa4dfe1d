// Tests for the benchmark's own helpers.  Run through `run.py --self-test`
// (or directly: perfbench_tests); exits nonzero on any failed check.
#include <cstdio>
#include <string>
#include <vector>

#include "deck.hpp"
#include "metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "reference.hpp"
#include "runtime/sweep.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

void percentile_refuses_short_samples() {
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  CHECK(!tail_percentile(samples, 0.9).has_value());
  samples.push_back(100);
  const auto p90 = tail_percentile(samples, 0.9);
  CHECK(p90.has_value() && *p90 == 90.0);
  CHECK(median(samples) == 50.5);
  // A failed batch counts as +inf, never as fast.
  samples.assign(100, 1.0);
  for (int i = 0; i < 11; ++i) samples[i] = kFailedSample;
  CHECK(*tail_percentile(samples, 0.9) == kFailedSample);
}

void decks_are_pure_functions_of_the_seed() {
  CHECK(deck_text(make_cold_deck(7)) == deck_text(make_cold_deck(7)));
  CHECK(deck_text(make_warm_deck(7)) == deck_text(make_warm_deck(7)));
  CHECK(deck_text(make_serve_deck(7)) == deck_text(make_serve_deck(7)));
  CHECK(deck_text(make_cold_deck(7)) != deck_text(make_cold_deck(8)));
  CHECK(deck_text(make_warm_deck(7)) != deck_text(make_warm_deck(8)));
  CHECK(deck_text(make_serve_deck(7)) != deck_text(make_serve_deck(8)));
  const ServeDeck deck = make_serve_deck(7);
  CHECK(serve_draw(deck, 7, 1, 5) == serve_draw(deck, 7, 1, 5));
  CHECK(serve_draw(deck, 7, 1, 5) != serve_draw(deck, 8, 1, 5));
  CHECK(serve_draw(deck, 7, 1, 5) != serve_draw(deck, 7, 2, 5));
  CHECK(serve_draw(deck, 7, 1, 5).size() ==
        kServeCompiledPerBatch + kServeEnginePerBatch);
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void metric_names_and_units_are_valid() {
  std::vector<std::string> seen;
  for (const auto* catalogue : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& m : *catalogue) {
      CHECK(valid_metric_name(m.name));
      CHECK(valid_unit(m.unit));
      for (const std::string& s : seen) CHECK(s != m.name);
      seen.push_back(m.name);
    }
  }
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".leading_dot"));
  CHECK(!valid_metric_name("space in name"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  // The result line carries every catalogue metric with its unit.
  MetricValues values;
  values.set("setup_s", 0.5);
  const std::string line =
      result_line(Outcome{10, 0}, end_to_end_metrics(), values);
  for (const MetricDef& m : end_to_end_metrics()) {
    CHECK(line.find("\"" + m.name + "\": {\"value\": ") != std::string::npos);
    CHECK(line.find("\"unit\": \"" + m.unit + "\"") != std::string::npos);
  }
  CHECK(format_number(0.1) == "0.1");
  CHECK(format_number(1.0 / 3.0) == "0.3333333333333333");
}

void injected_mismatch_lowers_ok_ratio() {
  namespace rt = radiocast::runtime;
  radiocast::par::ThreadPool pool(2);
  rt::SweepRunner runner(pool);
  std::vector<rt::ExperimentSpec> specs;
  for (const char* scheme : {"b", "ack", "arb"}) {
    rt::ExperimentSpec spec;
    spec.scheme = scheme;
    spec.graph.generator = "grid:6:7";
    spec.source = 3;
    specs.push_back(spec);
    spec.config.compiled = true;
    specs.push_back(spec);
  }
  const auto results = runner.run(specs);
  const Reference ref = compute_reference(runner, pool, specs, 1);
  CHECK(ref.failures.empty());
  CHECK(ref.lemma_checks == 2);
  auto tally = [&](const std::vector<rt::SchemeResult>& got) {
    Outcome outcome;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ++outcome.attempted;
      if (!matches(ref.digests[i], got[i])) ++outcome.failed;
    }
    return outcome;
  };
  const Outcome clean = tally(results);
  CHECK(clean.correct() && clean.ok_ratio() == 1.0);
  auto bad = results;
  bad[3].tx_total += 1;
  const Outcome injected = tally(bad);
  CHECK(!injected.correct());
  CHECK(injected.failed == 1 && injected.ok_ratio() < 1.0);
  // The binary projection is checked on the fields it carries.
  auto record = rt::wire::binary_result(results[0], 123);
  CHECK(matches(ref.digests[0], record));
  record.rounds += 1;
  CHECK(!matches(ref.digests[0], record));
}

void attribution_splits_concurrent_time() {
  // A root span [0, 100) with two children on workers: [0, 60) and
  // [20, 80); nothing covers [80, 100) but the root.
  std::vector<Span> spans(3);
  spans[0] = {"batch", Layer::kBench, 0, 100, -1, 1, 0};
  spans[1] = {"label", Layer::kCore, 0, 60, 0, 1, 0};
  spans[2] = {"run", Layer::kSim, 20, 80, 0, 1, 0};
  const Attribution a = attribute(spans, 0, 100);
  const auto core = static_cast<std::size_t>(Layer::kCore);
  const auto sim = static_cast<std::size_t>(Layer::kSim);
  CHECK(a.self_ns[core] == 20 + 20);  // alone [0,20), half of [20,60)
  CHECK(a.self_ns[sim] == 20 + 20);   // half of [20,60), alone [60,80)
  CHECK(a.covered_ns == 80 && a.wall_ns == 100);
}

}  // namespace

int main() {
  percentile_refuses_short_samples();
  decks_are_pure_functions_of_the_seed();
  metric_names_and_units_are_valid();
  injected_mismatch_lowers_ok_ratio();
  attribution_splits_concurrent_time();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench helper tests: all passed\n");
  return 0;
}
