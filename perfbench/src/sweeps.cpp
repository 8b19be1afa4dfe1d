// cold_sweep and warm_sweep: SweepRunner batches on the project pool.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "host.hpp"
#include "parallel/thread_pool.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "runtime/plan_store.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rt = radiocast::runtime;

namespace {

/// One executed batch: which deck batch, and its results' digests.
struct Execution {
  std::size_t batch = 0;
  std::vector<Digest> digests;
};

struct Phase {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t batches = 0;
  std::uint64_t specs = 0;
  /// Untraced only: complete windows of `window_batches` batches, with
  /// per-spec execution times as the latency samples.
  std::vector<Window> windows;
  double wall_s() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

class SweepBench {
 public:
  explicit SweepBench(const RunOptions& options)
      : options_(options),
        cold_(options.workload == Workload::kColdSweep),
        deck_(cold_ ? make_cold_deck(options.seed)
                    : make_warm_deck(options.seed)),
        tracer_(options.trace),
        store_dir_(options.work_dir + "/store") {}

  RunReport run() {
    RunReport report;
    const int setups = options_.trace ? 1 : kSweepSetups;
    std::vector<double> setup_s;
    for (int k = 0; k < setups; ++k) setup_s.push_back(set_up());
    report.values.set("setup_s", median(setup_s));

    if (!options_.trace) {
      const std::size_t first = executions_.size();
      const Phase phase = measure(options_.seconds, SIZE_MAX, false);
      // Read before the reference pass, so it cannot set the peak.
      report.values.set("peak_rss_mb", self_usage().peak_rss_mib);
      const std::uint64_t measured_failures = check(report, first);
      const WindowSummary s = summarize(phase.windows);
      if (s.windows < 3) report.notes.push_back("fewer than 3 windows");
      report.values.set("specs_per_s",
                        s.specs_per_s *
                            static_cast<double>(phase.specs -
                                                measured_failures) /
                            static_cast<double>(phase.specs));
      report.values.set("cpu_ms_per_spec", s.cpu_ms_per_spec);
      report.values.set("batch_p50_ms", s.p50_ms);
      report.values.set("batch_p90_ms", s.p90_ms);
      report.values.set("ok_ratio", report.outcome.ok_ratio());
      return report;
    }

    // Traced run: an untraced half sets the baseline wall time, then the
    // same batches replay with spans around every call.
    const Phase plain = measure(options_.seconds / 2, SIZE_MAX, false);
    const auto store_before = store_ ? store_->stats() : rt::PlanStoreStats{};
    const Phase traced = measure(0, plain.batches, true);
    const auto store_after = store_ ? store_->stats() : rt::PlanStoreStats{};
    split_stage_sets(pool_, tracer_, stage_work_);
    check(report, 0);
    const std::vector<Span> spans = tracer_.spans();
    MetricValues& v = report.values;
    const auto every = op_stats(spans, INT64_MIN, INT64_MAX);
    auto mean_of = [&](const char* key) {
      const auto it = every.find(key);
      return it == every.end() ? 0.0 : it->second.mean_ms();
    };
    v.set("graph.materialize_ms", mean_of("graph.materialize"));
    v.set("graph.hash_ms", mean_of("graph.hash"));
    v.set("graph.edges_m", static_cast<double>(edges_) / 1e6);
    sweep_layer_metrics(spans, traced.start_ns, traced.end_ns,
                        traced.batches, pool_.thread_count(), v);
    v.set("runtime.plan_hit_ratio",
          ratio(static_cast<double>(lookups_.resident),
                static_cast<double>(lookups_.lookups)));
    v.set("runtime.store_hit_ratio",
          ratio(static_cast<double>(store_after.read_hits -
                                    store_before.read_hits),
                static_cast<double>(store_after.reads - store_before.reads)));
    share_metrics(attribute(spans, traced.start_ns, traced.end_ns), v);
    v.set("trace.overhead_ratio", traced.wall_s() / plain.wall_s() - 1.0);
    if (!options_.spans_path.empty() && !tracer_.write(options_.spans_path)) {
      report.notes.push_back("could not write " + options_.spans_path);
    }
    return report;
  }

 private:
  /// One full set-up, starting empty; returns its wall time in seconds.
  double set_up() {
    runner_.reset();
    store_.reset();
    std::filesystem::remove_all(store_dir_);
    executions_.clear();
    const std::int64_t t0 = now_ns();
    runner_ = std::make_unique<rt::SweepRunner>(pool_);
    edges_ = register_graphs(*runner_, deck_.graphs, tracer_);
    if (cold_) {
      store_.emplace(store_dir_);
      runner_->attach_store(&*store_);
    } else {
      // The warm cache: one cold pass over the deck.
      for (std::size_t b = 0; b < deck_.batches.size(); ++b) {
        execute(b, options_.trace, nullptr);
      }
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  /// Runs deck batch `b` once, recording its digests.
  void execute(std::size_t b, bool traced, std::vector<double>* spec_ms) {
    const auto& batch = deck_.batches[b];
    Execution e;
    e.batch = b;
    if (traced) {
      for (const auto& r : traced_batch(*runner_, pool_, batch, tracer_,
                                        next_batch_id_++, lookups_,
                                        &stage_work_)) {
        e.digests.push_back(digest(r));
      }
    } else {
      auto out = runner_->run_merged({&batch});
      for (const auto& r : out[0].results) e.digests.push_back(digest(r));
      if (spec_ms != nullptr) {
        for (const auto ns : out[0].spec_wall_ns) {
          spec_ms->push_back(static_cast<double>(ns) / 1e6);
        }
      }
    }
    executions_.push_back(std::move(e));
  }

  /// Runs batches until `seconds` pass (0 = no limit) or `max_batches` ran.
  /// cold_sweep starts every pass over its deck from an empty cache and an
  /// empty store, so every plan misses.
  Phase measure(double seconds, std::size_t max_batches, bool traced) {
    Phase p;
    lookups_ = {};
    p.start_ns = now_ns();
    const std::int64_t deadline =
        p.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t per_pass = deck_.batches.size();
    // Windows of whole passes lasting about a second: cold_sweep's pass is
    // three batches, warm_sweep's one short batch.
    const std::size_t window_batches = cold_ ? per_pass : 5;
    Window w;
    std::int64_t w_start = p.start_ns;
    double w_cpu = self_usage().cpu_s;
    while (p.batches < max_batches && (seconds == 0 || now_ns() < deadline)) {
      const std::size_t b = p.batches % per_pass;
      if (cold_ && b == 0) {
        Scope s(tracer_, "cold_reset", Layer::kRuntime);
        store_->compact(0);
        runner_->clear_cache();
      }
      execute(b, traced, traced ? nullptr : &w.latency_ms);
      ++p.batches;
      p.specs += deck_.batches[b].size();
      w.specs += static_cast<double>(deck_.batches[b].size());
      if (!traced && p.batches % window_batches == 0) {
        const std::int64_t t = now_ns();
        const double cpu = self_usage().cpu_s;
        w.wall_s = static_cast<double>(t - w_start) / 1e9;
        w.cpu_s = cpu - w_cpu;
        p.windows.push_back(std::move(w));
        w = Window{};
        w_start = t;
        w_cpu = cpu;
      }
    }
    p.end_ns = now_ns();
    return p;
  }

  /// Compares every recorded execution with the reference path; returns
  /// the mismatches among executions from index `first` on.
  std::uint64_t check(RunReport& report, std::size_t first) {
    std::vector<rt::ExperimentSpec> flat;
    std::vector<std::size_t> offset;
    for (const auto& batch : deck_.batches) {
      offset.push_back(flat.size());
      flat.insert(flat.end(), batch.begin(), batch.end());
    }
    const Reference ref =
        compute_reference(*runner_, pool_, flat, kLemmaEvery);
    std::uint64_t late_failures = 0;
    for (std::size_t k = 0; k < executions_.size(); ++k) {
      const Execution& e = executions_[k];
      for (std::size_t j = 0; j < e.digests.size(); ++j) {
        ++report.outcome.attempted;
        if (!(e.digests[j] == ref.digests[offset[e.batch] + j])) {
          ++report.outcome.failed;
          if (k >= first) ++late_failures;
        }
      }
    }
    report.outcome.failed += ref.failures.size();
    for (const std::string& f : ref.failures) {
      report.notes.push_back("Lemma 2.8 check failed: " + f);
    }
    if (ref.lemma_checks == 0) {
      report.notes.push_back("no b spec was checked against Lemma 2.8");
      ++report.outcome.failed;
    }
    double rounds = 0;
    for (const Digest& d : ref.digests) rounds += static_cast<double>(d.rounds);
    report.values.set("rounds_per_spec", rounds / ref.digests.size());
    return late_failures;
  }

  const RunOptions& options_;
  const bool cold_;
  const SweepDeck deck_;
  Tracer tracer_;
  const std::string store_dir_;
  radiocast::par::ThreadPool pool_{0};
  std::optional<rt::PlanStore> store_;
  std::unique_ptr<rt::SweepRunner> runner_;
  std::vector<Execution> executions_;
  std::vector<StageWork> stage_work_;
  LookupCounts lookups_;
  std::uint64_t next_batch_id_ = 1;
  std::uint64_t edges_ = 0;
};

}  // namespace

RunReport run_sweep_workload(const RunOptions& options) {
  SweepBench bench(options);
  return bench.run();
}

}  // namespace perfbench
