/// \file replay.hpp
/// \brief The traced run's replay of a sweep batch through public calls.
///
/// `traced_batch` executes a batch the way `SweepRunner::run_ptrs` and
/// `run_with_plan` do — resolve, plan lookups (cache, then store), label
/// and write through, compile and write through, then per spec either
/// `Scheme::replay` or make_protocols / Engine / run_until / collect — with
/// a span around every call into the program.  Results are the same
/// `SchemeResult`s the runner would return, so the traced run is checked
/// against the reference like the untraced one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/sweep.hpp"
#include "spans.hpp"

namespace perfbench {

/// Materializes (`graph::from_descriptor`) and registers every descriptor;
/// returns the total edge count.  Traced, it also times
/// `graph::canonical_hash` alone (add_graph hashes internally).
std::uint64_t register_graphs(radiocast::runtime::SweepRunner& runner,
                              const std::vector<std::string>& descriptors,
                              Tracer& tracer);

/// Cache lookups the replay made, by outcome.
struct LookupCounts {
  std::uint64_t lookups = 0;
  std::uint64_t resident = 0;  ///< found in the cache or decoded from store
};

/// A labeling the replay computed whose construction is the §2.1 stage
/// sets, kept so `split_stage_sets` can time the stage sets alone.
struct StageWork {
  const radiocast::runtime::Scheme* scheme = nullptr;
  const radiocast::graph::Graph* graph = nullptr;
  radiocast::graph::NodeId source = 0;
  radiocast::graph::NodeId stage_source = 0;  ///< B_arb: its coordinator
  radiocast::runtime::SchemeOptions options;
};

std::vector<radiocast::runtime::SchemeResult> traced_batch(
    radiocast::runtime::SweepRunner& runner, radiocast::par::ThreadPool& pool,
    const std::vector<radiocast::runtime::ExperimentSpec>& specs,
    Tracer& tracer, std::uint64_t batch_id, LookupCounts& lookups,
    std::vector<StageWork>* stage_work = nullptr);

/// For each labeling, on one worker and back to back: `core::
/// build_stage_sets` alone ("core.stage_sets" span), then the whole
/// `Scheme::label` again ("core.relabel").  Designator time is relabel
/// minus stage sets, both measured under the same conditions.  Run outside
/// the attributed window: the extra work is not the measured phase's.
void split_stage_sets(radiocast::par::ThreadPool& pool, Tracer& tracer,
                      const std::vector<StageWork>& work);

/// Per-operation totals over a set of spans.
struct OpStats {
  std::uint64_t calls = 0;
  double total_ms = 0;
  std::uint64_t count_sum = 0;  ///< sum of the spans' count fields

  double mean_ms() const { return calls == 0 ? 0.0 : total_ms / calls; }
};

/// Spans grouped by "layer.op" (and, for sim build/run spans, by backend:
/// "sim.build.<backend>", "sim.run.<backend>").
std::map<std::string, OpStats> op_stats(const std::vector<Span>& spans,
                                        std::int64_t t0, std::int64_t t1);

/// Fills the per-layer metrics the sweep replay produces (core, runtime
/// store, sim, parallel) from spans recorded in [t0, t1).  `all` covers
/// set-up too, for the per-call means of work that only set-up does.
void sweep_layer_metrics(const std::vector<Span>& all, std::int64_t t0,
                         std::int64_t t1, std::uint64_t batches,
                         std::size_t workers, MetricValues& out);

/// Writes trace.self_share.<layer> and trace.coverage from an attribution.
void share_metrics(const Attribution& a, MetricValues& out);

}  // namespace perfbench
