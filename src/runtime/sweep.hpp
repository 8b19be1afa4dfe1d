/// \file sweep.hpp
/// \brief Plan-caching batched execution of experiment specs.
///
/// The paper's economics: a constant-length label assignment is computed
/// once per network and then drives every subsequent execution.  The sweep
/// executor makes that the system's hot path — a batch of
/// (scheme × graph × source × config) specs runs on the project thread pool
/// with a keyed `PlanCache`: labelings are computed exactly once per
/// (graph, plan-family, plan-key) and compiled executions exactly once per
/// (graph, scheme, source, µ), then shared read-only across the batch and
/// across subsequent batches (the warm-cache regime the sweep_throughput
/// bench gates).  Results always arrive in spec order, so batch output is
/// byte-identical at any thread count.
///
/// Specs address graphs by value, not by process-local index: a `GraphRef`
/// carries the canonical content hash (graph/hash.hpp) plus an optional
/// generator descriptor, so the same spec is meaningful across a socket, a
/// restart, or a different process — the daemon (`serve::Server`)
/// materializes graphs it has never been sent from the descriptor alone.
/// With a `PlanStore` attached, cached plans survive restarts: misses
/// consult the store before computing, computed plans are written through,
/// and byte-budget LRU evictions fall back to disk instead of recompute.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/hash.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/config.hpp"
#include "runtime/plan_store.hpp"
#include "runtime/scheme.hpp"

namespace radiocast::runtime {

/// A graph addressed by value.  `hash` is the canonical content hash
/// (`graph::canonical_hash`); `generator` is an optional
/// `graph::from_descriptor` spelling that lets a process materialize the
/// graph without being sent its edges.  A ref with hash 0 and a non-empty
/// generator resolves by materializing and hashing the generated graph.
struct GraphRef {
  std::uint64_t hash = 0;
  std::string generator;

  friend bool operator==(const GraphRef&, const GraphRef&) = default;
};

/// One experiment: a registered scheme on a content-addressed graph.
struct ExperimentSpec {
  std::string scheme;  ///< registry name ("b", "ack", "arb", ...)
  GraphRef graph;
  NodeId source = 0;
  SchemeOptions options;
  ExecutionConfig config;
  std::string label;  ///< free-form display tag (never part of a cache key)
};

/// Cache traffic counters.  A "miss" is a labeling construction (exactly one
/// per distinct key, however many specs share it); a "hit" is a spec served
/// an already-computed entry — including specs later in the same batch; a
/// "store hit" is an entry decoded from the attached `PlanStore` instead of
/// constructed (the warm-restart path: zero misses, all store hits).
struct PlanCacheStats {
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t plan_store_hits = 0;
  std::uint64_t plan_evictions = 0;
  std::uint64_t compiled_hits = 0;
  std::uint64_t compiled_misses = 0;
  std::uint64_t compiled_store_hits = 0;
  std::uint64_t compiled_evictions = 0;
};

/// Keyed store of shared read-only plans with an optional byte budget.
/// The SweepRunner computes missing entries in a dedicated batch phase, so
/// no locking happens on the execution hot path; the mutex only guards the
/// map itself.  With a non-zero budget, inserting past it evicts the
/// least-recently-used entries (plans and compiled plans share one budget
/// and one recency order); the newest entry is never evicted, so a single
/// oversized plan still caches.
class PlanCache {
 public:
  PlanPtr find_plan(const std::string& key);
  void put_plan(const std::string& key, PlanPtr plan);
  CompiledPlanPtr find_compiled(const std::string& key);
  void put_compiled(const std::string& key, CompiledPlanPtr plan);

  void count_plan_lookup(bool hit);
  void count_compiled_lookup(bool hit);
  void count_plan_store_hit();
  void count_compiled_store_hit();

  /// Sets the byte budget (0 = unlimited) and evicts down to it.
  void set_byte_budget(std::size_t bytes);
  std::size_t byte_budget() const;
  /// Sum of `footprint()` over every resident entry.
  std::size_t bytes() const;

  PlanCacheStats stats() const;
  std::size_t plan_count() const;
  std::size_t compiled_count() const;
  void clear();

 private:
  /// One resident entry: the payload, its byte charge, and its position in
  /// the shared recency list (front = most recently used).
  template <typename Ptr>
  struct Entry {
    Ptr value;
    std::size_t footprint = 0;
    std::list<std::string>::iterator lru;  ///< into lru_ ("P|" / "C|" key)
  };

  void touch(std::list<std::string>::iterator it);
  void evict_over_budget(const std::string& keep);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry<PlanPtr>> plans_;
  std::unordered_map<std::string, Entry<CompiledPlanPtr>> compiled_;
  std::list<std::string> lru_;  ///< tagged keys, most recent first
  std::size_t bytes_ = 0;
  std::size_t budget_ = 0;
  PlanCacheStats stats_;
};

/// Results for one batch of a merged submission (see
/// `SweepRunner::run_merged`): the batch's `SchemeResult`s in its own spec
/// order, plus the per-spec execution wall time the serve layer's binary
/// result encoding reports.
struct BatchResults {
  std::vector<SchemeResult> results;
  std::vector<std::uint64_t> spec_wall_ns;
};

/// Executes spec batches over a content-addressed graph table with a
/// persistent plan cache.  Any number of threads may call `run` /
/// `run_merged` at once: one runner mutex covers spec resolution (the graph
/// table and the descriptor memo) and the plan and compile phases, so each
/// cache key is still loaded or computed exactly once across concurrent
/// batches (a cold batch's labeling holds other batches at their plan
/// phase).  Execution runs outside the mutex, reading graphs through stable
/// node pointers and plans through shared pointers, so concurrent batches
/// fill the shared pool together.
class SweepRunner {
 public:
  /// \param pool shared worker pool (also usable by other subsystems; the
  ///        runner only submits through parallel_map, whose calls complete
  ///        independently of other callers' work).
  explicit SweepRunner(par::ThreadPool& pool) : pool_(pool) {}

  /// Registers a graph and returns its content-addressed ref (`generator`
  /// is the optional descriptor recorded on the ref for portability).
  /// Registering the same graph twice is idempotent.
  GraphRef add_graph(graph::Graph g, std::string generator = {});

  /// Resolves a ref to its graph: by hash when the graph is registered,
  /// otherwise by materializing `ref.generator` (registering the result).
  /// Generator descriptors are memoized, so a batch of generator-only refs
  /// materializes each distinct graph once.  A ref with neither a known
  /// hash nor a generator, or whose generator produces a graph with a
  /// different hash, violates a precondition.
  const graph::Graph& resolve(const GraphRef& ref);

  /// `resolve`, but returns the graph's canonical content hash (the plan
  /// cache/store key prefix) without rehashing.
  std::uint64_t resolve_hash(const GraphRef& ref);

  bool has_graph(std::uint64_t hash) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return graphs_.count(hash) != 0;
  }
  /// Lock-free, so the daemon's stats frame never waits behind a cold
  /// batch's plan phase.
  std::size_t graph_count() const noexcept {
    return graph_count_.load(std::memory_order_relaxed);
  }

  /// Attaches an on-disk plan store (nullptr detaches).  Plan misses then
  /// consult the store before computing, and computed plans are written
  /// through, so a new runner over the same store starts warm.  Set-up
  /// only: not while a batch runs.
  void attach_store(PlanStore* store) { store_ = store; }
  PlanStore* store() const noexcept { return store_; }

  /// Runs the batch: resolves schemes and graphs, loads or computes every
  /// missing plan and compiled execution exactly once (in parallel over
  /// distinct cache keys), then executes all specs in parallel.  Results
  /// are returned in spec order; for a fixed batch they are identical on
  /// any thread count.  Every spec's scheme name must be registered and its
  /// graph ref resolvable.
  std::vector<SchemeResult> run(const std::vector<ExperimentSpec>& specs);

  /// Runs several independently-owned batches as ONE sweep: the specs are
  /// concatenated (batch order, spec order within each batch), every plan /
  /// compiled execution is still loaded or computed exactly once across the
  /// whole merged set, and the execution phase is one pool dispatch.
  /// Results come back sliced per input batch, each slice in its batch's own
  /// spec order and byte-identical to what `run` would have returned for
  /// that batch alone.  `spec_wall_ns` records each spec's execution wall
  /// time (phase 3 only; plan construction is shared and not attributed).
  std::vector<BatchResults> run_merged(
      const std::vector<const std::vector<ExperimentSpec>*>& batches);

  PlanCache& cache() noexcept { return cache_; }
  const PlanCache& cache() const noexcept { return cache_; }
  PlanCacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

 private:
  /// The shared core of `run` / `run_merged`: executes the flattened spec
  /// list, returning results in index order and per-spec execution wall
  /// times in `wall_ns` (same length as `specs`).
  std::vector<SchemeResult> run_ptrs(
      const std::vector<const ExperimentSpec*>& specs,
      std::vector<std::uint64_t>& wall_ns);
  /// `resolve_hash` with `mu_` already held.
  std::uint64_t resolve_hash_locked(const GraphRef& ref);

  par::ThreadPool& pool_;
  /// Guards the graph table, the descriptor memo, and the plan and compile
  /// phases of every batch.
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, graph::Graph> graphs_;
  std::unordered_map<std::string, std::uint64_t> generator_hashes_;
  std::atomic<std::size_t> graph_count_{0};
  PlanCache cache_;
  PlanStore* store_ = nullptr;
};

}  // namespace radiocast::runtime
