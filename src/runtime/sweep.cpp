#include "runtime/sweep.hpp"

#include <chrono>
#include <utility>

#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "support/contracts.hpp"

namespace radiocast::runtime {

namespace {

/// Tags that merge both entry kinds into one recency order.
constexpr char kPlanTag = 'P';
constexpr char kCompiledTag = 'C';

std::string tagged(char tag, const std::string& key) {
  std::string out(1, tag);
  out += key;
  return out;
}

}  // namespace

PlanPtr PlanCache::find_plan(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) return nullptr;
  touch(it->second.lru);
  return it->second.value;
}

void PlanCache::put_plan(const std::string& key, PlanPtr plan) {
  RC_EXPECTS(plan != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  if (plans_.count(key) != 0) return;  // first writer wins, like emplace
  Entry<PlanPtr> entry;
  entry.footprint = plan->footprint();
  entry.value = std::move(plan);
  lru_.push_front(tagged(kPlanTag, key));
  entry.lru = lru_.begin();
  bytes_ += entry.footprint;
  plans_.emplace(key, std::move(entry));
  evict_over_budget(lru_.front());
}

CompiledPlanPtr PlanCache::find_compiled(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = compiled_.find(key);
  if (it == compiled_.end()) return nullptr;
  touch(it->second.lru);
  return it->second.value;
}

void PlanCache::put_compiled(const std::string& key, CompiledPlanPtr plan) {
  RC_EXPECTS(plan != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  if (compiled_.count(key) != 0) return;
  Entry<CompiledPlanPtr> entry;
  entry.footprint = plan->footprint();
  entry.value = std::move(plan);
  lru_.push_front(tagged(kCompiledTag, key));
  entry.lru = lru_.begin();
  bytes_ += entry.footprint;
  compiled_.emplace(key, std::move(entry));
  evict_over_budget(lru_.front());
}

void PlanCache::touch(std::list<std::string>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void PlanCache::evict_over_budget(const std::string& keep) {
  if (budget_ == 0) return;
  while (bytes_ > budget_ && lru_.size() > 1) {
    const std::string victim = lru_.back();
    if (victim == keep) break;  // never evict the entry being inserted
    lru_.pop_back();
    const std::string key = victim.substr(1);
    if (victim[0] == kPlanTag) {
      const auto it = plans_.find(key);
      bytes_ -= it->second.footprint;
      plans_.erase(it);
      ++stats_.plan_evictions;
    } else {
      const auto it = compiled_.find(key);
      bytes_ -= it->second.footprint;
      compiled_.erase(it);
      ++stats_.compiled_evictions;
    }
  }
}

void PlanCache::count_plan_lookup(bool hit) {
  const std::lock_guard<std::mutex> lock(mu_);
  (hit ? stats_.plan_hits : stats_.plan_misses) += 1;
}

void PlanCache::count_compiled_lookup(bool hit) {
  const std::lock_guard<std::mutex> lock(mu_);
  (hit ? stats_.compiled_hits : stats_.compiled_misses) += 1;
}

void PlanCache::count_plan_store_hit() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.plan_store_hits;
}

void PlanCache::count_compiled_store_hit() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.compiled_store_hits;
}

void PlanCache::set_byte_budget(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mu_);
  budget_ = bytes;
  evict_over_budget(lru_.empty() ? std::string() : lru_.front());
}

std::size_t PlanCache::byte_budget() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

std::size_t PlanCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanCache::plan_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

std::size_t PlanCache::compiled_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return compiled_.size();
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  compiled_.clear();
  lru_.clear();
  bytes_ = 0;
  stats_ = {};
}

GraphRef SweepRunner::add_graph(graph::Graph g, std::string generator) {
  GraphRef ref;
  ref.hash = graph::canonical_hash(g);
  ref.generator = std::move(generator);
  const std::lock_guard<std::mutex> lock(mu_);
  graphs_.emplace(ref.hash, std::move(g));
  graph_count_.store(graphs_.size(), std::memory_order_relaxed);
  if (!ref.generator.empty()) {
    generator_hashes_.emplace(ref.generator, ref.hash);
  }
  return ref;
}

std::uint64_t SweepRunner::resolve_hash(const GraphRef& ref) {
  const std::lock_guard<std::mutex> lock(mu_);
  return resolve_hash_locked(ref);
}

std::uint64_t SweepRunner::resolve_hash_locked(const GraphRef& ref) {
  if (ref.hash != 0 && graphs_.count(ref.hash) != 0) return ref.hash;
  RC_EXPECTS_MSG(!ref.generator.empty(),
                 "graph ref is unknown and carries no generator descriptor");
  // Generator-only refs are the daemon's hot path: memoize descriptor ->
  // hash so a batch of specs naming the same generator materializes (and
  // canonically hashes) the graph once, not once per spec.
  const auto memo = generator_hashes_.find(ref.generator);
  std::uint64_t hash = 0;
  if (memo != generator_hashes_.end()) {
    hash = memo->second;
  } else {
    graph::Graph g = graph::from_descriptor(ref.generator);
    hash = graph::canonical_hash(g);
    graphs_.emplace(hash, std::move(g));
    graph_count_.store(graphs_.size(), std::memory_order_relaxed);
    generator_hashes_.emplace(ref.generator, hash);
  }
  RC_EXPECTS_MSG(ref.hash == 0 || ref.hash == hash,
                 "graph ref hash does not match its generator descriptor");
  return hash;
}

const graph::Graph& SweepRunner::resolve(const GraphRef& ref) {
  const std::lock_guard<std::mutex> lock(mu_);
  return graphs_.at(resolve_hash_locked(ref));  // nodes never move
}

std::vector<SchemeResult> SweepRunner::run(
    const std::vector<ExperimentSpec>& specs) {
  std::vector<const ExperimentSpec*> ptrs;
  ptrs.reserve(specs.size());
  for (const ExperimentSpec& spec : specs) ptrs.push_back(&spec);
  std::vector<std::uint64_t> wall_ns;
  return run_ptrs(ptrs, wall_ns);
}

std::vector<BatchResults> SweepRunner::run_merged(
    const std::vector<const std::vector<ExperimentSpec>*>& batches) {
  std::vector<const ExperimentSpec*> ptrs;
  for (const auto* batch : batches) {
    RC_EXPECTS(batch != nullptr);
    for (const ExperimentSpec& spec : *batch) ptrs.push_back(&spec);
  }
  std::vector<std::uint64_t> wall_ns;
  std::vector<SchemeResult> flat = run_ptrs(ptrs, wall_ns);

  std::vector<BatchResults> out(batches.size());
  std::size_t offset = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::size_t count = batches[b]->size();
    out[b].results.assign(std::make_move_iterator(flat.begin() + offset),
                          std::make_move_iterator(flat.begin() + offset +
                                                  count));
    out[b].spec_wall_ns.assign(wall_ns.begin() + offset,
                               wall_ns.begin() + offset + count);
    offset += count;
  }
  return out;
}

std::vector<SchemeResult> SweepRunner::run_ptrs(
    const std::vector<const ExperimentSpec*>& specs,
    std::vector<std::uint64_t>& wall_ns) {
  // Resolve every spec up front: scheme pointer, graph, plan key, compiled
  // key.  Plans are keyed by the scheme's *plan family*, so schemes that
  // compute the same labeling (ack / common-round / multi all build λ_ack)
  // share one cache and store entry.
  struct Resolved {
    const Scheme* scheme = nullptr;
    const graph::Graph* graph = nullptr;
    std::string plan_key;
    std::string compiled_key;  ///< empty = engine path
    PlanPtr plan;
    CompiledPlanPtr compiled;
    /// The earlier spec whose load or computation serves this one's plan
    /// (set only when this spec shares a missing key).
    std::size_t plan_owner = 0;
    /// The spec whose load or compile serves this one's compiled entry
    /// (itself when it owns a missing key; set only on a cache miss).
    std::size_t compiled_owner = 0;
  };
  auto& registry = SchemeRegistry::instance();
  std::vector<Resolved> resolved(specs.size());
  // Resolution and phases 1-2 hold the runner mutex; phase 3 does not.
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentSpec& spec = *specs[i];
    Resolved& r = resolved[i];
    r.scheme = registry.find(spec.scheme);
    RC_EXPECTS_MSG(r.scheme != nullptr, "unregistered scheme in sweep spec");
    const std::uint64_t graph_hash = resolve_hash_locked(spec.graph);
    r.graph = &graphs_.at(graph_hash);
    RC_EXPECTS(spec.source < r.graph->node_count());
    if (spec.config.plan_cache_bytes != 0) {
      cache_.set_byte_budget(spec.config.plan_cache_bytes);
    }
    std::string plan_key("h");
    plan_key += graph::hash_hex(graph_hash);
    plan_key += "|";
    plan_key += r.scheme->plan_family();
    plan_key += "|";
    plan_key += r.scheme->plan_key(spec.source, spec.options);
    if (takes_compiled_path(*r.scheme, spec.options, spec.config)) {
      std::string compiled_key(plan_key);
      compiled_key += "|";
      compiled_key += spec.scheme;
      compiled_key += "|src";
      compiled_key += std::to_string(spec.source);
      compiled_key += "|mu";
      compiled_key += std::to_string(spec.options.mu);
      compiled_key += "|cap";
      compiled_key += std::to_string(spec.config.max_rounds);
      r.compiled_key = std::move(compiled_key);
    }
    r.plan_key = std::move(plan_key);
  }

  // Phase 1: load or compute every missing labeling exactly once.  Misses
  // are deduplicated by key before the store is consulted: the first spec
  // with a missing key owns it and probes the store once, and a key found
  // on disk is decoded instead of computed (a store hit, not a miss).  Later
  // specs with the key count as hits, served by the owner.  The parallel
  // loop only touches distinct keys, and the runner mutex keeps concurrent
  // batches out of this phase, so "exactly once per cache key" holds across
  // batches as well as within one.  Computed plans are written through.
  std::vector<std::size_t> plan_work;  // spec index owning a distinct key
  {
    std::unordered_map<std::string, std::size_t> owners;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Resolved& r = resolved[i];
      r.plan = cache_.find_plan(r.plan_key);
      if (r.plan != nullptr) {
        cache_.count_plan_lookup(true);
        continue;
      }
      const auto [it, inserted] = owners.emplace(r.plan_key, i);
      if (!inserted) {
        r.plan_owner = it->second;
        cache_.count_plan_lookup(true);
        continue;
      }
      if (store_ != nullptr && r.scheme->can_store_plans()) {
        const auto bytes = store_->get(PlanStoreKind::kPlan, r.plan_key,
                                       r.scheme->plan_family());
        if (bytes) {
          support::ByteReader reader(*bytes);
          r.plan = r.scheme->decode_plan(reader);
        }
        if (r.plan != nullptr) {
          cache_.put_plan(r.plan_key, r.plan);
          cache_.count_plan_store_hit();
          continue;
        }
      }
      cache_.count_plan_lookup(false);
      plan_work.push_back(i);
    }
  }
  par::parallel_map(pool_, plan_work.size(), [&](std::size_t w) {
    const std::size_t i = plan_work[w];
    const ExperimentSpec& spec = *specs[i];
    Resolved& r = resolved[i];
    r.plan = r.scheme->label(*r.graph, spec.source, spec.options);
    cache_.put_plan(r.plan_key, r.plan);
    if (store_ != nullptr && r.scheme->can_store_plans()) {
      support::ByteWriter writer;
      r.scheme->encode_plan(*r.plan, writer);
      store_->put(PlanStoreKind::kPlan, r.plan_key, r.scheme->plan_family(),
                  writer.bytes());
    }
    return 0;
  });
  for (Resolved& r : resolved) {
    if (r.plan == nullptr) r.plan = resolved[r.plan_owner].plan;
  }

  // Phase 2: load or compile every missing compiled entry exactly once,
  // deduplicated like phase 1.  Compiled entries are keyed per scheme
  // (their layouts differ), so the store records them under the scheme
  // name rather than the plan family.
  std::vector<std::size_t> compile_work;
  {
    std::unordered_map<std::string, std::size_t> owners;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Resolved& r = resolved[i];
      if (r.compiled_key.empty()) continue;
      r.compiled = cache_.find_compiled(r.compiled_key);
      if (r.compiled != nullptr) {
        cache_.count_compiled_lookup(true);
        continue;
      }
      const auto [it, inserted] = owners.emplace(r.compiled_key, i);
      r.compiled_owner = it->second;
      if (!inserted) {
        cache_.count_compiled_lookup(true);
        continue;
      }
      if (store_ != nullptr && r.scheme->can_store_plans()) {
        const auto bytes = store_->get(PlanStoreKind::kCompiled,
                                       r.compiled_key, specs[i]->scheme);
        if (bytes) {
          support::ByteReader reader(*bytes);
          r.compiled = r.scheme->decode_compiled(reader);
        }
        if (r.compiled != nullptr) {
          cache_.put_compiled(r.compiled_key, r.compiled);
          cache_.count_compiled_store_hit();
          continue;
        }
      }
      cache_.count_compiled_lookup(false);
      compile_work.push_back(i);
    }
  }
  par::parallel_map(pool_, compile_work.size(), [&](std::size_t w) {
    const std::size_t i = compile_work[w];
    const ExperimentSpec& spec = *specs[i];
    Resolved& r = resolved[i];
    r.compiled = r.scheme->compile(*r.graph, spec.source, r.plan,
                                   spec.options, spec.config);
    cache_.put_compiled(r.compiled_key, r.compiled);
    if (store_ != nullptr && r.scheme->can_store_plans()) {
      support::ByteWriter writer;
      r.scheme->encode_compiled(*r.compiled, writer);
      store_->put(PlanStoreKind::kCompiled, r.compiled_key, spec.scheme,
                  writer.bytes());
    }
    return 0;
  });
  for (Resolved& r : resolved) {
    if (!r.compiled_key.empty() && r.compiled == nullptr) {
      r.compiled = resolved[r.compiled_owner].compiled;
    }
  }

  // Phase 3: execute all specs against the shared read-only plans, outside
  // the mutex (graph nodes never move; plans are held by pointer), handing
  // `run_with_plan` each spec's cached compiled entry to replay; results
  // land in spec order (parallel_map writes indexed slots).  Each spec's
  // execution wall time is recorded for the serve layer's binary result
  // encoding; timing covers execution only, not the shared plan phases.
  lock.unlock();
  wall_ns.assign(specs.size(), 0);
  return par::parallel_map(pool_, specs.size(), [&](std::size_t i) {
    const ExperimentSpec& spec = *specs[i];
    const Resolved& r = resolved[i];
    const auto start = std::chrono::steady_clock::now();
    SchemeResult result =
        run_with_plan(*r.scheme, *r.graph, spec.source, r.plan, spec.options,
                      spec.config, r.compiled);
    wall_ns[i] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return result;
  });
}

}  // namespace radiocast::runtime
