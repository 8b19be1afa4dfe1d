#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

#include "core/stages.hpp"
#include "graph/generators.hpp"
#include "graph/hash.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "support/bytes.hpp"

namespace perfbench {

namespace rt = radiocast::runtime;
namespace sim = radiocast::sim;

namespace {

/// Span names per backend, indexed by `sim::BackendKind`.
constexpr const char* kBuildOps[] = {"build.auto", "build.scalar", "build.bit",
                                     "build.sharded", "build.hybrid"};
constexpr const char* kRunOps[] = {"run.auto", "run.scalar", "run.bit",
                                   "run.sharded", "run.hybrid"};
constexpr const char* kBackends[] = {"scalar", "bit", "sharded", "hybrid"};

/// Schemes whose labeling is the §2.1 stage construction, and the node it
/// is built from (B_arb builds it from its coordinator).
std::optional<radiocast::graph::NodeId> stage_source(
    const rt::ExperimentSpec& spec) {
  if (spec.scheme == "b" || spec.scheme == "ack" ||
      spec.scheme == "common-round") {
    return spec.source;
  }
  if (spec.scheme == "arb") return spec.options.coordinator;
  return std::nullopt;
}

struct Resolved {
  const rt::Scheme* scheme = nullptr;
  const radiocast::graph::Graph* graph = nullptr;
  std::string plan_key;
  std::string compiled_key;
  rt::PlanPtr plan;
  rt::CompiledPlanPtr compiled;
};

std::uint64_t elapsed(std::int64_t t0, std::int64_t t1) {
  return t1 > t0 ? static_cast<std::uint64_t>(t1 - t0) : 0;
}

}  // namespace

std::uint64_t register_graphs(rt::SweepRunner& runner,
                              const std::vector<std::string>& descriptors,
                              Tracer& tracer) {
  std::uint64_t edges = 0;
  for (const std::string& d : descriptors) {
    radiocast::graph::Graph g = [&] {
      Scope s(tracer, "materialize", Layer::kGraph);
      return radiocast::graph::from_descriptor(d);
    }();
    edges += g.edge_count();
    if (tracer.enabled()) {
      Scope s(tracer, "hash", Layer::kGraph);
      radiocast::graph::canonical_hash(g);
    }
    Scope s(tracer, "register", Layer::kRuntime);
    runner.add_graph(std::move(g), d);
  }
  return edges;
}

std::vector<rt::SchemeResult> traced_batch(
    rt::SweepRunner& runner, radiocast::par::ThreadPool& pool,
    const std::vector<rt::ExperimentSpec>& specs, Tracer& tracer,
    std::uint64_t batch_id, LookupCounts& lookups,
    std::vector<StageWork>* stage_work) {
  Scope batch(tracer, "batch", Layer::kBench, batch_id);
  const std::int32_t root = batch.id();
  auto& registry = rt::SchemeRegistry::instance();
  rt::PlanCache& cache = runner.cache();
  rt::PlanStore* store = runner.store();

  std::vector<Resolved> resolved(specs.size());
  {
    Scope s(tracer, "resolve", Layer::kRuntime, batch_id, root);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const rt::ExperimentSpec& spec = specs[i];
      Resolved& r = resolved[i];
      r.scheme = registry.find(spec.scheme);
      const std::uint64_t hash = runner.resolve_hash(spec.graph);
      r.graph = &runner.resolve(spec.graph);
      // The key SweepRunner builds: h<graph hash>|<plan family>|<plan key>.
      r.plan_key = "h";
      r.plan_key += radiocast::graph::hash_hex(hash);
      r.plan_key += "|";
      r.plan_key += r.scheme->plan_family();
      r.plan_key += "|";
      r.plan_key += r.scheme->plan_key(spec.source, spec.options);
      if (spec.config.compiled && r.scheme->can_compile()) {
        r.compiled_key = r.plan_key + "|" + spec.scheme + "|src" +
                         std::to_string(spec.source) + "|mu" +
                         std::to_string(spec.options.mu) + "|cap" +
                         std::to_string(spec.config.max_rounds);
      }
    }
  }

  // Phase 1: labelings, each distinct key once (cache, then store, then
  // label and write through).
  std::vector<std::size_t> plan_work;
  {
    Scope s(tracer, "plan_lookup", Layer::kRuntime, batch_id, root);
    std::unordered_map<std::string, std::size_t> first_owner;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Resolved& r = resolved[i];
      ++lookups.lookups;
      r.plan = cache.find_plan(r.plan_key);
      if (r.plan != nullptr) {
        ++lookups.resident;
        cache.count_plan_lookup(true);
        continue;
      }
      if (store != nullptr && r.scheme->can_store_plans()) {
        std::optional<std::string> bytes;
        {
          Scope g(tracer, "store_get", Layer::kRuntime, batch_id, s.id());
          bytes = store->get(rt::PlanStoreKind::kPlan, r.plan_key,
                             r.scheme->plan_family());
        }
        if (bytes) {
          Scope d(tracer, "plan_decode", Layer::kRuntime, batch_id, s.id());
          radiocast::support::ByteReader reader(*bytes);
          r.plan = r.scheme->decode_plan(reader);
        }
        if (r.plan != nullptr) {
          ++lookups.resident;
          cache.put_plan(r.plan_key, r.plan);
          cache.count_plan_store_hit();
          continue;
        }
      }
      const bool inserted = first_owner.emplace(r.plan_key, i).second;
      cache.count_plan_lookup(!inserted);
      if (inserted) plan_work.push_back(i);
    }
  }
  {
    Scope phase(tracer, "label_phase", Layer::kParallel, batch_id, root);
    radiocast::par::parallel_for(pool, plan_work.size(), [&](std::size_t w) {
      const std::size_t i = plan_work[w];
      const rt::ExperimentSpec& spec = specs[i];
      Resolved& r = resolved[i];
      Scope task(tracer, "plan_task", Layer::kRuntime, batch_id, phase.id());
      {
        Scope s(tracer, "label", Layer::kCore, batch_id, task.id());
        r.plan = r.scheme->label(*r.graph, spec.source, spec.options);
      }
      cache.put_plan(r.plan_key, r.plan);
      if (store != nullptr && r.scheme->can_store_plans()) {
        radiocast::support::ByteWriter writer;
        {
          Scope s(tracer, "plan_encode", Layer::kRuntime, batch_id, task.id());
          r.scheme->encode_plan(*r.plan, writer);
          s.set_count(writer.bytes().size());
        }
        Scope s(tracer, "store_put", Layer::kRuntime, batch_id, task.id());
        store->put(rt::PlanStoreKind::kPlan, r.plan_key,
                   r.scheme->plan_family(), writer.bytes());
      }
    });
  }
  for (Resolved& r : resolved) {
    if (r.plan == nullptr) r.plan = cache.find_plan(r.plan_key);
  }
  if (stage_work != nullptr) {
    for (const std::size_t i : plan_work) {
      if (const auto src = stage_source(specs[i])) {
        stage_work->push_back({resolved[i].scheme, resolved[i].graph,
                               specs[i].source, *src, specs[i].options});
      }
    }
  }

  // Phase 2: compiled executions, each distinct key once.
  std::vector<std::size_t> compile_work;
  {
    Scope s(tracer, "compiled_lookup", Layer::kRuntime, batch_id, root);
    std::unordered_map<std::string, std::size_t> first_owner;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Resolved& r = resolved[i];
      if (r.compiled_key.empty()) continue;
      r.compiled = cache.find_compiled(r.compiled_key);
      if (r.compiled != nullptr) {
        cache.count_compiled_lookup(true);
        continue;
      }
      if (store != nullptr && r.scheme->can_store_plans()) {
        std::optional<std::string> bytes;
        {
          Scope g(tracer, "store_get", Layer::kRuntime, batch_id, s.id());
          bytes = store->get(rt::PlanStoreKind::kCompiled, r.compiled_key,
                             specs[i].scheme);
        }
        if (bytes) {
          Scope d(tracer, "plan_decode", Layer::kRuntime, batch_id, s.id());
          radiocast::support::ByteReader reader(*bytes);
          r.compiled = r.scheme->decode_compiled(reader);
        }
        if (r.compiled != nullptr) {
          cache.put_compiled(r.compiled_key, r.compiled);
          cache.count_compiled_store_hit();
          continue;
        }
      }
      const bool inserted = first_owner.emplace(r.compiled_key, i).second;
      cache.count_compiled_lookup(!inserted);
      if (inserted) compile_work.push_back(i);
    }
  }
  {
    Scope phase(tracer, "compile_phase", Layer::kParallel, batch_id, root);
    radiocast::par::parallel_for(pool, compile_work.size(), [&](std::size_t w) {
      const std::size_t i = compile_work[w];
      const rt::ExperimentSpec& spec = specs[i];
      Resolved& r = resolved[i];
      Scope task(tracer, "compile_task", Layer::kRuntime, batch_id,
                 phase.id());
      {
        Scope s(tracer, "compile", Layer::kCore, batch_id, task.id());
        r.compiled = r.scheme->compile(*r.graph, spec.source, r.plan,
                                       spec.options, spec.config);
      }
      cache.put_compiled(r.compiled_key, r.compiled);
      if (store != nullptr && r.scheme->can_store_plans()) {
        radiocast::support::ByteWriter writer;
        {
          Scope s(tracer, "plan_encode", Layer::kRuntime, batch_id, task.id());
          r.scheme->encode_compiled(*r.compiled, writer);
          s.set_count(writer.bytes().size());
        }
        Scope s(tracer, "store_put", Layer::kRuntime, batch_id, task.id());
        store->put(rt::PlanStoreKind::kCompiled, r.compiled_key, spec.scheme,
                   writer.bytes());
      }
    });
  }
  for (Resolved& r : resolved) {
    if (!r.compiled_key.empty() && r.compiled == nullptr) {
      r.compiled = cache.find_compiled(r.compiled_key);
    }
  }

  // Phase 3: every spec, as run_with_plan executes it.
  Scope phase(tracer, "run_phase", Layer::kParallel, batch_id, root);
  return radiocast::par::parallel_map(pool, specs.size(), [&](std::size_t i) {
    const rt::ExperimentSpec& spec = specs[i];
    const Resolved& r = resolved[i];
    const radiocast::graph::Graph& g = *r.graph;
    Scope task(tracer, "spec", Layer::kRuntime, batch_id, phase.id());
    if (r.compiled != nullptr) {
      Scope s(tracer, "replay", Layer::kCore, batch_id, task.id());
      return r.scheme->replay(g, spec.source, *r.compiled, spec.config);
    }
    rt::SchemeResult out;
    if (r.scheme->run_trivial(g, spec.source, *r.plan, spec.options, out)) {
      return out;
    }
    const rt::ExecutionConfig& config = spec.config;
    sim::EngineOptions engine_opt = config.engine_options();
    engine_opt.collision_detection =
        config.collision_detection || r.scheme->needs_collision_detection();
    std::vector<std::unique_ptr<sim::Protocol>> protocols;
    {
      Scope s(tracer, "protocols", Layer::kSim, batch_id, task.id());
      protocols =
          r.scheme->make_protocols(g, spec.source, *r.plan, spec.options);
    }
    std::optional<sim::Engine> engine;
    std::size_t kind = 0;
    {
      Scope s(tracer, "build", Layer::kSim, batch_id, task.id());
      engine.emplace(g, std::move(protocols), engine_opt);
      kind = static_cast<std::size_t>(engine->backend_kind());
      s.rename(kBuildOps[kind]);
    }
    const std::uint64_t budget =
        config.max_rounds ? config.max_rounds
                          : r.scheme->round_budget(g, *r.plan, spec.options);
    {
      Scope s(tracer, "run", Layer::kSim, batch_id, task.id());
      engine->run_until(
          [&](const sim::Engine& e) {
            return r.scheme->done(e, spec.source, spec.options);
          },
          budget);
      s.rename(kRunOps[kind]);
      s.set_count(engine->round());
    }
    {
      Scope s(tracer, "collect", Layer::kSim, batch_id, task.id());
      out.rounds = engine->round();
      out.tx_total = engine->transmissions_total();
      out.polls = engine->polls_total();
      out.all_informed = engine->all_informed();
      r.scheme->collect(*engine, g, spec.source, *r.plan, spec.options,
                        config, out);
      if (config.trace == sim::TraceLevel::kFull) {
        out.trace = engine->take_trace();
      }
      s.set_count(out.polls);
    }
    // Freeing the backend (adjacency bitmaps, engine-private pools) is
    // engine cost too.
    Scope s(tracer, "teardown", Layer::kSim, batch_id, task.id());
    engine.reset();
    return out;
  });
}

void split_stage_sets(radiocast::par::ThreadPool& pool, Tracer& tracer,
                      const std::vector<StageWork>& work) {
  // Each distinct labeling once (cold_sweep repeats its deck every pass).
  std::set<std::tuple<const void*, const void*, radiocast::graph::NodeId>>
      seen;
  std::vector<const StageWork*> distinct;
  for (const StageWork& w : work) {
    if (seen.insert({w.scheme, w.graph, w.source}).second) {
      distinct.push_back(&w);
    }
  }
  radiocast::par::parallel_for(pool, distinct.size(), [&](std::size_t i) {
    const StageWork& w = *distinct[i];
    {
      Scope s(tracer, "stage_sets", Layer::kCore);
      radiocast::core::build_stage_sets(*w.graph, w.stage_source,
                                        w.options.policy, w.options.seed);
    }
    Scope s(tracer, "relabel", Layer::kCore);
    w.scheme->label(*w.graph, w.source, w.options);
  });
}

std::map<std::string, OpStats> op_stats(const std::vector<Span>& spans,
                                        std::int64_t t0, std::int64_t t1) {
  std::map<std::string, OpStats> out;
  for (const Span& s : spans) {
    if (s.end_ns <= s.start_ns || s.start_ns < t0 || s.end_ns > t1) continue;
    OpStats& o = out[std::string(layer_name(s.layer)) + "." + s.op];
    ++o.calls;
    o.total_ms += s.ms();
    o.count_sum += s.count;
  }
  return out;
}

void sweep_layer_metrics(const std::vector<Span>& all, std::int64_t t0,
                         std::int64_t t1, std::uint64_t batches,
                         std::size_t workers, MetricValues& out) {
  const auto every = op_stats(all, INT64_MIN, INT64_MAX);
  const auto measured = op_stats(all, t0, t1);
  auto get = [](const std::map<std::string, OpStats>& m,
                const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? OpStats{} : it->second;
  };
  const double per_batch = batches == 0 ? 0.0 : 1.0 / batches;

  const OpStats stage_sets = get(every, "core.stage_sets");
  out.set("core.label_ms", get(every, "core.label").mean_ms());
  out.set("core.stage_sets_ms", stage_sets.mean_ms());
  out.set("core.designators_ms",
          stage_sets.calls == 0
              ? 0.0
              : get(every, "core.relabel").mean_ms() - stage_sets.mean_ms());
  out.set("core.labelings", get(measured, "core.label").calls * per_batch);
  out.set("core.compile_ms", get(every, "core.compile").mean_ms());
  out.set("core.compiles", get(measured, "core.compile").calls * per_batch);

  const OpStats encode = get(every, "runtime.plan_encode");
  out.set("runtime.plan_encode_ms", encode.mean_ms());
  out.set("runtime.store_put_ms", get(every, "runtime.store_put").mean_ms());
  out.set("runtime.plan_bytes",
          encode.calls == 0 ? 0.0
                            : static_cast<double>(encode.count_sum) /
                                  static_cast<double>(encode.calls));
  out.set("runtime.store_get_ms", get(every, "runtime.store_get").mean_ms());
  out.set("runtime.plan_decode_ms",
          get(every, "runtime.plan_decode").mean_ms());

  std::uint64_t rounds = 0;
  for (const char* b : kBackends) {
    const std::string name(b);
    const OpStats build = get(measured, "sim.build." + name);
    const OpStats run = get(measured, "sim.run." + name);
    out.set("sim.specs." + name, build.calls * per_batch);
    out.set("sim.build_ms." + name, build.mean_ms());
    out.set("sim.run_ms." + name, run.mean_ms());
    out.set("sim.ns_per_round." + name,
            run.count_sum == 0 ? 0.0 : run.total_ms * 1e6 / run.count_sum);
    rounds += run.count_sum;
  }
  out.set("sim.protocols_ms", get(measured, "sim.protocols").mean_ms());
  const OpStats collect = get(measured, "sim.collect");
  out.set("sim.collect_ms", collect.mean_ms());
  out.set("sim.polls_per_round",
          rounds == 0 ? 0.0 : static_cast<double>(collect.count_sum) / rounds);

  // Pool occupancy and the idle tail at the end of each batch.
  double busy_ms = 0, batch_ms = 0;
  std::vector<double> tails;
  std::map<std::uint64_t, std::int64_t> last_spec_start;
  std::map<std::uint64_t, std::int64_t> batch_end;
  for (const Span& s : all) {
    if (s.end_ns <= s.start_ns || s.start_ns < t0 || s.end_ns > t1) continue;
    const std::string op(s.op);
    if (s.layer == Layer::kRuntime &&
        (op == "plan_task" || op == "compile_task" || op == "spec")) {
      busy_ms += s.ms();
      if (op == "spec") {
        auto& last = last_spec_start[s.batch];
        last = std::max(last, s.start_ns);
      }
    } else if (s.layer == Layer::kBench && op == "batch") {
      batch_ms += s.ms();
      batch_end[s.batch] = s.end_ns;
    }
  }
  for (const auto& [batch, end] : batch_end) {
    const auto it = last_spec_start.find(batch);
    if (it != last_spec_start.end()) {
      tails.push_back(static_cast<double>(elapsed(it->second, end)) / 1e6);
    }
  }
  out.set("parallel.pool_busy_ratio",
          ratio(busy_ms, batch_ms * static_cast<double>(workers)));
  out.set("parallel.tail_ms", mean(tails));
}

void share_metrics(const Attribution& a, MetricValues& out) {
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    out.set(std::string("trace.self_share.") +
                layer_name(static_cast<Layer>(l)),
            ratio(a.self_ns[l], a.wall_ns));
  }
  out.set("trace.coverage", ratio(a.covered_ns, a.wall_ns));
}

}  // namespace perfbench
