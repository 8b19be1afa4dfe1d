#include "runtime/scheme.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace radiocast::runtime {

std::string Scheme::plan_key(NodeId source, const SchemeOptions& opt) const {
  std::string key = "src";
  key += std::to_string(source);
  key += "|p";
  key += std::to_string(static_cast<int>(opt.policy));
  key += "|s";
  key += std::to_string(opt.seed);
  return key;
}

void Scheme::encode_plan(const Plan&, support::ByteWriter&) const {
  RC_ASSERT_MSG(false, "scheme does not persist plans");
}

PlanPtr Scheme::decode_plan(support::ByteReader&) const { return nullptr; }

void Scheme::encode_compiled(const CompiledPlan&,
                             support::ByteWriter&) const {
  RC_ASSERT_MSG(false, "scheme does not persist compiled plans");
}

CompiledPlanPtr Scheme::decode_compiled(support::ByteReader&) const {
  return nullptr;
}

std::unique_ptr<sim::Population> Scheme::make_population(
    const Graph&, NodeId, const Plan&, const SchemeOptions&) const {
  return nullptr;
}

bool Scheme::done(const sim::Engine& engine, NodeId,
                  const SchemeOptions&) const {
  return engine.all_informed();
}

bool Scheme::run_trivial(const Graph&, NodeId, const Plan&,
                         const SchemeOptions&, SchemeResult&) const {
  return false;
}

CompiledPlanPtr Scheme::compile(const Graph&, NodeId, const PlanPtr&,
                                const SchemeOptions&,
                                const ExecutionConfig&) const {
  return nullptr;
}

SchemeResult Scheme::replay(const Graph&, NodeId, const CompiledPlan&,
                            const ExecutionConfig&) const {
  RC_ASSERT_MSG(false, "scheme has no compiled path");
  return {};
}

std::string Scheme::verify(const Graph&, NodeId, const Plan&,
                           const sim::Trace&) const {
  return {};
}

SchemeRegistry& SchemeRegistry::instance() {
  static SchemeRegistry* registry = [] {
    auto* r = new SchemeRegistry();
    detail::register_builtin_schemes(*r);
    return r;
  }();
  return *registry;
}

bool SchemeRegistry::add(std::unique_ptr<Scheme> scheme) {
  RC_EXPECTS(scheme != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& existing : schemes_) {
    if (existing->name() == scheme->name()) return false;
  }
  schemes_.push_back(std::move(scheme));
  return true;
}

const Scheme* SchemeRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : schemes_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

std::vector<const Scheme*> SchemeRegistry::schemes() const {
  std::vector<const Scheme*> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(schemes_.size());
    for (const auto& s : schemes_) out.push_back(s.get());
  }
  std::sort(out.begin(), out.end(), [](const Scheme* a, const Scheme* b) {
    return a->name() < b->name();
  });
  return out;
}

bool takes_compiled_path(const Scheme& scheme, const SchemeOptions& opt,
                         const ExecutionConfig& config) {
  return config.compiled && scheme.compiles(opt) && !config.faults.enabled();
}

SchemeResult run_with_plan(const Scheme& scheme, const Graph& g,
                           NodeId source, const PlanPtr& plan,
                           const SchemeOptions& opt,
                           const ExecutionConfig& config,
                           const CompiledPlanPtr& compiled) {
  RC_EXPECTS(plan != nullptr);
  RC_EXPECTS(source < g.node_count());
  SchemeResult out;
  if (scheme.run_trivial(g, source, *plan, opt, out)) return out;

  if (takes_compiled_path(scheme, opt, config)) {
    const CompiledPlanPtr entry =
        compiled != nullptr ? compiled
                            : scheme.compile(g, source, plan, opt, config);
    return scheme.replay(g, source, *entry, config);
  }

  sim::EngineOptions engine_opt = config.engine_options();
  engine_opt.collision_detection =
      config.collision_detection || scheme.needs_collision_detection();
  std::unique_ptr<sim::Population> population;
  if (config.dispatch != sim::DispatchKind::kScan) {
    population = scheme.make_population(g, source, *plan, opt);
  }
  if (population == nullptr) {
    population = std::make_unique<sim::ProtocolPopulation>(
        scheme.make_protocols(g, source, *plan, opt));
  }
  sim::Engine engine(g, std::move(population), engine_opt);
  const std::uint64_t budget = config.max_rounds
                                   ? config.max_rounds
                                   : scheme.round_budget(g, *plan, opt);
  engine.run_until(
      [&](const sim::Engine& e) { return scheme.done(e, source, opt); },
      budget);
  out.rounds = engine.round();
  out.tx_total = engine.transmissions_total();
  out.max_node_tx = engine.max_tx_count();
  out.polls = engine.polls_total();
  out.all_informed = engine.all_informed();
  scheme.collect(engine, g, source, *plan, opt, config, out);
  // Moved, not copied: collect() has already read any trace-derived
  // counters, and the engine dies with this frame.
  if (config.trace == sim::TraceLevel::kFull) out.trace = engine.take_trace();
  return out;
}

SchemeResult run_scheme(const Scheme& scheme, const Graph& g, NodeId source,
                        const SchemeOptions& opt,
                        const ExecutionConfig& config) {
  return run_with_plan(scheme, g, source, scheme.label(g, source, opt), opt,
                       config);
}

SchemeResult run_scheme(std::string_view name, const Graph& g, NodeId source,
                        const SchemeOptions& opt,
                        const ExecutionConfig& config) {
  const Scheme* scheme = SchemeRegistry::instance().find(name);
  RC_EXPECTS_MSG(scheme != nullptr, "unknown scheme name");
  return run_scheme(*scheme, g, source, opt, config);
}

}  // namespace radiocast::runtime
