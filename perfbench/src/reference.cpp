#include "reference.hpp"

#include "parallel/parallel_for.hpp"
#include "runtime/scheme.hpp"

namespace perfbench {

namespace rt = radiocast::runtime;

Digest digest(const rt::SchemeResult& r) {
  Digest d;
  d.ok = r.ok;
  d.all_informed = r.all_informed;
  d.rounds = r.rounds;
  d.completion_round = r.completion_round;
  d.ack_round = r.ack_round;
  d.done_round = r.done_round;
  d.tx_total = r.tx_total;
  return d;
}

bool matches(const Digest& ref, const rt::SchemeResult& got) {
  return ref == digest(got);
}

bool matches(const Digest& ref, const rt::wire::BinaryResult& got) {
  return ref.ok == got.ok && ref.all_informed == got.all_informed &&
         ref.rounds == got.rounds &&
         ref.completion_round == got.completion_round &&
         ref.ack_round == got.ack_round && ref.tx_total == got.tx_total;
}

Reference compute_reference(rt::SweepRunner& runner,
                            radiocast::par::ThreadPool& pool,
                            const std::vector<rt::ExperimentSpec>& specs,
                            std::size_t lemma_every) {
  // Resolve on this thread: resolve() may register graphs, which is not
  // safe to do from pool workers.
  std::vector<const radiocast::graph::Graph*> graphs;
  std::vector<bool> lemma(specs.size(), false);
  std::size_t b_seen = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    graphs.push_back(&runner.resolve(specs[i].graph));
    if (specs[i].scheme == "b" && lemma_every != 0 &&
        b_seen++ % lemma_every == 0) {
      lemma[i] = true;
    }
  }
  struct One {
    Digest digest;
    bool checked = false;
    std::string failure;
  };
  const auto& registry = rt::SchemeRegistry::instance();
  const auto ones = radiocast::par::parallel_map(
      pool, specs.size(), [&](std::size_t i) {
        const rt::ExperimentSpec& spec = specs[i];
        const rt::Scheme* scheme = registry.find(spec.scheme);
        rt::ExecutionConfig config = spec.config;
        config.backend = radiocast::sim::BackendKind::kScalar;
        config.dispatch = radiocast::sim::DispatchKind::kScan;
        config.compiled = false;
        One one;
        if (!lemma[i]) {
          one.digest = digest(rt::run_scheme(*scheme, *graphs[i], spec.source,
                                             spec.options, config));
          return one;
        }
        config.trace = radiocast::sim::TraceLevel::kFull;
        const rt::PlanPtr plan =
            scheme->label(*graphs[i], spec.source, spec.options);
        const rt::SchemeResult result = rt::run_with_plan(
            *scheme, *graphs[i], spec.source, plan, spec.options, config);
        one.digest = digest(result);
        one.checked = true;
        one.failure =
            scheme->verify(*graphs[i], spec.source, *plan, result.trace);
        if (!one.failure.empty()) {
          one.failure = spec.graph.generator + " source " +
                        std::to_string(spec.source) + ": " + one.failure;
        }
        return one;
      });
  Reference out;
  for (std::size_t i = 0; i < ones.size(); ++i) {
    const One& one = ones[i];
    out.digests.push_back(one.digest);
    if (specs[i].config.compiled && specs[i].scheme == "arb") {
      // The compiled B_arb result carries no completion round (its replay
      // reports 0 where the engine reports the last first-data round);
      // every other field must still match.
      out.digests.back().completion_round = 0;
    }
    if (one.checked) ++out.lemma_checks;
    if (!one.failure.empty()) out.failures.push_back(one.failure);
  }
  return out;
}

}  // namespace perfbench
