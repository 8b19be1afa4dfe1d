// Quickstart: label a small radio network with the 2-bit scheme λ and run the
// universal broadcast algorithm B, printing the round-by-round execution.
//
//   $ ./quickstart
//
// This is the paper's Figure 1 pipeline on a random unit-disk network: the
// centralized labeler sees the topology; the per-node protocols see only
// their 2-bit label and what they hear.
#include <cstdio>

#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

int main() {
  using namespace radiocast;

  // 1. A 20-node unit-disk radio network (the classical radio geometry).
  Rng rng(2019);
  const graph::Graph g = graph::random_geometric(20, 0.35, rng);
  const graph::NodeId source = 0;
  std::printf("network: %s, source %u\n", g.summary().c_str(), source);

  // 2. Centralized 2-bit labeling (knows the whole graph).
  const core::Labeling labeling = core::label_broadcast(g, source);
  std::printf("labels  : ");
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    std::printf("%u:%s ", v, labeling.labels[v].to_string().c_str());
  }
  std::printf("\n");

  // 3. Universal algorithm B — every node runs the same code on (label, ears).
  sim::Engine engine(g, core::make_broadcast_protocols(labeling, /*mu=*/7),
                     {sim::TraceLevel::kFull});
  engine.run_until([](const sim::Engine& e) { return e.all_informed(); },
                   4 * g.node_count());

  // 4. Print the execution and check it against the paper's Lemma 2.8.
  const auto& trace = engine.trace();
  for (std::size_t t = 0; t < trace.rounds().size(); ++t) {
    const auto& rec = trace.rounds()[t];
    if (rec.transmissions.empty()) continue;
    std::printf("round %2zu: tx {", t + 1);
    for (const auto& [v, msg] : rec.transmissions) {
      std::printf(" %u:%s", v, sim::to_string(msg.kind));
    }
    std::printf(" } -> %zu deliveries\n", rec.deliveries.size());
  }
  std::printf("all informed after round %llu (bound 2n-3 = %u)\n",
              static_cast<unsigned long long>(
                  engine.last_first_data_reception()),
              2 * g.node_count() - 3);

  const std::string verdict = core::verify_lemma_2_8(g, labeling, trace);
  std::printf("Lemma 2.8 check: %s\n",
              verdict.empty() ? "OK" : verdict.c_str());
  return verdict.empty() && engine.all_informed() ? 0 : 1;
}
