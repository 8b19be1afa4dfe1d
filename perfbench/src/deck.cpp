#include "deck.hpp"

#include <string>
#include <utility>

#include "runtime/wire.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using radiocast::Rng;
using radiocast::runtime::ExperimentSpec;

/// One deck graph: its descriptor and node count (sources are drawn below
/// it without materializing the graph).
struct DeckGraph {
  std::string descriptor;
  std::uint32_t nodes = 0;
};

/// A generator seed small enough for every descriptor parser.
std::uint64_t graph_seed(Rng& rng) { return rng.below(1u << 30); }

DeckGraph sgnp(std::uint32_t n, int degree, Rng& rng) {
  return {"sgnp:" + std::to_string(n) + ":" + std::to_string(degree) + ":" +
              std::to_string(graph_seed(rng)),
          n};
}

DeckGraph tree(std::uint32_t n, Rng& rng) {
  return {"tree:" + std::to_string(n) + ":" + std::to_string(graph_seed(rng)),
          n};
}

DeckGraph disk(std::uint32_t n, const char* radius, Rng& rng) {
  return {"disk:" + std::to_string(n) + ":" + radius + ":" +
              std::to_string(graph_seed(rng)),
          n};
}

DeckGraph gnp(std::uint32_t n, const char* p, Rng& rng) {
  return {"gnp:" + std::to_string(n) + ":" + p + ":" +
              std::to_string(graph_seed(rng)),
          n};
}

/// Grids have no generator seed; their sources carry the seed.
DeckGraph grid(std::uint32_t side) {
  return {"grid:" + std::to_string(side) + ":" + std::to_string(side),
          side * side};
}

/// `count` distinct sources of `g`.
std::vector<radiocast::graph::NodeId> sources(const DeckGraph& g,
                                              std::size_t count, Rng& rng) {
  std::vector<radiocast::graph::NodeId> out;
  while (out.size() < count) {
    const auto s = static_cast<radiocast::graph::NodeId>(rng.below(g.nodes));
    bool fresh = true;
    for (const auto t : out) fresh = fresh && t != s;
    if (fresh) out.push_back(s);
  }
  return out;
}

ExperimentSpec make_spec(const std::string& scheme, const DeckGraph& g,
                         radiocast::graph::NodeId source, bool compiled) {
  ExperimentSpec spec;
  spec.scheme = scheme;
  spec.graph.generator = g.descriptor;
  spec.source = source;
  spec.config.compiled = compiled;
  return spec;
}

/// Engine-path specs for `schemes` at every source, then compiled specs for
/// `compiled_schemes` at the first source; shuffled by `rng`.
std::vector<ExperimentSpec> graph_specs(
    const DeckGraph& g, const std::vector<radiocast::graph::NodeId>& srcs,
    const std::vector<std::string>& schemes,
    const std::vector<std::string>& compiled_schemes, Rng& rng) {
  std::vector<ExperimentSpec> out;
  for (const std::string& scheme : schemes) {
    for (const auto s : srcs) out.push_back(make_spec(scheme, g, s, false));
  }
  for (const std::string& scheme : compiled_schemes) {
    out.push_back(make_spec(scheme, g, srcs.front(), true));
  }
  rng.shuffle(out);
  return out;
}

/// Interleaves per-graph spec lists round-robin so every contiguous chunk
/// the pool hands a worker mixes graphs, keeping batch cost balanced.
std::vector<ExperimentSpec> interleave(
    std::vector<std::vector<ExperimentSpec>> per_graph) {
  std::vector<ExperimentSpec> out;
  for (std::size_t j = 0;; ++j) {
    bool any = false;
    for (auto& specs : per_graph) {
      if (j < specs.size()) {
        out.push_back(std::move(specs[j]));
        any = true;
      }
    }
    if (!any) return out;
  }
}

const std::vector<std::string> kAllEngineSchemes = {"b", "ack", "common-round",
                                                    "arb"};

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "cold_sweep") return Workload::kColdSweep;
  if (name == "warm_sweep") return Workload::kWarmSweep;
  if (name == "serve_warm") return Workload::kServeWarm;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdSweep:
      return "cold_sweep";
    case Workload::kWarmSweep:
      return "warm_sweep";
    case Workload::kServeWarm:
      return "serve_warm";
  }
  return "?";
}

SweepDeck make_cold_deck(std::uint64_t seed) {
  Rng rng(seed ^ 0xc01d5eedULL);
  SweepDeck deck;
  constexpr int kBatches = 3;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<ExperimentSpec>> per_graph;
    for (int copy = 0; copy < 2; ++copy) {
      for (const DeckGraph& g :
           {sgnp(20000, 8, rng), tree(20000, rng), disk(4000, "0.031", rng),
            gnp(2048, "0.03", rng)}) {
        deck.graphs.push_back(g.descriptor);
        per_graph.push_back(graph_specs(g, sources(g, 2, rng),
                                        kAllEngineSchemes,
                                        {"b", "ack", "arb"}, rng));
      }
    }
    deck.batches.push_back(interleave(std::move(per_graph)));
  }
  return deck;
}

SweepDeck make_warm_deck(std::uint64_t seed) {
  Rng rng(seed ^ 0x3a43ULL);
  SweepDeck deck;
  struct Entry {
    DeckGraph graph;
    std::size_t sources;
    std::vector<std::string> schemes;
  };
  const std::vector<Entry> entries = {
      {grid(60), 8, kAllEngineSchemes},                // scalar
      {tree(4000, rng), 8, kAllEngineSchemes},         // scalar
      {disk(3000, "0.03", rng), 8, kAllEngineSchemes},  // scalar
      {sgnp(30000, 8, rng), 3, {"b", "ack"}},          // scalar
      {gnp(4096, "0.05", rng), 3, kAllEngineSchemes},  // bit
      {gnp(8192, "0.05", rng), 1, kAllEngineSchemes},  // sharded
      {sgnp(100000, 8, rng), 1, {"b", "ack"}},         // hybrid
  };
  std::vector<std::vector<ExperimentSpec>> per_graph;
  for (const Entry& e : entries) {
    deck.graphs.push_back(e.graph.descriptor);
    per_graph.push_back(graph_specs(e.graph, sources(e.graph, e.sources, rng),
                                    e.schemes, {}, rng));
  }
  deck.batches.push_back(interleave(std::move(per_graph)));
  return deck;
}

ServeDeck make_serve_deck(std::uint64_t seed) {
  Rng rng(seed ^ 0x5e7e0ULL);
  ServeDeck deck;
  for (const DeckGraph& g :
       {sgnp(20000, 8, rng), tree(20000, rng), gnp(2048, "0.03", rng)}) {
    deck.graphs.push_back(g.descriptor);
    const auto srcs = sources(g, 3, rng);
    for (const char* scheme : {"b", "ack", "arb"}) {
      for (const auto s : srcs) {
        deck.compiled_pool.push_back(make_spec(scheme, g, s, true));
      }
    }
    deck.warmup.push_back(make_spec("b", g, srcs.front(), true));
  }
  for (const DeckGraph& g : {sgnp(1000, 6, rng), tree(1000, rng),
                             disk(1000, "0.06", rng), grid(32)}) {
    deck.graphs.push_back(g.descriptor);
    const auto srcs = sources(g, 4, rng);
    for (const char* scheme : {"b", "ack"}) {
      for (const auto s : srcs) {
        deck.engine_pool.push_back(make_spec(scheme, g, s, false));
      }
    }
    deck.warmup.push_back(make_spec("b", g, srcs.front(), false));
  }
  return deck;
}

std::vector<std::size_t> serve_draw(const ServeDeck& deck, std::uint64_t seed,
                                    std::uint32_t conn, std::uint64_t index) {
  radiocast::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL ^
                            (std::uint64_t{conn} << 48) ^ index);
  Rng rng(mix.next());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < kServeCompiledPerBatch; ++i) {
    out.push_back(rng.below(deck.compiled_pool.size()));
  }
  for (std::size_t i = 0; i < kServeEnginePerBatch; ++i) {
    out.push_back(deck.compiled_pool.size() +
                  rng.below(deck.engine_pool.size()));
  }
  return out;
}

const ExperimentSpec& serve_spec(const ServeDeck& deck, std::size_t index) {
  return index < deck.compiled_pool.size()
             ? deck.compiled_pool[index]
             : deck.engine_pool[index - deck.compiled_pool.size()];
}

std::string deck_text(const SweepDeck& deck) {
  std::string out;
  for (const std::string& g : deck.graphs) out += g + "\n";
  for (const auto& batch : deck.batches) {
    for (const ExperimentSpec& spec : batch) {
      out += radiocast::runtime::wire::encode_spec(spec) + "\n";
    }
    out += "--\n";
  }
  return out;
}

std::string deck_text(const ServeDeck& deck) {
  std::string out;
  for (const std::string& g : deck.graphs) out += g + "\n";
  for (const auto* pool :
       {&deck.compiled_pool, &deck.engine_pool, &deck.warmup}) {
    for (const ExperimentSpec& spec : *pool) {
      out += radiocast::runtime::wire::encode_spec(spec) + "\n";
    }
    out += "--\n";
  }
  return out;
}

}  // namespace perfbench
