/// \file scheme.hpp
/// \brief The scheme registry: every broadcast scheme behind one interface.
///
/// The paper's architecture is two-phase — a centralized labeling computed
/// once per network, then a universal per-node algorithm driven only by the
/// labels — and every scheme in this repo (B, B_ack, B_arb, the common-round
/// construction, the one-bit schemes, multi-message sessions, and the
/// comparison baselines) shares that shape.  `runtime::Scheme` makes the
/// shape structural:
///
///   label(g, source)      the centralized half; an opaque, shareable Plan
///   make_protocols(...)   the distributed half; one sim::Protocol per node
///   make_population(...)  optional: the same half as one flat population
///   compile(...)          optional: the label-determined execution's
///                         observables, computed once and cached
///                         (Lemma 2.8 and friends)
///   verify(trace)         optional: check a recorded execution against the
///                         paper's per-round characterization
///
/// `run_scheme` executes any registered scheme through one polymorphic
/// path — engine construction, round budget, stop predicate, observable
/// extraction — so a new scenario is a registry entry, not a new plumbing
/// stack.  It is the one way to run a scheme: tests, bench scenarios, the
/// CLI and the sweep all call it (or `run_with_plan` with a cached plan).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/labeling.hpp"
#include "graph/graph.hpp"
#include "runtime/config.hpp"
#include "sim/engine.hpp"
#include "sim/population.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"
#include "support/bytes.hpp"

namespace radiocast::runtime {

using graph::Graph;
using graph::NodeId;

/// Scheme-construction knobs.  Every field has a sensible default; schemes
/// read only the fields their algorithm defines.
struct SchemeOptions {
  std::uint32_t mu = 42;  ///< the source message µ
  core::DomPolicy policy = core::DomPolicy::kAscendingId;
  std::uint64_t seed = 0;       ///< labeling tie-break / randomized schemes
  NodeId coordinator = 0;       ///< B_arb's labeled coordinator r
  std::vector<std::uint32_t> payloads = {};  ///< multi-message schedule
                                             ///< (empty = the message `mu`)
  std::uint32_t frame_bits = 8;     ///< beep frame width L
  std::uint32_t max_attempts = 64;  ///< one-bit labeling restarts
  std::uint64_t max_stages = 0;     ///< one-bit stall cap (0 = 4n + 8)
  /// B_ack's loss-tolerant retry mode (AckBroadcastProtocol): informed
  /// nodes keep retransmitting on a slotted schedule so the broadcast
  /// survives lossy links.  Engine-only — a resilient scheme never takes
  /// the compiled fast path.
  bool resilient = false;
};

/// The centralized half of a scheme, computed once per (graph, plan-family)
/// cache key and shared read-only across executions.  Concrete schemes
/// subclass this with whatever their labeling produces (the labels, a bit
/// vector, a G² coloring, ...).
struct Plan {
  virtual ~Plan() = default;

  /// Approximate resident bytes of this plan — the unit of the PlanCache
  /// byte budget.  Concrete plans override with their real payload size;
  /// the default only charges the object header.
  virtual std::size_t footprint() const noexcept { return 64; }
};
using PlanPtr = std::shared_ptr<const Plan>;

/// The observables of a label-determined execution, cacheable per (graph,
/// scheme, source); a full-trace replay re-derives the execution.
struct CompiledPlan {
  virtual ~CompiledPlan() = default;

  /// Approximate resident bytes (see Plan::footprint), counting only what
  /// this entry owns: a plan it shares with the cache is charged there.
  virtual std::size_t footprint() const noexcept { return 64; }
};
using CompiledPlanPtr = std::shared_ptr<const CompiledPlan>;

/// The union of observables the schemes report.  `ok` is the scheme's own
/// success verdict; each scheme fills the remaining fields its algorithm
/// defines and leaves the others at their defaults.
struct SchemeResult {
  bool ok = false;             ///< scheme-specific success verdict
  bool all_informed = false;   ///< every node holds the source message
  bool labeling_found = true;  ///< one-bit: a labeling search succeeded
  std::uint64_t rounds = 0;            ///< engine rounds executed
  std::uint64_t completion_round = 0;  ///< last first-data reception
  std::uint64_t ack_round = 0;         ///< source's first ack reception (t')
  std::uint64_t bound = 0;             ///< 2n - 3 (B / B_ack)
  std::uint32_t ell = 0;               ///< stage count (Lemma 2.6)
  NodeId special = graph::kNoNode;     ///< z (ack) / coordinator (arb)
  std::uint64_t max_stamp = 0;         ///< message-size accounting
  std::uint64_t done_round = 0;  ///< arb common done round / common-round 2m
  std::uint64_t T = 0;           ///< arb phase-1 duration / common-round m
  std::uint64_t last_learned = 0;   ///< common-round: latest m-learn stamp
  std::uint64_t stay_count = 0;     ///< B: total "stay" transmissions
  std::uint64_t data_tx_count = 0;  ///< B: total µ transmissions
  std::uint64_t max_node_tx = 0;    ///< worst per-node duty cycle
  std::uint64_t tx_total = 0;       ///< transmissions, all kinds
  std::uint64_t polls = 0;       ///< node polls (dispatch-cost metric)
  std::uint32_t attempts = 0;    ///< one-bit restarts consumed
  std::uint32_t ones = 0;        ///< one-bit 1-labeled node count
  std::uint32_t label_bits = 0;  ///< bits per node the scheme needs
  std::vector<std::uint64_t> ack_rounds;  ///< multi: per-message ack rounds
  std::uint64_t rounds_per_message = 0;   ///< multi: constant by determinism
  sim::Trace trace;  ///< engine path at TraceLevel::kFull only
};

/// One broadcast scheme behind the uniform runtime interface.  Stateless:
/// all per-execution state lives in the engine/protocols, all per-network
/// state in the Plan, so one registered instance serves concurrent sweeps.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string_view name() const noexcept = 0;
  virtual std::string_view description() const noexcept = 0;

  /// True iff the scheme only works in collision-detection mode (beep);
  /// `run_scheme` forces the engine signal on for such schemes.
  virtual bool needs_collision_detection() const noexcept { return false; }

  /// True iff the scheme has a compiled path (`compile` / `replay`).
  virtual bool can_compile() const noexcept { return false; }

  /// True iff `compile` serves executions under `opt` (a `can_compile()`
  /// scheme may exclude options its compiled entry cannot model).
  /// Default: `can_compile()`.
  virtual bool compiles(const SchemeOptions& opt) const noexcept {
    (void)opt;
    return can_compile();
  }

  /// The labeling identity this scheme's plans belong to.  Schemes whose
  /// `label` computes the *same* construction share a family so one cached
  /// (or stored) plan serves all of them: b, ack, common-round, and multi
  /// all run on λ_ack and return "lambda-ack".  Default: the scheme's own
  /// name (no sharing).  Schemes in one family must produce identical Plan
  /// objects for identical (graph, source, options).
  virtual std::string_view plan_family() const noexcept { return name(); }

  /// Cache identity of `label`: two specs with equal keys (for the same
  /// graph and plan family) share one Plan.  The default covers
  /// source-anchored labelings; schemes whose labeling ignores the source
  /// (B_arb) or the options (baselines) override to widen sharing.
  virtual std::string plan_key(NodeId source, const SchemeOptions& opt) const;

  /// True iff the scheme implements the plan codec below, making its plans
  /// (and compiled plans, when `can_compile`) persistable in a PlanStore.
  virtual bool can_store_plans() const noexcept { return false; }

  /// Serializes a plan into the store's byte format.  Only called when
  /// `can_store_plans()`; the bytes must round-trip through `decode_plan`
  /// into a plan whose executions are trace-for-trace identical.
  virtual void encode_plan(const Plan& plan, support::ByteWriter& out) const;

  /// Decodes `encode_plan` output.  Returns nullptr on malformed bytes
  /// (the reader's failure flag, trailing bytes, or semantic violations) —
  /// never throws on untrusted input.
  virtual PlanPtr decode_plan(support::ByteReader& in) const;

  /// Serializes a compiled plan (can_compile + can_store_plans only).
  virtual void encode_compiled(const CompiledPlan& compiled,
                               support::ByteWriter& out) const;

  /// Decodes `encode_compiled` output; nullptr on malformed bytes.
  virtual CompiledPlanPtr decode_compiled(support::ByteReader& in) const;

  /// The centralized half: computes the scheme's label assignment / plan.
  virtual PlanPtr label(const Graph& g, NodeId source,
                        const SchemeOptions& opt) const = 0;

  /// The distributed half: one protocol per node, driven by the plan.
  virtual std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const = 0;

  /// The distributed half as one flat population (sim/population.hpp), or
  /// nullptr (the default) to run `make_protocols`.  `run_with_plan` takes
  /// it whenever dispatch is not kScan; kScan runs the per-node protocols,
  /// the reference the differential suites pin populations against.
  virtual std::unique_ptr<sim::Population> make_population(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const;

  /// The scheme's default engine round budget (used when
  /// `ExecutionConfig::max_rounds` is 0).
  virtual std::uint64_t round_budget(const Graph& g, const Plan& plan,
                                     const SchemeOptions& opt) const = 0;

  /// Engine stop predicate, checked after every round, on either kind of
  /// engine (population or per-node protocols).  Default: every node is
  /// informed.
  virtual bool done(const sim::Engine& engine, NodeId source,
                    const SchemeOptions& opt) const;

  /// Extracts the scheme observables once the engine stopped.  `out` arrives
  /// with the execution-generic fields (rounds, tx_total, max_node_tx,
  /// polls, all_informed) filled; `config` is the run's configuration.
  virtual void collect(const sim::Engine& engine, const Graph& g,
                       NodeId source, const Plan& plan,
                       const SchemeOptions& opt, const ExecutionConfig& config,
                       SchemeResult& out) const = 0;

  /// Degenerate-instance hook: returns true iff the result was produced
  /// without an engine (e.g. the single-node network).  Default: never.
  virtual bool run_trivial(const Graph& g, NodeId source, const Plan& plan,
                           const SchemeOptions& opt, SchemeResult& out) const;

  /// The label-determined execution's observables, computed once (only
  /// where `compiles(opt)`; never nullptr there): b and ack cache one
  /// fault-free engine run, arb runs its flat predictor.  Takes the plan by
  /// shared pointer so the compiled plan can retain it for full-trace
  /// replays.
  virtual CompiledPlanPtr compile(const Graph& g, NodeId source,
                                  const PlanPtr& plan,
                                  const SchemeOptions& opt,
                                  const ExecutionConfig& config) const;

  /// Result of a compiled plan: a copy of the cached observables (`polls`
  /// 0), plus the trace of a re-run execution when `config.trace` is
  /// kFull.
  virtual SchemeResult replay(const Graph& g, NodeId source,
                              const CompiledPlan& compiled,
                              const ExecutionConfig& config) const;

  /// Checks a full-trace execution against the scheme's per-round
  /// characterization (empty string = OK or no verifier).
  virtual std::string verify(const Graph& g, NodeId source, const Plan& plan,
                             const sim::Trace& trace) const;
};

/// Name-keyed registry of scheme singletons.  `instance()` arrives with the
/// built-in schemes registered; `add` extends it (first name wins).
class SchemeRegistry {
 public:
  static SchemeRegistry& instance();

  /// Registers a scheme; returns false (and drops it) if the name is taken.
  bool add(std::unique_ptr<Scheme> scheme);

  /// Looks up a scheme by name; nullptr when unknown.  The pointer stays
  /// valid for the registry's lifetime (schemes are never removed).
  const Scheme* find(std::string_view name) const;

  /// Every registered scheme, sorted by name.
  std::vector<const Scheme*> schemes() const;

 private:
  SchemeRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Scheme>> schemes_;
};

/// Uniform execution: label, then run (engine or compiled fast path).
SchemeResult run_scheme(const Scheme& scheme, const Graph& g, NodeId source,
                        const SchemeOptions& opt = {},
                        const ExecutionConfig& config = {});

/// Registry-name convenience overload; the name must be registered.
SchemeResult run_scheme(std::string_view name, const Graph& g, NodeId source,
                        const SchemeOptions& opt = {},
                        const ExecutionConfig& config = {});

/// The one compiled-or-engine decision: true iff `config.compiled` asks for
/// a compiled replay, the scheme compiles under `opt`, and no fault plan is
/// enabled (a replay models the fault-free schedule).  `run_with_plan` and
/// `SweepRunner` both decide through this predicate, before any cache key
/// is built.
bool takes_compiled_path(const Scheme& scheme, const SchemeOptions& opt,
                         const ExecutionConfig& config);

/// Executes with an already-computed (possibly cached) plan.  Where
/// `takes_compiled_path` holds, it replays `compiled` when one is given
/// (a cached entry for this spec) and compiles otherwise; elsewhere
/// `compiled` is ignored and the engine runs.
SchemeResult run_with_plan(const Scheme& scheme, const Graph& g,
                           NodeId source, const PlanPtr& plan,
                           const SchemeOptions& opt,
                           const ExecutionConfig& config,
                           const CompiledPlanPtr& compiled = nullptr);

namespace detail {
/// Defined in schemes.cpp; called once from SchemeRegistry::instance().
void register_builtin_schemes(SchemeRegistry& registry);
}  // namespace detail

}  // namespace radiocast::runtime
