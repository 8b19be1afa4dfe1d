/// \file schemes.cpp
/// \brief The built-in scheme registrations: the paper's algorithms (B,
///        B_ack, common-round, B_arb, multi-message, one-bit) and the §1
///        comparison baselines (round-robin, color-robin, decay, beep),
///        each expressed once through the `runtime::Scheme` interface.
#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>

#include "baselines/baselines.hpp"
#include "baselines/beep.hpp"
#include "core/arb.hpp"
#include "core/compiled_schedule.hpp"
#include "core/multi.hpp"
#include "core/population.hpp"
#include "core/protocols.hpp"
#include "core/verifier.hpp"
#include "graph/coloring.hpp"
#include "onebit/labeler.hpp"
#include "runtime/scheme.hpp"
#include "support/bytes.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace radiocast::runtime {
namespace {

std::uint64_t theorem_bound(std::uint32_t n) {
  return n >= 2 ? 2ull * n - 3 : 0;
}

std::uint32_t bits_for(std::uint32_t values) {
  return values <= 1 ? 1u : std::bit_width(values - 1);
}

/// The engine's flat population as P, or nullptr when the engine runs
/// per-node protocols (the kScan reference).
template <typename P>
const P* flat(const sim::Engine& e) {
  return dynamic_cast<const P*>(&e.population());
}

/// Node v's protocol as P (per-node engines only).
template <typename P>
const P& protocol_at(const sim::Engine& e, NodeId v) {
  return dynamic_cast<const P&>(e.protocol(v));
}

/// The multi-message schedule a spec denotes (empty payloads = one µ).
std::vector<std::uint32_t> multi_schedule(const SchemeOptions& opt) {
  return opt.payloads.empty() ? std::vector<std::uint32_t>{opt.mu}
                              : opt.payloads;
}

// ---------------------------------------------------------------------------
// Plan codecs: the PlanStore payload formats.  Every payload opens with a
// one-byte shape tag, so a record that reaches the wrong decoder (renamed
// file, family collision) fails the tag check instead of misparsing.
// Decoders return nullptr on any reader failure or semantic violation and
// never throw on untrusted bytes.
// ---------------------------------------------------------------------------

using support::ByteReader;
using support::ByteWriter;

constexpr std::uint8_t kTagLabeling = 0x4C;  // 'L': λ_ack LabelPlan
constexpr std::uint8_t kTagArb = 0x41;       // 'A': λ_arb LabelPlan
constexpr std::uint8_t kTagOneBit = 0x4F;    // 'O': OneBitPlan
constexpr std::uint8_t kTagColoring = 0x43;  // 'C': ColoringPlan
constexpr std::uint8_t kTagEmpty = 0x45;     // 'E': EmptyPlan
constexpr std::uint8_t kTagResult = 0x52;    // 'R': CompiledResult

/// A λ_ack or λ_arb plan as the paper ships it: one label per node plus the
/// scalars that name the construction.  The stage sets are never kept;
/// `rebuild_labeling` rebuilds them through the labeler for the one
/// consumer that reads them (b's Lemma 2.8 check).
struct LabelPlan final : Plan {
  std::vector<core::Label> labels;
  NodeId anchor = graph::kNoNode;  ///< λ_ack: the source; λ_arb: r
  NodeId z = graph::kNoNode;       ///< the last-informed node (label 001)
  std::uint32_t ell = 0;           ///< stage count (Lemma 2.6)
  core::DomPolicy policy = core::DomPolicy::kAscendingId;
  std::uint64_t seed = 0;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + labels.capacity() * sizeof(core::Label);
  }
};

/// `plan` as the LabelPlan it is; one with a different node count labels
/// another graph (a misaddressed record), a precondition violation.
const LabelPlan& label_plan(const Plan& plan, const Graph& g) {
  const auto& p = static_cast<const LabelPlan&>(plan);
  RC_EXPECTS_MSG(p.labels.size() == g.node_count(),
                 "plan labels a graph of another size");
  return p;
}

/// λ_ack with source `anchor`, or λ_arb with coordinator `anchor`.
PlanPtr make_label_plan(const Graph& g, NodeId anchor,
                        const SchemeOptions& opt, bool arb) {
  auto plan = std::make_shared<LabelPlan>();
  const auto take = [&](auto&& labeling) {
    plan->labels = std::move(labeling.labels);
    plan->z = labeling.z;
    plan->ell = labeling.stages.ell;
  };
  if (arb) {
    take(core::label_arbitrary(g, anchor, {opt.policy, opt.seed}));
  } else {
    take(core::label_acknowledged(g, anchor, {opt.policy, opt.seed}));
  }
  plan->anchor = anchor;
  plan->policy = opt.policy;
  plan->seed = opt.seed;
  return plan;
}

/// The λ_ack labeling behind `p`, stage sets included, rebuilt through the
/// labeler: the construction is deterministic in (graph, source, policy,
/// seed), and `test_labeling_golden` pins it.
core::Labeling rebuild_labeling(const Graph& g, const LabelPlan& p) {
  return core::label_acknowledged(g, p.anchor, {p.policy, p.seed});
}

/// True iff `p` is a labeling λ_ack (or, with `arb`, λ_arb) can produce:
/// ids below n, 1 ≤ ℓ ≤ n (Lemma 2.6), and labels in Fact 3.1's alphabet —
/// x3 at z alone, labeled 001, and λ_arb's 111 at the coordinator alone.
bool well_formed(const LabelPlan& p, bool arb) {
  const std::size_t n = p.labels.size();
  if (p.anchor >= n || p.z >= n || p.ell == 0 || p.ell > n) return false;
  // λ_ack's one-node case: z is the source, and nothing carries x3.
  if (n == 1) return !arb && p.labels[0] == core::Label{};
  if (p.z == p.anchor) return false;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint8_t value = p.labels[v].value();
    if (arb && v == p.anchor) {
      if (value != 0b111) return false;
    } else if (v == p.z) {
      if (value != 0b001) return false;
    } else if ((value & 1) != 0) {
      return false;  // x3 off z: 101, 111 or 011
    }
  }
  return true;
}

/// The packed LabelPlan payload, at most ⌈3n/8⌉ + 26 bytes:
///   tag | u32 n | u32 anchor | u32 z | u32 ℓ | u8 policy | u64 seed
///   | ⌈3n/8⌉ label bytes
/// Node v's `Label::value()` occupies bits 3v..3v+2 of the little-endian
/// bit stream; the pad bits after the last label are zero.
void encode_label_plan(std::uint8_t tag, const Plan& plan, ByteWriter& out) {
  const auto& p = static_cast<const LabelPlan&>(plan);
  out.u8(tag);
  out.u32(static_cast<std::uint32_t>(p.labels.size()));
  out.u32(p.anchor);
  out.u32(p.z);
  out.u32(p.ell);
  out.u8(static_cast<std::uint8_t>(p.policy));
  out.u64(p.seed);
  std::uint32_t bits = 0;
  int pending = 0;
  for (const core::Label& l : p.labels) {
    bits |= std::uint32_t{l.value()} << pending;
    pending += 3;
    if (pending >= 8) {
      out.u8(static_cast<std::uint8_t>(bits));
      bits >>= 8;
      pending -= 8;
    }
  }
  if (pending > 0) out.u8(static_cast<std::uint8_t>(bits));
}

/// Decodes `encode_label_plan` output that opens with `tag`, leaving any
/// bytes after the labels unread.
std::shared_ptr<LabelPlan> decode_label_plan(std::uint8_t tag, ByteReader& in) {
  if (in.u8() != tag || !in.ok()) return nullptr;
  auto plan = std::make_shared<LabelPlan>();
  const std::uint32_t n = in.u32();
  plan->anchor = in.u32();
  plan->z = in.u32();
  plan->ell = in.u32();
  const std::uint8_t policy = in.u8();
  plan->seed = in.u64();
  if (!in.ok() || n == 0 || (3ull * n + 7) / 8 > in.remaining() ||
      policy >= std::size(core::kAllDomPolicies)) {
    return nullptr;
  }
  plan->policy = static_cast<core::DomPolicy>(policy);
  plan->labels.resize(n);
  std::uint32_t bits = 0;
  int pending = 0;
  for (core::Label& l : plan->labels) {
    if (pending < 3) {
      bits |= std::uint32_t{in.u8()} << pending;
      pending += 8;
    }
    l = {(bits & 4) != 0, (bits & 2) != 0, (bits & 1) != 0};
    bits >>= 3;
    pending -= 3;
  }
  if (bits != 0 || !well_formed(*plan, tag == kTagArb)) return nullptr;
  return plan;
}

/// SchemeResult's fixed-width binary codec: the scalar observables in
/// declaration order.  Compiled results never carry multi's per-message
/// ack rounds, and the trace never persists.
void encode_result(const SchemeResult& r, ByteWriter& out) {
  RC_ASSERT(r.ack_rounds.empty());
  out.boolean(r.ok);
  out.boolean(r.all_informed);
  out.boolean(r.labeling_found);
  out.u64(r.rounds);
  out.u64(r.completion_round);
  out.u64(r.ack_round);
  out.u64(r.bound);
  out.u32(r.ell);
  out.u32(r.special);
  out.u64(r.max_stamp);
  out.u64(r.done_round);
  out.u64(r.T);
  out.u64(r.last_learned);
  out.u64(r.stay_count);
  out.u64(r.data_tx_count);
  out.u64(r.max_node_tx);
  out.u64(r.tx_total);
  out.u64(r.polls);
  out.u32(r.attempts);
  out.u32(r.ones);
  out.u32(r.label_bits);
  out.u64(r.rounds_per_message);
}

bool decode_result(ByteReader& in, SchemeResult& r) {
  r.ok = in.boolean();
  r.all_informed = in.boolean();
  r.labeling_found = in.boolean();
  r.rounds = in.u64();
  r.completion_round = in.u64();
  r.ack_round = in.u64();
  r.bound = in.u64();
  r.ell = in.u32();
  r.special = in.u32();
  r.max_stamp = in.u64();
  r.done_round = in.u64();
  r.T = in.u64();
  r.last_learned = in.u64();
  r.stay_count = in.u64();
  r.data_tx_count = in.u64();
  r.max_node_tx = in.u64();
  r.tx_total = in.u64();
  r.polls = in.u64();
  r.attempts = in.u32();
  r.ones = in.u32();
  r.label_bits = in.u32();
  r.rounds_per_message = in.u64();
  return in.ok();
}

/// A compiled b / ack / arb entry: the observables of the label-determined
/// execution, plus the plan and µ a kFull replay re-runs it from (on the
/// engine for b and ack, through B_arb's predictor for arb).  The
/// execution itself is never kept.
struct CompiledResult final : CompiledPlan {
  PlanPtr plan;
  std::uint32_t mu = 0;
  SchemeResult result;
  /// Decoded from a record: the plan is this entry's own copy, not the
  /// plan cache's.
  bool owns_plan = false;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + (owns_plan ? plan->footprint() : 0);
  }
};

std::shared_ptr<CompiledResult> compiled_result(const PlanPtr& plan,
                                                std::uint32_t mu) {
  auto out = std::make_shared<CompiledResult>();
  out->plan = plan;
  out->mu = mu;
  return out;
}

/// tx_total and max_node_tx of a predicted execution.
void count_transmissions(const core::CompiledExecution& exec, NodeId n,
                         SchemeResult& r) {
  std::vector<std::uint64_t> per_node(n, 0);
  for (const NodeId v : exec.transmitters) {
    r.max_node_tx = std::max(r.max_node_tx, ++per_node[v]);
  }
  r.tx_total = exec.transmitters.size();
}

/// The round cap of a compiled prediction: the engine path's budget.
std::uint64_t round_cap(const Graph& g, const ExecutionConfig& config,
                        std::uint64_t factor) {
  if (config.max_rounds != 0) return config.max_rounds;
  return core::default_round_budget(g.node_count(), factor);
}

/// Shared base of the schemes whose plan is a LabelPlan: the packed plan
/// codec, the result-only compiled codec, and the memo that compiles b and
/// ack.
class LabelPlanScheme : public Scheme {
 public:
  bool can_store_plans() const noexcept override { return true; }

  /// The labels determine the execution (Lemma 2.8, Theorem 3.9), so a
  /// compiled entry is the result of one fault-free engine run.  A replay
  /// polls no node.
  CompiledPlanPtr compile(const Graph& g, NodeId source, const PlanPtr& plan,
                          const SchemeOptions& opt,
                          const ExecutionConfig& config) const override {
    RC_EXPECTS_MSG(compiles(opt), "these options run on the engine");
    const auto cfg = engine_config(config, sim::TraceLevel::kCounters);
    auto out = compiled_result(plan, opt.mu);
    out->result = run_with_plan(*this, g, source, plan, opt, cfg);
    out->result.polls = 0;
    return out;
  }

  /// The cached result; at kFull with the trace of one engine run on the
  /// entry's plan and µ.
  SchemeResult replay(const Graph& g, NodeId source,
                      const CompiledPlan& compiled,
                      const ExecutionConfig& config) const override {
    const auto& c = static_cast<const CompiledResult&>(compiled);
    SchemeResult out = c.result;
    if (config.trace == sim::TraceLevel::kFull) {
      SchemeOptions opt;
      opt.mu = c.mu;
      const auto cfg = engine_config(config, sim::TraceLevel::kFull);
      out.trace = run_with_plan(*this, g, source, c.plan, opt, cfg).trace;
    }
    return out;
  }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_label_plan(tag(), plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    PlanPtr plan = decode_label_plan(tag(), in);
    return in.exhausted() ? plan : nullptr;
  }

  /// tag | LabelPlan payload | u32 µ | fixed-width SchemeResult.
  void encode_compiled(const CompiledPlan& compiled,
                       ByteWriter& out) const override {
    const auto& c = static_cast<const CompiledResult&>(compiled);
    out.u8(kTagResult);
    encode_label_plan(tag(), *c.plan, out);
    out.u32(c.mu);
    encode_result(c.result, out);
  }
  CompiledPlanPtr decode_compiled(ByteReader& in) const override {
    if (in.u8() != kTagResult || !in.ok()) return nullptr;
    auto out = std::make_shared<CompiledResult>();
    out->plan = decode_label_plan(tag(), in);
    out->owns_plan = true;
    out->mu = in.u32();
    if (out->plan == nullptr || !decode_result(in, out->result) ||
        !in.exhausted()) {
      return nullptr;
    }
    return out;
  }

 protected:
  virtual std::uint8_t tag() const noexcept { return kTagLabeling; }

 private:
  /// `config` for the memo's engine runs: not compiled (else `compile`
  /// would recurse) and fault-free (the model a compiled entry answers).
  static ExecutionConfig engine_config(ExecutionConfig config,
                                       sim::TraceLevel trace) {
    config.compiled = false;
    config.faults = {};
    config.trace = trace;
    return config;
  }
};

/// The λ_ack family: one λ_ack construction serves B, B_ack, common-round
/// and multi.  λ_ack is λ plus x3 at z, where x1 = x2 = 0 (Fact 3.1), and B
/// reads only x1 and x2, so B runs on the shared plan unchanged.
class AckFamilyScheme : public LabelPlanScheme {
 public:
  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    return make_label_plan(g, source, opt, false);
  }
};

// ---------------------------------------------------------------------------
// λ_ack schemes: B, B_ack, common-round
// ---------------------------------------------------------------------------

/// Algorithm B (Theorem 2.9): 2-bit labels, known source.
class BScheme final : public AckFamilyScheme {
 public:
  std::string_view name() const noexcept override { return "b"; }
  std::string_view description() const noexcept override {
    return "Algorithm B: 2-bit labels, broadcast from a known source "
           "(Theorem 2.9)";
  }
  bool can_compile() const noexcept override { return true; }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    const LabelPlan& p = label_plan(plan, g);
    return core::make_broadcast_protocols(p.labels, p.anchor, opt.mu);
  }

  std::unique_ptr<sim::Population> make_population(
      const Graph& g, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    const LabelPlan& p = label_plan(plan, g);
    return std::make_unique<core::BroadcastPopulation>(p.labels, p.anchor,
                                                       opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 4);
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    if (g.node_count() != 1) return false;
    out.ok = out.all_informed = true;
    out.ell = label_plan(plan, g).ell;
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId, const Plan& plan,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.bound = theorem_bound(g.node_count());
    out.ell = label_plan(plan, g).ell;
    out.label_bits = 2;
    out.stay_count = e.transmissions(sim::MsgKind::kStay);
    out.data_tx_count = e.transmissions(sim::MsgKind::kData);
  }

  /// Lemma 2.8 against the stage sets rebuilt from the plan.
  std::string verify(const Graph& g, NodeId, const Plan& plan,
                     const sim::Trace& trace) const override {
    const LabelPlan& p = label_plan(plan, g);
    const core::Labeling labeling = rebuild_labeling(g, p);
    if (labeling.labels != p.labels) {
      return "plan labels differ from the labeler's output";
    }
    return core::verify_lemma_2_8(g, labeling, trace);
  }
};

/// Algorithm B_ack (Theorem 3.9): 3-bit labels, z-initiated ack chain.
class AckScheme final : public AckFamilyScheme {
 public:
  std::string_view name() const noexcept override { return "ack"; }
  std::string_view description() const noexcept override {
    return "Algorithm B_ack: 3-bit labels, acknowledged broadcast "
           "(Theorem 3.9)";
  }
  bool can_compile() const noexcept override { return true; }
  /// Resilient retries are for lossy runs, which a compiled entry (one
  /// fault-free run) does not model; they run on the engine.
  bool compiles(const SchemeOptions& opt) const noexcept override {
    return !opt.resilient;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    const LabelPlan& p = label_plan(plan, g);
    return core::make_ack_protocols(p.labels, p.anchor, opt.mu, opt.resilient);
  }

  /// Resilient retries stay per-node (AckBroadcastProtocol).
  std::unique_ptr<sim::Population> make_population(
      const Graph& g, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    if (opt.resilient) return nullptr;
    const LabelPlan& p = label_plan(plan, g);
    return std::make_unique<core::AckPopulation>(p.labels, p.anchor, opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), kBudgetFactor);
  }

  bool done(const sim::Engine& e, NodeId source,
            const SchemeOptions&) const override {
    return ack_round(e, source) != 0;
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    if (g.node_count() != 1) return false;
    const LabelPlan& p = label_plan(plan, g);
    out.ok = out.all_informed = true;
    out.ell = p.ell;
    out.special = p.z;
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId source,
               const Plan& plan, const SchemeOptions&,
               const ExecutionConfig&, SchemeResult& out) const override {
    const LabelPlan& p = label_plan(plan, g);
    out.completion_round = e.last_first_data_reception();
    out.ack_round = ack_round(e, source);
    out.ok = out.all_informed && out.ack_round != 0;
    out.bound = theorem_bound(g.node_count());
    out.ell = p.ell;
    out.special = p.z;
    out.max_stamp = e.max_stamp_seen();
    out.label_bits = 3;
  }

 private:
  static constexpr std::uint64_t kBudgetFactor = 6;

  /// The source's first ack round, from either kind of engine.
  static std::uint64_t ack_round(const sim::Engine& e, NodeId source) {
    if (const auto* p = flat<core::AckPopulation>(e)) return p->ack_round();
    return protocol_at<core::AckBroadcastProtocol>(e, source).ack_round();
  }
};

/// §3 closing construction: all nodes agree on the common round 2m.
class CommonRoundScheme final : public AckFamilyScheme {
 public:
  std::string_view name() const noexcept override { return "common-round"; }
  std::string_view description() const noexcept override {
    return "Common-completion-round construction on top of B_ack (paper §3)";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    RC_EXPECTS_MSG(g.node_count() >= 2,
                   "common-round needs at least two nodes");
    return AckFamilyScheme::label(g, source, opt);
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    const LabelPlan& p = label_plan(plan, g);
    return core::make_common_round_protocols(p.labels, p.anchor, opt.mu);
  }

  std::unique_ptr<sim::Population> make_population(
      const Graph& g, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    const LabelPlan& p = label_plan(plan, g);
    return std::make_unique<core::CommonRoundPopulation>(p.labels, p.anchor,
                                                         opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 10);
  }

  bool done(const sim::Engine& e, NodeId,
            const SchemeOptions&) const override {
    if (const auto* p = flat<core::CommonRoundPopulation>(e)) {
      return p->done();
    }
    const Protocols nodes{e};
    for (NodeId v = 0; v < e.graph().node_count(); ++v) {
      if (nodes.knows_done_at(v) == 0) return false;
    }
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId source,
               const Plan&, const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 3;
    if (const auto* p = flat<core::CommonRoundPopulation>(e)) {
      collect_nodes(*p, g.node_count(), source, out);
    } else {
      collect_nodes(Protocols{e}, g.node_count(), source, out);
    }
  }

 private:
  /// The per-node reference protocols, observed like the population.
  struct Protocols {
    const sim::Engine& e;
    std::uint64_t knows_done_at(NodeId v) const {
      return protocol_at<core::CommonRoundProtocol>(e, v).knows_done_at();
    }
    std::uint64_t learned_m_stamp(NodeId v) const {
      return protocol_at<core::CommonRoundProtocol>(e, v).learned_m_stamp();
    }
  };

  template <typename Nodes>
  static void collect_nodes(const Nodes& nodes, NodeId n, NodeId source,
                            SchemeResult& out) {
    out.done_round = nodes.knows_done_at(source);
    out.T = out.done_round / 2;  // m
    bool ok = out.done_round != 0;
    for (NodeId v = 0; v < n && ok; ++v) {
      ok = nodes.knows_done_at(v) == out.done_round &&
           nodes.learned_m_stamp(v) < out.done_round;
      out.last_learned = std::max(out.last_learned, nodes.learned_m_stamp(v));
    }
    out.ok = ok;
  }
};

// ---------------------------------------------------------------------------
// B_arb: source unknown at labeling time
// ---------------------------------------------------------------------------

class ArbScheme final : public LabelPlanScheme {
 public:
  std::string_view name() const noexcept override { return "arb"; }
  std::string_view description() const noexcept override {
    return "Algorithm B_arb: 3-bit labels, source unknown at labeling time "
           "(paper §4)";
  }
  bool can_compile() const noexcept override { return true; }

  /// λ_arb depends on the coordinator, not the (unknown) source — the
  /// paper's whole point — so every source on a graph shares one plan.
  std::string plan_key(NodeId, const SchemeOptions& opt) const override {
    std::string key = "r";
    key += std::to_string(opt.coordinator);
    key += "|p";
    key += std::to_string(static_cast<int>(opt.policy));
    key += "|s";
    key += std::to_string(opt.seed);
    return key;
  }

  PlanPtr label(const Graph& g, NodeId,
                const SchemeOptions& opt) const override {
    RC_EXPECTS_MSG(g.node_count() >= 2, "B_arb needs at least two nodes");
    return make_label_plan(g, opt.coordinator, opt, true);
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_arb_protocols(label_plan(plan, g).labels, source, opt.mu);
  }

  std::unique_ptr<sim::Population> make_population(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    return std::make_unique<core::ArbPopulation>(label_plan(plan, g).labels,
                                                 source, opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), kBudgetFactor);
  }

  bool done(const sim::Engine& e, NodeId,
            const SchemeOptions&) const override {
    if (const auto* p = flat<core::ArbPopulation>(e)) return p->done();
    // ArbProtocol::informed() is "knows µ", the first conjunct below, so
    // the engine's amortized O(1) check rejects most rounds exactly.
    if (!e.all_informed()) return false;
    for (NodeId v = 0; v < e.graph().node_count(); ++v) {
      const auto& p = protocol_at<core::ArbProtocol>(e, v);
      if (!p.mu() || p.done_round() == 0) return false;
    }
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId,
               const Plan& plan, const SchemeOptions& opt,
               const ExecutionConfig&, SchemeResult& out) const override {
    out.special = label_plan(plan, g).anchor;
    out.completion_round = e.last_first_data_reception();
    out.max_stamp = e.max_stamp_seen();
    out.label_bits = 3;
    if (const auto* p = flat<core::ArbPopulation>(e)) {
      collect_nodes(*p, g.node_count(), opt.mu, out);
    } else {
      collect_nodes(Protocols{e}, g.node_count(), opt.mu, out);
    }
  }

  CompiledPlanPtr compile(const Graph& g, NodeId source, const PlanPtr& plan,
                          const SchemeOptions& opt,
                          const ExecutionConfig& config) const override;
  SchemeResult replay(const Graph& g, NodeId source,
                      const CompiledPlan& compiled,
                      const ExecutionConfig& config) const override;

 protected:
  std::uint8_t tag() const noexcept override { return kTagArb; }

 private:
  static constexpr std::uint64_t kBudgetFactor = 16;

  /// The per-node reference protocols, observed like the population.
  struct Protocols {
    const sim::Engine& e;
    const core::ArbProtocol& at(NodeId v) const {
      return protocol_at<core::ArbProtocol>(e, v);
    }
    std::optional<std::uint32_t> mu(NodeId v) const { return at(v).mu(); }
    std::uint64_t done_round(NodeId v) const { return at(v).done_round(); }
    std::uint64_t T(NodeId v) const { return at(v).T(); }
    bool is_coordinator(NodeId v) const { return at(v).is_coordinator(); }
  };

  template <typename Nodes>
  static void collect_nodes(const Nodes& nodes, NodeId n, std::uint32_t mu,
                            SchemeResult& out) {
    bool ok = true;
    std::uint64_t done = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto node_mu = nodes.mu(v);
      const std::uint64_t node_done = nodes.done_round(v);
      if (!node_mu || *node_mu != mu || node_done == 0) {
        ok = false;
        break;
      }
      if (done == 0) done = node_done;
      if (node_done != done) {
        ok = false;
        break;
      }
      if (nodes.is_coordinator(v)) out.T = nodes.T(v);
    }
    out.ok = ok;
    out.done_round = done;
  }
};

CompiledPlanPtr ArbScheme::compile(const Graph& g, NodeId source,
                                   const PlanPtr& plan,
                                   const SchemeOptions& opt,
                                   const ExecutionConfig& config) const {
  const LabelPlan& p = label_plan(*plan, g);
  auto out = compiled_result(plan, opt.mu);
  SchemeResult& r = out->result;
  const core::CompiledArbRunner runner(g, p.labels, p.anchor, source, opt.mu,
                                       config.backend,
                                       round_cap(g, config, kBudgetFactor));
  const auto& prediction = runner.prediction();
  r.ok = r.all_informed = prediction.ok;
  r.rounds = prediction.total_rounds;
  r.done_round = prediction.done_round;
  r.T = prediction.T;
  r.special = p.anchor;
  r.label_bits = 3;
  count_transmissions(runner.execution(), g.node_count(), r);
  return out;
}

SchemeResult ArbScheme::replay(const Graph& g, NodeId source,
                               const CompiledPlan& compiled,
                               const ExecutionConfig& config) const {
  const auto& c = static_cast<const CompiledResult&>(compiled);
  SchemeResult out = c.result;
  if (config.trace == sim::TraceLevel::kFull) {
    const LabelPlan& p = label_plan(*c.plan, g);
    core::CompiledArbRunner runner(g, p.labels, p.anchor, source, c.mu,
                                   config.backend,
                                   round_cap(g, config, kBudgetFactor));
    out.trace = runner.run(sim::TraceLevel::kFull).trace;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Multi-message acknowledged sessions (§1.2)
// ---------------------------------------------------------------------------

class MultiScheme final : public AckFamilyScheme {
 public:
  std::string_view name() const noexcept override { return "multi"; }
  std::string_view description() const noexcept override {
    return "Consecutive acknowledged broadcasts over one λ_ack labeling "
           "(paper §1.2)";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    RC_EXPECTS(g.node_count() >= 2);
    return AckFamilyScheme::label(g, source, opt);
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const LabelPlan& p = label_plan(plan, g);
    const auto payloads = multi_schedule(opt);
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<core::MultiMessageProtocol>(
          p.labels[v], v == source ? payloads : std::vector<std::uint32_t>{}));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions& opt) const override {
    return (6ull * g.node_count() + 16) * multi_schedule(opt).size();
  }

  bool done(const sim::Engine& e, NodeId source,
            const SchemeOptions& opt) const override {
    const auto& src = dynamic_cast<const core::MultiMessageProtocol&>(
        e.protocol(source));
    return src.ack_rounds().size() == multi_schedule(opt).size();
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId source,
               const Plan&, const SchemeOptions& opt,
               const ExecutionConfig&, SchemeResult& out) const override {
    const auto payloads = multi_schedule(opt);
    const auto& src = dynamic_cast<const core::MultiMessageProtocol&>(
        e.protocol(source));
    out.ack_rounds = src.ack_rounds();
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 3;
    bool ok = out.ack_rounds.size() == payloads.size();
    for (NodeId v = 0; v < g.node_count() && ok; ++v) {
      const auto& p = dynamic_cast<const core::MultiMessageProtocol&>(
          e.protocol(v));
      ok = p.received() == payloads;
    }
    out.ok = ok;
    if (ok && out.ack_rounds.size() >= 2) {
      out.rounds_per_message = out.ack_rounds[1] - out.ack_rounds[0];
    } else if (ok) {
      out.rounds_per_message = out.ack_rounds[0];
    }
  }
};

// ---------------------------------------------------------------------------
// One-bit schemes (§5 conclusion)
// ---------------------------------------------------------------------------

struct OneBitPlan final : Plan {
  onebit::OneBitResult search;
  NodeId z = graph::kNoNode;  ///< acknowledged variant only

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + search.bits.size() / 8;
  }
};

onebit::OneBitOptions onebit_options(const SchemeOptions& opt) {
  onebit::OneBitOptions out;
  out.max_attempts = opt.max_attempts;
  out.seed = opt.seed;
  out.max_stages = opt.max_stages;
  return out;
}

std::uint32_t count_ones(const std::vector<bool>& bits) {
  std::uint32_t ones = 0;
  for (const bool b : bits) ones += b ? 1u : 0u;
  return ones;
}

/// Shared base: the randomized one-bit labeling search as the plan.
class OneBitSchemeBase : public Scheme {
 public:
  bool can_store_plans() const noexcept override { return true; }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    out.u8(kTagOneBit);
    out.boolean(p.search.ok);
    out.vec_bool(p.search.bits);
    out.u32(p.search.attempts);
    out.u64(p.search.completion_round);
    out.u32(p.search.stages);
    out.u32(p.z);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagOneBit || !in.ok()) return nullptr;
    auto plan = std::make_shared<OneBitPlan>();
    plan->search.ok = in.boolean();
    plan->search.bits = in.vec_bool();
    plan->search.attempts = in.u32();
    plan->search.completion_round = in.u64();
    plan->search.stages = in.u32();
    plan->z = in.u32();
    if (!in.ok()) return nullptr;
    if (plan->search.ok && plan->z != graph::kNoNode &&
        plan->z >= plan->search.bits.size()) {
      return nullptr;
    }
    return plan;
  }

  std::string plan_key(NodeId source,
                       const SchemeOptions& opt) const override {
    std::string key = "src";
    key += std::to_string(source);
    key += "|s";
    key += std::to_string(opt.seed);
    key += "|a";
    key += std::to_string(opt.max_attempts);
    key += "|g";
    key += std::to_string(opt.max_stages);
    return key;
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    out.attempts = p.search.attempts;
    if (!p.search.ok) {
      out.labeling_found = false;
      return true;
    }
    out.ones = count_ones(p.search.bits);
    if (g.node_count() == 1) {
      out.ok = out.all_informed = true;
      return true;
    }
    return false;
  }
};

/// B1: algorithm B with x1 = x2 = the bit.
class OneBitScheme final : public OneBitSchemeBase {
 public:
  std::string_view name() const noexcept override { return "onebit"; }
  std::string_view description() const noexcept override {
    return "One-bit labeling under B1 (x1 = x2 = bit), engine-validated "
           "(paper §5)";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    auto plan = std::make_shared<OneBitPlan>();
    plan->search = onebit::find_onebit_labeling(g, source,
                                                onebit_options(opt));
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& bits = static_cast<const OneBitPlan&>(plan).search.bits;
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const core::Label label{bits[v], bits[v], false};
      out.push_back(std::make_unique<core::BroadcastProtocol>(
          label, v == source ? std::optional<std::uint32_t>(opt.mu)
                             : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 4ull * g.node_count() + 16;
  }

  void collect(const sim::Engine& e, const Graph&, NodeId, const Plan& plan,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.attempts = static_cast<const OneBitPlan&>(plan).search.attempts;
    out.ones = count_ones(static_cast<const OneBitPlan&>(plan).search.bits);
    out.label_bits = 1;
  }
};

/// One-bit + z marker (3 label values): acknowledged broadcast.
class OneBitAckScheme final : public OneBitSchemeBase {
 public:
  std::string_view name() const noexcept override { return "onebit-ack"; }
  std::string_view description() const noexcept override {
    return "One-bit labeling plus z marker: acknowledged broadcast with 3 "
           "label values";
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    auto plan = std::make_shared<OneBitPlan>();
    plan->search = onebit::find_onebit_labeling(g, source,
                                                onebit_options(opt));
    if (plan->search.ok && g.node_count() > 1) {
      plan->z = onebit::last_informed_node(g, source, plan->search.bits);
      RC_ASSERT_MSG(!plan->search.bits[plan->z],
                    "last-informed node must carry bit 0");
    }
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const core::Label label{p.search.bits[v], p.search.bits[v], v == p.z};
      out.push_back(std::make_unique<core::AckBroadcastProtocol>(
          label, v == source ? std::optional<std::uint32_t>(opt.mu)
                             : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 6ull * g.node_count() + 16;
  }

  bool done(const sim::Engine& e, NodeId source,
            const SchemeOptions&) const override {
    return dynamic_cast<const core::AckBroadcastProtocol&>(
               e.protocol(source))
               .ack_round() != 0;
  }

  void collect(const sim::Engine& e, const Graph&, NodeId source,
               const Plan& plan, const SchemeOptions&,
               const ExecutionConfig&, SchemeResult& out) const override {
    const auto& p = static_cast<const OneBitPlan&>(plan);
    out.ack_round = dynamic_cast<const core::AckBroadcastProtocol&>(
                        e.protocol(source))
                        .ack_round();
    out.ok = out.all_informed && out.ack_round != 0;
    out.completion_round = e.last_first_data_reception();
    out.attempts = p.search.attempts;
    out.ones = count_ones(p.search.bits);
    out.special = p.z;
    out.label_bits = 2;  // 3 label values
  }
};

// ---------------------------------------------------------------------------
// Baselines (§1): round-robin, color-robin, decay, beep
// ---------------------------------------------------------------------------

struct EmptyPlan final : Plan {};

/// Shared base of the label-free schemes (round-robin, decay, beep): the
/// plan is empty, so one plan serves every spec on a graph, and its record
/// is the bare tag.
class LabelFreeScheme : public Scheme {
 public:
  std::string plan_key(NodeId, const SchemeOptions&) const override {
    return {};
  }
  bool can_store_plans() const noexcept override { return true; }
  void encode_plan(const Plan&, ByteWriter& out) const override {
    out.u8(kTagEmpty);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagEmpty || !in.ok()) return nullptr;
    return std::make_shared<EmptyPlan>();
  }
  PlanPtr label(const Graph&, NodeId, const SchemeOptions&) const override {
    return std::make_shared<EmptyPlan>();
  }
};

struct ColoringPlan final : Plan {
  graph::Coloring coloring;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + coloring.color.size() * sizeof(std::uint32_t);
  }
};

/// The ids are the node ids, so the plan is empty.
class RoundRobinScheme final : public LabelFreeScheme {
 public:
  std::string_view name() const noexcept override { return "round-robin"; }
  std::string_view description() const noexcept override {
    return "Round-robin over unique ids: Θ(log n)-bit labels, "
           "collision-free (paper §1)";
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan&,
      const SchemeOptions& opt) const override {
    const std::uint32_t n = g.node_count();
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      out.push_back(std::make_unique<baselines::RoundRobinProtocol>(
          v, n,
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 2ull * g.node_count() * g.node_count() + 16;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId, const Plan&,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 2 * bits_for(g.node_count());
  }
};

class ColorRobinScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "color-robin"; }
  std::string_view description() const noexcept override {
    return "Round-robin over a proper G² coloring: Θ(log Δ)-bit labels "
           "(paper §1)";
  }
  std::string plan_key(NodeId, const SchemeOptions&) const override {
    return {};  // the coloring only depends on the graph
  }
  bool can_store_plans() const noexcept override { return true; }
  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    const auto& p = static_cast<const ColoringPlan&>(plan);
    out.u8(kTagColoring);
    out.vec_u32(p.coloring.color);
    out.u32(p.coloring.count);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagColoring || !in.ok()) return nullptr;
    auto plan = std::make_shared<ColoringPlan>();
    plan->coloring.color = in.vec_u32();
    plan->coloring.count = in.u32();
    if (!in.ok()) return nullptr;
    for (const std::uint32_t c : plan->coloring.color) {
      if (c >= plan->coloring.count) return nullptr;
    }
    return plan;
  }

  PlanPtr label(const Graph& g, NodeId, const SchemeOptions&) const override {
    auto plan = std::make_shared<ColoringPlan>();
    plan->coloring = graph::square_coloring(g);
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& coloring = static_cast<const ColoringPlan&>(plan).coloring;
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<baselines::ColorRobinProtocol>(
          coloring.color[v], coloring.count,
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan& plan,
                             const SchemeOptions&) const override {
    const auto& coloring = static_cast<const ColoringPlan&>(plan).coloring;
    return static_cast<std::uint64_t>(coloring.count) *
               (g.node_count() + 2) +
           16;
  }

  void collect(const sim::Engine& e, const Graph&, NodeId, const Plan& plan,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.label_bits =
        2 * bits_for(static_cast<const ColoringPlan&>(plan).coloring.count);
  }
};

/// The seed parameterizes the protocols, not a plan.
class DecayScheme final : public LabelFreeScheme {
 public:
  std::string_view name() const noexcept override { return "decay"; }
  std::string_view description() const noexcept override {
    return "BGI Decay: randomized label-free baseline that knows n "
           "(paper §1)";
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan&,
      const SchemeOptions& opt) const override {
    Rng master(opt.seed);
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<baselines::DecayProtocol>(
          g.node_count(), master.next(),
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return 64ull * (g.node_count() + 16);
  }

  void collect(const sim::Engine& e, const Graph&, NodeId, const Plan&,
               const SchemeOptions&, const ExecutionConfig&,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.label_bits = 0;
  }
};

/// Anonymous: no labeling at all.
class BeepScheme final : public LabelFreeScheme {
 public:
  std::string_view name() const noexcept override { return "beep"; }
  std::string_view description() const noexcept override {
    return "Anonymous bit-by-bit broadcast under collision detection "
           "(paper §1.1)";
  }
  bool needs_collision_detection() const noexcept override { return true; }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan&,
      const SchemeOptions& opt) const override {
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<baselines::BeepBroadcastProtocol>(
          opt.frame_bits,
          v == source ? std::optional<std::uint32_t>(opt.mu) : std::nullopt));
    }
    return out;
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions& opt) const override {
    return (static_cast<std::uint64_t>(opt.frame_bits) + 2) *
           (g.node_count() + 2);
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId, const Plan&,
               const SchemeOptions& opt, const ExecutionConfig&,
               SchemeResult& out) const override {
    bool ok = out.all_informed;
    for (NodeId v = 0; v < g.node_count() && ok; ++v) {
      const auto& p = dynamic_cast<const baselines::BeepBroadcastProtocol&>(
          e.protocol(v));
      ok = p.decoded().has_value() && *p.decoded() == opt.mu;
    }
    out.ok = ok;
    // The round count, not the last first-data reception: decoding
    // finishes after the last beep.
    out.completion_round = e.round();
    out.label_bits = 0;
  }
};

}  // namespace

namespace detail {

void register_builtin_schemes(SchemeRegistry& registry) {
  registry.add(std::make_unique<BScheme>());
  registry.add(std::make_unique<AckScheme>());
  registry.add(std::make_unique<CommonRoundScheme>());
  registry.add(std::make_unique<ArbScheme>());
  registry.add(std::make_unique<MultiScheme>());
  registry.add(std::make_unique<OneBitScheme>());
  registry.add(std::make_unique<OneBitAckScheme>());
  registry.add(std::make_unique<RoundRobinScheme>());
  registry.add(std::make_unique<ColorRobinScheme>());
  registry.add(std::make_unique<DecayScheme>());
  registry.add(std::make_unique<BeepScheme>());
}

}  // namespace detail

}  // namespace radiocast::runtime
