/// \file schemes.cpp
/// \brief The built-in scheme registrations: the paper's algorithms (B,
///        B_ack, common-round, B_arb, multi-message, one-bit) and the §1
///        comparison baselines (round-robin, color-robin, decay, beep),
///        each expressed once through the `runtime::Scheme` interface.
#include <algorithm>
#include <bit>
#include <optional>

#include "baselines/baselines.hpp"
#include "baselines/beep.hpp"
#include "core/compiled_schedule.hpp"
#include "core/multi.hpp"
#include "core/population.hpp"
#include "core/protocols.hpp"
#include "core/runner.hpp"
#include "core/verifier.hpp"
#include "graph/coloring.hpp"
#include "onebit/labeler.hpp"
#include "onebit/runner.hpp"
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
// file, family collision) fails the tag check instead of misparsing.  The
// struct-level helpers below are shared by every scheme whose plan embeds
// that struct; decoders return false on any reader failure or semantic
// violation and never throw on untrusted bytes.
// ---------------------------------------------------------------------------

using support::ByteReader;
using support::ByteWriter;

constexpr std::uint8_t kTagLabeling = 0x4C;  // 'L': LabelingPlan
constexpr std::uint8_t kTagArb = 0x41;       // 'A': ArbPlan
constexpr std::uint8_t kTagOneBit = 0x4F;    // 'O': OneBitPlan
constexpr std::uint8_t kTagColoring = 0x43;  // 'C': ColoringPlan
constexpr std::uint8_t kTagEmpty = 0x45;     // 'E': EmptyPlan
constexpr std::uint8_t kTagBReplay = 0x42;   // 'B': BCompiledPlan
constexpr std::uint8_t kTagExec = 0x58;      // 'X': ExecCompiledPlan

void encode_labels(const std::vector<core::Label>& labels, ByteWriter& out) {
  out.u64(labels.size());
  for (const core::Label& l : labels) out.u8(l.value());
}

bool decode_labels(ByteReader& in, std::vector<core::Label>& out) {
  const std::uint64_t count = in.u64();
  if (!in.ok() || count > in.remaining()) return false;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t v = in.u8();
    if (v > 7) return false;
    out.push_back({(v & 4) != 0, (v & 2) != 0, (v & 1) != 0});
  }
  return in.ok();
}

void encode_node_sets(const std::vector<std::vector<NodeId>>& sets,
                      ByteWriter& out) {
  out.u64(sets.size());
  for (const auto& set : sets) out.vec_u32(set);
}

bool decode_node_sets(ByteReader& in,
                      std::vector<std::vector<NodeId>>& out) {
  const std::uint64_t count = in.u64();
  if (!in.ok() || count > in.remaining()) return false;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(in.vec_u32());
    if (!in.ok()) return false;
  }
  return true;
}

void encode_stage_sets(const core::StageSets& s, ByteWriter& out) {
  encode_node_sets(s.dom, out);
  encode_node_sets(s.fresh, out);
  encode_node_sets(s.frontier, out);
  out.u32(s.ell);
  out.vec_u32(s.stage_of);
  out.u32(s.source);
}

bool decode_stage_sets(ByteReader& in, core::StageSets& out) {
  if (!decode_node_sets(in, out.dom)) return false;
  if (!decode_node_sets(in, out.fresh)) return false;
  if (!decode_node_sets(in, out.frontier)) return false;
  out.ell = in.u32();
  out.stage_of = in.vec_u32();
  out.source = in.u32();
  return in.ok() && out.dom.size() == out.fresh.size() &&
         out.dom.size() == out.frontier.size();
}

void encode_labeling(const core::Labeling& l, ByteWriter& out) {
  encode_labels(l.labels, out);
  encode_stage_sets(l.stages, out);
  out.u32(l.source);
  out.u32(l.z);
}

bool decode_labeling(ByteReader& in, core::Labeling& out) {
  if (!decode_labels(in, out.labels)) return false;
  if (!decode_stage_sets(in, out.stages)) return false;
  out.source = in.u32();
  out.z = in.u32();
  return in.ok() && out.labels.size() == out.stages.stage_of.size();
}

std::size_t node_sets_bytes(const std::vector<std::vector<NodeId>>& sets) {
  std::size_t bytes = sets.size() * sizeof(std::vector<NodeId>);
  for (const auto& set : sets) bytes += set.size() * sizeof(NodeId);
  return bytes;
}

std::size_t labeling_bytes(const core::Labeling& l) {
  return l.labels.size() * sizeof(core::Label) +
         node_sets_bytes(l.stages.dom) + node_sets_bytes(l.stages.fresh) +
         node_sets_bytes(l.stages.frontier) +
         l.stages.stage_of.size() * sizeof(std::uint32_t);
}

/// SchemeResult binary codec (counters only; the trace never persists).
/// Field order matches the struct declaration.
void encode_result(const SchemeResult& r, ByteWriter& out) {
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
  out.vec_u64(r.ack_rounds);
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
  r.ack_rounds = in.vec_u64();
  r.rounds_per_message = in.u64();
  return in.ok();
}

void encode_execution(const core::CompiledExecution& e, ByteWriter& out) {
  out.u64(e.rounds);
  out.vec_u32(e.offsets);
  out.vec_u32(e.transmitters);
  out.u64(e.messages.size());
  for (const sim::Message& m : e.messages) {
    out.u8(static_cast<std::uint8_t>(m.kind));
    out.u8(m.phase);
    out.u32(m.payload);
    out.boolean(m.stamp.has_value());
    if (m.stamp) out.u64(*m.stamp);
  }
}

bool decode_execution(ByteReader& in, core::CompiledExecution& e) {
  e.rounds = in.u64();
  e.offsets = in.vec_u32();
  e.transmitters = in.vec_u32();
  const std::uint64_t count = in.u64();
  if (!in.ok() || count > in.remaining()) return false;
  e.messages.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    sim::Message m;
    const std::uint8_t kind = in.u8();
    if (kind > static_cast<std::uint8_t>(sim::MsgKind::kReady)) return false;
    m.kind = static_cast<sim::MsgKind>(kind);
    m.phase = in.u8();
    m.payload = in.u32();
    if (in.boolean()) m.stamp = in.u64();
    e.messages.push_back(m);
  }
  // Shape invariants the replay path indexes by: offsets bracket every
  // round, and the flat arrays are parallel.
  if (!in.ok() || e.offsets.size() != e.rounds + 1) return false;
  if (e.messages.size() != e.transmitters.size()) return false;
  if (!e.offsets.empty() &&
      (e.offsets.front() != 0 || e.offsets.back() != e.transmitters.size())) {
    return false;
  }
  for (std::size_t i = 1; i < e.offsets.size(); ++i) {
    if (e.offsets[i - 1] > e.offsets[i]) return false;
  }
  return true;
}

std::size_t execution_bytes(const core::CompiledExecution& e) {
  return e.offsets.size() * sizeof(std::uint32_t) +
         e.transmitters.size() * sizeof(NodeId) +
         e.messages.size() * sizeof(sim::Message);
}

// ---------------------------------------------------------------------------
// λ_ack schemes: B, B_ack, common-round (one λ_ack labeling as the plan)
// ---------------------------------------------------------------------------

struct LabelingPlan final : Plan {
  core::Labeling labeling;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + labeling_bytes(labeling);
  }
};

void encode_labeling_plan(const Plan& plan, ByteWriter& out) {
  out.u8(kTagLabeling);
  encode_labeling(static_cast<const LabelingPlan&>(plan).labeling, out);
}

PlanPtr decode_labeling_plan(ByteReader& in) {
  if (in.u8() != kTagLabeling || !in.ok()) return nullptr;
  auto plan = std::make_shared<LabelingPlan>();
  if (!decode_labeling(in, plan->labeling)) return nullptr;
  return plan;
}

/// Algorithm B (Theorem 2.9): 2-bit labels, known source.
class BScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "b"; }
  std::string_view description() const noexcept override {
    return "Algorithm B: 2-bit labels, broadcast from a known source "
           "(Theorem 2.9)";
  }
  bool can_compile() const noexcept override { return true; }
  bool can_store_plans() const noexcept override { return true; }

  /// λ_ack is λ plus x3 at z, where x1 = x2 = 0 (Fact 3.1), and B reads
  /// only x1 and x2: B runs on the shared λ_ack plan unchanged.
  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_labeling_plan(plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    return decode_labeling_plan(in);
  }
  void encode_compiled(const CompiledPlan& compiled,
                       ByteWriter& out) const override;
  CompiledPlanPtr decode_compiled(ByteReader& in) const override;

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    auto plan = std::make_shared<LabelingPlan>();
    plan->labeling =
        core::label_acknowledged(g, source, {opt.policy, opt.seed});
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_broadcast_protocols(
        static_cast<const LabelingPlan&>(plan).labeling, opt.mu);
  }

  std::unique_ptr<sim::Population> make_population(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return std::make_unique<core::BroadcastPopulation>(
        static_cast<const LabelingPlan&>(plan).labeling, opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 4);
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    if (g.node_count() != 1) return false;
    out.ok = out.all_informed = true;
    out.ell = static_cast<const LabelingPlan&>(plan).labeling.stages.ell;
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId, const Plan& plan,
               const SchemeOptions&, const ExecutionConfig& config,
               SchemeResult& out) const override {
    out.ok = out.all_informed;
    out.completion_round = e.last_first_data_reception();
    out.bound = theorem_bound(g.node_count());
    out.ell = static_cast<const LabelingPlan&>(plan).labeling.stages.ell;
    out.max_node_tx = e.max_tx_count();
    out.label_bits = 2;
    if (config.trace == sim::TraceLevel::kFull) {
      out.stay_count = e.trace().count_transmissions(sim::MsgKind::kStay);
      out.data_tx_count = e.trace().count_transmissions(sim::MsgKind::kData);
    }
  }

  CompiledPlanPtr compile(const Graph& g, NodeId, const PlanPtr& plan,
                          const SchemeOptions& opt,
                          const ExecutionConfig& config) const override;
  SchemeResult replay(const Graph& g, NodeId source,
                      const CompiledPlan& compiled,
                      const ExecutionConfig& config) const override;

  std::string verify(const Graph& g, NodeId, const Plan& plan,
                     const sim::Trace& trace) const override {
    return core::verify_lemma_2_8(
        g, static_cast<const LabelingPlan&>(plan).labeling, trace);
  }
};

struct BCompiledPlan final : CompiledPlan {
  PlanPtr plan;  ///< keeps the labeling alive
  std::uint32_t mu = 0;
  SchemeResult result;  ///< counters-level observables, replay-free

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + (plan ? plan->footprint() : 0);
  }
};

void BScheme::encode_compiled(const CompiledPlan& compiled,
                              ByteWriter& out) const {
  const auto& c = static_cast<const BCompiledPlan&>(compiled);
  out.u8(kTagBReplay);
  encode_labeling_plan(*c.plan, out);
  out.u32(c.mu);
  encode_result(c.result, out);
}

CompiledPlanPtr BScheme::decode_compiled(ByteReader& in) const {
  if (in.u8() != kTagBReplay || !in.ok()) return nullptr;
  auto out = std::make_shared<BCompiledPlan>();
  out->plan = decode_labeling_plan(in);
  if (out->plan == nullptr) return nullptr;
  out->mu = in.u32();
  if (!decode_result(in, out->result)) return nullptr;
  return out;
}

CompiledPlanPtr BScheme::compile(const Graph& g, NodeId, const PlanPtr& plan,
                                 const SchemeOptions& opt,
                                 const ExecutionConfig& config) const {
  const auto& labeling = static_cast<const LabelingPlan&>(*plan).labeling;
  auto out = std::make_shared<BCompiledPlan>();
  out->plan = plan;
  out->mu = opt.mu;
  SchemeResult& r = out->result;
  r.bound = theorem_bound(g.node_count());
  r.ell = labeling.stages.ell;
  r.label_bits = 2;
  if (g.node_count() == 1) {
    r.ok = r.all_informed = true;
    return out;
  }
  core::CompiledScheduleRunner runner(g, labeling, opt.mu, config.backend,
                                      config.threads);
  const auto replay = runner.run();
  r.ok = r.all_informed = replay.all_informed;
  r.rounds = replay.rounds;
  r.completion_round = replay.completion_round;
  r.tx_total = replay.tx_total;
  r.max_node_tx =
      *std::max_element(replay.tx_count.begin(), replay.tx_count.end());
  // Stay/data splits are exact from the schedule shape (odd rounds carry µ).
  const auto& compiled = runner.schedule();
  for (std::uint64_t round = 1; round <= compiled.rounds; ++round) {
    const auto tx = compiled.round_transmitters(round).size();
    if (core::CompiledSchedule::is_data_round(round)) {
      r.data_tx_count += tx;
    } else {
      r.stay_count += tx;
    }
  }
  return out;
}

SchemeResult BScheme::replay(const Graph& g, NodeId,
                             const CompiledPlan& compiled,
                             const ExecutionConfig& config) const {
  const auto& c = static_cast<const BCompiledPlan&>(compiled);
  SchemeResult out = c.result;
  if (config.trace == sim::TraceLevel::kFull && g.node_count() > 1) {
    core::CompiledScheduleRunner runner(
        g, static_cast<const LabelingPlan&>(*c.plan).labeling, c.mu,
        config.backend, config.threads);
    out.trace = runner.run(sim::TraceLevel::kFull).trace;
  }
  return out;
}

/// Algorithm B_ack (Theorem 3.9): 3-bit labels, z-initiated ack chain.
class AckScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "ack"; }
  std::string_view description() const noexcept override {
    return "Algorithm B_ack: 3-bit labels, acknowledged broadcast "
           "(Theorem 3.9)";
  }
  bool can_compile() const noexcept override { return true; }
  bool can_store_plans() const noexcept override { return true; }

  /// One λ_ack construction serves B, B_ack, common-round, and multi.
  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_labeling_plan(plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    return decode_labeling_plan(in);
  }
  void encode_compiled(const CompiledPlan& compiled,
                       ByteWriter& out) const override;
  CompiledPlanPtr decode_compiled(ByteReader& in) const override;

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    auto plan = std::make_shared<LabelingPlan>();
    plan->labeling =
        core::label_acknowledged(g, source, {opt.policy, opt.seed});
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_ack_protocols(
        static_cast<const LabelingPlan&>(plan).labeling, opt.mu,
        opt.resilient);
  }

  /// Resilient retries stay per-node (AckBroadcastProtocol).
  std::unique_ptr<sim::Population> make_population(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    if (opt.resilient) return nullptr;
    return std::make_unique<core::AckPopulation>(
        static_cast<const LabelingPlan&>(plan).labeling, opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 6);
  }

  bool done(const sim::Engine& e, NodeId source,
            const SchemeOptions&) const override {
    return ack_round(e, source) != 0;
  }

  bool run_trivial(const Graph& g, NodeId, const Plan& plan,
                   const SchemeOptions&, SchemeResult& out) const override {
    if (g.node_count() != 1) return false;
    const auto& labeling = static_cast<const LabelingPlan&>(plan).labeling;
    out.ok = out.all_informed = true;
    out.ell = labeling.stages.ell;
    out.special = labeling.z;
    return true;
  }

  void collect(const sim::Engine& e, const Graph& g, NodeId source,
               const Plan& plan, const SchemeOptions&,
               const ExecutionConfig&, SchemeResult& out) const override {
    const auto& labeling = static_cast<const LabelingPlan&>(plan).labeling;
    out.completion_round = e.last_first_data_reception();
    out.ack_round = ack_round(e, source);
    out.ok = out.all_informed && out.ack_round != 0;
    out.bound = theorem_bound(g.node_count());
    out.ell = labeling.stages.ell;
    out.special = labeling.z;
    out.max_stamp = e.max_stamp_seen();
    out.label_bits = 3;
  }

  CompiledPlanPtr compile(const Graph& g, NodeId, const PlanPtr& plan,
                          const SchemeOptions& opt,
                          const ExecutionConfig& config) const override;
  SchemeResult replay(const Graph& g, NodeId source,
                      const CompiledPlan& compiled,
                      const ExecutionConfig& config) const override;

 private:
  /// The source's first ack round, from either kind of engine.
  static std::uint64_t ack_round(const sim::Engine& e, NodeId source) {
    if (const auto* p = flat<core::AckPopulation>(e)) return p->ack_round();
    return protocol_at<core::AckBroadcastProtocol>(e, source).ack_round();
  }
};

struct ExecCompiledPlan final : CompiledPlan {
  PlanPtr plan;
  core::CompiledExecution exec;
  SchemeResult result;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + (plan ? plan->footprint() : 0) +
           execution_bytes(exec);
  }
};

/// Shared ExecCompiledPlan codec: the nested plan is encoded through the
/// owning scheme's own plan codec (its tag byte self-describes), so ack and
/// arb compile to the same container with different plan payloads.
void encode_exec_compiled(const Scheme& scheme, const CompiledPlan& compiled,
                          ByteWriter& out) {
  const auto& c = static_cast<const ExecCompiledPlan&>(compiled);
  out.u8(kTagExec);
  scheme.encode_plan(*c.plan, out);
  encode_execution(c.exec, out);
  encode_result(c.result, out);
}

CompiledPlanPtr decode_exec_compiled(const Scheme& scheme, ByteReader& in) {
  if (in.u8() != kTagExec || !in.ok()) return nullptr;
  auto out = std::make_shared<ExecCompiledPlan>();
  out->plan = scheme.decode_plan(in);
  if (out->plan == nullptr) return nullptr;
  if (!decode_execution(in, out->exec)) return nullptr;
  if (!decode_result(in, out->result)) return nullptr;
  return out;
}

void AckScheme::encode_compiled(const CompiledPlan& compiled,
                                ByteWriter& out) const {
  encode_exec_compiled(*this, compiled, out);
}

CompiledPlanPtr AckScheme::decode_compiled(ByteReader& in) const {
  return decode_exec_compiled(*this, in);
}

CompiledPlanPtr AckScheme::compile(const Graph& g, NodeId,
                                   const PlanPtr& plan,
                                   const SchemeOptions& opt,
                                   const ExecutionConfig& config) const {
  // Resilient retries depend on runtime receptions, which a label-determined
  // replay cannot predict; decline and let run_with_plan use the engine.
  if (opt.resilient) return nullptr;
  const auto& labeling = static_cast<const LabelingPlan&>(*plan).labeling;
  auto out = std::make_shared<ExecCompiledPlan>();
  out->plan = plan;
  SchemeResult& r = out->result;
  r.bound = theorem_bound(g.node_count());
  r.ell = labeling.stages.ell;
  r.special = labeling.z;
  r.label_bits = 3;
  if (g.node_count() == 1) {
    r.ok = r.all_informed = true;
    return out;
  }
  const auto max_rounds =
      config.max_rounds ? config.max_rounds
                        : core::default_round_budget(g.node_count(), 6);
  core::CompiledAckRunner runner(g, labeling, opt.mu, config.backend,
                                 config.threads, max_rounds);
  const auto& p = runner.prediction();
  r.all_informed = p.all_informed;
  r.rounds = p.rounds;
  r.completion_round = p.completion_round;
  r.ack_round = p.ack_round;
  r.ok = p.all_informed && p.ack_round != 0;
  r.max_stamp = p.max_stamp;
  r.tx_total = runner.execution().transmitters.size();
  out->exec = runner.take_execution();
  return out;
}

SchemeResult AckScheme::replay(const Graph& g, NodeId,
                               const CompiledPlan& compiled,
                               const ExecutionConfig& config) const {
  const auto& c = static_cast<const ExecCompiledPlan&>(compiled);
  SchemeResult out = c.result;
  if (config.trace == sim::TraceLevel::kFull && g.node_count() > 1) {
    auto backend = sim::make_engine_backend(g, config.backend, config.threads);
    sim::RoundResolution scratch;
    out.trace = core::replay_execution(c.exec, g.node_count(), *backend,
                                       scratch, sim::TraceLevel::kFull)
                    .trace;
  }
  return out;
}

/// §3 closing construction: all nodes agree on the common round 2m.
class CommonRoundScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "common-round"; }
  std::string_view description() const noexcept override {
    return "Common-completion-round construction on top of B_ack (paper §3)";
  }
  bool can_store_plans() const noexcept override { return true; }

  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_labeling_plan(plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    return decode_labeling_plan(in);
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    RC_EXPECTS_MSG(g.node_count() >= 2,
                   "common-round needs at least two nodes");
    auto plan = std::make_shared<LabelingPlan>();
    plan->labeling =
        core::label_acknowledged(g, source, {opt.policy, opt.seed});
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_common_round_protocols(
        static_cast<const LabelingPlan&>(plan).labeling, opt.mu);
  }

  std::unique_ptr<sim::Population> make_population(
      const Graph&, NodeId, const Plan& plan,
      const SchemeOptions& opt) const override {
    return std::make_unique<core::CommonRoundPopulation>(
        static_cast<const LabelingPlan&>(plan).labeling, opt.mu);
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

struct ArbPlan final : Plan {
  core::ArbLabeling labeling;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + labeling.labels.size() * sizeof(core::Label) +
           node_sets_bytes(labeling.stages.dom) +
           node_sets_bytes(labeling.stages.fresh) +
           node_sets_bytes(labeling.stages.frontier) +
           labeling.stages.stage_of.size() * sizeof(std::uint32_t);
  }
};

class ArbScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "arb"; }
  std::string_view description() const noexcept override {
    return "Algorithm B_arb: 3-bit labels, source unknown at labeling time "
           "(paper §4)";
  }
  bool can_compile() const noexcept override { return true; }
  bool can_store_plans() const noexcept override { return true; }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    const auto& p = static_cast<const ArbPlan&>(plan);
    out.u8(kTagArb);
    encode_labels(p.labeling.labels, out);
    out.u32(p.labeling.coordinator);
    out.u32(p.labeling.z);
    encode_stage_sets(p.labeling.stages, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    if (in.u8() != kTagArb || !in.ok()) return nullptr;
    auto plan = std::make_shared<ArbPlan>();
    if (!decode_labels(in, plan->labeling.labels)) return nullptr;
    plan->labeling.coordinator = in.u32();
    plan->labeling.z = in.u32();
    if (!decode_stage_sets(in, plan->labeling.stages)) return nullptr;
    if (plan->labeling.labels.size() !=
        plan->labeling.stages.stage_of.size()) {
      return nullptr;
    }
    return plan;
  }
  void encode_compiled(const CompiledPlan& compiled,
                       ByteWriter& out) const override {
    encode_exec_compiled(*this, compiled, out);
  }
  CompiledPlanPtr decode_compiled(ByteReader& in) const override {
    return decode_exec_compiled(*this, in);
  }

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
    auto plan = std::make_shared<ArbPlan>();
    plan->labeling =
        core::label_arbitrary(g, opt.coordinator, {opt.policy, opt.seed});
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph&, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    return core::make_arb_protocols(
        static_cast<const ArbPlan&>(plan).labeling, source, opt.mu);
  }

  std::unique_ptr<sim::Population> make_population(
      const Graph&, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    return std::make_unique<core::ArbPopulation>(
        static_cast<const ArbPlan&>(plan).labeling, source, opt.mu);
  }

  std::uint64_t round_budget(const Graph& g, const Plan&,
                             const SchemeOptions&) const override {
    return core::default_round_budget(g.node_count(), 16);
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
    out.special = static_cast<const ArbPlan&>(plan).labeling.coordinator;
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

 private:
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
  const auto& labeling = static_cast<const ArbPlan&>(*plan).labeling;
  auto out = std::make_shared<ExecCompiledPlan>();
  out->plan = plan;
  SchemeResult& r = out->result;
  const auto max_rounds =
      config.max_rounds ? config.max_rounds
                        : core::default_round_budget(g.node_count(), 16);
  core::CompiledArbRunner runner(g, labeling, source, opt.mu, config.backend,
                                 config.threads, max_rounds);
  const auto& p = runner.prediction();
  r.ok = p.ok;
  r.all_informed = p.ok;
  r.rounds = p.total_rounds;
  r.done_round = p.done_round;
  r.T = p.T;
  r.special = labeling.coordinator;
  r.label_bits = 3;
  r.tx_total = runner.execution().transmitters.size();
  out->exec = runner.take_execution();
  return out;
}

SchemeResult ArbScheme::replay(const Graph& g, NodeId,
                               const CompiledPlan& compiled,
                               const ExecutionConfig& config) const {
  const auto& c = static_cast<const ExecCompiledPlan&>(compiled);
  SchemeResult out = c.result;
  if (config.trace == sim::TraceLevel::kFull) {
    auto backend = sim::make_engine_backend(g, config.backend, config.threads);
    sim::RoundResolution scratch;
    out.trace = core::replay_execution(c.exec, g.node_count(), *backend,
                                       scratch, sim::TraceLevel::kFull)
                    .trace;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Multi-message acknowledged sessions (§1.2)
// ---------------------------------------------------------------------------

class MultiScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "multi"; }
  std::string_view description() const noexcept override {
    return "Consecutive acknowledged broadcasts over one λ_ack labeling "
           "(paper §1.2)";
  }
  bool can_store_plans() const noexcept override { return true; }

  std::string_view plan_family() const noexcept override {
    return "lambda-ack";
  }

  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_labeling_plan(plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    return decode_labeling_plan(in);
  }

  PlanPtr label(const Graph& g, NodeId source,
                const SchemeOptions& opt) const override {
    RC_EXPECTS(g.node_count() >= 2);
    auto plan = std::make_shared<LabelingPlan>();
    plan->labeling =
        core::label_acknowledged(g, source, {opt.policy, opt.seed});
    return plan;
  }

  std::vector<std::unique_ptr<sim::Protocol>> make_protocols(
      const Graph& g, NodeId source, const Plan& plan,
      const SchemeOptions& opt) const override {
    const auto& labeling = static_cast<const LabelingPlan&>(plan).labeling;
    const auto payloads = multi_schedule(opt);
    std::vector<std::unique_ptr<sim::Protocol>> out;
    out.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.push_back(std::make_unique<core::MultiMessageProtocol>(
          labeling.labels[v],
          v == source ? payloads : std::vector<std::uint32_t>{}));
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

void encode_empty_plan(const Plan&, ByteWriter& out) { out.u8(kTagEmpty); }

PlanPtr decode_empty_plan(ByteReader& in) {
  if (in.u8() != kTagEmpty || !in.ok()) return nullptr;
  return std::make_shared<EmptyPlan>();
}

struct ColoringPlan final : Plan {
  graph::Coloring coloring;

  std::size_t footprint() const noexcept override {
    return sizeof(*this) + coloring.color.size() * sizeof(std::uint32_t);
  }
};

class RoundRobinScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "round-robin"; }
  std::string_view description() const noexcept override {
    return "Round-robin over unique ids: Θ(log n)-bit labels, "
           "collision-free (paper §1)";
  }
  std::string plan_key(NodeId, const SchemeOptions&) const override {
    return {};  // label-free: one plan per graph
  }
  bool can_store_plans() const noexcept override { return true; }
  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_empty_plan(plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    return decode_empty_plan(in);
  }

  PlanPtr label(const Graph&, NodeId, const SchemeOptions&) const override {
    return std::make_shared<EmptyPlan>();
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

class DecayScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "decay"; }
  std::string_view description() const noexcept override {
    return "BGI Decay: randomized label-free baseline that knows n "
           "(paper §1)";
  }
  std::string plan_key(NodeId, const SchemeOptions&) const override {
    return {};  // label-free; the seed parameterizes protocols, not a plan
  }
  bool can_store_plans() const noexcept override { return true; }
  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_empty_plan(plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    return decode_empty_plan(in);
  }

  PlanPtr label(const Graph&, NodeId, const SchemeOptions&) const override {
    return std::make_shared<EmptyPlan>();
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

class BeepScheme final : public Scheme {
 public:
  std::string_view name() const noexcept override { return "beep"; }
  std::string_view description() const noexcept override {
    return "Anonymous bit-by-bit broadcast under collision detection "
           "(paper §1.1)";
  }
  bool needs_collision_detection() const noexcept override { return true; }
  std::string plan_key(NodeId, const SchemeOptions&) const override {
    return {};  // anonymous: no labeling at all
  }
  bool can_store_plans() const noexcept override { return true; }
  void encode_plan(const Plan& plan, ByteWriter& out) const override {
    encode_empty_plan(plan, out);
  }
  PlanPtr decode_plan(ByteReader& in) const override {
    return decode_empty_plan(in);
  }

  PlanPtr label(const Graph&, NodeId, const SchemeOptions&) const override {
    return std::make_shared<EmptyPlan>();
  }

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
    // Historical BeepRun convention: the round count, not the last
    // first-data reception (decoding finishes after the last beep).
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
