/// \file config.hpp
/// \brief The one execution-knob block every layer shares.
///
/// Before the runtime layer, the backend/dispatch/thread knobs were
/// re-declared in `core::RunOptions`, `onebit::OneBitOptions`, the
/// `run_multi_broadcast` parameter list, and both CLI front ends.
/// `ExecutionConfig` is the single source of truth: the scheme registry,
/// the sweep executor, the CLI front ends, and the bench harness all carry
/// one of these and lower it to `sim::EngineOptions` at the engine boundary.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/backend.hpp"
#include "sim/dispatch.hpp"
#include "sim/engine.hpp"

namespace radiocast::runtime {

/// How a scheme execution runs: which engine backend resolves rounds, how
/// protocol decisions are dispatched, and whether the label-determined
/// compiled fast path is taken.
struct ExecutionConfig {
  /// Engine round-resolution backend (kAuto picks by density and size).
  sim::BackendKind backend = sim::BackendKind::kAuto;
  /// Protocol-dispatch strategy (kAuto = active-set iff the population
  /// hints).  Anything but kScan runs a scheme's flat population when it
  /// has one; kScan runs its per-node protocols, the reference.
  sim::DispatchKind dispatch = sim::DispatchKind::kAuto;
  /// Sweep-pool workers for the CLI front ends (0 = hardware concurrency).
  /// Engines run single-threaded and executors size their own pools, so a
  /// spec's value changes nothing; the field stays for wire compatibility.
  std::size_t threads = 0;
  /// Prefer the compiled label-determined replay when the scheme has one
  /// for the spec's options (`Scheme::compiles`); other specs run on the
  /// engine.
  bool compiled = false;
  /// Collision-detection mode.  Schemes that require it (beep) force it on
  /// regardless of this setting.
  bool collision_detection = false;
  /// Ground-truth recording level for the engine path; `kFull` also makes
  /// compiled replays materialize their trace.
  sim::TraceLevel trace = sim::TraceLevel::kCounters;
  /// Engine round budget (0 = the scheme's own default, linear in n).
  std::uint64_t max_rounds = 0;
  /// PlanCache byte budget for the executor serving this spec (0 = keep the
  /// runner's current budget, which defaults to unlimited).  When the cache
  /// exceeds it, least-recently-used plans are evicted; with a plan store
  /// attached, evicted entries reload from disk instead of recomputing.
  std::size_t plan_cache_bytes = 0;
  /// Deterministic fault injection (sim/faults.hpp).  An enabled plan
  /// forces the engine path: compiled replays model the fault-free
  /// schedule and cannot answer "what does the protocol do after a loss".
  sim::FaultPlan faults = {};

  /// Lowers the config to engine options (collision detection as-is; the
  /// scheme layer ORs in `Scheme::needs_collision_detection`).
  sim::EngineOptions engine_options() const {
    sim::EngineOptions out;
    out.trace = trace;
    out.collision_detection = collision_detection;
    out.backend = backend;
    out.dispatch = dispatch;
    out.faults = faults;
    return out;
  }
};

}  // namespace radiocast::runtime
