/// \file reference.hpp
/// \brief The output check: every measured result against the reference
///        path (`run_scheme` on the scalar backend with scan dispatch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "runtime/sweep.hpp"
#include "runtime/wire.hpp"

namespace perfbench {

/// The observables every path must reproduce exactly.
struct Digest {
  bool ok = false;
  bool all_informed = false;
  std::uint64_t rounds = 0;
  std::uint64_t completion_round = 0;
  std::uint64_t ack_round = 0;
  std::uint64_t done_round = 0;
  std::uint64_t tx_total = 0;

  friend bool operator==(const Digest&, const Digest&) = default;
};

Digest digest(const radiocast::runtime::SchemeResult& result);

/// True iff `got` reproduces `ref` on every digest field.
bool matches(const Digest& ref, const radiocast::runtime::SchemeResult& got);
/// The binary encoding carries no done round; every other field must match.
bool matches(const Digest& ref,
             const radiocast::runtime::wire::BinaryResult& got);

struct Reference {
  /// One per input spec, in order: what the spec's own path must report.
  std::vector<Digest> digests;
  std::size_t lemma_checks = 0;  ///< b specs checked with Scheme::verify
  std::vector<std::string> failures;  ///< verifier diagnostics
};

/// Computes the reference digest of every spec on `pool` (outside any timed
/// region): `run_scheme` with `BackendKind::kScalar`, `DispatchKind::kScan`
/// and the engine path.  Every `lemma_every`-th b spec additionally runs at
/// `TraceLevel::kFull` and must pass `Scheme::verify` (Lemma 2.8).  The
/// specs' graphs must already be registered with `runner`.
Reference compute_reference(
    radiocast::runtime::SweepRunner& runner, radiocast::par::ThreadPool& pool,
    const std::vector<radiocast::runtime::ExperimentSpec>& specs,
    std::size_t lemma_every);

}  // namespace perfbench
