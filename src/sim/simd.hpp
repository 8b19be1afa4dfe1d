/// \file simd.hpp
/// \brief Vectorized bit kernels for round resolution, with runtime ISA
///        dispatch.
///
/// Every bit backend resolves a round with the same three word-array
/// kernels: the once/twice saturating accumulator (`twice |= once & row;
/// once |= row`), its first-row initializer, and the heard sweep
/// (`heard = once & ~twice & ~tx_mask`).  They are pure bitwise maps over
/// `std::uint64_t` arrays, so vector width cannot change results — an AVX2
/// or AVX-512 lane computes exactly the words the scalar loop would — and
/// every backend stays bit-exact at every ISA (pinned by the forced-ISA
/// differentials in tests/test_simd_kernels.cpp).  A fourth kernel,
/// `and_popcount`, counts the bits two word arrays share; the stage-set
/// construction (`core::build_stage_sets`) counts dominators with it on
/// dense graphs.
///
/// Selection happens once per process: the highest ISA the CPU supports
/// wins, overridable by the `RADIOCAST_FORCE_ISA` environment variable
/// (`scalar`, `avx2`, `avx512`; silently ignored when the host lacks it) and
/// by `force_isa()` (used by `radiocast_bench --isa`; wins over the
/// environment).  Backends capture `active_kernels()` at construction, so a
/// force applies to engines built after the call.  Tests address specific
/// implementations directly via `kernels_for()`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace radiocast::sim::simd {

/// Instruction-set choice for the bit kernels.  kAuto means "best the CPU
/// supports"; the concrete kinds are only selectable where `available()`.
enum class Isa : std::uint8_t {
  kAuto,
  kScalar,  ///< plain uint64_t loops (always available, every platform)
  kAvx2,    ///< 256-bit lanes (x86 with AVX2); popcnt for `and_popcount`
  /// 512-bit lanes + vpternlogq (x86 with AVX-512F); `and_popcount` uses
  /// VPOPCNTDQ where the CPU has it and popcnt otherwise.
  kAvx512,
};

const char* to_string(Isa isa);

/// Parses "auto" / "scalar" / "avx2" / "avx512"; nullopt otherwise.
std::optional<Isa> parse_isa(std::string_view name);

/// One round-resolution kernel set.  All pointers are valid for any `words
/// >= 0`; arrays may be arbitrarily (8-byte) aligned and the implementations
/// use unaligned vector loads, so callers can pass offset sub-ranges (shard
/// word windows) freely.
struct Kernels {
  Isa isa = Isa::kScalar;

  /// First transmitter row: `once[w] = row[w]; twice[w] = 0;`.
  void (*accumulate_first)(std::uint64_t* once, std::uint64_t* twice,
                           const std::uint64_t* row, std::size_t words);
  /// Saturating fold of one more row:
  /// `twice[w] |= once[w] & row[w]; once[w] |= row[w];`.
  void (*accumulate)(std::uint64_t* once, std::uint64_t* twice,
                     const std::uint64_t* row, std::size_t words);
  /// `heard[w] = once[w] & ~twice[w] & ~tx_mask[w]`; returns the OR of all
  /// heard words (nonzero iff any listener heard).
  std::uint64_t (*heard_sweep)(std::uint64_t* heard, const std::uint64_t* once,
                               const std::uint64_t* twice,
                               const std::uint64_t* tx_mask,
                               std::size_t words);
  /// `Σ popcount(a[w] & b[w])`: the size of the intersection of two sets.
  std::uint64_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words);
};

/// True iff `isa` can run on this CPU (kScalar and kAuto always can).
bool available(Isa isa);

/// The best ISA the CPU supports, ignoring forces (kScalar at worst).
Isa best_available();

/// The kernel set for a concrete ISA; requires `available(isa)`.  kAuto
/// resolves through the force/environment/best chain like
/// `active_kernels()`.
const Kernels& kernels_for(Isa isa);

/// Programmatic override (e.g. `radiocast_bench --isa`): subsequent
/// `active_kernels()` calls return `isa`'s kernels.  kAuto clears the force,
/// restoring environment/CPU selection.  Requires `available(isa)`.
void force_isa(Isa isa);

/// The ISA `active_kernels()` currently resolves to: the programmatic force
/// if set, else a valid `RADIOCAST_FORCE_ISA` value, else `best_available()`.
Isa active_isa();

/// The process-wide kernel selection; backends capture this at construction.
const Kernels& active_kernels();

}  // namespace radiocast::sim::simd
