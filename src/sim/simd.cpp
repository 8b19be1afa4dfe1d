#include "sim/simd.hpp"

#include <bit>
#include <cstdlib>

#include "support/contracts.hpp"

// The vector paths are compiled with per-function target attributes inside
// this one TU, so the library builds without -mavx* baseline flags and the
// binary stays runnable on any x86-64 (dispatch never calls an unsupported
// path).  Non-x86 and non-GCC/Clang builds compile the scalar kernels only.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define RADIOCAST_SIMD_X86 1
#include <immintrin.h>
#endif

namespace radiocast::sim::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels: the pre-vectorization backend loops, verbatim.  These are
// the oracle every vector implementation is differenced against.

void accumulate_first_scalar(std::uint64_t* once, std::uint64_t* twice,
                             const std::uint64_t* row, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    once[w] = row[w];
    twice[w] = 0;
  }
}

void accumulate_scalar(std::uint64_t* once, std::uint64_t* twice,
                       const std::uint64_t* row, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t r = row[w];
    twice[w] |= once[w] & r;
    once[w] |= r;
  }
}

std::uint64_t heard_sweep_scalar(std::uint64_t* heard,
                                 const std::uint64_t* once,
                                 const std::uint64_t* twice,
                                 const std::uint64_t* tx_mask,
                                 std::size_t words) {
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < words; ++w) {
    heard[w] = once[w] & ~twice[w] & ~tx_mask[w];
    any |= heard[w];
  }
  return any;
}

std::uint64_t and_popcount_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  return total;
}

constexpr Kernels kScalarKernels{Isa::kScalar, accumulate_first_scalar,
                                 accumulate_scalar, heard_sweep_scalar,
                                 and_popcount_scalar};

#if defined(RADIOCAST_SIMD_X86)

// ---------------------------------------------------------------------------
// Hardware popcount: every AVX2 host has popcnt, and AVX-512F hosts without
// VPOPCNTDQ count with it too.

__attribute__((target("popcnt"))) std::uint64_t and_popcount_popcnt(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return total;
}

// ---------------------------------------------------------------------------
// AVX2: 4 words per lane.  Loads/stores are unaligned so shard word windows
// at any offset are fine; tails fall back to the scalar loop.

__attribute__((target("avx2"))) void accumulate_first_avx2(
    std::uint64_t* once, std::uint64_t* twice, const std::uint64_t* row,
    std::size_t words) {
  std::size_t w = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; w + 4 <= words; w += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(once + w),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(twice + w), zero);
  }
  for (; w < words; ++w) {
    once[w] = row[w];
    twice[w] = 0;
  }
}

__attribute__((target("avx2"))) void accumulate_avx2(std::uint64_t* once,
                                                     std::uint64_t* twice,
                                                     const std::uint64_t* row,
                                                     std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
    __m256i o = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(once + w));
    __m256i t = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twice + w));
    t = _mm256_or_si256(t, _mm256_and_si256(o, r));
    o = _mm256_or_si256(o, r);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(twice + w), t);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(once + w), o);
  }
  for (; w < words; ++w) {
    const std::uint64_t r = row[w];
    twice[w] |= once[w] & r;
    once[w] |= r;
  }
}

__attribute__((target("avx2"))) std::uint64_t heard_sweep_avx2(
    std::uint64_t* heard, const std::uint64_t* once, const std::uint64_t* twice,
    const std::uint64_t* tx_mask, std::size_t words) {
  std::size_t w = 0;
  __m256i any_vec = _mm256_setzero_si256();
  for (; w + 4 <= words; w += 4) {
    const __m256i o =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(once + w));
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(twice + w));
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tx_mask + w));
    // o & ~t & ~m via two andnots: andnot(t, o) = o & ~t.
    const __m256i h = _mm256_andnot_si256(m, _mm256_andnot_si256(t, o));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(heard + w), h);
    any_vec = _mm256_or_si256(any_vec, h);
  }
  // Horizontal OR of the 4 accumulated lanes.
  const __m128i lo = _mm256_castsi256_si128(any_vec);
  const __m128i hi = _mm256_extracti128_si256(any_vec, 1);
  const __m128i or128 = _mm_or_si128(lo, hi);
  std::uint64_t any = static_cast<std::uint64_t>(_mm_cvtsi128_si64(or128)) |
                      static_cast<std::uint64_t>(
                          _mm_cvtsi128_si64(_mm_unpackhi_epi64(or128, or128)));
  for (; w < words; ++w) {
    heard[w] = once[w] & ~twice[w] & ~tx_mask[w];
    any |= heard[w];
  }
  return any;
}

constexpr Kernels kAvx2Kernels{Isa::kAvx2, accumulate_first_avx2,
                               accumulate_avx2, heard_sweep_avx2,
                               and_popcount_popcnt};

// ---------------------------------------------------------------------------
// AVX-512F: 8 words per lane; vpternlogq fuses each kernel's 3-input
// boolean into one op.  Truth-table immediates index bits as (a<<2)|(b<<1)|c
// for operands (A, B, C).

__attribute__((target("avx512f"))) void accumulate_first_avx512(
    std::uint64_t* once, std::uint64_t* twice, const std::uint64_t* row,
    std::size_t words) {
  std::size_t w = 0;
  const __m512i zero = _mm512_setzero_si512();
  for (; w + 8 <= words; w += 8) {
    _mm512_storeu_si512(once + w, _mm512_loadu_si512(row + w));
    _mm512_storeu_si512(twice + w, zero);
  }
  for (; w < words; ++w) {
    once[w] = row[w];
    twice[w] = 0;
  }
}

__attribute__((target("avx512f"))) void accumulate_avx512(
    std::uint64_t* once, std::uint64_t* twice, const std::uint64_t* row,
    std::size_t words) {
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i r = _mm512_loadu_si512(row + w);
    const __m512i o = _mm512_loadu_si512(once + w);
    const __m512i t = _mm512_loadu_si512(twice + w);
    // t | (o & r): 0xF8 = a | (b & c) over (t, o, r).
    _mm512_storeu_si512(twice + w, _mm512_ternarylogic_epi64(t, o, r, 0xF8));
    _mm512_storeu_si512(once + w, _mm512_or_si512(o, r));
  }
  for (; w < words; ++w) {
    const std::uint64_t r = row[w];
    twice[w] |= once[w] & r;
    once[w] |= r;
  }
}

__attribute__((target("avx512f"))) std::uint64_t heard_sweep_avx512(
    std::uint64_t* heard, const std::uint64_t* once, const std::uint64_t* twice,
    const std::uint64_t* tx_mask, std::size_t words) {
  std::size_t w = 0;
  __m512i any_vec = _mm512_setzero_si512();
  for (; w + 8 <= words; w += 8) {
    const __m512i o = _mm512_loadu_si512(once + w);
    const __m512i t = _mm512_loadu_si512(twice + w);
    const __m512i m = _mm512_loadu_si512(tx_mask + w);
    // o & ~t & ~m: 0x10 = a & ~b & ~c over (o, t, m).
    const __m512i h = _mm512_ternarylogic_epi64(o, t, m, 0x10);
    _mm512_storeu_si512(heard + w, h);
    any_vec = _mm512_or_si512(any_vec, h);
  }
  // Horizontal OR via a stack spill: GCC 12's 512-bit extract/reduce
  // intrinsics trip a spurious -Wuninitialized in the header under -Werror,
  // and one 64-byte store per sweep is noise next to the word loop.
  alignas(64) std::uint64_t lanes[8];
  _mm512_storeu_si512(lanes, any_vec);
  std::uint64_t any = lanes[0] | lanes[1] | lanes[2] | lanes[3] | lanes[4] |
                      lanes[5] | lanes[6] | lanes[7];
  for (; w < words; ++w) {
    heard[w] = once[w] & ~twice[w] & ~tx_mask[w];
    any |= heard[w];
  }
  return any;
}

// VPOPCNTDQ implies AVX-512F and popcnt (the tail loop).
__attribute__((target("avx512vpopcntdq"))) std::uint64_t and_popcount_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  std::size_t w = 0;
  __m512i sum = _mm512_setzero_si512();
  for (; w + 8 <= words; w += 8) {
    const __m512i va = _mm512_loadu_si512(a + w);
    const __m512i vb = _mm512_loadu_si512(b + w);
    sum = _mm512_add_epi64(sum, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  alignas(64) std::uint64_t lanes[8];  // spilled like heard_sweep_avx512
  _mm512_storeu_si512(lanes, sum);
  std::uint64_t total = 0;
  for (const std::uint64_t lane : lanes) total += lane;
  for (; w < words; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return total;
}

constexpr Kernels kAvx512Kernels{Isa::kAvx512, accumulate_first_avx512,
                                 accumulate_avx512, heard_sweep_avx512,
                                 and_popcount_avx512};
/// AVX-512F without VPOPCNTDQ (Skylake-SP, Cascade Lake).
constexpr Kernels kAvx512PopcntKernels{Isa::kAvx512, accumulate_first_avx512,
                                       accumulate_avx512, heard_sweep_avx512,
                                       and_popcount_popcnt};

#endif  // RADIOCAST_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch

/// The environment request, read once; kAuto when unset, unparsable, or
/// naming an ISA this CPU lacks (a pinned environment must not crash weaker
/// hosts — tests that need hard failures use force_isa()).
Isa env_isa() {
  static const Isa value = [] {
    const char* raw = std::getenv("RADIOCAST_FORCE_ISA");
    if (raw == nullptr) return Isa::kAuto;
    const auto parsed = parse_isa(raw);
    if (!parsed || !available(*parsed)) return Isa::kAuto;
    return *parsed;
  }();
  return value;
}

Isa g_forced = Isa::kAuto;

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kAuto: return "auto";
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

std::optional<Isa> parse_isa(std::string_view name) {
  if (name == "auto") return Isa::kAuto;
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  return std::nullopt;
}

bool available(Isa isa) {
  switch (isa) {
    case Isa::kAuto:
    case Isa::kScalar: return true;
#if defined(RADIOCAST_SIMD_X86)
    case Isa::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512: return __builtin_cpu_supports("avx512f") != 0;
#else
    default: return false;
#endif
  }
  return false;
}

Isa best_available() {
  if (available(Isa::kAvx512)) return Isa::kAvx512;
  if (available(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

const Kernels& kernels_for(Isa isa) {
  if (isa == Isa::kAuto) isa = active_isa();
  RC_EXPECTS_MSG(available(isa), "requested ISA not available on this CPU");
  switch (isa) {
#if defined(RADIOCAST_SIMD_X86)
    case Isa::kAvx2: return kAvx2Kernels;
    case Isa::kAvx512:
      if (__builtin_cpu_supports("avx512vpopcntdq")) return kAvx512Kernels;
      return kAvx512PopcntKernels;
#endif
    default: return kScalarKernels;
  }
}

void force_isa(Isa isa) {
  RC_EXPECTS_MSG(available(isa), "forced ISA not available on this CPU");
  g_forced = isa;
}

Isa active_isa() {
  if (g_forced != Isa::kAuto) return g_forced;
  if (env_isa() != Isa::kAuto) return env_isa();
  return best_available();
}

const Kernels& active_kernels() { return kernels_for(active_isa()); }

}  // namespace radiocast::sim::simd
