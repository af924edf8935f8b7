/// \file kernels_impl.hpp
/// \brief Internal: per-ISA kernel variant declarations wired into the
///        dispatch tables of simd_dispatch.cpp. Not part of the public
///        util::kernels API — call through kernels.hpp (dispatched) or
///        simd::table_for() (conformance tests) instead.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/simd_dispatch.hpp"

// The AVX variants are compiled only when the toolchain can target them
// (per-TU -m flags from src/util/CMakeLists.txt, which also passes
// CIM_SIMD_HAVE_AVX2 / CIM_SIMD_HAVE_AVX512 to simd_dispatch.cpp so its
// tables only reference symbols that were actually built).
#if defined(__x86_64__) || defined(_M_X64)
#define CIM_SIMD_X86 1
#else
#define CIM_SIMD_X86 0
#endif

#ifndef CIM_SIMD_HAVE_AVX2
#define CIM_SIMD_HAVE_AVX2 0
#endif
#ifndef CIM_SIMD_HAVE_AVX512
#define CIM_SIMD_HAVE_AVX512 0
#endif

namespace cim::util::kernels::detail {

/// The decoded level of one ADC sample: Adc::quantize, then the
/// dequantize-table lookup and the tile's level decode, with lround(s)
/// written as t + (s - t >= 0.5) for t = trunc(s), which agrees for every
/// s in [0, max_code]. Clamping through `x > 0` sends NaN (and -0.0) to
/// code 0, as Adc::quantize does; clipped <= full_scale keeps the code in
/// [0, max_code], the table's range. Inline so every ISA TU compiles its
/// scalar tail from this one definition; the SIMD bodies evaluate the same
/// operations lane-wise.
inline double adc_level(double x, const simd::AdcDecode& p) {
  const double clipped =
      x > 0.0 ? (p.full_scale < x ? p.full_scale : x) : 0.0;
  const double s = clipped / p.full_scale * p.max_code;
  const auto t = static_cast<std::int64_t>(s);
  const std::int64_t code = t + (s - static_cast<double>(t) >= 0.5 ? 1 : 0);
  return (p.dequant[code] - p.offset) / p.step;
}

// normal_fill (kernels.hpp) per element. The helpers below have internal
// linkage: each ISA TU keeps its own copy, compiled with its own flags, so
// the linker can never hand the scalar TU a copy built for AVX-512. The
// SIMD bodies evaluate the same operations lane-wise, a block of pairs at a
// time.
namespace normal {

inline constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;  // SplitMix64
inline constexpr std::uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kMix2 = 0x94d049bb133111ebULL;
inline constexpr std::uint64_t kExpBias52 = 0x4330000000000000ULL;  // 2^52
inline constexpr std::uint64_t kMantissa = 0x000fffffffffffffULL;
inline constexpr std::uint64_t kOneBits = 0x3ff0000000000000ULL;  // 1.0
// fdlibm e_log.c: ln 2 split in two, and log1p's polynomial in s^2 split
// into its even- and odd-indexed coefficients (Lg2, Lg4, Lg6 and Lg1, Lg3,
// Lg5, Lg7), each taken in w = s^4.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr std::array<double, 3> kLogEven = {
    3.999999999940941908e-01, 2.222219843214978396e-01,
    1.531383769920937332e-01};
inline constexpr std::array<double, 4> kLogOdd = {
    6.666666666666735130e-01, 2.857142874366239149e-01,
    1.818357216161805012e-01, 1.479819860511658591e-01};
inline constexpr double kSqrt2 = 1.41421356237309504880;
// fdlibm k_sin.c (S1, then S2..S6) and k_cos.c (C1..C6) on [-pi/4, pi/4].
inline constexpr double kSin1 = -1.66666666666666324348e-01;
inline constexpr std::array<double, 5> kSin = {
    8.33333333332248946124e-03, -1.98412698298579493134e-04,
    2.75573137070700676789e-06, -2.50507602534068634195e-08,
    1.58969099521155010221e-10};
inline constexpr std::array<double, 6> kCos = {
    4.16666666666666019037e-02, -1.38888888888741095749e-03,
    2.48015872894767294178e-05, -2.75573143513906633035e-07,
    2.08757232129817482790e-09, -1.13596475577881948265e-11};
inline constexpr double kTwoPi = 6.28318530717958647692;

/// c[I] + z * (c[I+1] + z * (... + z * c[N-1])), innermost product first.
template <std::size_t I = 0, std::size_t N>
static inline double horner(double z, const std::array<double, N>& c) {
  if constexpr (I + 1 == N) {
    return c[I];
  } else {
    return c[I] + z * horner<I + 1>(z, c);
  }
}

/// SplitMix64's output function.
static inline std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * kMix1;
  z = (z ^ (z >> 27)) * kMix2;
  return z ^ (z >> 31);
}

/// ln(u) for u in [2^-53, 1]: u = 2^k * m with m in [sqrt(2)/2, sqrt(2)],
/// then fdlibm's log1p(m - 1) with s = f / (2 + f).
static inline double log_unit(double u) {
  const auto bits = std::bit_cast<std::uint64_t>(u);
  double k = static_cast<double>(static_cast<std::int64_t>(bits >> 52)) -
             1023.0;
  double m = std::bit_cast<double>((bits & kMantissa) | kOneBits);
  if (m > kSqrt2) {
    m = m * 0.5;
    k = k + 1.0;
  }
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double r = z * horner(w, kLogOdd) + w * horner(w, kLogEven);
  const double hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

/// Box-Muller on two 64-bit words: u1 = (w1 >> 11) + 1 and u2 = w2 >> 11,
/// both times 2^-53, so u1 is in (0, 1] and u2 in [0, 1); `cos_out` and
/// `sin_out` are sqrt(-2 ln u1) times cos and sin of 2 pi u2. The angle
/// reduces exactly in u2: q = trunc(4 u2 + 1/2) and r = u2 - q/4 in
/// [-1/8, 1/8], and the quadrant q picks +-cos or +-sin of 2 pi r.
static inline void box_muller(std::uint64_t w1, std::uint64_t w2,
                              double& cos_out, double& sin_out) {
  const double u1 = (static_cast<double>(w1 >> 11) + 1.0) * 0x1.0p-53;
  const double u2 = static_cast<double>(w2 >> 11) * 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * log_unit(u1));
  const auto q = static_cast<std::int64_t>(4.0 * u2 + 0.5);
  const double x = (u2 - 0.25 * static_cast<double>(q)) * kTwoPi;
  const double z = x * x;
  const double sin_x = x + (z * x) * (kSin1 + z * horner(z, kSin));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  const double cos_x = w + (((1.0 - w) - hz) + z * (z * horner(z, kCos)));
  const bool odd = (q & 1) != 0;
  const double c = odd ? sin_x : cos_x;
  const double s = odd ? cos_x : sin_x;
  cos_out = mag * (((q + 1) & 2) != 0 ? -c : c);
  sin_out = mag * ((q & 2) != 0 ? -s : s);
}

/// Box-Muller on pair p of `key`, whose words are SplitMix64 outputs 2p + 1
/// and 2p + 2 of the stream seeded at `key`; `even_ctr` is 2p.
static inline void normal_pair(std::uint64_t key, std::uint64_t even_ctr,
                               double& cos_out, double& sin_out) {
  const std::uint64_t x = key + (even_ctr + 1) * kGamma;
  box_muller(mix(x), mix(x + kGamma), cos_out, sin_out);
}

/// The standard normal for counter `ctr` of `key`: pair ctr / 2's cosine
/// output for an even ctr, its sine output for an odd one.
static inline double normal_at(std::uint64_t key, std::uint64_t ctr) {
  double c = 0.0, s = 0.0;
  normal_pair(key, ctr & ~std::uint64_t{1}, c, s);
  return (ctr & 1) != 0 ? s : c;
}

}  // namespace normal

/// Plane-select mask of a bit_planes kernel: bits [0, planes) set.
inline std::uint32_t plane_mask(int planes) {
  return (std::uint32_t{1} << planes) - 1u;
}

/// Writes the indices of the set bits of `m` to `out` in ascending order
/// (plane order) and returns how many there are.
inline int active_planes(std::uint32_t m, int* out) {
  int n = 0;
  for (; m != 0; m &= m - 1) out[n++] = std::countr_zero(m);
  return n;
}

// bitplane_accumulate_full (simd::KernelTable): the row and plane order
// every ISA TU shares. Internal linkage, as in `normal`.
namespace full {

/// Rows per driven-row list: a call takes its rows this many at a time, so
/// a list fits on the stack.
inline constexpr std::size_t kRowChunk = 256;

/// Appends to list[k, ...) the rows r in [first, last) whose bits[r] has
/// bit b set, in increasing order, and returns the new count. Every row is
/// written; the count moves past it only when the bit is set, so no branch
/// depends on the bits. The AVX2 and AVX-512 versions store the indices
/// of rows [r, r + lanes) of a chunk as one whole vector at entry
/// k <= r - first, which ends inside the chunk's list, and leave this loop
/// the rows past their last whole vector.
static inline std::size_t driven_rows(const std::uint32_t* bits,
                                      std::size_t first, std::size_t last,
                                      int b, std::uint32_t* list,
                                      std::size_t k) {
  for (std::size_t r = first; r < last; ++r) {
    list[k] = static_cast<std::uint32_t>(r);
    k += (bits[r] >> b) & 1u;
  }
  return k;
}

/// Adds row r's `width` terms of `row_energy` to e one at a time, as
/// vmm_row_accumulate adds them.
static inline double add_row_energy(double e, const double* row_energy,
                                    std::size_t width, std::size_t r) {
  const double* er = row_energy + r * width;
  for (std::size_t j = 0; j < width; ++j) e += er[j];
  return e;
}

/// Per chunk of rows [r0, r1), per plane b in order: n = build(r0, r1, b,
/// list) lists the plane's driven rows, then walk(b, list, n) adds their
/// currents, noise variances and energy terms in list order.
template <typename Build, typename Walk>
static inline void for_each_plane(std::size_t rows, int planes, Build&& build,
                                  Walk&& walk) {
  std::uint32_t list[kRowChunk];
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowChunk) {
    const std::size_t r1 = rows - r0 < kRowChunk ? rows : r0 + kRowChunk;
    for (int b = 0; b < planes; ++b) walk(b, list, build(r0, r1, b, list));
  }
}

}  // namespace full

// Portable scalar variants: bit-identical to the historical inline kernels
// (same expression shapes, same accumulation order).
double dot_scalar(const double* a, const double* b, std::size_t n);
void axpy_scalar(double a, const double* x, double* y, std::size_t n);
void gemm_accumulate_scalar(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, double* c, std::size_t ldc,
                            std::size_t m, std::size_t k, std::size_t n);
void vmm_row_accumulate_scalar(double v, const double* g, double* currents,
                               double* noise_var, double noise_frac,
                               double t_read_ns, std::size_t n,
                               double& energy);
void bitplane_accumulate_scalar(double v, const double* g, std::size_t rows,
                                std::size_t cols, const std::uint32_t* bits,
                                int planes, double* currents);
void row_energy_scalar(double v, const double* g, std::size_t rows,
                       std::size_t cols, double t_read_ns, double* out);
void bitplane_accumulate_full_scalar(double v, const double* g,
                                     std::size_t rows, std::size_t cols,
                                     const std::uint32_t* bits, int planes,
                                     double noise_frac,
                                     const double* row_energy,
                                     std::size_t energy_width, double* currents,
                                     double* noise_var, double* energy);
void noise_add_scalar(const double* var, const double* z, double* y,
                      std::size_t n);
void adc_decode_accumulate_scalar(const double* i_plus, const double* i_minus,
                                  double* acc, std::size_t n,
                                  const simd::AdcDecode& p);
void normal_fill_scalar(std::uint64_t key, std::uint64_t first, std::size_t n,
                        double* out);

#if CIM_SIMD_HAVE_AVX2
double dot_avx2(const double* a, const double* b, std::size_t n);
void axpy_avx2(double a, const double* x, double* y, std::size_t n);
void gemm_accumulate_avx2(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc,
                          std::size_t m, std::size_t k, std::size_t n);
void vmm_row_accumulate_avx2(double v, const double* g, double* currents,
                             double* noise_var, double noise_frac,
                             double t_read_ns, std::size_t n, double& energy);
void bitplane_accumulate_avx2(double v, const double* g, std::size_t rows,
                              std::size_t cols, const std::uint32_t* bits,
                              int planes, double* currents);
void row_energy_avx2(double v, const double* g, std::size_t rows,
                     std::size_t cols, double t_read_ns, double* out);
void bitplane_accumulate_full_avx2(double v, const double* g, std::size_t rows,
                                   std::size_t cols, const std::uint32_t* bits,
                                   int planes, double noise_frac,
                                   const double* row_energy,
                                   std::size_t energy_width, double* currents,
                                   double* noise_var, double* energy);
void noise_add_avx2(const double* var, const double* z, double* y,
                    std::size_t n);
void adc_decode_accumulate_avx2(const double* i_plus, const double* i_minus,
                                double* acc, std::size_t n,
                                const simd::AdcDecode& p);
void normal_fill_avx2(std::uint64_t key, std::uint64_t first, std::size_t n,
                      double* out);
#endif  // CIM_SIMD_HAVE_AVX2

#if CIM_SIMD_HAVE_AVX512
double dot_avx512(const double* a, const double* b, std::size_t n);
void axpy_avx512(double a, const double* x, double* y, std::size_t n);
void gemm_accumulate_avx512(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, double* c, std::size_t ldc,
                            std::size_t m, std::size_t k, std::size_t n);
void vmm_row_accumulate_avx512(double v, const double* g, double* currents,
                               double* noise_var, double noise_frac,
                               double t_read_ns, std::size_t n,
                               double& energy);
void bitplane_accumulate_avx512(double v, const double* g, std::size_t rows,
                                std::size_t cols, const std::uint32_t* bits,
                                int planes, double* currents);
void row_energy_avx512(double v, const double* g, std::size_t rows,
                       std::size_t cols, double t_read_ns, double* out);
void bitplane_accumulate_full_avx512(double v, const double* g,
                                     std::size_t rows, std::size_t cols,
                                     const std::uint32_t* bits, int planes,
                                     double noise_frac,
                                     const double* row_energy,
                                     std::size_t energy_width, double* currents,
                                     double* noise_var, double* energy);
void noise_add_avx512(const double* var, const double* z, double* y,
                      std::size_t n);
void normal_fill_avx512(std::uint64_t key, std::uint64_t first,
                        std::size_t n, double* out);
// The AVX-512 table reuses adc_decode_accumulate_avx2: the kernel is bound
// by its four divisions per column, and 512-bit divides retire no more
// lanes per cycle than 256-bit ones; a 512-bit variant with a gather from
// the dequantize table measured no faster (186 vs 187 ns per 64 columns).
#endif  // CIM_SIMD_HAVE_AVX512

}  // namespace cim::util::kernels::detail
