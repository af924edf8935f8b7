/// \file kernels_impl.hpp
/// \brief Internal: per-ISA kernel variant declarations wired into the
///        dispatch tables of simd_dispatch.cpp. Not part of the public
///        util::kernels API — call through kernels.hpp (dispatched) or
///        simd::table_for() (conformance tests) instead.
#pragma once

#include <bit>
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
void bitplane_accumulate_noisy_scalar(double v, const double* g,
                                      std::size_t rows, std::size_t cols,
                                      const std::uint32_t* bits, int planes,
                                      double* currents, double* noise_var,
                                      double noise_frac, double t_read_ns,
                                      double* energy);
void adc_decode_accumulate_scalar(const double* i_plus, const double* i_minus,
                                  double* acc, std::size_t n,
                                  const simd::AdcDecode& p);

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
void bitplane_accumulate_noisy_avx2(double v, const double* g,
                                    std::size_t rows, std::size_t cols,
                                    const std::uint32_t* bits, int planes,
                                    double* currents, double* noise_var,
                                    double noise_frac, double t_read_ns,
                                    double* energy);
void adc_decode_accumulate_avx2(const double* i_plus, const double* i_minus,
                                double* acc, std::size_t n,
                                const simd::AdcDecode& p);
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
void bitplane_accumulate_noisy_avx512(double v, const double* g,
                                      std::size_t rows, std::size_t cols,
                                      const std::uint32_t* bits, int planes,
                                      double* currents, double* noise_var,
                                      double noise_frac, double t_read_ns,
                                      double* energy);
// The AVX-512 table reuses adc_decode_accumulate_avx2: the kernel is bound
// by its four divisions per column, and 512-bit divides retire no more
// lanes per cycle than 256-bit ones; a 512-bit variant with a gather from
// the dequantize table measured no faster (186 vs 187 ns per 64 columns).
#endif  // CIM_SIMD_HAVE_AVX512

}  // namespace cim::util::kernels::detail
