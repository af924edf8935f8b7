/// \file kernels_impl.hpp
/// \brief Internal: per-ISA kernel variant declarations wired into the
///        dispatch tables of simd_dispatch.cpp. Not part of the public
///        util::kernels API — call through kernels.hpp (dispatched) or
///        simd::table_for() (conformance tests) instead.
#pragma once

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

/// The decoded level of one ADC sample: Adc::quantize, Adc::dequantize and
/// the tile's level decode, with lround(s) written as t + (s - t >= 0.5)
/// for t = trunc(s), which agrees for every s in [0, max_code]. Clamping
/// through `x > 0` sends NaN (and -0.0) to code 0, as Adc::quantize does.
/// Inline so every ISA TU compiles its scalar tail from this one
/// definition; the SIMD bodies evaluate the same operations lane-wise.
inline double adc_level(double x, const simd::AdcDecode& p) {
  const double clipped =
      x > 0.0 ? (p.full_scale < x ? p.full_scale : x) : 0.0;
  const double s = clipped / p.full_scale * p.max_code;
  const double t = static_cast<double>(static_cast<std::int64_t>(s));
  const double code = t + (s - t >= 0.5 ? 1.0 : 0.0);
  return (code / p.max_code * p.full_scale / p.v_read - p.offset) / p.step;
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
// The AVX-512 table reuses adc_decode_accumulate_avx2: the kernel is bound
// by its eight divisions per column, and 512-bit divides retire no more
// lanes per cycle than 256-bit ones, so an AVX-512 variant measured no
// faster (32-128 columns).
#endif  // CIM_SIMD_HAVE_AVX512

}  // namespace cim::util::kernels::detail
