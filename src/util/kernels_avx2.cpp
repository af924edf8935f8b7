/// \file kernels_avx2.cpp
/// \brief AVX2+FMA kernel variants (256-bit lanes).
///
/// Compiled with -mavx2 -mfma -ffp-contract=off (src/util/CMakeLists.txt):
/// contraction is disabled so the element-wise kernels (axpy, gemm's inner
/// axpy, vmm_row_accumulate's currents/noise_var updates) keep the separate
/// multiply-then-add rounding of the scalar baseline and stay bit-identical
/// to it (the bit-plane kernels and adc_decode_accumulate too). FMA is used
/// only where the contract already permits reassociation: the dot
/// reduction. The energy reduction of vmm_row_accumulate runs in four
/// per-lane partial sums (columns c, c+4, ... per lane) reduced once at the
/// end — deterministic, but reassociated relative to the scalar serial
/// chain; bitplane_accumulate_noisy reduces each row the same way.
#include "util/kernels_impl.hpp"

#if CIM_SIMD_X86 && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace cim::util::kernels::detail {

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4)
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  const __m256d sum =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  double r = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void axpy_avx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d y0 = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    const __m256d y1 =
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                      _mm256_mul_pd(va, _mm256_loadu_pd(x + i + 4)));
    _mm256_storeu_pd(y + i, y0);
    _mm256_storeu_pd(y + i + 4, y1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d y0 = _mm256_add_pd(
        _mm256_loadu_pd(y + i), _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(y + i, y0);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void vmm_row_accumulate_avx2(double v, const double* g, double* currents,
                             double* noise_var, double noise_frac,
                             double t_read_ns, std::size_t n, double& energy) {
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d vnf = _mm256_set1_pd(noise_frac);
  const __m256d vt = _mm256_set1_pd(t_read_ns);
  const __m256d vmilli = _mm256_set1_pd(1e-3);
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<long long>(0x7fffffffffffffffULL)));
  __m256d e_acc = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d gi = _mm256_loadu_pd(g + c);
    const __m256d icur = _mm256_mul_pd(vv, gi);
    _mm256_storeu_pd(currents + c,
                     _mm256_add_pd(_mm256_loadu_pd(currents + c), icur));
    const __m256d cell_noise = _mm256_mul_pd(vnf, icur);
    _mm256_storeu_pd(noise_var + c,
                     _mm256_add_pd(_mm256_loadu_pd(noise_var + c),
                                   _mm256_mul_pd(cell_noise, cell_noise)));
    // Same per-element term shape as the scalar chain: |v*i| * t * 1e-3.
    const __m256d vi = _mm256_and_pd(_mm256_mul_pd(vv, icur), abs_mask);
    e_acc = _mm256_add_pd(e_acc,
                          _mm256_mul_pd(_mm256_mul_pd(vi, vt), vmilli));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, e_acc);
  double e = energy + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
  for (; c < n; ++c) {
    const double i = v * g[c];
    currents[c] += i;
    const double cell_noise = noise_frac * i;
    noise_var[c] += cell_noise * cell_noise;
    e += std::abs(v * i) * t_read_ns * 1e-3;
  }
  energy = e;
}

void bitplane_accumulate_avx2(double v, const double* g, std::size_t rows,
                              std::size_t cols, const std::uint32_t* bits,
                              int planes, double* currents) {
  // Row-outer, accumulators in memory: each row's products are formed once
  // per 4-lane chunk and added into the currents of the planes whose bit
  // is set. Register blocking with blends (the AVX-512 layout) measured no
  // faster on 256-bit lanes: it pays an add and a two-uop blend for every
  // plane, active or not.
  const __m256d vv = _mm256_set1_pd(v);
  const std::uint32_t all = plane_mask(planes);
  int act[16];
  double* cur[16];
  for (std::size_t r = 0; r < rows; ++r) {
    const int na = active_planes(bits[r] & all, act);
    if (na == 0) continue;
    for (int k = 0; k < na; ++k)
      cur[k] = currents + static_cast<std::size_t>(act[k]) * cols;
    const double* gr = g + r * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d x = _mm256_mul_pd(vv, _mm256_loadu_pd(gr + c));
      for (int k = 0; k < na; ++k)
        _mm256_storeu_pd(cur[k] + c,
                         _mm256_add_pd(_mm256_loadu_pd(cur[k] + c), x));
    }
    for (; c < cols; ++c) {
      const double x = v * gr[c];
      for (int k = 0; k < na; ++k) cur[k][c] += x;
    }
  }
}

void bitplane_accumulate_noisy_avx2(double v, const double* g,
                                    std::size_t rows, std::size_t cols,
                                    const std::uint32_t* bits, int planes,
                                    double* currents, double* noise_var,
                                    double noise_frac, double t_read_ns,
                                    double* energy) {
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d vnf = _mm256_set1_pd(noise_frac);
  const __m256d vt = _mm256_set1_pd(t_read_ns);
  const __m256d vmilli = _mm256_set1_pd(1e-3);
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<long long>(0x7fffffffffffffffULL)));
  const std::uint32_t all = plane_mask(planes);
  int act[16];
  double* cur[16];
  double* var[16];
  // Row-outer, accumulators in memory: each row's products are formed
  // once and added into every active plane's accumulators. Sparse inputs
  // (post-ReLU activations) skip most rows outright, and each row's energy
  // lanes reduce as soon as its columns are done — register blocking would
  // walk every row once per column block and carry those lanes across
  // blocks.
  for (std::size_t r = 0; r < rows; ++r) {
    const int na = active_planes(bits[r] & all, act);
    if (na == 0) continue;
    for (int k = 0; k < na; ++k) {
      cur[k] = currents + static_cast<std::size_t>(act[k]) * cols;
      var[k] = noise_var + static_cast<std::size_t>(act[k]) * cols;
    }
    const double* gr = g + r * cols;
    __m256d e_acc = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d icur = _mm256_mul_pd(vv, _mm256_loadu_pd(gr + c));
      const __m256d cell_noise = _mm256_mul_pd(vnf, icur);
      const __m256d sq = _mm256_mul_pd(cell_noise, cell_noise);
      const __m256d vi = _mm256_and_pd(_mm256_mul_pd(vv, icur), abs_mask);
      e_acc = _mm256_add_pd(e_acc,
                            _mm256_mul_pd(_mm256_mul_pd(vi, vt), vmilli));
      for (int k = 0; k < na; ++k) {
        _mm256_storeu_pd(cur[k] + c,
                         _mm256_add_pd(_mm256_loadu_pd(cur[k] + c), icur));
        _mm256_storeu_pd(var[k] + c,
                         _mm256_add_pd(_mm256_loadu_pd(var[k] + c), sq));
      }
    }
    // The row's lane partials reduce exactly as vmm_row_accumulate_avx2
    // reduces them, then join each active plane's running energy.
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, e_acc);
    const double row_e = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (int k = 0; k < na; ++k) energy[act[k]] = energy[act[k]] + row_e;
    for (; c < cols; ++c) {
      const double i = v * gr[c];
      const double cell_noise = noise_frac * i;
      const double sq = cell_noise * cell_noise;
      const double e = std::abs(v * i) * t_read_ns * 1e-3;
      for (int k = 0; k < na; ++k) {
        cur[k][c] += i;
        var[k][c] += sq;
        energy[act[k]] += e;
      }
    }
  }
}

namespace {
/// adc_level() on four lanes, operation for operation. max(x, 0) returns
/// its second operand for a NaN or -0.0 lane, so both clip to +0 like the
/// scalar `x > 0` test. The code is an exact small integer in a double;
/// truncating it gives the dequantize-table index.
inline __m256d adc_level_avx2(__m256d x, __m256d fs, __m256d max_code,
                              const double* dequant, __m256d offset,
                              __m256d step) {
  const __m256d clipped =
      _mm256_min_pd(_mm256_max_pd(x, _mm256_setzero_pd()), fs);
  const __m256d s = _mm256_mul_pd(_mm256_div_pd(clipped, fs), max_code);
  const __m256d t = _mm256_round_pd(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d up = _mm256_and_pd(
      _mm256_cmp_pd(_mm256_sub_pd(s, t), _mm256_set1_pd(0.5), _CMP_GE_OQ),
      _mm256_set1_pd(1.0));
  const __m128i code = _mm256_cvttpd_epi32(_mm256_add_pd(t, up));
  // The masked form with an all-lanes mask is the plain gather; its
  // explicit source operand keeps GCC's -Wmaybe-uninitialized quiet.
  const __m256d q = _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), dequant, code,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
  return _mm256_div_pd(_mm256_sub_pd(q, offset), step);
}
}  // namespace

void adc_decode_accumulate_avx2(const double* i_plus, const double* i_minus,
                                double* acc, std::size_t n,
                                const simd::AdcDecode& p) {
  const __m256d fs = _mm256_set1_pd(p.full_scale);
  const __m256d max_code = _mm256_set1_pd(p.max_code);
  const __m256d offset = _mm256_set1_pd(p.offset);
  const __m256d step = _mm256_set1_pd(p.step);
  const __m256d weight = _mm256_set1_pd(p.weight);
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d lp = adc_level_avx2(_mm256_loadu_pd(i_plus + c), fs,
                                      max_code, p.dequant, offset, step);
    const __m256d lm = adc_level_avx2(_mm256_loadu_pd(i_minus + c), fs,
                                      max_code, p.dequant, offset, step);
    const __m256d sum = _mm256_mul_pd(_mm256_sub_pd(lp, lm), weight);
    _mm256_storeu_pd(acc + c, _mm256_add_pd(_mm256_loadu_pd(acc + c), sum));
  }
  for (; c < n; ++c)
    acc[c] += (adc_level(i_plus[c], p) - adc_level(i_minus[c], p)) * p.weight;
}

namespace {
// Identical blocking to the scalar gemm (kernels_scalar.cpp): only the
// inner axpy is widened, so C accumulates in the same k-order with the
// same per-element rounding — bit-identical across tables.
constexpr std::size_t kKc = 64;
constexpr std::size_t kNc = 256;
}  // namespace

void gemm_accumulate_avx2(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc,
                          std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t k1 = std::min(k, k0 + kKc);
    for (std::size_t n0 = 0; n0 < n; n0 += kNc) {
      const std::size_t n1 = std::min(n, n0 + kNc);
      const std::size_t nb = n1 - n0;
      for (std::size_t r = 0; r < m; ++r) {
        const double* a_row = a + r * lda;
        double* c_row = c + r * ldc + n0;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double av = a_row[kk];
          if (av == 0.0) continue;
          axpy_avx2(av, b + kk * ldb + n0, c_row, nb);
        }
      }
    }
  }
}

}  // namespace cim::util::kernels::detail

#endif  // CIM_SIMD_X86 && __AVX2__ && __FMA__
