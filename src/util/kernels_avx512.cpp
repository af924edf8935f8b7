/// \file kernels_avx512.cpp
/// \brief AVX-512 F/DQ/VL kernel variants (512-bit lanes).
///
/// Compiled with -mavx512f -mavx512dq -mavx512vl -mfma -ffp-contract=off
/// (src/util/CMakeLists.txt). Same contract split as the AVX2 TU: the
/// element-wise kernels use separate multiply and add so they stay
/// bit-identical to the scalar baseline; only the dot reduction uses FMA,
/// and the vmm_row energy reduction runs in eight per-lane partials
/// reduced once at the end (bitplane_accumulate_noisy reduces each row the
/// same way).
#include "util/kernels_impl.hpp"

#if CIM_SIMD_X86 && defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace cim::util::kernels::detail {

double dot_avx512(const double* a, const double* b, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 16),
                           _mm512_loadu_pd(b + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 24),
                           _mm512_loadu_pd(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8)
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
  const __m512d sum =
      _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3));
  double r = _mm512_reduce_add_pd(sum);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void axpy_avx512(double a, const double* x, double* y, std::size_t n) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d y0 = _mm512_add_pd(
        _mm512_loadu_pd(y + i), _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    const __m512d y1 =
        _mm512_add_pd(_mm512_loadu_pd(y + i + 8),
                      _mm512_mul_pd(va, _mm512_loadu_pd(x + i + 8)));
    _mm512_storeu_pd(y + i, y0);
    _mm512_storeu_pd(y + i + 8, y1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d y0 = _mm512_add_pd(
        _mm512_loadu_pd(y + i), _mm512_mul_pd(va, _mm512_loadu_pd(x + i)));
    _mm512_storeu_pd(y + i, y0);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void vmm_row_accumulate_avx512(double v, const double* g, double* currents,
                               double* noise_var, double noise_frac,
                               double t_read_ns, std::size_t n,
                               double& energy) {
  const __m512d vv = _mm512_set1_pd(v);
  const __m512d vnf = _mm512_set1_pd(noise_frac);
  const __m512d vt = _mm512_set1_pd(t_read_ns);
  const __m512d vmilli = _mm512_set1_pd(1e-3);
  __m512d e_acc = _mm512_setzero_pd();
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m512d gi = _mm512_loadu_pd(g + c);
    const __m512d icur = _mm512_mul_pd(vv, gi);
    _mm512_storeu_pd(currents + c,
                     _mm512_add_pd(_mm512_loadu_pd(currents + c), icur));
    const __m512d cell_noise = _mm512_mul_pd(vnf, icur);
    _mm512_storeu_pd(noise_var + c,
                     _mm512_add_pd(_mm512_loadu_pd(noise_var + c),
                                   _mm512_mul_pd(cell_noise, cell_noise)));
    // Same per-element term shape as the scalar chain: |v*i| * t * 1e-3.
    const __m512d vi = _mm512_abs_pd(_mm512_mul_pd(vv, icur));
    e_acc = _mm512_add_pd(e_acc,
                          _mm512_mul_pd(_mm512_mul_pd(vi, vt), vmilli));
  }
  double e = energy + _mm512_reduce_add_pd(e_acc);
  for (; c < n; ++c) {
    const double i = v * g[c];
    currents[c] += i;
    const double cell_noise = noise_frac * i;
    noise_var[c] += cell_noise * cell_noise;
    e += std::abs(v * i) * t_read_ns * 1e-3;
  }
  energy = e;
}

namespace {

/// Whole-register lane mask: all eight lanes when `on` is 1, none when 0.
inline __mmask8 lane_select(std::uint32_t on) {
  return static_cast<__mmask8>(0u - on);
}

/// bitplane_accumulate over planes [p0, p0 + NP): every plane's
/// accumulators for a 32-column block (four 8-lane chunks) stay in
/// registers across the whole row loop, 4·NP independent add chains. A
/// masked add leaves a plane's lanes unchanged on rows whose bit is clear,
/// which equals skipping the row. Rows are never skipped by a branch: on
/// random bit patterns its mispredictions cost more than the adds it
/// saves. Columns past the last full block go one masked 8-lane chunk at
/// a time.
template <int NP>
void bitplane_group_avx512(double v, const double* g, std::size_t rows,
                           std::size_t cols, const std::uint32_t* bits,
                           int p0, double* currents) {
  constexpr std::uint32_t kGroup = (1u << NP) - 1u;
  const __m512d vv = _mm512_set1_pd(v);
  double* cur[NP];
  for (int k = 0; k < NP; ++k)
    cur[k] = currents + static_cast<std::size_t>(p0 + k) * cols;
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    __m512d a0[NP], a1[NP], a2[NP], a3[NP];
    for (int k = 0; k < NP; ++k) {
      a0[k] = _mm512_loadu_pd(cur[k] + c);
      a1[k] = _mm512_loadu_pd(cur[k] + c + 8);
      a2[k] = _mm512_loadu_pd(cur[k] + c + 16);
      a3[k] = _mm512_loadu_pd(cur[k] + c + 24);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint32_t m = (bits[r] >> p0) & kGroup;
      const double* gr = g + r * cols + c;
      const __m512d x0 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr));
      const __m512d x1 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr + 8));
      const __m512d x2 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr + 16));
      const __m512d x3 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr + 24));
      for (int k = 0; k < NP; ++k) {
        const __mmask8 on = lane_select((m >> k) & 1u);
        a0[k] = _mm512_mask_add_pd(a0[k], on, a0[k], x0);
        a1[k] = _mm512_mask_add_pd(a1[k], on, a1[k], x1);
        a2[k] = _mm512_mask_add_pd(a2[k], on, a2[k], x2);
        a3[k] = _mm512_mask_add_pd(a3[k], on, a3[k], x3);
      }
    }
    for (int k = 0; k < NP; ++k) {
      _mm512_storeu_pd(cur[k] + c, a0[k]);
      _mm512_storeu_pd(cur[k] + c + 8, a1[k]);
      _mm512_storeu_pd(cur[k] + c + 16, a2[k]);
      _mm512_storeu_pd(cur[k] + c + 24, a3[k]);
    }
  }
  for (; c < cols; c += 8) {
    const std::size_t w = std::min<std::size_t>(8, cols - c);
    const auto lanes = static_cast<__mmask8>(0xffu >> (8 - w));
    __m512d a[NP];
    for (int k = 0; k < NP; ++k)
      a[k] = _mm512_maskz_loadu_pd(lanes, cur[k] + c);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint32_t m = (bits[r] >> p0) & kGroup;
      const __m512d x =
          _mm512_mul_pd(vv, _mm512_maskz_loadu_pd(lanes, g + r * cols + c));
      for (int k = 0; k < NP; ++k)
        a[k] = _mm512_mask_add_pd(a[k], lane_select((m >> k) & 1u), a[k], x);
    }
    for (int k = 0; k < NP; ++k)
      _mm512_mask_storeu_pd(cur[k] + c, lanes, a[k]);
  }
}

}  // namespace

void bitplane_accumulate_avx512(double v, const double* g, std::size_t rows,
                                std::size_t cols, const std::uint32_t* bits,
                                int planes, double* currents) {
  for (int p0 = 0; p0 < planes; p0 += 4) {
    switch (std::min(4, planes - p0)) {
      case 1:
        bitplane_group_avx512<1>(v, g, rows, cols, bits, p0, currents);
        break;
      case 2:
        bitplane_group_avx512<2>(v, g, rows, cols, bits, p0, currents);
        break;
      case 3:
        bitplane_group_avx512<3>(v, g, rows, cols, bits, p0, currents);
        break;
      default:
        bitplane_group_avx512<4>(v, g, rows, cols, bits, p0, currents);
        break;
    }
  }
}

void bitplane_accumulate_noisy_avx512(double v, const double* g,
                                      std::size_t rows, std::size_t cols,
                                      const std::uint32_t* bits, int planes,
                                      double* currents, double* noise_var,
                                      double noise_frac, double t_read_ns,
                                      double* energy) {
  const __m512d vv = _mm512_set1_pd(v);
  const __m512d vnf = _mm512_set1_pd(noise_frac);
  const __m512d vt = _mm512_set1_pd(t_read_ns);
  const __m512d vmilli = _mm512_set1_pd(1e-3);
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
    __m512d e_acc = _mm512_setzero_pd();
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m512d icur = _mm512_mul_pd(vv, _mm512_loadu_pd(gr + c));
      const __m512d cell_noise = _mm512_mul_pd(vnf, icur);
      const __m512d sq = _mm512_mul_pd(cell_noise, cell_noise);
      const __m512d vi = _mm512_abs_pd(_mm512_mul_pd(vv, icur));
      e_acc = _mm512_add_pd(e_acc,
                            _mm512_mul_pd(_mm512_mul_pd(vi, vt), vmilli));
      for (int k = 0; k < na; ++k) {
        _mm512_storeu_pd(cur[k] + c,
                         _mm512_add_pd(_mm512_loadu_pd(cur[k] + c), icur));
        _mm512_storeu_pd(var[k] + c,
                         _mm512_add_pd(_mm512_loadu_pd(var[k] + c), sq));
      }
    }
    // The row's lane partials reduce exactly as vmm_row_accumulate_avx512
    // reduces them, then join each active plane's running energy.
    const double row_e = _mm512_reduce_add_pd(e_acc);
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
// Identical blocking to the scalar gemm (kernels_scalar.cpp): only the
// inner axpy is widened, so C accumulates in the same k-order with the
// same per-element rounding — bit-identical across tables.
constexpr std::size_t kKc = 64;
constexpr std::size_t kNc = 256;
}  // namespace

void gemm_accumulate_avx512(const double* a, std::size_t lda, const double* b,
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
          axpy_avx512(av, b + kk * ldb + n0, c_row, nb);
        }
      }
    }
  }
}

}  // namespace cim::util::kernels::detail

#endif  // CIM_SIMD_X86 && __AVX512F__ && __AVX512DQ__ && __AVX512VL__
