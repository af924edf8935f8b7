/// \file kernels_avx512.cpp
/// \brief AVX-512 F/DQ/VL kernel variants (512-bit lanes).
///
/// Compiled with -mavx512f -mavx512dq -mavx512vl -mfma -ffp-contract=off
/// (src/util/CMakeLists.txt). Same contract split as the AVX2 TU: the
/// element-wise kernels use separate multiply and add so they stay
/// bit-identical to the scalar baseline; only the dot reduction uses FMA,
/// and the vmm_row energy reduction runs in eight per-lane partials
/// reduced once at the end (row_energy reduces each row the same way).
///
/// GCC 12's headers expand several unmasked intrinsics (the 512-bit
/// reduction and extract, srli, unpack, sqrt, roundscale) as the masked
/// builtin fed an `_mm512_undefined_*` value, which -Wall reports as
/// uninitialized. This TU uses the `_mm512_maskz_*` form with every lane
/// set instead: the same instruction and the same bits.
#include "util/kernels_impl.hpp"

#if CIM_SIMD_X86 && defined(__AVX512F__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace cim::util::kernels::detail {

namespace {

constexpr __mmask8 kAllLanes = 0xff;

/// _mm512_reduce_add_pd in the header's order and operand order: the high
/// 256-bit half plus the low one, then the high 128-bit half plus the low
/// one, then lane 0 plus lane 1.
inline double reduce_add_avx512(__m512d x) {
  const __m256d h =
      _mm256_add_pd(_mm512_maskz_extractf64x4_pd(kAllLanes, x, 1),
                    _mm512_maskz_extractf64x4_pd(kAllLanes, x, 0));
  const __m128d q =
      _mm_add_pd(_mm256_extractf128_pd(h, 1), _mm256_castpd256_pd128(h));
  return _mm_cvtsd_f64(q) + _mm_cvtsd_f64(_mm_unpackhi_pd(q, q));
}

/// vmm_row_accumulate's energy term of eight columns, |v * i| * t * 1e-3,
/// from their currents i = v * g.
inline __m512d energy_term_avx512(__m512d vv, __m512d icur, __m512d vt,
                                  __m512d vmilli) {
  const __m512d vi = _mm512_abs_pd(_mm512_mul_pd(vv, icur));
  return _mm512_mul_pd(_mm512_mul_pd(vi, vt), vmilli);
}

}  // namespace

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
  double r = reduce_add_avx512(sum);
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
    e_acc = _mm512_add_pd(e_acc, energy_term_avx512(vv, icur, vt, vmilli));
  }
  double e = energy + reduce_add_avx512(e_acc);
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

/// bitplane_accumulate over planes [p0, p0 + NP), NP = sizeof...(k): every
/// plane's accumulators for a 32-column block (four 8-lane chunks) stay in
/// registers across the whole row loop, 4·NP independent add chains. The
/// plane loops are folds over k, so no build leaves them rolled with the
/// accumulators in memory. A masked add leaves a plane's lanes unchanged
/// on rows whose bit is clear, which equals skipping the row. Rows are
/// never skipped by a branch: on random bit patterns its mispredictions
/// cost more than the adds it saves. Columns past the last full block go
/// one masked 8-lane chunk at a time.
template <std::size_t... k>
void bitplane_group_avx512(std::index_sequence<k...>, double v,
                           const double* g, std::size_t rows,
                           std::size_t cols, const std::uint32_t* bits,
                           int p0, double* currents) {
  constexpr std::uint32_t kGroup = (1u << sizeof...(k)) - 1u;
  const __m512d vv = _mm512_set1_pd(v);
  double* const cur[] = {currents + (p0 + k) * cols...};
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    __m512d a0[] = {_mm512_loadu_pd(cur[k] + c)...};
    __m512d a1[] = {_mm512_loadu_pd(cur[k] + c + 8)...};
    __m512d a2[] = {_mm512_loadu_pd(cur[k] + c + 16)...};
    __m512d a3[] = {_mm512_loadu_pd(cur[k] + c + 24)...};
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint32_t m = (bits[r] >> p0) & kGroup;
      const double* gr = g + r * cols + c;
      const __m512d x0 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr));
      const __m512d x1 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr + 8));
      const __m512d x2 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr + 16));
      const __m512d x3 = _mm512_mul_pd(vv, _mm512_loadu_pd(gr + 24));
      const __mmask8 on[] = {lane_select((m >> k) & 1u)...};
      ((a0[k] = _mm512_mask_add_pd(a0[k], on[k], a0[k], x0)), ...);
      ((a1[k] = _mm512_mask_add_pd(a1[k], on[k], a1[k], x1)), ...);
      ((a2[k] = _mm512_mask_add_pd(a2[k], on[k], a2[k], x2)), ...);
      ((a3[k] = _mm512_mask_add_pd(a3[k], on[k], a3[k], x3)), ...);
    }
    (_mm512_storeu_pd(cur[k] + c, a0[k]), ...);
    (_mm512_storeu_pd(cur[k] + c + 8, a1[k]), ...);
    (_mm512_storeu_pd(cur[k] + c + 16, a2[k]), ...);
    (_mm512_storeu_pd(cur[k] + c + 24, a3[k]), ...);
  }
  for (; c < cols; c += 8) {
    const std::size_t w = std::min<std::size_t>(8, cols - c);
    const auto lanes = static_cast<__mmask8>(0xffu >> (8 - w));
    __m512d a[] = {_mm512_maskz_loadu_pd(lanes, cur[k] + c)...};
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint32_t m = (bits[r] >> p0) & kGroup;
      const __m512d x =
          _mm512_mul_pd(vv, _mm512_maskz_loadu_pd(lanes, g + r * cols + c));
      ((a[k] = _mm512_mask_add_pd(a[k], lane_select((m >> k) & 1u), a[k], x)),
       ...);
    }
    (_mm512_mask_storeu_pd(cur[k] + c, lanes, a[k]), ...);
  }
}

}  // namespace

void bitplane_accumulate_avx512(double v, const double* g, std::size_t rows,
                                std::size_t cols, const std::uint32_t* bits,
                                int planes, double* currents) {
  for (int p0 = 0; p0 < planes; p0 += 4) {
    const auto group = [&](auto planes_here) {
      bitplane_group_avx512(planes_here, v, g, rows, cols, bits, p0, currents);
    };
    switch (std::min(4, planes - p0)) {
      case 1: group(std::make_index_sequence<1>{}); break;
      case 2: group(std::make_index_sequence<2>{}); break;
      case 3: group(std::make_index_sequence<3>{}); break;
      default: group(std::make_index_sequence<4>{}); break;
    }
  }
}

void row_energy_avx512(double v, const double* g, std::size_t rows,
                       std::size_t cols, double t_read_ns, double* out) {
  const __m512d vv = _mm512_set1_pd(v);
  const __m512d vt = _mm512_set1_pd(t_read_ns);
  const __m512d vmilli = _mm512_set1_pd(1e-3);
  const std::size_t lanes_end = cols - cols % 8;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* gr = g + r * cols;
    __m512d e_acc = _mm512_setzero_pd();
    for (std::size_t c = 0; c < lanes_end; c += 8)
      e_acc = _mm512_add_pd(
          e_acc, energy_term_avx512(
                     vv, _mm512_mul_pd(vv, _mm512_loadu_pd(gr + c)), vt,
                     vmilli));
    *out++ = reduce_add_avx512(e_acc);
    for (std::size_t c = lanes_end; c < cols; ++c)
      *out++ = std::abs(v * (v * gr[c])) * t_read_ns * 1e-3;
  }
}

namespace {

/// full::driven_rows on sixteen rows at a time: the rows whose bit b is set
/// are compressed out of a vector of row indices and stored whole.
std::size_t driven_rows_avx512(const std::uint32_t* bits, std::size_t first,
                               std::size_t last, int b, std::uint32_t* list) {
  const __m512i bit = _mm512_set1_epi32(1 << b);
  __m512i rows = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(first)),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  std::size_t k = 0;
  std::size_t r = first;
  for (; r + 16 <= last; r += 16) {
    const __mmask16 on =
        _mm512_test_epi32_mask(_mm512_loadu_si512(bits + r), bit);
    _mm512_storeu_si512(list + k, _mm512_maskz_compress_epi32(on, rows));
    k += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(on)));
    rows = _mm512_add_epi32(rows, _mm512_set1_epi32(16));
  }
  return full::driven_rows(bits, r, last, b, list, k);
}

/// One plane's currents and noise variances over the K = sizeof...(k)
/// 8-column chunks at `cur`, `var` and `g` (row stride `cols`), the last
/// chunk masked to `last`: the accumulators stay in registers while the
/// plane's driven rows go by in list order. With Energy, each row's `width`
/// (>= 1) energy terms join `e` as the row goes by. Returns `e`.
template <bool Energy, std::size_t... k>
double plane_block_avx512(std::index_sequence<k...>, __m512d vv, __m512d vnf,
                          const double* g, std::size_t cols,
                          const std::uint32_t* list, std::size_t n,
                          double* cur, double* var, __mmask8 last,
                          const double* row_energy, std::size_t width,
                          double e) {
  constexpr std::size_t K = sizeof...(k);
  constexpr auto mask = [](std::size_t j, __mmask8 m) {
    return j + 1 < K ? kAllLanes : m;
  };
  __m512d a[K] = {_mm512_maskz_loadu_pd(mask(k, last), cur + 8 * k)...};
  __m512d q[K] = {_mm512_maskz_loadu_pd(mask(k, last), var + 8 * k)...};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = list[i];
    const double* gr = g + r * cols;
    const __m512d x[K] = {_mm512_mul_pd(
        vv, _mm512_maskz_loadu_pd(mask(k, last), gr + 8 * k))...};
    ((a[k] = _mm512_add_pd(a[k], x[k])), ...);
    const __m512d cell_noise[K] = {_mm512_mul_pd(vnf, x[k])...};
    ((q[k] = _mm512_add_pd(
          q[k], _mm512_mul_pd(cell_noise[k], cell_noise[k]))),
     ...);
    if constexpr (Energy) {
      const double* er = row_energy + r * width;
      e += er[0];
      for (std::size_t j = 1; j < width; ++j) e += er[j];
    }
  }
  (_mm512_mask_storeu_pd(cur + 8 * k, mask(k, last), a[k]), ...);
  (_mm512_mask_storeu_pd(var + 8 * k, mask(k, last), q[k]), ...);
  return e;
}

}  // namespace

void bitplane_accumulate_full_avx512(double v, const double* g,
                                     std::size_t rows, std::size_t cols,
                                     const std::uint32_t* bits, int planes,
                                     double noise_frac,
                                     const double* row_energy,
                                     std::size_t energy_width, double* currents,
                                     double* noise_var, double* energy) {
  const __m512d vv = _mm512_set1_pd(v);
  const __m512d vnf = _mm512_set1_pd(noise_frac);
  full::for_each_plane(
      rows, planes,
      [&](std::size_t r0, std::size_t r1, int b, std::uint32_t* list) {
        return driven_rows_avx512(bits, r0, r1, b, list);
      },
      [&](int b, const std::uint32_t* list, std::size_t n) {
        double* cur = currents + static_cast<std::size_t>(b) * cols;
        double* var = noise_var + static_cast<std::size_t>(b) * cols;
        // 32-column blocks, then the rest in up to four chunks whose last
        // is masked to the columns left; the first block carries the
        // rows' energy terms.
        const auto block = [&]<std::size_t K>(std::size_t c, __mmask8 last) {
          const auto chunks = std::make_index_sequence<K>{};
          if (c == 0)
            energy[b] = plane_block_avx512<true>(
                chunks, vv, vnf, g, cols, list, n, cur, var, last, row_energy,
                energy_width, energy[b]);
          else
            plane_block_avx512<false>(chunks, vv, vnf, g + c, cols, list, n,
                                      cur + c, var + c, last, nullptr, 0,
                                      0.0);
        };
        std::size_t c = 0;
        for (; c + 32 <= cols; c += 32)
          block.template operator()<4>(c, kAllLanes);
        if (c == cols) {
          // cols == 0 leaves no block to carry the energy terms.
          if (cols == 0)
            for (std::size_t i = 0; i < n; ++i)
              energy[b] = full::add_row_energy(energy[b], row_energy,
                                               energy_width, list[i]);
          return;
        }
        const std::size_t rest = cols - c;
        const auto last = static_cast<__mmask8>(0xffu >> (7 - (rest - 1) % 8));
        switch ((rest + 7) / 8) {
          case 1:
            block.template operator()<1>(c, last);
            break;
          case 2:
            block.template operator()<2>(c, last);
            break;
          case 3:
            block.template operator()<3>(c, last);
            break;
          default:
            block.template operator()<4>(c, last);
            break;
        }
      });
}

void noise_add_avx512(const double* var, const double* z, double* y,
                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d sd =
        _mm512_maskz_sqrt_pd(kAllLanes, _mm512_loadu_pd(var + i));
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(sd, _mm512_loadu_pd(z + i))));
  }
  if (i < n) {
    const auto m = static_cast<__mmask8>(0xffu >> (8 - (n - i)));
    const __m512d sd =
        _mm512_maskz_sqrt_pd(m, _mm512_maskz_loadu_pd(m, var + i));
    _mm512_mask_storeu_pd(
        y + i, m,
        _mm512_add_pd(_mm512_maskz_loadu_pd(m, y + i),
                      _mm512_mul_pd(sd, _mm512_maskz_loadu_pd(m, z + i))));
  }
}

namespace {
/// Each 64-bit lane shifted right by N.
template <unsigned N>
inline __m512i srli_avx512(__m512i x) {
  return _mm512_maskz_srli_epi64(kAllLanes, x, N);
}

/// normal::mix on eight lanes.
inline __m512i mix_avx512(__m512i z) {
  using namespace normal;
  const __m512i m1 = _mm512_set1_epi64(static_cast<long long>(kMix1));
  const __m512i m2 = _mm512_set1_epi64(static_cast<long long>(kMix2));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, srli_avx512<30>(z)), m1);
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, srli_avx512<27>(z)), m2);
  return _mm512_xor_si512(z, srli_avx512<31>(z));
}

/// normal::horner on eight lanes.
template <std::size_t I = 0, std::size_t N>
inline __m512d horner_avx512(__m512d z, const std::array<double, N>& c) {
  if constexpr (I + 1 == N) {
    return _mm512_set1_pd(c[I]);
  } else {
    return _mm512_add_pd(_mm512_set1_pd(c[I]),
                         _mm512_mul_pd(z, horner_avx512<I + 1>(z, c)));
  }
}

/// normal::log_unit on eight lanes.
inline __m512d log_unit_avx512(__m512d u) {
  using namespace normal;
  const auto c = [](double x) { return _mm512_set1_pd(x); };
  const __m512i bits = _mm512_castpd_si512(u);
  __m512d k =
      _mm512_sub_pd(_mm512_cvtepi64_pd(srli_avx512<52>(bits)), c(1023.0));
  __m512d m = _mm512_castsi512_pd(_mm512_or_si512(
      _mm512_and_si512(bits, _mm512_set1_epi64(kMantissa)),
      _mm512_set1_epi64(static_cast<long long>(kOneBits))));
  const __mmask8 big = _mm512_cmp_pd_mask(m, c(kSqrt2), _CMP_GT_OQ);
  m = _mm512_mask_mul_pd(m, big, m, c(0.5));
  k = _mm512_mask_add_pd(k, big, k, c(1.0));
  const __m512d f = _mm512_sub_pd(m, c(1.0));
  const __m512d s = _mm512_div_pd(f, _mm512_add_pd(c(2.0), f));
  const __m512d z = _mm512_mul_pd(s, s);
  const __m512d w = _mm512_mul_pd(z, z);
  const __m512d r =
      _mm512_add_pd(_mm512_mul_pd(z, horner_avx512(w, kLogOdd)),
                    _mm512_mul_pd(w, horner_avx512(w, kLogEven)));
  const __m512d hfsq = _mm512_mul_pd(_mm512_mul_pd(c(0.5), f), f);
  const __m512d tail = _mm512_add_pd(_mm512_mul_pd(s, _mm512_add_pd(hfsq, r)),
                                     _mm512_mul_pd(k, c(kLn2Lo)));
  return _mm512_sub_pd(_mm512_mul_pd(k, c(kLn2Hi)),
                       _mm512_sub_pd(_mm512_sub_pd(hfsq, tail), f));
}

/// normal::box_muller on eight lanes. The 53-bit words convert exactly.
inline void box_muller_avx512(__m512i w1, __m512i w2, __m512d& cos_out,
                              __m512d& sin_out) {
  using namespace normal;
  const auto c = [](double x) { return _mm512_set1_pd(x); };
  const __m512d u1 = _mm512_mul_pd(
      _mm512_add_pd(_mm512_cvtepu64_pd(srli_avx512<11>(w1)), c(1.0)),
      c(0x1.0p-53));
  const __m512d u2 =
      _mm512_mul_pd(_mm512_cvtepu64_pd(srli_avx512<11>(w2)), c(0x1.0p-53));
  const __m512d mag = _mm512_maskz_sqrt_pd(
      kAllLanes, _mm512_mul_pd(c(-2.0), log_unit_avx512(u1)));
  const __m512d q = _mm512_maskz_roundscale_pd(
      kAllLanes, _mm512_add_pd(_mm512_mul_pd(c(4.0), u2), c(0.5)),
      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m512d x =
      _mm512_mul_pd(_mm512_sub_pd(u2, _mm512_mul_pd(c(0.25), q)), c(kTwoPi));
  const __m512d z = _mm512_mul_pd(x, x);
  const __m512d sin_x = _mm512_add_pd(
      x, _mm512_mul_pd(_mm512_mul_pd(z, x),
                       _mm512_add_pd(c(kSin1), _mm512_mul_pd(
                                                   z, horner_avx512(z, kSin)))));
  const __m512d hz = _mm512_mul_pd(c(0.5), z);
  const __m512d w = _mm512_sub_pd(c(1.0), hz);
  const __m512d cos_x = _mm512_add_pd(
      w, _mm512_add_pd(
             _mm512_sub_pd(_mm512_sub_pd(c(1.0), w), hz),
             _mm512_mul_pd(z, _mm512_mul_pd(z, horner_avx512(z, kCos)))));
  const __m512i qi = _mm512_cvttpd_epi64(q);
  const __m512i one = _mm512_set1_epi64(1), two = _mm512_set1_epi64(2);
  const __mmask8 odd = _mm512_test_epi64_mask(qi, one);
  const __mmask8 cos_neg =
      _mm512_test_epi64_mask(_mm512_add_epi64(qi, one), two);
  const __mmask8 sin_neg = _mm512_test_epi64_mask(qi, two);
  const __m512d cv = _mm512_mask_blend_pd(odd, cos_x, sin_x);
  const __m512d sv = _mm512_mask_blend_pd(odd, sin_x, cos_x);
  cos_out = _mm512_mul_pd(mag, _mm512_mask_xor_pd(cv, cos_neg, cv, c(-0.0)));
  sin_out = _mm512_mul_pd(mag, _mm512_mask_xor_pd(sv, sin_neg, sv, c(-0.0)));
}

/// Counters c .. c + 15 of `key` for an even c (pairs c/2 .. c/2 + 7) into
/// dst, in counter order.
inline void normal_block_avx512(std::uint64_t key, std::uint64_t c,
                                double* dst) {
  using normal::kGamma;
  const auto ll = [](std::uint64_t v) { return static_cast<long long>(v); };
  const __m512i x = _mm512_add_epi64(
      _mm512_set1_epi64(ll(key + (c + 1) * kGamma)),
      _mm512_set_epi64(ll(14 * kGamma), ll(12 * kGamma), ll(10 * kGamma),
                       ll(8 * kGamma), ll(6 * kGamma), ll(4 * kGamma),
                       ll(2 * kGamma), 0));
  __m512d cs = _mm512_setzero_pd(), sn = cs;
  box_muller_avx512(
      mix_avx512(x),
      mix_avx512(_mm512_add_epi64(x, _mm512_set1_epi64(ll(kGamma)))), cs, sn);
  // Pairs 0, 2, 4, 6 in lo and 1, 3, 5, 7 in hi.
  const __m512d lo = _mm512_maskz_unpacklo_pd(kAllLanes, cs, sn);
  const __m512d hi = _mm512_maskz_unpackhi_pd(kAllLanes, cs, sn);
  _mm512_storeu_pd(dst, _mm512_permutex2var_pd(
                            lo, _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0),
                            hi));
  _mm512_storeu_pd(dst + 8, _mm512_permutex2var_pd(
                                lo, _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4),
                                hi));
}
}  // namespace

void normal_fill_avx512(std::uint64_t key, std::uint64_t first,
                        std::size_t n, double* out) {
  // Whole blocks start at an even counter; an odd first counter and a short
  // end go through a block on the stack.
  double buf[16] = {};
  std::size_t i = 0;
  if ((first & 1) != 0 && n > 0) {
    normal_block_avx512(key, first - 1, buf);
    i = std::min<std::size_t>(n, 15);
    std::copy(buf + 1, buf + 1 + i, out);
  }
  for (; i + 16 <= n; i += 16) normal_block_avx512(key, first + i, out + i);
  if (i < n) {
    normal_block_avx512(key, first + i, buf);
    std::copy(buf, buf + (n - i), out + i);
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
