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
/// chain; row_energy reduces each row the same way.
#include "util/kernels_impl.hpp"

#if CIM_SIMD_X86 && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

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

namespace {

/// vmm_row_accumulate's energy term of four columns, |v * i| * t * 1e-3,
/// from their currents i = v * g.
inline __m256d energy_term_avx2(__m256d vv, __m256d icur, __m256d vt,
                                __m256d vmilli) {
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<long long>(0x7fffffffffffffffULL)));
  const __m256d vi = _mm256_and_pd(_mm256_mul_pd(vv, icur), abs_mask);
  return _mm256_mul_pd(_mm256_mul_pd(vi, vt), vmilli);
}

/// The four energy partials reduced as (l0 + l1) + (l2 + l3).
inline double reduce_add_avx2(__m256d x) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, x);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

void vmm_row_accumulate_avx2(double v, const double* g, double* currents,
                             double* noise_var, double noise_frac,
                             double t_read_ns, std::size_t n, double& energy) {
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d vnf = _mm256_set1_pd(noise_frac);
  const __m256d vt = _mm256_set1_pd(t_read_ns);
  const __m256d vmilli = _mm256_set1_pd(1e-3);
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
    e_acc = _mm256_add_pd(e_acc, energy_term_avx2(vv, icur, vt, vmilli));
  }
  double e = energy + reduce_add_avx2(e_acc);
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

void row_energy_avx2(double v, const double* g, std::size_t rows,
                     std::size_t cols, double t_read_ns, double* out) {
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d vt = _mm256_set1_pd(t_read_ns);
  const __m256d vmilli = _mm256_set1_pd(1e-3);
  const std::size_t lanes_end = cols - cols % 4;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* gr = g + r * cols;
    __m256d e_acc = _mm256_setzero_pd();
    for (std::size_t c = 0; c < lanes_end; c += 4)
      e_acc = _mm256_add_pd(
          e_acc,
          energy_term_avx2(vv, _mm256_mul_pd(vv, _mm256_loadu_pd(gr + c)), vt,
                           vmilli));
    *out++ = reduce_add_avx2(e_acc);
    for (std::size_t c = lanes_end; c < cols; ++c)
      *out++ = std::abs(v * (v * gr[c])) * t_read_ns * 1e-3;
  }
}

namespace {

/// kCompact[m]: the indices of the set bits of the 8-bit m, ascending, one
/// per byte from the low byte up.
constexpr std::array<std::uint64_t, 256> kCompact = [] {
  std::array<std::uint64_t, 256> t{};
  for (unsigned m = 0; m < 256; ++m)
    for (unsigned i = 0, k = 0; i < 8; ++i)
      if ((m >> i) & 1u) t[m] |= std::uint64_t{i} << (8 * k++);
  return t;
}();

/// full::driven_rows on eight rows at a time: bit b of each row's bits goes
/// to the sign bit, the sign mask picks the eight rows' entry of kCompact,
/// and its indices are widened, offset and stored whole.
std::size_t driven_rows_avx2(const std::uint32_t* bits, std::size_t first,
                             std::size_t last, int b, std::uint32_t* list) {
  const __m128i to_sign = _mm_cvtsi32_si128(31 - b);
  std::size_t k = 0;
  std::size_t r = first;
  for (; r + 8 <= last; r += 8) {
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bits + r));
    const auto on = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_sll_epi32(x, to_sign))));
    const __m256i idx = _mm256_add_epi32(
        _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
            static_cast<long long>(kCompact[on]))),
        _mm256_set1_epi32(static_cast<int>(r)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(list + k), idx);
    k += static_cast<std::size_t>(std::popcount(on));
  }
  return full::driven_rows(bits, r, last, b, list, k);
}

/// One plane's currents and noise variances over the K = sizeof...(k)
/// 4-column chunks at `cur`, `var` and `g` (row stride `cols`), the last
/// chunk masked to the lanes of `last` when Masked: the accumulators stay
/// in registers while the plane's driven rows go by in list order. With
/// Energy, each row's `width` (>= 1) energy terms join `e` as the row goes
/// by. Returns `e`.
template <bool Masked, bool Energy, std::size_t... k>
double plane_block_avx2(std::index_sequence<k...>, __m256d vv, __m256d vnf,
                        const double* g, std::size_t cols,
                        const std::uint32_t* list, std::size_t n, double* cur,
                        double* var, __m256i last, const double* row_energy,
                        std::size_t width, double e) {
  constexpr std::size_t K = sizeof...(k);
  const auto load = [last](std::size_t j, const double* p) {
    return Masked && j + 1 == K ? _mm256_maskload_pd(p, last)
                                : _mm256_loadu_pd(p);
  };
  const auto store = [last](std::size_t j, double* p, __m256d x) {
    if (Masked && j + 1 == K)
      _mm256_maskstore_pd(p, last, x);
    else
      _mm256_storeu_pd(p, x);
  };
  __m256d a[K] = {load(k, cur + 4 * k)...};
  __m256d q[K] = {load(k, var + 4 * k)...};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = list[i];
    const double* gr = g + r * cols;
    const __m256d x[K] = {_mm256_mul_pd(vv, load(k, gr + 4 * k))...};
    ((a[k] = _mm256_add_pd(a[k], x[k])), ...);
    const __m256d cell_noise[K] = {_mm256_mul_pd(vnf, x[k])...};
    ((q[k] = _mm256_add_pd(
          q[k], _mm256_mul_pd(cell_noise[k], cell_noise[k]))),
     ...);
    if constexpr (Energy) {
      const double* er = row_energy + r * width;
      e += er[0];
      for (std::size_t j = 1; j < width; ++j) e += er[j];
    }
  }
  (store(k, cur + 4 * k, a[k]), ...);
  (store(k, var + 4 * k, q[k]), ...);
  return e;
}

}  // namespace

void bitplane_accumulate_full_avx2(double v, const double* g,
                                   std::size_t rows, std::size_t cols,
                                   const std::uint32_t* bits, int planes,
                                   double noise_frac, const double* row_energy,
                                   std::size_t energy_width, double* currents,
                                   double* noise_var, double* energy) {
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d vnf = _mm256_set1_pd(noise_frac);
  full::for_each_plane(
      rows, planes,
      [&](std::size_t r0, std::size_t r1, int b, std::uint32_t* list) {
        return driven_rows_avx2(bits, r0, r1, b, list);
      },
      [&](int b, const std::uint32_t* list, std::size_t n) {
        double* cur = currents + static_cast<std::size_t>(b) * cols;
        double* var = noise_var + static_cast<std::size_t>(b) * cols;
        // 16-column blocks, then the rest in up to four chunks whose last
        // is masked to the columns left; the first block carries the
        // rows' energy terms.
        const auto block = [&]<std::size_t K, bool Masked>(std::size_t c,
                                                           __m256i last) {
          const auto chunks = std::make_index_sequence<K>{};
          if (c == 0)
            energy[b] = plane_block_avx2<Masked, true>(
                chunks, vv, vnf, g, cols, list, n, cur, var, last, row_energy,
                energy_width, energy[b]);
          else
            plane_block_avx2<Masked, false>(chunks, vv, vnf, g + c, cols, list,
                                            n, cur + c, var + c, last, nullptr,
                                            0, 0.0);
        };
        std::size_t c = 0;
        for (; c + 16 <= cols; c += 16)
          block.template operator()<4, false>(c, __m256i{});
        if (c == cols) {
          // cols == 0 leaves no block to carry the energy terms.
          if (cols == 0)
            for (std::size_t i = 0; i < n; ++i)
              energy[b] = full::add_row_energy(energy[b], row_energy,
                                               energy_width, list[i]);
          return;
        }
        const std::size_t rest = cols - c;
        const auto w = static_cast<long long>((rest - 1) % 4 + 1);
        const __m256i last = _mm256_cmpgt_epi64(_mm256_set1_epi64x(w),
                                                _mm256_set_epi64x(3, 2, 1, 0));
        switch ((rest + 3) / 4) {
          case 1:
            block.template operator()<1, true>(c, last);
            break;
          case 2:
            block.template operator()<2, true>(c, last);
            break;
          case 3:
            block.template operator()<3, true>(c, last);
            break;
          default:
            block.template operator()<4, true>(c, last);
            break;
        }
      });
}

void noise_add_avx2(const double* var, const double* z, double* y,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sd = _mm256_sqrt_pd(_mm256_loadu_pd(var + i));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(sd, _mm256_loadu_pd(z + i))));
  }
  for (; i < n; ++i) y[i] += std::sqrt(var[i]) * z[i];
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
/// x * c mod 2^64 per lane from three 32 x 32 -> 64 multiplies (AVX2 has
/// no 64-bit multiply); c_lo and c_hi hold c's low and high halves.
inline __m256i mul64_avx2(__m256i x, __m256i c_lo, __m256i c_hi) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
                       _mm256_mul_epu32(x, c_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(x, c_lo),
                          _mm256_slli_epi64(cross, 32));
}

/// normal::mix on four lanes.
inline __m256i mix_avx2(__m256i z) {
  using namespace normal;
  const __m256i m1_lo = _mm256_set1_epi64x(kMix1 & 0xffffffffULL);
  const __m256i m1_hi = _mm256_set1_epi64x(kMix1 >> 32);
  const __m256i m2_lo = _mm256_set1_epi64x(kMix2 & 0xffffffffULL);
  const __m256i m2_hi = _mm256_set1_epi64x(kMix2 >> 32);
  z = mul64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), m1_lo, m1_hi);
  z = mul64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), m2_lo, m2_hi);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

/// w >> 11 as an exact double (AVX2 has no u64 -> double conversion): the
/// low 52 bits through the 2^52 bias, plus 2^52 when bit 52 is set.
inline __m256d top53_avx2(__m256i w) {
  using namespace normal;
  const __m256i m = _mm256_srli_epi64(w, 11);
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(kExpBias52));
  const __m256d low = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(m, _mm256_set1_epi64x(kMantissa)), bias)),
      _mm256_set1_pd(0x1.0p52));
  const __m256i top =
      _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_srli_epi64(m, 52));
  return _mm256_add_pd(low, _mm256_castsi256_pd(_mm256_and_si256(top, bias)));
}

/// normal::horner on four lanes.
template <std::size_t I = 0, std::size_t N>
inline __m256d horner_avx2(__m256d z, const std::array<double, N>& c) {
  if constexpr (I + 1 == N) {
    return _mm256_set1_pd(c[I]);
  } else {
    return _mm256_add_pd(_mm256_set1_pd(c[I]),
                         _mm256_mul_pd(z, horner_avx2<I + 1>(z, c)));
  }
}

/// normal::log_unit on four lanes.
inline __m256d log_unit_avx2(__m256d u) {
  using namespace normal;
  const auto c = [](double x) { return _mm256_set1_pd(x); };
  const __m256i bits = _mm256_castpd_si256(u);
  // The biased exponent through the 2^52 bias, less 2^52 + 1023: exact.
  __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(bits, 52),
          _mm256_set1_epi64x(static_cast<long long>(kExpBias52)))),
      c(0x1.0p52 + 1023.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(kMantissa)),
      _mm256_set1_epi64x(static_cast<long long>(kOneBits))));
  const __m256d big = _mm256_cmp_pd(m, c(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, c(0.5)), big);
  k = _mm256_add_pd(k, _mm256_and_pd(big, c(1.0)));
  const __m256d f = _mm256_sub_pd(m, c(1.0));
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(c(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d r = _mm256_add_pd(_mm256_mul_pd(z, horner_avx2(w, kLogOdd)),
                                  _mm256_mul_pd(w, horner_avx2(w, kLogEven)));
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(c(0.5), f), f);
  const __m256d tail = _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                                     _mm256_mul_pd(k, c(kLn2Lo)));
  return _mm256_sub_pd(_mm256_mul_pd(k, c(kLn2Hi)),
                       _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f));
}

/// normal::box_muller on four lanes.
inline void box_muller_avx2(__m256i w1, __m256i w2, __m256d& cos_out,
                            __m256d& sin_out) {
  using namespace normal;
  const auto c = [](double x) { return _mm256_set1_pd(x); };
  const __m256d u1 =
      _mm256_mul_pd(_mm256_add_pd(top53_avx2(w1), c(1.0)), c(0x1.0p-53));
  const __m256d u2 = _mm256_mul_pd(top53_avx2(w2), c(0x1.0p-53));
  const __m256d mag =
      _mm256_sqrt_pd(_mm256_mul_pd(c(-2.0), log_unit_avx2(u1)));
  const __m256d q =
      _mm256_round_pd(_mm256_add_pd(_mm256_mul_pd(c(4.0), u2), c(0.5)),
                      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d x =
      _mm256_mul_pd(_mm256_sub_pd(u2, _mm256_mul_pd(c(0.25), q)), c(kTwoPi));
  const __m256d z = _mm256_mul_pd(x, x);
  const __m256d sin_x = _mm256_add_pd(
      x, _mm256_mul_pd(_mm256_mul_pd(z, x),
                       _mm256_add_pd(c(kSin1),
                                     _mm256_mul_pd(z, horner_avx2(z, kSin)))));
  const __m256d hz = _mm256_mul_pd(c(0.5), z);
  const __m256d w = _mm256_sub_pd(c(1.0), hz);
  const __m256d cos_x = _mm256_add_pd(
      w, _mm256_add_pd(
             _mm256_sub_pd(_mm256_sub_pd(c(1.0), w), hz),
             _mm256_mul_pd(z, _mm256_mul_pd(z, horner_avx2(z, kCos)))));
  // q is a small integer: its low bits sit at the bottom of q + 2^52.
  const __m256i qb = _mm256_castpd_si256(_mm256_add_pd(q, c(0x1.0p52)));
  const __m256i one = _mm256_set1_epi64x(1), two = _mm256_set1_epi64x(2);
  const __m256d odd = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(qb, one), one));
  const __m256d cos_neg = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_add_epi64(qb, one), two), two));
  const __m256d sin_neg = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(qb, two), two));
  const __m256d sign = c(-0.0);
  cos_out = _mm256_mul_pd(
      mag, _mm256_xor_pd(_mm256_blendv_pd(cos_x, sin_x, odd),
                         _mm256_and_pd(cos_neg, sign)));
  sin_out = _mm256_mul_pd(
      mag, _mm256_xor_pd(_mm256_blendv_pd(sin_x, cos_x, odd),
                         _mm256_and_pd(sin_neg, sign)));
}

/// Counters c .. c + 7 of `key` for an even c (pairs c/2 .. c/2 + 3) into
/// dst, in counter order.
inline void normal_block_avx2(std::uint64_t key, std::uint64_t c,
                              double* dst) {
  using normal::kGamma;
  const auto ll = [](std::uint64_t v) { return static_cast<long long>(v); };
  const __m256i x = _mm256_add_epi64(
      _mm256_set1_epi64x(ll(key + (c + 1) * kGamma)),
      _mm256_set_epi64x(ll(6 * kGamma), ll(4 * kGamma), ll(2 * kGamma), 0));
  __m256d cs = _mm256_setzero_pd(), sn = cs;
  box_muller_avx2(mix_avx2(x),
                  mix_avx2(_mm256_add_epi64(x, _mm256_set1_epi64x(ll(kGamma)))),
                  cs, sn);
  const __m256d lo = _mm256_unpacklo_pd(cs, sn);  // pairs 0 and 2
  const __m256d hi = _mm256_unpackhi_pd(cs, sn);  // pairs 1 and 3
  _mm256_storeu_pd(dst, _mm256_permute2f128_pd(lo, hi, 0x20));
  _mm256_storeu_pd(dst + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
}
}  // namespace

void normal_fill_avx2(std::uint64_t key, std::uint64_t first, std::size_t n,
                      double* out) {
  // Whole blocks start at an even counter; an odd first counter and a short
  // end go through a block on the stack.
  double buf[8] = {};
  std::size_t i = 0;
  if ((first & 1) != 0 && n > 0) {
    normal_block_avx2(key, first - 1, buf);
    i = std::min<std::size_t>(n, 7);
    std::copy(buf + 1, buf + 1 + i, out);
  }
  for (; i + 8 <= n; i += 8) normal_block_avx2(key, first + i, out + i);
  if (i < n) {
    normal_block_avx2(key, first + i, buf);
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
