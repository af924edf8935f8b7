/// \file kernels.hpp
/// \brief Runtime-dispatched numeric micro-kernels for the simulator's
///        inner loops (crossbar VMM, dense matvec/GEMM, tier-0 read noise).
///
/// These are the tight loops NeuroSim/MNSIM-class frameworks spend their
/// time in, plus the tile's per-cycle ADC conversion and decode. Layout
/// assumptions are uniform across the repo: dense row-major `double`
/// storage (util::Matrix, the crossbar conductance caches), so the kernels
/// take raw pointers + lengths and leave bounds checking to the callers.
///
/// Each entry point forwards through the active simd::KernelTable (one
/// relaxed atomic load), selected at startup from CPUID and the `CIM_SIMD`
/// environment variable — see simd_dispatch.hpp for the selection rules
/// and the full cross-ISA bit-exactness contract.
///
/// Accumulation contracts:
///  - `dot` / `gemm_accumulate` tolerate reassociation: `dot` uses
///    multi-accumulator splitting (4-way scalar, per-lane FMA on SIMD
///    tables) and is deterministic per table but drifts by ulps across
///    tables. `gemm_accumulate` accumulates each C element in k-order with
///    separate mul+add on every table, so it is in fact bit-identical
///    across tables — but callers should still only rely on the weaker
///    per-table determinism.
///  - `vmm_row_accumulate`'s `currents` / `noise_var` outputs preserve the
///    exact element order and expression shapes of the historical crossbar
///    VMM loop on every table — the crossbar's bit-identical output
///    contract (serial vmm == batched vmm == any CIM_SIMD setting) depends
///    on it. Only its `energy` reduction reassociates across tables.
///  - `bitplane_accumulate` / `bitplane_accumulate_full` fuse the
///    per-plane reads of one bit-serial request: per plane they make the
///    exact updates of per-plane `axpy` / `vmm_row_accumulate` calls, so
///    their currents and noise variances are bit-identical on every table.
///    The tier-0 kernel walks a list of each plane's driven rows and takes
///    each row's energy from a `row_energy` table: the terms that table's
///    `vmm_row_accumulate` adds for the row, so the energy is bit-identical
///    to that table's `vmm_row_accumulate` calls. These two have no
///    wrapper here: a caller takes one table (simd::active()) and calls
///    both through it, so the row energies it keeps are keyed on the table
///    that built them (simd::KernelTable documents both).
///  - `noise_add` is element-wise and bit-identical on every table: IEEE
///    `sqrt` is correctly rounded, and the multiply and the add are kept
///    apart.
///  - `adc_decode_accumulate` is element-wise and bit-identical on every
///    table to the scalar chain Adc::quantize -> Adc::dequantize -> level
///    decode -> ldexp; the dequantize step is a lookup in a table built
///    from Adc::dequantize itself.
///  - `normal_fill` is element-wise and bit-identical on every table. The
///    standard normal for counter k of `key` is Box-Muller on pair
///    p = k / 2: SplitMix64 outputs 2p + 1 and 2p + 2 of the stream seeded
///    at `key`, as 53-bit uniforms u1 in (0, 1] and u2 in [0, 1), give
///    sqrt(-2 ln u1) times cos(2 pi u2) for an even k and sin(2 pi u2) for
///    an odd k. `log`, `sin` and `cos` are fdlibm's polynomials written as
///    separate multiplies and adds; no libm call is made. A pure function
///    of (key, counter), so a caller may fill any range in any order or
///    split it across threads.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/simd_dispatch.hpp"

namespace cim::util::kernels {

/// Dot product via the active table (4-way scalar splitting or per-lane
/// FMA accumulators). Deterministic for a fixed table; reassociated —
/// NOT bitwise-stable across CIM_SIMD settings.
inline double dot(const double* a, const double* b, std::size_t n) {
  return simd::active().dot(a, b, n);
}

/// y[i] += a * x[i]. Element-wise separate mul+add on every table:
/// bit-identical across CIM_SIMD settings.
inline void axpy(double a, const double* x, double* y, std::size_t n) {
  simd::active().axpy(a, x, y, n);
}

/// Fused crossbar-VMM row update over one wordline:
///
///   i            = v * g[c]
///   currents[c] += i
///   noise_var[c] += (noise_frac * i)^2
///   energy      += |v * i| * t_read_ns * 1e-3        (pJ)
///
/// `currents` / `noise_var` replicate the historical per-element rounding
/// on every table (bit-identical across CIM_SIMD settings). `energy` is a
/// reduction: serial chain on scalar, per-lane partials on SIMD tables —
/// deterministic per table, ulp drift across tables.
inline void vmm_row_accumulate(double v, const double* g, double* currents,
                               double* noise_var, double noise_frac,
                               double t_read_ns, std::size_t n,
                               double& energy) {
  simd::active().vmm_row_accumulate(v, g, currents, noise_var, noise_frac,
                                    t_read_ns, n, energy);
}

/// Every input bit plane of one request read through one conductance
/// matrix `g` (rows x cols, row-major). Plane b drives `v` on the rows r
/// whose `bits[r]` has bit b set (b < planes) and 0 V elsewhere:
///
///   currents[b*cols + c] += v * g[r*cols + c]   for each such r, in
///                                               increasing r
///
/// The product is formed once per row and shared by every active plane;
/// per plane the updates are exactly those of `axpy(v, g_r, currents_b)`
/// over the active rows, so the result is bit-identical on every table.
inline void bitplane_accumulate(double v, const double* g, std::size_t rows,
                                std::size_t cols, const std::uint32_t* bits,
                                int planes, double* currents) {
  simd::active().bitplane_accumulate(v, g, rows, cols, bits, planes,
                                     currents);
}

/// y[i] += sqrt(var[i]) * z[i]: tier-0 read noise, a column's std times
/// its standard normal. Bit-identical across CIM_SIMD settings.
inline void noise_add(const double* var, const double* z, double* y,
                      std::size_t n) {
  simd::active().noise_add(var, z, y, n);
}

/// One bit-serial cycle of a differential CIM tile's periphery, per column:
///
///   code(x)  = lround(clamp(x, 0, full_scale) / full_scale * max_code),
///              and 0 for a NaN x                      (Adc::quantize)
///   level(x) = (dequant[code(x)] - offset) / step
///   acc[c]  += (level(i_plus[c]) - level(i_minus[c])) * weight
///
/// with dequant[k] = Adc::dequantize(k) / v_read built by the caller. Same
/// expressions, separate mul and add, on every table: bit-identical across
/// CIM_SIMD settings, and to Adc::dequantize(Adc::quantize(x)) / v_read fed
/// through the decode with ldexp(sum, b) for weight = 2^b.
inline void adc_decode_accumulate(const double* i_plus, const double* i_minus,
                                  double* acc, std::size_t n,
                                  const simd::AdcDecode& p) {
  simd::active().adc_decode_accumulate(i_plus, i_minus, acc, n, p);
}

/// out[i] = the standard normal for counter first + i of `key` (see the
/// file comment), for i in [0, n). Counters wrap modulo 2^64. Bit-identical
/// across CIM_SIMD settings. Its support reaches sqrt(106 ln 2) = 8.57.
inline void normal_fill(std::uint64_t key, std::uint64_t first,
                        std::size_t n, double* out) {
  simd::active().normal_fill(key, first, n, out);
}

/// C (m x n) += A (m x k) * B (k x n), all row-major with the given leading
/// strides. Blocked over k and n to keep the B panel and C row in cache;
/// the inner update is an axpy, so each C element accumulates in k-order
/// with separate mul+add on every table.
inline void gemm_accumulate(const double* a, std::size_t lda, const double* b,
                            std::size_t ldb, double* c, std::size_t ldc,
                            std::size_t m, std::size_t k, std::size_t n) {
  simd::active().gemm_accumulate(a, lda, b, ldb, c, ldc, m, k, n);
}

}  // namespace cim::util::kernels
