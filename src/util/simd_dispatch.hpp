/// \file simd_dispatch.hpp
/// \brief Runtime ISA dispatch for the util::kernels micro-kernels.
///
/// The numeric kernels (dot, axpy, gemm_accumulate, vmm_row_accumulate,
/// bitplane_accumulate, row_energy, bitplane_accumulate_full, noise_add,
/// adc_decode_accumulate, normal_fill) exist in up to three
/// implementations — portable scalar, AVX2+FMA, and AVX-512 — compiled
/// into separate translation units with per-file ISA flags. At startup the
/// best table supported by both the build and the CPU (CPUID) is selected,
/// overridable with the `CIM_SIMD` environment variable (`scalar`, `avx2`,
/// `avx512`, `auto`); requests the host cannot honour are clamped down with
/// a one-time stderr notice. The hot path is one relaxed atomic load of the
/// active table pointer.
///
/// Bit-exactness contract across tables (tested by tests/util
/// /test_simd_kernels.cpp, enforced by compiling the SIMD TUs with
/// -ffp-contract=off so mul+add never silently fuses):
///  - `axpy`, `gemm_accumulate`, and the `currents` / `noise_var` outputs
///    of `vmm_row_accumulate` are **bit-identical** on every table: all are
///    element-wise mul-then-add updates in the same element order, and the
///    SIMD variants use separate multiply and add (no FMA) for them.
///  - `bitplane_accumulate` and the `currents` / `noise_var` outputs of
///    `bitplane_accumulate_full` are **bit-identical** on every table:
///    per plane they make exactly the updates of per-plane `axpy` /
///    `vmm_row_accumulate` calls (one separate multiply and add per active
///    row, rows in increasing order). The tier-1/2 kernel leaves a plane's
///    lane unchanged when its bit is clear (masked add / blend), which
///    equals skipping the row; the tier-0 kernel walks a list of each
///    plane's driven rows. The `energy` of `bitplane_accumulate_full` is
///    bit-identical to per-plane `vmm_row_accumulate` calls *of the same
///    table* when it is fed that table's `row_energy`: per row, the terms
///    that table's `vmm_row_accumulate` adds (the lane partials reduced
///    its way, then the tail columns; every column's term on scalar),
///    added one at a time.
///  - `noise_add` is **bit-identical** on every table: element-wise, IEEE
///    `sqrt` is correctly rounded, and the multiply and the add are kept
///    apart.
///  - `adc_decode_accumulate` is **bit-identical** on every table: it is
///    element-wise, and every variant evaluates the same expressions in the
///    same order with separate multiply and add. Its rounding step uses
///    `t + (s - t >= 0.5)` with `t = trunc(s)`, which equals `lround(s)`
///    for every `s` in [0, max_code]; the code then indexes the caller's
///    dequantize table, whose entries are `Adc::dequantize(k) / v_read`,
///    and its `* weight` equals `ldexp`.
///  - `normal_fill` is **bit-identical** on every table: element-wise,
///    the same integer hash and the same polynomial `log`, `sin` and `cos`
///    with separate multiply and add; the SIMD bodies convert the 53-bit
///    uniforms exactly, and fill an odd start or a short end from a whole
///    block of pairs computed on the stack.
///  - `dot` and the `energy` reduction of `vmm_row_accumulate` are
///    *reductions*: each table reassociates them differently (scalar: the
///    historical 4-way / serial chains; SIMD: per-lane partials reduced at
///    the end). Deterministic per table, ulp-level drift between tables.
///
/// This module deliberately depends on nothing else in the repo so both
/// cim_util (the kernels) and cim_obs (build-info stamping) can link it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cim::util::simd {

/// Dispatchable instruction-set tiers, ordered by capability.
enum class Isa : int {
  kScalar = 0,  ///< portable C++, bit-identical to the historical kernels
  kAvx2 = 1,    ///< AVX2 + FMA, 256-bit lanes
  kAvx512 = 2,  ///< AVX-512 F/DQ/VL, 512-bit lanes
};

constexpr const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

/// Per-cycle constants of adc_decode_accumulate (kernels.hpp): the ADC's
/// range and the tile's level decode for one input bit plane.
struct AdcDecode {
  double full_scale = 0.0;  ///< ADC input range (uA); currents clip to it
  double max_code = 0.0;    ///< largest ADC code, 2^bits - 1
  /// Dequantize table, max_code + 1 entries: dequant[k] is the code's
  /// current over the read voltage, Adc::dequantize(k) / v_read (uS).
  const double* dequant = nullptr;
  double offset = 0.0;      ///< active rows x g_min (uS): the level-0 floor
  double step = 0.0;        ///< conductance step between weight levels (uS)
  double weight = 0.0;      ///< 2^b for input bit plane b
};

/// One resolved implementation set. All entry points share layout and
/// contracts with util::kernels (see kernels.hpp for the semantics).
struct KernelTable {
  Isa isa = Isa::kScalar;
  /// Lanes of vmm_row_accumulate's energy partials; 0 where the energy is
  /// one serial chain over the columns (scalar).
  std::size_t energy_lanes = 0;
  double (*dot)(const double* a, const double* b, std::size_t n) = nullptr;
  void (*axpy)(double a, const double* x, double* y, std::size_t n) = nullptr;
  void (*gemm_accumulate)(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* c, std::size_t ldc,
                          std::size_t m, std::size_t k,
                          std::size_t n) = nullptr;
  void (*vmm_row_accumulate)(double v, const double* g, double* currents,
                             double* noise_var, double noise_frac,
                             double t_read_ns, std::size_t n,
                             double& energy) = nullptr;
  void (*bitplane_accumulate)(double v, const double* g, std::size_t rows,
                              std::size_t cols, const std::uint32_t* bits,
                              int planes, double* currents) = nullptr;
  /// The energy terms vmm_row_accumulate(v, g_r, ..., t_read_ns, cols,
  /// energy) of this table adds for each row r of `g` (rows x cols,
  /// row-major), in the order it adds them, row_energy_width(cols) per row
  /// into `out`: every column's |v * (v * g)| * t_read_ns * 1e-3 on the
  /// scalar table; on a SIMD table the row's lane partials reduced as that
  /// kernel reduces them, then its tail columns' terms. A function of (v,
  /// g, t_read_ns) only, so a caller may keep it while those hold.
  void (*row_energy)(double v, const double* g, std::size_t rows,
                     std::size_t cols, double t_read_ns,
                     double* out) = nullptr;
  /// Tier-0 counterpart of bitplane_accumulate: per plane b, the updates
  /// of vmm_row_accumulate(v, g_r, currents_b, noise_var_b, noise_frac,
  /// t_read_ns, cols, energy[b]) over the rows whose bit b is set, in
  /// increasing row order. Each plane walks a list of its driven rows
  /// (built without a branch on the bits), on the SIMD tables with its
  /// currents and noise variances in registers; a row's energy is its
  /// `energy_width` terms of `row_energy`, built by this table's
  /// row_energy for the same v and g, added to energy[b] one at a time.
  void (*bitplane_accumulate_full)(double v, const double* g,
                                   std::size_t rows, std::size_t cols,
                                   const std::uint32_t* bits, int planes,
                                   double noise_frac, const double* row_energy,
                                   std::size_t energy_width, double* currents,
                                   double* noise_var, double* energy) = nullptr;
  void (*noise_add)(const double* var, const double* z, double* y,
                    std::size_t n) = nullptr;
  void (*adc_decode_accumulate)(const double* i_plus, const double* i_minus,
                                double* acc, std::size_t n,
                                const AdcDecode& p) = nullptr;
  void (*normal_fill)(std::uint64_t key, std::uint64_t first, std::size_t n,
                      double* out) = nullptr;

  /// Terms per row of this table's row_energy over `cols` columns: every
  /// column's term on a serial chain, else the lane-reduced partial and
  /// the cols % energy_lanes tail columns.
  std::size_t row_energy_width(std::size_t cols) const {
    return energy_lanes == 0 ? cols : 1 + cols % energy_lanes;
  }
};

/// The active kernel table: one relaxed load; first call resolves CPUID +
/// the CIM_SIMD override.
const KernelTable& active();

/// ISA of the active table.
Isa active_isa();

/// Name of the active table's ISA ("scalar" / "avx2" / "avx512").
const char* active_isa_name();

/// Best ISA both this build and this CPU support.
Isa max_supported_isa();

/// Every ISA this process can execute, ascending (always contains kScalar).
std::vector<Isa> supported_isas();

/// Forces the active table (tests / benches / the CIM_SIMD matrix). A
/// request above max_supported_isa() is clamped; returns the ISA actually
/// selected. Thread-safe (atomic pointer swap), but callers racing kernels
/// get an arbitrary mix of old/new tables — switch only at quiesce points.
Isa set_isa(Isa requested);

/// Table for one specific ISA (conformance tests sweep these directly).
/// Requests above max_supported_isa() clamp down to the best available
/// table, so the result is always executable on this host.
const KernelTable& table_for(Isa isa);

}  // namespace cim::util::simd
