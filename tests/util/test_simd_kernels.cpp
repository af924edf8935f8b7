// Cross-ISA conformance of the dispatched micro-kernels (ISSUE 7).
//
// Sweeps every kernel over every table this host can execute (scalar is
// always present; avx2/avx512 when built + CPUID-supported) at edge sizes
// (0, 1, 3, 5, odd vector tails) and deliberately misaligned buffers, and
// checks the simd_dispatch contract:
//   - axpy / gemm_accumulate / vmm_row_accumulate{currents,noise_var} are
//     BIT-IDENTICAL to the portable scalar table,
//   - dot / vmm_row energy are reductions: deterministic per table, only
//     tolerance-equal across tables,
//   - bitplane_accumulate / bitplane_accumulate_noisy are BIT-IDENTICAL to
//     per-plane axpy / vmm_row_accumulate calls of the same table
//     (currents and noise_var also across tables, energy per table),
//   - adc_decode_accumulate, driven by a dequantize table built from
//     Adc::dequantize, is BIT-IDENTICAL on every table to the
//     Adc::quantize -> Adc::dequantize -> decode -> ldexp chain,
//   - dot_serial is the strict left-to-right escape hatch,
//   - set_isa / table_for clamp unsupported requests downward.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "periphery/adc.hpp"
#include "util/kernels.hpp"
#include "util/simd_dispatch.hpp"

namespace simd = cim::util::simd;
namespace kernels = cim::util::kernels;

namespace {

// Restores the startup-selected table when a test forces another one.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  simd::Isa saved_;
};

// Deterministic non-trivial doubles (mixed signs and magnitudes) so lane
// reductions and tails cannot cancel to an accidental match.
double pattern(std::uint64_t i, std::uint64_t salt) {
  std::uint64_t x = (i + 1) * 0x9e3779b97f4a7c15ULL + salt;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  const double mag = static_cast<double>(x % 10000) / 977.0;
  return ((x >> 13) & 1) != 0 ? -mag : mag;
}

std::vector<double> make_vec(std::size_t n, std::uint64_t salt,
                             std::size_t pad = 0) {
  std::vector<double> v(n + pad);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = pattern(i, salt);
  return v;
}

const std::size_t kSizes[] = {0,  1,  2,  3,  5,  7,  8,   9,  15,
                              16, 17, 31, 32, 33, 63, 64,  65, 100,
                              127, 257};

// Offsets into an over-allocated buffer: 0 keeps malloc's 16-byte
// alignment, 1..3 guarantee the data pointer is NOT 32/64-byte aligned.
const std::size_t kOffsets[] = {0, 1, 2, 3};

}  // namespace

TEST(SimdDispatch, SupportedIsasContainsScalarAndIsOrdered) {
  const auto isas = simd::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  for (std::size_t i = 1; i < isas.size(); ++i)
    EXPECT_LT(static_cast<int>(isas[i - 1]), static_cast<int>(isas[i]));
  EXPECT_EQ(isas.back(), simd::max_supported_isa());
}

TEST(SimdDispatch, TableForClampsToSupported) {
  const simd::Isa max = simd::max_supported_isa();
  for (simd::Isa req :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    const auto& t = simd::table_for(req);
    ASSERT_NE(t.dot, nullptr);
    ASSERT_NE(t.axpy, nullptr);
    ASSERT_NE(t.gemm_accumulate, nullptr);
    ASSERT_NE(t.vmm_row_accumulate, nullptr);
    ASSERT_NE(t.bitplane_accumulate, nullptr);
    ASSERT_NE(t.bitplane_accumulate_noisy, nullptr);
    ASSERT_NE(t.adc_decode_accumulate, nullptr);
    EXPECT_LE(static_cast<int>(t.isa), static_cast<int>(max));
    if (static_cast<int>(req) <= static_cast<int>(max))
      EXPECT_EQ(t.isa, req);  // supported requests are honoured exactly
  }
}

TEST(SimdDispatch, SetIsaClampsAndActivates) {
  IsaGuard guard;
  const simd::Isa max = simd::max_supported_isa();
  const simd::Isa got = simd::set_isa(simd::Isa::kAvx512);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(max));
  EXPECT_EQ(simd::active_isa(), got);
  EXPECT_EQ(simd::active().isa, got);

  EXPECT_EQ(simd::set_isa(simd::Isa::kScalar), simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::active_isa_name(), "scalar");
}

TEST(SimdKernels, DotMatchesScalarWithinUlps) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (std::size_t n : kSizes) {
      for (std::size_t off : kOffsets) {
        const auto a = make_vec(n, 11, off);
        const auto b = make_vec(n, 23, off);
        const double ref = scalar.dot(a.data() + off, b.data() + off, n);
        const double got = t.dot(a.data() + off, b.data() + off, n);
        // Reduction: reassociation drift only. Scale tolerance with the
        // sum of |a_i b_i| so cancellation-heavy inputs stay testable.
        double scale = 1.0;
        for (std::size_t i = 0; i < n; ++i)
          scale += std::abs(a[off + i] * b[off + i]);
        EXPECT_NEAR(got, ref, 1e-12 * scale)
            << "isa=" << simd::isa_name(isa) << " n=" << n << " off=" << off;
        // Deterministic per table: the same call is bit-identical.
        EXPECT_EQ(got, t.dot(a.data() + off, b.data() + off, n));
      }
    }
  }
}

TEST(SimdKernels, DotSerialIsStrictLeftToRight) {
  for (std::size_t n : kSizes) {
    const auto a = make_vec(n, 31);
    const auto b = make_vec(n, 47);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
    EXPECT_EQ(kernels::dot_serial(a.data(), b.data(), n), ref) << "n=" << n;
  }
}

TEST(SimdKernels, AxpyBitIdenticalAcrossIsas) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (std::size_t n : kSizes) {
      for (std::size_t off : kOffsets) {
        const auto x = make_vec(n, 5, off);
        auto y_ref = make_vec(n, 71, off);
        auto y_got = y_ref;
        const double a = pattern(n, 99);
        scalar.axpy(a, x.data() + off, y_ref.data() + off, n);
        t.axpy(a, x.data() + off, y_got.data() + off, n);
        for (std::size_t i = 0; i < y_ref.size(); ++i)
          ASSERT_EQ(y_got[i], y_ref[i])
              << "isa=" << simd::isa_name(isa) << " n=" << n << " off=" << off
              << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, GemmAccumulateBitIdenticalAcrossIsas) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  struct Shape {
    std::size_t m, k, n;
  };
  // Edge shapes: empty dims, single elements, odd tails, and sizes that
  // cross the kernel's kKc=64 / kNc=256 blocking boundaries.
  const Shape shapes[] = {{0, 3, 3}, {3, 0, 3}, {3, 3, 0}, {1, 1, 1},
                          {1, 5, 3}, {3, 5, 1}, {5, 7, 9}, {4, 65, 17},
                          {2, 130, 300}, {3, 64, 256}};
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (const auto& s : shapes) {
      // Strides larger than the row length exercise the lda/ldb/ldc paths.
      const std::size_t lda = s.k + 3, ldb = s.n + 2, ldc = s.n + 5;
      auto a = make_vec(s.m * lda, 7);
      const auto b = make_vec(s.k * ldb, 13);
      // Plant some exact zeros in A: the kernel skips av == 0 entries and
      // that branch must not perturb bit-exactness.
      for (std::size_t i = 0; i < s.m * lda; i += 7) a[i] = 0.0;
      auto c_ref = make_vec(s.m * ldc, 17);
      auto c_got = c_ref;
      scalar.gemm_accumulate(a.data(), lda, b.data(), ldb, c_ref.data(), ldc,
                             s.m, s.k, s.n);
      t.gemm_accumulate(a.data(), lda, b.data(), ldb, c_got.data(), ldc, s.m,
                        s.k, s.n);
      for (std::size_t i = 0; i < c_ref.size(); ++i)
        ASSERT_EQ(c_got[i], c_ref[i])
            << "isa=" << simd::isa_name(isa) << " m=" << s.m << " k=" << s.k
            << " n=" << s.n << " i=" << i;
    }
  }
}

TEST(SimdKernels, VmmRowAccumulateCurrentsNoiseBitIdentical) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  const double noise_frac = 0.01;
  const double t_read = 1.0;
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (std::size_t n : kSizes) {
      for (std::size_t off : kOffsets) {
        // Conductances are non-negative in the crossbar; keep the fixture
        // faithful (|pattern|) while voltages carry both signs.
        auto g = make_vec(n, 41, off);
        for (auto& v : g) v = std::abs(v);
        const double v_in = pattern(n, 53);

        auto cur_ref = make_vec(n, 61, off);
        auto var_ref = make_vec(n, 67, off);
        for (auto& x : var_ref) x = std::abs(x);
        auto cur_got = cur_ref;
        auto var_got = var_ref;
        double e_ref = 0.5, e_got = 0.5;

        scalar.vmm_row_accumulate(v_in, g.data() + off, cur_ref.data() + off,
                                  var_ref.data() + off, noise_frac, t_read, n,
                                  e_ref);
        t.vmm_row_accumulate(v_in, g.data() + off, cur_got.data() + off,
                             var_got.data() + off, noise_frac, t_read, n,
                             e_got);

        for (std::size_t i = 0; i < cur_ref.size(); ++i) {
          ASSERT_EQ(cur_got[i], cur_ref[i])
              << "currents isa=" << simd::isa_name(isa) << " n=" << n
              << " off=" << off << " i=" << i;
          ASSERT_EQ(var_got[i], var_ref[i])
              << "noise_var isa=" << simd::isa_name(isa) << " n=" << n
              << " off=" << off << " i=" << i;
        }
        // Energy is a reduction: tolerance across tables, exact re-run.
        EXPECT_NEAR(e_got, e_ref, 1e-12 * (1.0 + std::abs(e_ref)))
            << "isa=" << simd::isa_name(isa) << " n=" << n << " off=" << off;
        // Re-run from the same starting state must reproduce bit-exactly.
        double e_again = 0.5;
        auto cur2 = make_vec(n, 61, off);
        auto var2 = make_vec(n, 67, off);
        for (auto& x : var2) x = std::abs(x);
        t.vmm_row_accumulate(v_in, g.data() + off, cur2.data() + off,
                             var2.data() + off, noise_frac, t_read, n,
                             e_again);
        EXPECT_EQ(e_again, e_got);
      }
    }
  }
}

namespace {

/// Currents that stress Adc::quantize: NaN, +-inf, -0.0, zero, the
/// smallest subnormal, tiny negatives, full scale and beyond, and for a
/// spread of codes k the half-code boundary (the smallest current that
/// rounds up to k + 1) plus the double just below it.
std::vector<double> adversarial_currents(const cim::periphery::Adc& adc) {
  const double fs = adc.config().full_scale_ua;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> x{std::nan(""),
                        inf,
                        -inf,
                        -0.0,
                        0.0,
                        std::numeric_limits<double>::denorm_min(),
                        -1e-300,
                        -0.25 * fs,
                        fs,
                        std::nextafter(fs, 0.0),
                        std::nextafter(fs, inf),
                        3.0 * fs};
  const std::uint32_t max_code = adc.max_code();
  for (std::uint32_t k = 0; k < max_code; k += 1 + max_code / 9) {
    // Bisect on the bit patterns of positive doubles (monotone in value).
    auto lo = std::bit_cast<std::uint64_t>(0.0);
    auto hi = std::bit_cast<std::uint64_t>(fs);
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      (adc.quantize(std::bit_cast<double>(mid)) > k ? hi : lo) = mid;
    }
    x.push_back(std::bit_cast<double>(hi));
    x.push_back(std::bit_cast<double>(lo));
  }
  return x;
}

/// Reference: Adc::quantize -> Adc::dequantize -> the tile's level decode.
double chain_level(const cim::periphery::Adc& adc, double current,
                   double v_read, const simd::AdcDecode& p) {
  const double q = adc.dequantize(adc.quantize(current));
  return (q / v_read - p.offset) / p.step;
}

}  // namespace

TEST(SimdKernels, AdcDecodeAccumulateMatchesAdcChainOnEveryTable) {
  const double v_read = 0.2;
  for (const int bits : {3, 8, 12}) {
    const cim::periphery::Adc adc({.bits = bits, .full_scale_ua = 1280.0});
    const auto pool = adversarial_currents(adc);
    // The dequantize table a CimTile builds at construction.
    std::vector<double> dequant(std::size_t{adc.max_code()} + 1);
    for (std::uint32_t k = 0; k <= adc.max_code(); ++k)
      dequant[k] = adc.dequantize(k) / v_read;
    for (const int b : {0, 5, 15}) {
      simd::AdcDecode p{.full_scale = adc.config().full_scale_ua,
                        .max_code = static_cast<double>(adc.max_code()),
                        .dequant = dequant.data(),
                        .offset = static_cast<double>(b + 3) * 1.25,
                        .step = 6.6,
                        .weight = std::ldexp(1.0, b)};
      for (std::size_t n = 0; n <= 67; ++n) {
        for (std::size_t off : kOffsets) {
          std::vector<double> ip(n + off), im(n + off);
          for (std::size_t c = 0; c < n; ++c) {
            ip[off + c] = pool[(c * 7 + n) % pool.size()];
            im[off + c] = pool[(c * 5 + 3 * n + 1) % pool.size()];
          }
          const auto acc0 = make_vec(n, 89, off);
          auto ref = acc0;
          for (std::size_t c = 0; c < n; ++c)
            ref[off + c] +=
                std::ldexp(chain_level(adc, ip[off + c], v_read, p) -
                               chain_level(adc, im[off + c], v_read, p),
                           b);
          for (simd::Isa isa : simd::supported_isas()) {
            auto got = acc0;
            simd::table_for(isa).adc_decode_accumulate(
                ip.data() + off, im.data() + off, got.data() + off, n, p);
            for (std::size_t i = 0; i < got.size(); ++i)
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                        std::bit_cast<std::uint64_t>(ref[i]))
                  << "isa=" << simd::isa_name(isa) << " adc_bits=" << bits
                  << " b=" << b << " n=" << n << " off=" << off
                  << " i=" << i << " got=" << got[i] << " ref=" << ref[i];
          }
        }
      }
    }
  }
}

namespace {

/// Inputs of one bit-plane kernel call: `rows` x `n` conductances at a
/// misaligned offset (non-negative, with planted 0.0 and subnormals), one
/// bit pattern per row (with all-zero and all-ones rows), and starting
/// accumulators that include -0.0, so a plane that skips a row must leave
/// it bitwise untouched.
struct BitPlaneCase {
  std::size_t rows, n, off;
  int planes;
  double v;
  std::vector<double> g;
  std::vector<std::uint32_t> bits;
  std::vector<double> cur0, var0, energy0;

  BitPlaneCase(std::size_t rows_, std::size_t n_, int planes_,
               std::uint64_t salt)
      : rows(rows_), n(n_), off(salt % 4), planes(planes_),
        v(pattern(salt, 7)), g(make_vec(rows_ * n_, salt, off)),
        bits(rows_) {
    const auto np = static_cast<std::size_t>(planes);
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = std::abs(g[i]);
      if (i % 11 == 3) g[i] = 0.0;
      if (i % 13 == 5) g[i] = std::numeric_limits<double>::denorm_min();
      if (i % 17 == 9) g[i] = 3e-310;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      bits[r] = static_cast<std::uint32_t>((r + 1) * 0x9e3779b97f4a7c15ULL *
                                           (salt | 1) >> 29);
      if (r % 5 == 1) bits[r] = 0;
      if (r % 7 == 2) bits[r] = 0xffffffffu;
    }
    cur0 = make_vec(np * n, salt + 1, off);
    var0 = make_vec(np * n, salt + 2, off);
    for (auto& x : var0) x = std::abs(x);
    for (std::size_t i = off; i < cur0.size(); i += 9) cur0[i] = -0.0;
    energy0 = make_vec(np, salt + 3);
    for (auto& x : energy0) x = std::abs(x);
  }
  const double* g_row(std::size_t r) const { return g.data() + off + r * n; }
  bool on(std::size_t r, std::size_t b) const { return (bits[r] >> b) & 1u; }
};

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& ref, const char* what,
                    simd::Isa isa, const BitPlaneCase& k) {
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(ref[i]))
        << what << " isa=" << simd::isa_name(isa) << " rows=" << k.rows
        << " n=" << k.n << " planes=" << k.planes << " off=" << k.off
        << " i=" << i;
}

/// bitplane_accumulate vs per-plane axpy of the same table, and vs the
/// scalar table's bitplane_accumulate.
void check_bitplane(const BitPlaneCase& k) {
  const std::size_t off = k.off;
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  auto scalar_got = k.cur0;
  scalar.bitplane_accumulate(k.v, k.g_row(0), k.rows, k.n, k.bits.data(),
                             k.planes, scalar_got.data() + off);
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    auto ref = k.cur0;
    for (int b = 0; b < k.planes; ++b)
      for (std::size_t r = 0; r < k.rows; ++r)
        if (k.on(r, static_cast<std::size_t>(b)))
          t.axpy(k.v, k.g_row(r),
                 ref.data() + off + static_cast<std::size_t>(b) * k.n, k.n);
    auto got = k.cur0;
    t.bitplane_accumulate(k.v, k.g_row(0), k.rows, k.n, k.bits.data(),
                          k.planes, got.data() + off);
    expect_bitwise(got, ref, "currents", isa, k);
    expect_bitwise(got, scalar_got, "currents vs scalar", isa, k);
  }
}

/// bitplane_accumulate_noisy vs per-plane vmm_row_accumulate of the same
/// table (currents, noise_var and energy), and vs the scalar table's
/// currents and noise_var.
void check_bitplane_noisy(const BitPlaneCase& k) {
  const std::size_t off = k.off;
  const double nf = 0.013;
  const double t_read = 1.7;
  const auto np = static_cast<std::size_t>(k.planes);
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  auto s_cur = k.cur0;
  auto s_var = k.var0;
  auto s_e = k.energy0;
  scalar.bitplane_accumulate_noisy(k.v, k.g_row(0), k.rows, k.n,
                                   k.bits.data(), k.planes, s_cur.data() + off,
                                   s_var.data() + off, nf, t_read, s_e.data());
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    auto ref_cur = k.cur0;
    auto ref_var = k.var0;
    auto ref_e = k.energy0;
    for (std::size_t b = 0; b < np; ++b)
      for (std::size_t r = 0; r < k.rows; ++r)
        if (k.on(r, b))
          t.vmm_row_accumulate(k.v, k.g_row(r), ref_cur.data() + off + b * k.n,
                               ref_var.data() + off + b * k.n, nf, t_read, k.n,
                               ref_e[b]);
    auto cur = k.cur0;
    auto var = k.var0;
    auto e = k.energy0;
    t.bitplane_accumulate_noisy(k.v, k.g_row(0), k.rows, k.n, k.bits.data(),
                                k.planes, cur.data() + off, var.data() + off,
                                nf, t_read, e.data());
    expect_bitwise(cur, ref_cur, "currents", isa, k);
    expect_bitwise(var, ref_var, "noise_var", isa, k);
    expect_bitwise(e, ref_e, "energy", isa, k);
    expect_bitwise(cur, s_cur, "currents vs scalar", isa, k);
    expect_bitwise(var, s_var, "noise_var vs scalar", isa, k);
  }
}

}  // namespace

TEST(SimdKernels, BitplaneAccumulateMatchesPerPlaneAxpy) {
  // Every width n = 0..67 with every plane count, rows cycling 0..70; then
  // every row count 0..70 at a vector-block-straddling width.
  for (std::size_t n = 0; n <= 67; ++n)
    for (int planes = 1; planes <= 16; ++planes)
      check_bitplane(BitPlaneCase((n * 7 + static_cast<std::size_t>(planes)) %
                                      71,
                                  n, planes, n * 16 + planes));
  for (std::size_t rows = 0; rows <= 70; ++rows)
    for (int planes = 1; planes <= 16; ++planes)
      check_bitplane(BitPlaneCase(rows, 19, planes, 5000 + rows * 16 + planes));
}

TEST(SimdKernels, BitplaneAccumulateNoisyMatchesPerPlaneVmmRow) {
  for (std::size_t n = 0; n <= 67; ++n)
    for (int planes = 1; planes <= 16; ++planes)
      check_bitplane_noisy(BitPlaneCase(
          (n * 7 + static_cast<std::size_t>(planes)) % 71, n, planes,
          n * 16 + planes));
  for (std::size_t rows = 0; rows <= 70; ++rows)
    for (int planes = 1; planes <= 16; ++planes)
      check_bitplane_noisy(
          BitPlaneCase(rows, 19, planes, 5000 + rows * 16 + planes));
}

TEST(SimdKernels, DispatchedWrappersFollowActiveTable) {
  IsaGuard guard;
  const std::size_t n = 33;
  const auto a = make_vec(n, 3);
  const auto b = make_vec(n, 9);
  for (simd::Isa isa : simd::supported_isas()) {
    simd::set_isa(isa);
    const auto& t = simd::table_for(isa);
    EXPECT_EQ(kernels::dot(a.data(), b.data(), n),
              t.dot(a.data(), b.data(), n));
    auto y_wrap = make_vec(n, 77);
    auto y_tab = y_wrap;
    kernels::axpy(2.5, a.data(), y_wrap.data(), n);
    t.axpy(2.5, a.data(), y_tab.data(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(y_wrap[i], y_tab[i]);
  }
}
