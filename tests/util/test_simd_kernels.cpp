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
//   - bitplane_accumulate / bitplane_accumulate_full (fed the same table's
//     row_energy) are BIT-IDENTICAL to per-plane axpy / vmm_row_accumulate
//     calls of the same table (currents and noise_var also across tables,
//     energy per table),
//   - noise_add is BIT-IDENTICAL on every table to the scalar
//     `y += sqrt(var) * z` loop,
//   - adc_decode_accumulate, driven by a dequantize table built from
//     Adc::dequantize, is BIT-IDENTICAL on every table to the
//     Adc::quantize -> Adc::dequantize -> decode -> ldexp chain,
//   - normal_fill is BIT-IDENTICAL on every table, element-wise (a pure
//     function of key and counter), and standard normal over 2^26 draws
//     with support past 8 sigma,
//   - set_isa / table_for clamp unsupported requests downward.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "normal_checks.hpp"
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
    ASSERT_NE(t.row_energy, nullptr);
    ASSERT_NE(t.bitplane_accumulate_full, nullptr);
    ASSERT_NE(t.noise_add, nullptr);
    ASSERT_NE(t.adc_decode_accumulate, nullptr);
    EXPECT_LE(static_cast<int>(t.isa), static_cast<int>(max));
    if (static_cast<int>(req) <= static_cast<int>(max)) {
      EXPECT_EQ(t.isa, req);  // supported requests are honoured exactly
    }
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

/// Row bit patterns of a BitPlaneCase.
enum class Bits {
  kMixed,   ///< hashed bits, every fifth row all-zero, every seventh all-one
  kZero,    ///< no row drives any plane
  kOnes,    ///< every row drives every plane
  kSparse,  ///< each bit set with probability 1/8
};

/// Inputs of one bit-plane kernel call: `rows` x `n` conductances at a
/// misaligned offset (non-negative, with planted 0.0 and subnormals), one
/// bit pattern per row, and starting accumulators that include -0.0, so a
/// plane that skips a row must leave it bitwise untouched.
struct BitPlaneCase {
  std::size_t rows, n, off;
  int planes;
  double v;
  std::vector<double> g;
  std::vector<std::uint32_t> bits;
  std::vector<double> cur0, var0, energy0;

  BitPlaneCase(std::size_t rows_, std::size_t n_, int planes_,
               std::uint64_t salt, Bits kind = Bits::kMixed)
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
      const auto hash = [&](std::uint64_t k) {
        return static_cast<std::uint32_t>(
            (r + 1 + k * rows) * 0x9e3779b97f4a7c15ULL * (salt | 1) >> 29);
      };
      switch (kind) {
        case Bits::kMixed:
          bits[r] = hash(0);
          if (r % 5 == 1) bits[r] = 0;
          if (r % 7 == 2) bits[r] = 0xffffffffu;
          break;
        case Bits::kZero:
          bits[r] = 0;
          break;
        case Bits::kOnes:
          bits[r] = 0xffffffffu;
          break;
        case Bits::kSparse:
          bits[r] = hash(0) & hash(1) & hash(2);
          break;
      }
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

/// bitplane_accumulate_full fed the same table's row_energy vs per-plane
/// vmm_row_accumulate of that table (currents, noise_var and energy), and
/// vs the scalar table's currents and noise_var.
void check_bitplane_full(const BitPlaneCase& k) {
  const std::size_t off = k.off;
  const double nf = 0.013;
  const double t_read = 1.7;
  const auto np = static_cast<std::size_t>(k.planes);
  const auto run = [&](const simd::KernelTable& t, std::vector<double>& cur,
                       std::vector<double>& var, std::vector<double>& e) {
    const std::size_t width = t.row_energy_width(k.n);
    std::vector<double> row_e(k.rows * width);
    t.row_energy(k.v, k.g_row(0), k.rows, k.n, t_read, row_e.data());
    t.bitplane_accumulate_full(k.v, k.g_row(0), k.rows, k.n, k.bits.data(),
                               k.planes, nf, row_e.data(), width,
                               cur.data() + off, var.data() + off, e.data());
  };
  auto s_cur = k.cur0;
  auto s_var = k.var0;
  auto s_e = k.energy0;
  run(simd::table_for(simd::Isa::kScalar), s_cur, s_var, s_e);
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
    run(t, cur, var, e);
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

// The crossbar's shapes and every block edge of the SIMD walks (cols 1, 7,
// 8, 9, 10, 31, 32, 33, 130), every plane count and each bit pattern; rows
// past one driven-row list (256); then every width n = 0..67 and every
// row count 0..70 on mixed bits.
TEST(SimdKernels, BitplaneAccumulateFullMatchesPerPlaneVmmRow) {
  const Bits kinds[] = {Bits::kMixed, Bits::kZero, Bits::kOnes,
                        Bits::kSparse};
  std::uint64_t salt = 0;
  for (const std::size_t rows : {1, 16, 64, 70})
    for (const std::size_t n : {1, 7, 8, 9, 10, 31, 32, 33, 130})
      for (int planes = 1; planes <= 16; ++planes)
        for (const Bits kind : kinds)
          check_bitplane_full(BitPlaneCase(rows, n, planes, ++salt, kind));
  for (const std::size_t rows : {256, 257, 600})
    for (const std::size_t n : {1, 9, 33})
      for (const int planes : {1, 4, 16})
        for (const Bits kind : kinds)
          check_bitplane_full(BitPlaneCase(rows, n, planes, ++salt, kind));
  for (std::size_t n = 0; n <= 67; ++n)
    for (int planes = 1; planes <= 16; ++planes)
      check_bitplane_full(BitPlaneCase(
          (n * 7 + static_cast<std::size_t>(planes)) % 71, n, planes,
          n * 16 + planes));
  for (std::size_t rows = 0; rows <= 70; ++rows)
    for (int planes = 1; planes <= 16; ++planes)
      check_bitplane_full(
          BitPlaneCase(rows, 19, planes, 5000 + rows * 16 + planes));
}

// Every table against the scalar `y += sqrt(var) * z` loop for n = 0..67
// at misaligned offsets, with var 0, subnormal variances and -0.0 outputs
// among the inputs.
TEST(SimdKernels, NoiseAddBitIdenticalAcrossIsas) {
  for (std::size_t n = 0; n <= 67; ++n) {
    for (std::size_t off : kOffsets) {
      auto var = make_vec(n, 41 + n, off);
      for (std::size_t i = 0; i < var.size(); ++i) {
        var[i] = std::abs(var[i]) * 1e-6;
        if (i % 5 == 1) var[i] = 0.0;
        if (i % 7 == 3) var[i] = std::numeric_limits<double>::denorm_min();
        if (i % 11 == 4) var[i] = 3e-310;
      }
      const auto z = make_vec(n, 43 + n, off);
      auto y0 = make_vec(n, 47 + n, off);
      for (std::size_t i = off; i < y0.size(); i += 6) y0[i] = -0.0;
      auto ref = y0;
      for (std::size_t i = off; i < ref.size(); ++i)
        ref[i] += std::sqrt(var[i]) * z[i];
      for (simd::Isa isa : simd::supported_isas()) {
        auto got = y0;
        simd::table_for(isa).noise_add(var.data() + off, z.data() + off,
                                       got.data() + off, n);
        for (std::size_t i = 0; i < ref.size(); ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(ref[i]))
              << "isa=" << simd::isa_name(isa) << " n=" << n
              << " off=" << off << " i=" << i;
      }
    }
  }
}

// Every table against the scalar one for n = 0..67 (every short end of both
// block widths), odd and even first counters, misaligned outputs, keys 0
// and ~0 and counters that wrap; and each element equal to a one-element
// fill at its own counter.
TEST(SimdKernels, NormalFillBitIdenticalAcrossIsas) {
  const auto& scalar = simd::table_for(simd::Isa::kScalar);
  const std::uint64_t keys[] = {0, ~std::uint64_t{0}};
  const std::uint64_t firsts[] = {0, 1, 7, (std::uint64_t{1} << 32) - 3,
                                  ~std::uint64_t{0} - 40};
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& t = simd::table_for(isa);
    for (const std::uint64_t key : keys) {
      for (const std::uint64_t first : firsts) {
        for (std::size_t n = 0; n <= 67; ++n) {
          for (std::size_t off : kOffsets) {
            std::vector<double> ref(n + off, -7.0), got(n + off, -7.0);
            scalar.normal_fill(key, first, n, ref.data() + off);
            t.normal_fill(key, first, n, got.data() + off);
            for (std::size_t i = 0; i < ref.size(); ++i)
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                        std::bit_cast<std::uint64_t>(ref[i]))
                  << "isa=" << simd::isa_name(isa) << " key=" << key
                  << " first=" << first << " n=" << n << " off=" << off
                  << " i=" << i;
          }
        }
        std::vector<double> run(67);
        t.normal_fill(key, first, run.size(), run.data());
        for (std::size_t i = 0; i < run.size(); ++i) {
          double one = 0.0;
          t.normal_fill(key, first + i, 1, &one);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(one),
                    std::bit_cast<std::uint64_t>(run[i]))
              << "isa=" << simd::isa_name(isa) << " i=" << i;
        }
      }
    }
  }
}

// 2^26 draws of the active table (scripts/run_simd_matrix.sh runs this
// under each CIM_SIMD setting): moments, KS, the |z| > 4 and |z| > 5
// counts, and no correlation between neighbouring counters.
TEST(SimdKernels, NormalFillIsStandardNormal) {
  constexpr std::uint64_t kKey = 0x243f6a8885a308d3ULL;
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kChunks = (std::size_t{1} << 26) / kChunk;
  cim::test::NormalTally tally;
  std::vector<double> z(kChunk);
  double lag1 = 0.0, prev = 0.0;
  for (std::size_t k = 0; k < kChunks; ++k) {
    kernels::normal_fill(kKey, k * kChunk, kChunk, z.data());
    for (const double x : z) {
      tally.add(x);
      lag1 += prev * x;
      prev = x;
    }
  }
  tally.expect_standard_normal(simd::active_isa_name(), {4, 5});
  const double n = static_cast<double>(tally.n());
  EXPECT_LT(std::abs(lag1 / n), 5.0 / std::sqrt(n));
  EXPECT_LT(tally.max_abs(), 8.58);
}

namespace {

/// Inverse of z ^= z >> s.
std::uint64_t unshift(std::uint64_t z, int s) {
  std::uint64_t x = z;
  for (int i = 0; i * s < 64; ++i) x = z ^ (x >> s);
  return x;
}

/// Inverse of an odd multiplier modulo 2^64 (Newton: each step doubles the
/// correct low bits, three to start).
std::uint64_t inverse(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// Inverse of SplitMix64's output function.
std::uint64_t unmix(std::uint64_t w) {
  w = unshift(w, 31) * inverse(0x94d049bb133111ebULL);
  w = unshift(w, 27) * inverse(0xbf58476d1ce4e5b9ULL);
  return unshift(w, 30);
}

}  // namespace

// Support past 8 sigma: a key whose counter 0 (the cosine output of pair 0)
// has w1 >> 11 == 0, i.e. the smallest u1 = 2^-53 and |z| =
// sqrt(106 ln 2) |cos 2 pi u2| <= 8.5722. Of the 2^11 such words, the one
// whose u2 is nearest a multiple of 1/2 gives |z| > 8 on every table, at
// the start of a block and in a short end.
TEST(SimdKernels, NormalFillReachesPast8Sigma) {
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  std::uint64_t best_key = 0;
  double best = 0.0;
  for (std::uint64_t w1 = 0; w1 < 2048; ++w1) {
    const std::uint64_t key = unmix(w1) - kGamma;
    double z = 0.0;
    kernels::normal_fill(key, 0, 1, &z);
    if (std::abs(z) > best) {
      best = std::abs(z);
      best_key = key;
    }
  }
  EXPECT_GT(best, 8.0);
  EXPECT_LE(best, 8.5723);
  for (simd::Isa isa : simd::supported_isas()) {
    std::vector<double> z(17);
    simd::table_for(isa).normal_fill(best_key, 0, z.size(), z.data());
    EXPECT_EQ(std::abs(z[0]), best) << simd::isa_name(isa);
    // Counter 16 of best_key - 16 gamma is counter 0 of best_key (both
    // draw on the state key + 17 gamma); a fill of 9 from counter 8 puts it
    // past every whole block.
    simd::table_for(isa).normal_fill(best_key - 16 * kGamma, 8, 9, z.data());
    EXPECT_EQ(std::abs(z[8]), best) << simd::isa_name(isa);
  }
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
