/// \file kernels_scalar.cpp
/// \brief Portable scalar kernel variants — the dispatch baseline.
///
/// These are the historical util::kernels implementations moved verbatim
/// (same expression shapes, same accumulation order), so dispatch forced to
/// `scalar` reproduces the pre-dispatch simulator bit-for-bit. Compiled
/// without any -m ISA flags: the baseline x86-64 / portable code the repo
/// always produced. -ffp-contract=off, as in the SIMD TUs, keeps
/// normal_fill's polynomials unfused on targets whose baseline has FMA.
#include <algorithm>
#include <cmath>

#include "util/kernels_impl.hpp"

namespace cim::util::kernels::detail {

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void vmm_row_accumulate_scalar(double v, const double* g, double* currents,
                               double* noise_var, double noise_frac,
                               double t_read_ns, std::size_t n,
                               double& energy) {
  double e = energy;
  for (std::size_t c = 0; c < n; ++c) {
    const double i = v * g[c];
    currents[c] += i;
    const double cell_noise = noise_frac * i;
    noise_var[c] += cell_noise * cell_noise;
    e += std::abs(v * i) * t_read_ns * 1e-3;
  }
  energy = e;
}

namespace {
// Column block of bitplane_accumulate_scalar's per-row product buffer.
constexpr std::size_t kPlaneBlock = 64;
}  // namespace

void bitplane_accumulate_scalar(double v, const double* g, std::size_t rows,
                                std::size_t cols, const std::uint32_t* bits,
                                int planes, double* currents) {
  const std::uint32_t all = plane_mask(planes);
  int act[16];
  for (std::size_t r = 0; r < rows; ++r) {
    const int na = active_planes(bits[r] & all, act);
    if (na == 0) continue;
    const double* gr = g + r * cols;
    for (std::size_t c0 = 0; c0 < cols; c0 += kPlaneBlock) {
      const std::size_t n = std::min(kPlaneBlock, cols - c0);
      double x[kPlaneBlock];
      for (std::size_t j = 0; j < n; ++j) x[j] = v * gr[c0 + j];
      for (int k = 0; k < na; ++k) {
        double* cur = currents + static_cast<std::size_t>(act[k]) * cols + c0;
        for (std::size_t j = 0; j < n; ++j) cur[j] += x[j];
      }
    }
  }
}

void row_energy_scalar(double v, const double* g, std::size_t rows,
                       std::size_t cols, double t_read_ns, double* out) {
  // vmm_row_accumulate_scalar's energy is one serial chain over the
  // columns, so every column's term is a term of the row.
  for (std::size_t k = 0; k < rows * cols; ++k)
    out[k] = std::abs(v * (v * g[k])) * t_read_ns * 1e-3;
}

void bitplane_accumulate_full_scalar(double v, const double* g,
                                     std::size_t rows, std::size_t cols,
                                     const std::uint32_t* bits, int planes,
                                     double noise_frac,
                                     const double* row_energy,
                                     std::size_t energy_width, double* currents,
                                     double* noise_var, double* energy) {
  full::for_each_plane(
      rows, planes,
      [&](std::size_t r0, std::size_t r1, int b, std::uint32_t* list) {
        return full::driven_rows(bits, r0, r1, b, list, 0);
      },
      [&](int b, const std::uint32_t* list, std::size_t n) {
        double* cur = currents + static_cast<std::size_t>(b) * cols;
        double* var = noise_var + static_cast<std::size_t>(b) * cols;
        double e = energy[b];
        for (std::size_t i = 0; i < n; ++i) {
          const double* gr = g + list[i] * cols;
          for (std::size_t c = 0; c < cols; ++c) {
            const double x = v * gr[c];
            cur[c] += x;
            const double cell_noise = noise_frac * x;
            var[c] += cell_noise * cell_noise;
          }
          e = full::add_row_energy(e, row_energy, energy_width, list[i]);
        }
        energy[b] = e;
      });
}

void noise_add_scalar(const double* var, const double* z, double* y,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += std::sqrt(var[i]) * z[i];
}

void adc_decode_accumulate_scalar(const double* i_plus, const double* i_minus,
                                  double* acc, std::size_t n,
                                  const simd::AdcDecode& p) {
  for (std::size_t c = 0; c < n; ++c)
    acc[c] += (adc_level(i_plus[c], p) - adc_level(i_minus[c], p)) * p.weight;
}

void normal_fill_scalar(std::uint64_t key, std::uint64_t first, std::size_t n,
                        double* out) {
  std::size_t i = 0;
  if ((first & 1) != 0 && n > 0) out[i++] = normal::normal_at(key, first);
  for (; i + 2 <= n; i += 2)
    normal::normal_pair(key, first + i, out[i], out[i + 1]);
  if (i < n) out[i] = normal::normal_at(key, first + i);
}

namespace {
// Block sizes sized for a ~32 KiB L1d: one B panel (kKc x kNc doubles) plus
// the C row slice stay resident while the k-loop streams over it.
constexpr std::size_t kKc = 64;
constexpr std::size_t kNc = 256;
}  // namespace

void gemm_accumulate_scalar(const double* a, std::size_t lda, const double* b,
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
          axpy_scalar(av, b + kk * ldb + n0, c_row, nb);
        }
      }
    }
  }
}

}  // namespace cim::util::kernels::detail
