/// \file kernels_scalar.cpp
/// \brief Portable scalar kernel variants — the dispatch baseline.
///
/// These are the historical util::kernels implementations moved verbatim
/// (same expression shapes, same accumulation order), so dispatch forced to
/// `scalar` reproduces the pre-dispatch simulator bit-for-bit. Compiled
/// without any -m ISA flags: the baseline x86-64 / portable code the repo
/// always produced.
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
// Column block of the bit-plane kernels' per-row product buffers.
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

void bitplane_accumulate_noisy_scalar(double v, const double* g,
                                      std::size_t rows, std::size_t cols,
                                      const std::uint32_t* bits, int planes,
                                      double* currents, double* noise_var,
                                      double noise_frac, double t_read_ns,
                                      double* energy) {
  const std::uint32_t all = plane_mask(planes);
  int act[16];
  for (std::size_t r = 0; r < rows; ++r) {
    const int na = active_planes(bits[r] & all, act);
    if (na == 0) continue;
    const double* gr = g + r * cols;
    for (std::size_t c0 = 0; c0 < cols; c0 += kPlaneBlock) {
      const std::size_t n = std::min(kPlaneBlock, cols - c0);
      double x[kPlaneBlock], sq[kPlaneBlock], e[kPlaneBlock];
      for (std::size_t j = 0; j < n; ++j) {
        const double i = v * gr[c0 + j];
        const double cell_noise = noise_frac * i;
        x[j] = i;
        sq[j] = cell_noise * cell_noise;
        e[j] = std::abs(v * i) * t_read_ns * 1e-3;
      }
      for (int k = 0; k < na; ++k) {
        const std::size_t off = static_cast<std::size_t>(act[k]) * cols + c0;
        double* cur = currents + off;
        double* var = noise_var + off;
        for (std::size_t j = 0; j < n; ++j) {
          cur[j] += x[j];
          var[j] += sq[j];
        }
        // vmm_row_accumulate_scalar's energy is one serial chain over the
        // columns, so every column's term goes straight to the plane's sum.
        double acc = energy[act[k]];
        for (std::size_t j = 0; j < n; ++j) acc += e[j];
        energy[act[k]] = acc;
      }
    }
  }
}

void adc_decode_accumulate_scalar(const double* i_plus, const double* i_minus,
                                  double* acc, std::size_t n,
                                  const simd::AdcDecode& p) {
  for (std::size_t c = 0; c < n; ++c)
    acc[c] += (adc_level(i_plus[c], p) - adc_level(i_minus[c], p)) * p.weight;
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
