/// \file bench_micro_kernels.cpp
/// \brief Micro-kernel throughput bench. Sweeps every runtime-dispatched
///        ISA variant (scalar / avx2 / avx512) of the util::kernels hot
///        loops — dot, axpy, gemm_accumulate, vmm_row_accumulate,
///        bitplane_accumulate — across sizes, reporting GB/s and speedup vs
///        the portable scalar table, and ends with the standard BENCH_JSON
///        line (per-variant extras) scraped into BENCH_PR<N>.json by
///        scripts/collect_bench.sh.
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"
#include "util/table.hpp"

using namespace cim;

namespace {

std::vector<double> bench_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double checksum_sink = 0.0;  // defeats dead-code elimination across reps

/// Times `reps` invocations of `body` and returns seconds per rep.
template <typename F>
double time_reps(int reps, F&& body) {
  bench::WallTimer t;
  for (int i = 0; i < reps; ++i) body();
  return t.elapsed_ms() / 1e3 / static_cast<double>(reps);
}

struct KernelResult {
  std::string kernel;  // "dot" / "axpy" / "gemm" / "vmm_row" / "bitplane"
  std::size_t n;       // problem size (elements or MACs)
  double bytes;        // bytes touched per invocation
  // seconds/rep, indexed like supported_isas()
  std::vector<double> sec;
};

/// One sweep entry: run every supported table on identical inputs.
void sweep_kernel(std::vector<KernelResult>& out, const std::string& name,
                  std::size_t n, double bytes, int reps,
                  const std::vector<util::simd::Isa>& isas,
                  const std::function<void(const util::simd::KernelTable&)>&
                      run) {
  KernelResult res{name, n, bytes, {}};
  for (const auto isa : isas) {
    const auto& table = util::simd::table_for(isa);
    run(table);  // warm-up: faults the working set, primes branch history
    res.sec.push_back(time_reps(reps, [&] { run(table); }));
  }
  out.push_back(std::move(res));
}

int run_isa_sweep() {
  const auto isas = util::simd::supported_isas();
  bench::WallTimer total;
  std::vector<KernelResult> results;

  // Vector kernels at L1/L2-resident sizes; the largest size of each
  // kernel feeds the per-variant speedup extras below.
  for (const std::size_t n : {256u, 1024u, 4096u}) {
    const auto a = bench_vec(n, 2 * n + 1);
    const auto b = bench_vec(n, 3 * n + 7);
    const int reps = static_cast<int>(4u * 1024u * 1024u / n);

    sweep_kernel(results, "dot", n, 16.0 * static_cast<double>(n), reps, isas,
                 [&](const util::simd::KernelTable& t) {
                   checksum_sink += t.dot(a.data(), b.data(), n);
                 });

    auto y = bench_vec(n, 5 * n + 3);
    sweep_kernel(results, "axpy", n, 24.0 * static_cast<double>(n), reps, isas,
                 [&](const util::simd::KernelTable& t) {
                   t.axpy(1.0000001, a.data(), y.data(), n);
                   checksum_sink += y[n / 2];
                 });

    auto g = bench_vec(n, 7 * n + 9);
    for (auto& x : g) x = x < 0 ? -x : x;  // conductances are non-negative
    auto currents = std::vector<double>(n, 0.0);
    auto noise = std::vector<double>(n, 0.0);
    sweep_kernel(results, "vmm_row", n, 40.0 * static_cast<double>(n), reps,
                 isas, [&](const util::simd::KernelTable& t) {
                   double e = 0.0;
                   t.vmm_row_accumulate(0.2, g.data(), currents.data(),
                                        noise.data(), 0.01, 1.0, n, e);
                   checksum_sink += e + currents[n / 2];
                 });
  }

  // Blocked GEMM: an L1-resident panel (the repo's small-layer nn shapes)
  // and a larger one crossing the kernel's kKc=64 / kNc=256 blocking.
  {
    struct Shape {
      std::size_t m, k, n;
      int reps;
    };
    for (const Shape s : {Shape{128, 64, 64, 32}, Shape{64, 128, 256, 8}}) {
      const auto a = bench_vec(s.m * s.k, 17);
      const auto b = bench_vec(s.k * s.n, 19);
      auto c = std::vector<double>(s.m * s.n, 0.0);
      const double macs = static_cast<double>(s.m * s.k * s.n);
      sweep_kernel(results, "gemm", s.m * s.k * s.n, 24.0 * macs, s.reps,
                   isas, [&, s](const util::simd::KernelTable& t) {
                     t.gemm_accumulate(a.data(), s.k, b.data(), s.n, c.data(),
                                       s.n, s.m, s.k, s.n);
                     checksum_sink += c[s.m * s.n / 2];
                   });
    }
  }

  // Fused bit-plane read of one 4-bit request on a 64x64 array (the
  // serving tiles' shape): every row's bit pattern drawn uniformly, so on
  // average half the rows drive each plane. Bytes: the conductance matrix
  // once plus each plane's currents read and written.
  {
    constexpr std::size_t kRows = 64, kCols = 64;
    constexpr int kPlanes = 4;
    auto g = bench_vec(kRows * kCols, 23);
    for (auto& x : g) x = x < 0 ? -x : x;
    util::Rng rng(29);
    std::vector<std::uint32_t> bits(kRows);
    for (auto& b : bits) b = static_cast<std::uint32_t>(rng.uniform_int(16));
    auto currents = std::vector<double>(kPlanes * kCols, 0.0);
    sweep_kernel(results, "bitplane", kRows * kCols * kPlanes,
                 8.0 * static_cast<double>(kRows * kCols +
                                           2 * kPlanes * kCols),
                 20000, isas, [&](const util::simd::KernelTable& t) {
                   t.bitplane_accumulate(0.2, g.data(), kRows, kCols,
                                         bits.data(), kPlanes,
                                         currents.data());
                   checksum_sink += currents[kCols / 2];
                 });
  }

  // Human-readable report.
  {
    std::vector<std::string> headers = {"kernel", "n"};
    for (const auto isa : isas)
      headers.push_back(std::string(util::simd::isa_name(isa)) + " GB/s");
    for (std::size_t i = 1; i < isas.size(); ++i)
      headers.push_back(std::string("speedup ") +
                        util::simd::isa_name(isas[i]));
    util::Table t(headers);
    t.set_title("util::kernels dispatched-ISA throughput (vs scalar table)");
    for (const auto& r : results) {
      std::vector<std::string> row = {r.kernel, std::to_string(r.n)};
      for (const double s : r.sec)
        row.push_back(util::Table::num(r.bytes / s / 1e9, 2));
      for (std::size_t i = 1; i < r.sec.size(); ++i)
        row.push_back(util::Table::num(r.sec[0] / r.sec[i], 2));
      t.add_row(row);
    }
    t.print(std::cout);
  }

  // BENCH_JSON extras: per-kernel GB/s for every variant plus speedup vs
  // scalar, taken at each kernel's peak-speedup size across the sweep
  // (the table above records every size).
  const auto best_speedup = [](const KernelResult& r) {
    double s = 0.0;
    for (std::size_t i = 1; i < r.sec.size(); ++i)
      s = std::max(s, r.sec[0] / r.sec[i]);
    return s;
  };
  std::vector<std::pair<std::string, double>> extras;
  double ops = 0.0;
  for (const auto& r : results) ops += static_cast<double>(r.n);
  for (const std::string kernel :
       {"dot", "axpy", "vmm_row", "gemm", "bitplane"}) {
    const KernelResult* best = nullptr;
    for (const auto& r : results)
      if (r.kernel == kernel &&
          (best == nullptr || best_speedup(r) > best_speedup(*best)))
        best = &r;
    if (best == nullptr) continue;
    for (std::size_t i = 0; i < isas.size(); ++i) {
      const std::string isa = util::simd::isa_name(isas[i]);
      extras.emplace_back(kernel + "_gbs_" + isa,
                          best->bytes / best->sec[i] / 1e9);
      if (i > 0)
        extras.emplace_back(kernel + "_speedup_" + isa,
                            best->sec[0] / best->sec[i]);
    }
  }

  obs::emit_bench_json("bench_micro_kernels", total.elapsed_ms(), ops, extras);
  return checksum_sink == 12345.6789 ? 1 : 0;  // keep the sink observable
}

}  // namespace

int main() { return run_isa_sweep(); }
