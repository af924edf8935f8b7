/// \file simd_dispatch.cpp
/// \brief Runtime resolution of the active kernel table (CPUID + CIM_SIMD).
#include "util/simd_dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/kernels_impl.hpp"

namespace cim::util::simd {
namespace {

using namespace cim::util::kernels::detail;

const KernelTable kScalarTable{Isa::kScalar,
                               0,
                               &dot_scalar,
                               &axpy_scalar,
                               &gemm_accumulate_scalar,
                               &vmm_row_accumulate_scalar,
                               &bitplane_accumulate_scalar,
                               &row_energy_scalar,
                               &bitplane_accumulate_full_scalar,
                               &noise_add_scalar,
                               &adc_decode_accumulate_scalar,
                               &normal_fill_scalar};

#if CIM_SIMD_HAVE_AVX2
const KernelTable kAvx2Table{Isa::kAvx2,
                             4,
                             &dot_avx2,
                             &axpy_avx2,
                             &gemm_accumulate_avx2,
                             &vmm_row_accumulate_avx2,
                             &bitplane_accumulate_avx2,
                             &row_energy_avx2,
                             &bitplane_accumulate_full_avx2,
                             &noise_add_avx2,
                             &adc_decode_accumulate_avx2,
                             &normal_fill_avx2};
#endif
#if CIM_SIMD_HAVE_AVX512
const KernelTable kAvx512Table{Isa::kAvx512,
                               8,
                               &dot_avx512,
                               &axpy_avx512,
                               &gemm_accumulate_avx512,
                               &vmm_row_accumulate_avx512,
                               &bitplane_accumulate_avx512,
                               &row_energy_avx512,
                               &bitplane_accumulate_full_avx512,
                               &noise_add_avx512,
                               &adc_decode_accumulate_avx2,
                               &normal_fill_avx512};
#endif

Isa detect_max_isa() {
#if CIM_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
#if CIM_SIMD_HAVE_AVX512
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return Isa::kAvx512;
  }
#endif
#if CIM_SIMD_HAVE_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Isa::kAvx2;
  }
#endif
#endif
  return Isa::kScalar;
}

Isa clamp_to_supported(Isa requested, const char* origin) {
  const Isa max = max_supported_isa();
  if (static_cast<int>(requested) <= static_cast<int>(max)) return requested;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "[cim] %s requested SIMD tier '%s' but this host/build "
                 "supports at most '%s'; clamping.\n",
                 origin, isa_name(requested), isa_name(max));
  }
  return max;
}

/// Resolves the startup table: CPUID best, overridden by CIM_SIMD.
Isa resolve_startup_isa() {
  Isa isa = max_supported_isa();
  const char* env = std::getenv("CIM_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0)
    return isa;
  if (std::strcmp(env, "scalar") == 0) return Isa::kScalar;
  if (std::strcmp(env, "avx2") == 0)
    return clamp_to_supported(Isa::kAvx2, "CIM_SIMD");
  if (std::strcmp(env, "avx512") == 0)
    return clamp_to_supported(Isa::kAvx512, "CIM_SIMD");
  std::fprintf(stderr,
               "[cim] unrecognised CIM_SIMD value '%s' "
               "(want scalar|avx2|avx512|auto); using '%s'.\n",
               env, isa_name(isa));
  return isa;
}

std::atomic<const KernelTable*>& active_slot() {
  static std::atomic<const KernelTable*> slot{
      &table_for(resolve_startup_isa())};
  return slot;
}

}  // namespace

Isa max_supported_isa() {
  static const Isa max = detect_max_isa();
  return max;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out{Isa::kScalar};
  const int max = static_cast<int>(max_supported_isa());
  if (max >= static_cast<int>(Isa::kAvx2)) out.push_back(Isa::kAvx2);
  if (max >= static_cast<int>(Isa::kAvx512)) out.push_back(Isa::kAvx512);
  return out;
}

const KernelTable& table_for(Isa isa) {
  const Isa max = max_supported_isa();
  if (static_cast<int>(isa) > static_cast<int>(max)) isa = max;
#if CIM_SIMD_HAVE_AVX512
  if (isa == Isa::kAvx512) return kAvx512Table;
#endif
#if CIM_SIMD_HAVE_AVX2
  if (isa == Isa::kAvx2) return kAvx2Table;
#endif
  (void)isa;
  return kScalarTable;
}

const KernelTable& active() {
  return *active_slot().load(std::memory_order_relaxed);
}

Isa active_isa() { return active().isa; }

const char* active_isa_name() { return isa_name(active_isa()); }

Isa set_isa(Isa requested) {
  const Isa granted = clamp_to_supported(requested, "set_isa");
  active_slot().store(&table_for(granted), std::memory_order_relaxed);
  return granted;
}

}  // namespace cim::util::simd
