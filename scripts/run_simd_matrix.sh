#!/usr/bin/env bash
# Runs the `simd` ctest slice (cross-ISA kernel conformance + fidelity-tier
# gates), the `tsan` slice (the thread pool, the batched-VMM rows and the
# end-to-end determinism tests) and the `cache` slice (cache coherence and
# the write-path golden) with runtime dispatch forced to each instruction
# set in turn via CIM_SIMD. A batch equals a vmm() loop per kernel table,
# since tier-0 energy is a per-table reduction, so the batch rows run under
# every table; the write-path golden pins each table's own lines. Variants the build or CPU cannot execute clamp
# down to the best supported table (with a one-time notice on stderr), so
# the matrix is safe to run on any host — on a scalar-only machine all
# three legs exercise the portable table.
#
# Usage: scripts/run_simd_matrix.sh <build-dir> [extra ctest args...]
#   e.g. scripts/run_simd_matrix.sh build
#        scripts/run_simd_matrix.sh build --output-on-failure
set -euo pipefail

build_dir=${1:?usage: run_simd_matrix.sh <build-dir> [ctest args...]}
shift || true

[ -d "${build_dir}" ] || { echo "error: ${build_dir} not found (build first)" >&2; exit 1; }

status=0
for isa in scalar avx2 avx512; do
  echo "=== ctest -L 'simd|tsan|cache' with CIM_SIMD=${isa} ===" >&2
  if ! (cd "${build_dir}" && CIM_SIMD="${isa}" ctest -L 'simd|tsan|cache' "$@"); then
    echo "!! simd|tsan|cache slice failed with CIM_SIMD=${isa}" >&2
    status=1
  fi
done
exit "${status}"
