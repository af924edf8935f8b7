#!/usr/bin/env bash
# Runs every bench_* binary in a build directory, scrapes their BENCH_JSON
# lines, and aggregates them into BENCH_PR<N>.json (a JSON array) in the
# current working directory — the per-PR perf trajectory record.
#
# Usage: scripts/collect_bench.sh <build-dir> <pr-number>
#   e.g. scripts/collect_bench.sh build 3   ->  BENCH_PR3.json
#
# bench_micro_kernels runs its dispatched-ISA sweep and emits a BENCH_JSON
# line like every other bench.
#
# Every scraped line is validated against the BENCH_JSON schema before it
# is admitted: the required keys must all be present and any other key must
# be on the per-bench extras whitelist below. A bench that emits a
# malformed line, drops a field, or invents one fails the run loudly —
# schema drift otherwise surfaces much later as holes in the trajectory
# record.
#
# Wall times on shared/virtualized CI hosts have a heavy upper tail (a
# 15 ms bench can spike to 25 ms under a noisy neighbour), so the whole
# suite runs CIM_BENCH_REPEATS times (default 3) and each bench records
# its fastest *clean* repeat — min-of-N is the standard estimator for
# the noise-free wall time, and the history gate in compare_bench.py
# assumes it. The repeats are interleaved as full suite passes rather
# than run back-to-back per bench: host noise is autocorrelated over
# seconds, so consecutive repeats of one bench land in the same noisy
# window while passes minutes apart are independent draws. A bench whose
# gate fails in every repeat is recorded (fastest repeat) but fails the
# collection.
set -euo pipefail

build_dir=${1:?usage: collect_bench.sh <build-dir> <pr-number>}
pr=${2:?usage: collect_bench.sh <build-dir> <pr-number>}
out="BENCH_PR${pr}.json"

bench_dir="${build_dir}/bench"
[ -d "${bench_dir}" ] || { echo "error: ${bench_dir} not found (build first)" >&2; exit 1; }

tmp=$(mktemp)
trap 'rm -f "${tmp}"' EXIT

# Strict schema check for one BENCH_JSON line, passed as $2 (see
# src/obs/export.cpp bench_json_line for the producer). Exits non-zero with
# a message naming the offending key on any violation.
validate_line() {
  python3 - "$1" "$2" <<'PYEOF'
import json, sys

REQUIRED = {
    "bench", "wall_ms", "ops", "ops_per_s", "threads", "peak_rss_mb",
    "cache_full_rebuilds", "cache_delta_updates", "git_sha", "build_type",
    "simd_isa",
}
# Per-bench extras. Adding a field to a bench means adding it here, on
# purpose — unknown keys are schema drift and fail the run.
OPTIONAL = {
    "mc_wall_ms", "drop_at_80", "mean_recovered",
    "vmm_speedup_8v1", "mc_speedup_8v1", "hw_concurrency", "deterministic",
    "speedup_program_verify", "speedup_dense",
    "incr_full_rebuilds", "incr_delta_updates", "incr_dirty_cells",
    "gate_pass", "overhead_pct", "per_site_ns", "metrics_mode_ms",
    "alarm_cycle", "collapse_cycle", "alarm_lead_cycles",
    "worn_cell_frac", "mean_abs_drift_us",
    "pass_lint_ms", "pass_wear_ms", "pass_cost_ms", "hazard_findings",
    "static_energy_err_pct", "static_time_err_pct",
    # fidelity-dial sweep (bench_fig4_crossbar_vmm)
    "tier1_speedup", "tier2_speedup", "tier1_rel_dev", "tier2_rel_dev",
    # open-loop serving (bench_serving): batching gate, SLO operating
    # point (80% load) latency/occupancy, saturation throughput, and the
    # wear-aware routing traffic shares. Simulated-time metrics.
    "serve_speedup_batched", "p99_batched_us", "p99_single_us",
    "p50_us", "p99_us", "p999_us", "mean_queue_depth", "max_queue_depth",
    "util_mean", "sustained_rps_overload", "shed_frac_overload",
    "worn_share_rr", "worn_share_wear", "replicas",
    # request-lifecycle decomposition + windowed SLO (bench_serve_timeline):
    # overload-point latency decomposition means, queue-wait share of the
    # mean at 120%/20% load, burn-rate alerting outcome, and the number of
    # closed aggregation windows. Simulated-time metrics.
    "p99_us_overload", "queue_share_overload", "queue_share_healthy",
    "mean_batch_wait_us", "mean_queue_wait_us", "mean_issue_share_us",
    "mean_bitserial_us", "mean_reduce_us", "slo_breached_overload",
    "slo_fast_alerts_overload", "slo_budget_consumed_overload",
    "windows_closed",
    # adaptive Monte-Carlo campaigns (exp::run_campaign): scheduler round
    # counts / process-shard counts for the migrated sweeps, and the
    # adaptive-vs-fixed trial economics of the bench_campaign gate.
    "campaign_rounds", "campaign_shards",
    "adaptive_trials", "fixed_trials", "saved_frac",
    "adaptive_wall_ms", "fixed_wall_ms",
    # dispatched-ISA kernel sweep (bench_micro_kernels): GB/s per variant
    # and speedup vs the scalar table; avx* keys are absent on hosts
    # whose build or CPU cannot execute that table.
    *(f"{k}_gbs_{isa}" for k in ("dot", "axpy", "vmm_row", "gemm")
      for isa in ("scalar", "avx2", "avx512")),
    *(f"{k}_speedup_{isa}" for k in ("dot", "axpy", "vmm_row", "gemm")
      for isa in ("avx2", "avx512")),
}

name = sys.argv[1]
line = sys.argv[2].strip()
try:
    obj = json.loads(line)
except json.JSONDecodeError as e:
    sys.exit(f"{name}: BENCH_JSON line is not valid JSON: {e}")
if not isinstance(obj, dict):
    sys.exit(f"{name}: BENCH_JSON line is not a JSON object")
missing = sorted(REQUIRED - obj.keys())
if missing:
    sys.exit(f"{name}: BENCH_JSON missing required key(s): {', '.join(missing)}")
unknown = sorted(obj.keys() - REQUIRED - OPTIONAL)
if unknown:
    sys.exit(f"{name}: BENCH_JSON unknown key(s): {', '.join(unknown)} "
             "(whitelist them in scripts/collect_bench.sh if intentional)")
if not isinstance(obj["bench"], str) or not obj["bench"]:
    sys.exit(f"{name}: BENCH_JSON 'bench' must be a non-empty string")
for k in ("git_sha", "build_type", "simd_isa"):
    if not isinstance(obj[k], str) or not obj[k]:
        sys.exit(f"{name}: BENCH_JSON '{k}' must be a non-empty string")
if obj["simd_isa"] not in ("scalar", "avx2", "avx512"):
    sys.exit(f"{name}: BENCH_JSON 'simd_isa' must be scalar/avx2/avx512")
for k, v in obj.items():
    if k in ("bench", "git_sha", "build_type", "simd_isa"):
        continue
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        sys.exit(f"{name}: BENCH_JSON '{k}' must be a number, got {v!r}")
PYEOF
}

repeats=${CIM_BENCH_REPEATS:-3}
status=0
declare -A best_line best_wall best_ok
names=()
for rep in $(seq "${repeats}"); do
  echo "== pass ${rep}/${repeats}" >&2
  for b in "${bench_dir}"/bench_*; do
    [ -x "${b}" ] && [ -f "${b}" ] || continue
    name=$(basename "${b}")
    if [ "${rep}" -eq 1 ]; then names+=("${name}"); fi
    echo ">> ${name}" >&2
    if bench_out=$("${b}"); then ok=1; else ok=0; fi
    line=$(printf '%s\n' "${bench_out}" | sed -n 's/^BENCH_JSON //p')
    if [ -z "${line}" ]; then
      echo "error: ${name} emitted no BENCH_JSON line" >&2
      exit 1
    fi
    if [ "$(printf '%s\n' "${line}" | wc -l)" -ne 1 ]; then
      echo "error: ${name} emitted more than one BENCH_JSON line" >&2
      exit 1
    fi
    wall=$(python3 -c 'import json,sys; print(json.loads(sys.argv[1])["wall_ms"])' \
             "${line}") || { echo "error: ${name}: no wall_ms" >&2; exit 1; }
    # Prefer clean repeats; among equals keep the fastest wall time.
    if [ "${ok}" -gt "${best_ok[${name}]:-0}" ] ||
       { [ "${ok}" -eq "${best_ok[${name}]:-0}" ] &&
         { [ -z "${best_wall[${name}]:-}" ] ||
           python3 -c 'import sys; sys.exit(0 if float(sys.argv[1]) < float(sys.argv[2]) else 1)' \
             "${wall}" "${best_wall[${name}]}"; }; }; then
      best_line[${name}]=${line}
      best_wall[${name}]=${wall}
      best_ok[${name}]=${ok}
    fi
  done
done
for name in "${names[@]}"; do
  if [ "${best_ok[${name}]}" -eq 0 ]; then
    # A failing gate is recorded but does not stop collection.
    echo "!! ${name} exited non-zero in all ${repeats} repeats" >&2
    status=1
  fi
  validate_line "${name}" "${best_line[${name}]}" || exit 1
  printf '%s\n' "${best_line[${name}]}" >> "${tmp}"
done

# Assemble the scraped object-per-line stream into a JSON array.
{
  echo '['
  awk 'NR > 1 { printf ",\n" } { printf "  %s", $0 } END { printf "\n" }' "${tmp}"
  echo ']'
} > "${out}"

echo "wrote ${out} ($(grep -c '"bench"' "${out}") bench entries)" >&2

# Bench-history regression gate: diff this run against the newest previous
# BENCH_PR<N>.json and fail loudly on wall-time / peak-RSS regressions
# (thresholds live in compare_bench.py). First PR has no history — skipped.
script_dir=$(cd "$(dirname "$0")" && pwd)
if ! python3 "${script_dir}/compare_bench.py" "${out}"; then
  echo "!! bench regression gate failed (scripts/compare_bench.py)" >&2
  status=1
fi
exit "${status}"
