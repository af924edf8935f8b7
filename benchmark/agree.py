#!/usr/bin/env python3
"""Checks that two sets of cimbench runs of the same code agree.

    python3 benchmark/agree.py [--runs N]

Run from anywhere; it drives the command BENCHMARK.json names, from the
repository root, for every workload it declares and for its run_seconds.
Steps:

1. `--list` must name exactly the workloads and metrics (with units and
   directions) that BENCHMARK.json declares.
2. Two interleaved sets of N (default 5) untraced runs per workload, run i
   of both sets on seed i. Every run must exit 0 with correct = true and
   failed = 0, and each simulated metric (sim_*) and check value
   (accuracy) must be bit-identical between the two runs of a seed.
3. For every (metric, workload) pair it prints each set's median and
   quartiles. It fails when the two medians differ by more than the
   metric's bound, or when a set's spread (q3 - q1) / median exceeds the
   bound (setup_s exempt); a spread above a third of the bound is flagged.
4. One traced run per workload must exit 0; its exclusive per-layer
   profile is printed.

Exits 0 when everything holds, 1 otherwise. Standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(cmd, args):
    """Runs the benchmark command; returns (code, stdout lines). Its stderr
    (build output, diagnostics) is shown only when the run fails."""
    p = subprocess.run(cmd + args, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
    return p.returncode, p.stdout.splitlines()


def check_list(spec, cmd):
    code, lines = run(cmd, ["--list"])
    if code != 0:
        return [f"--list exited {code}"]
    listed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in lines:
        kind, *rest = line.split()
        listed[kind].append(tuple(rest))
    want = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"])
                       for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"])
                      for m in spec["per_layer"]],
    }
    return [f"{kind}: cimbench lists {listed[kind]}, "
            f"BENCHMARK.json declares {want[kind]}"
            for kind in want if listed[kind] != want[kind]]


def parse_run(lines):
    """Returns (result, info) from a run's stdout."""
    result = json.loads(lines[-1])
    info = {}
    for line in lines:
        if line.startswith('{"cimbench"'):
            info = json.loads(line)["cimbench"]
    return result, info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    opt = ap.parse_args()

    spec = load_spec()
    cmd = spec["command"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    errors = check_list(spec, cmd)

    # results[set][workload] = list of (seed, result, info)
    results = [{w: [] for w in workloads} for _ in range(2)]
    for seed in range(1, opt.runs + 1):
        for s in range(2):
            for w in workloads:
                args = ["--workload", w, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"]
                code, lines = run(cmd, args)
                tag = f"set {'AB'[s]} {w} seed {seed}"
                if code != 0 or not lines:
                    errors.append(f"{tag}: exit {code}")
                    continue
                res, info = parse_run(lines)
                if not res["correct"] or res["failed"] != 0:
                    errors.append(f"{tag}: correct={res['correct']} "
                                  f"failed={res['failed']}")
                results[s][w].append((seed, res, info))
                print(f"{tag}: {info.get('calls')} calls", file=sys.stderr)

    # Simulated metrics and check values must repeat bit for bit.
    for w in workloads:
        by_seed = {}
        for s in range(2):
            for seed, res, info in results[s][w]:
                det = {k: v["value"] for k, v in res["metrics"].items()
                       if k.startswith("sim_")}
                det.update({k: info[k] for k in ("accuracy",) if k in info})
                by_seed.setdefault(seed, []).append(det)
        for seed, dets in by_seed.items():
            if any(d != dets[0] for d in dets):
                errors.append(f"{w} seed {seed}: simulated values differ "
                              f"between runs: {dets}")

    print(f"{'metric':<18} {'workload':<12} {'median A':>14} "
          f"{'q1..q3 A':>25} {'median B':>14} {'diff':>8} {'spread':>7} "
          f"{'bound':>6}  status")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for w in workloads:
            sets = [[r["metrics"][name]["value"] for _, r, _ in results[s][w]]
                    for s in range(2)]
            if not sets[0] or not sets[1]:
                continue
            qa, qb = quartiles(sets[0]), quartiles(sets[1])
            diff = qb[1] / qa[1] - 1 if qa[1] else 0.0
            spreads = [(q[2] - q[0]) / q[1] if q[1] else 0.0
                       for q in (qa, qb)]
            status = "ok"
            if abs(diff) > bound:
                status = "FAIL medians"
                errors.append(f"{name} on {w}: medians differ by "
                              f"{diff:+.2%}, bound {bound:.1%}")
            elif name != "setup_s" and max(spreads) > bound:
                status = "FAIL spread"
                errors.append(f"{name} on {w}: spread {max(spreads):.2%} "
                              f"exceeds bound {bound:.1%}")
            elif name != "setup_s" and max(spreads) > bound / 3:
                status = "spread > bound/3"
            print(f"{name:<18} {w:<12} {qa[1]:>14.6g} "
                  f"{qa[0]:>12.6g}..{qa[2]:<12.6g} {qb[1]:>14.6g} "
                  f"{diff:>+8.2%} {max(spreads):>7.2%} {bound:>6.1%}  {status}")

    for w in workloads:
        code, lines = run(cmd, ["--workload", w, "--seed", "1",
                                "--seconds", str(seconds), "--trace", "1"])
        print("\n".join(l for l in lines if not l.startswith("{")))
        if code != 0:
            errors.append(f"traced {w}: exit {code}")

    for e in errors:
        print("FAIL:", e)
    print("agree: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
