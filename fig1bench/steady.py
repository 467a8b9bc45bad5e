#!/usr/bin/env python3
"""A/A steadiness check of the Fig. 1 benchmark.

    python3 fig1bench/steady.py --workload explore [--runs 10] [--sets 2]
        [--seconds S] [--first-seed 1] [--trace-overhead]

Runs one workload of the same build in interleaved sets of runs, each
run with its own seed (set k, run i uses seed first_seed + i*sets + k).
For every end-to-end metric it prints each set's median and quartiles
and the spread, (Q3 - Q1) / median, against the metric's bound in
BENCHMARK.json; with two sets also how far the second median is worse
than the first, and whether the share of failed operations agrees.
The host probe (a fixed loop timed at the start and end of every run)
is summarised so a slow host window can be told from a slow program.
With --trace-overhead it also makes one traced run per untraced run and
prints how far the traced build's end-to-end figures move.
Run from the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = re.compile(r"host probe: ([\d.]+) ms at start, ([\d.]+) ms at end")
TRACED = re.compile(r"traced end-to-end \(overhead reference\): (\{.*\})")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    probe = PROBE.search(out)
    traced = TRACED.search(out)
    return {
        "result": result,
        "probe": tuple(map(float, probe.groups())) if probe else None,
        "traced_e2e": json.loads(traced.group(1)) if traced else None,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=[1, 2], default=2)
    p.add_argument("--seconds", type=float)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace-overhead", action="store_true")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = [[] for _ in range(a.sets)]
    traced = []
    for i in range(a.runs):
        for k in range(a.sets):
            seed = a.first_seed + i * a.sets + k
            r = run_once(a.workload, seed, seconds, 0)
            sets[k].append(r)
            res = r["result"]
            vals = " ".join(f"{n}={m['value']:.5g}" for n, m in res["metrics"].items())
            print(f"set {k} run {i} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} probe={r['probe']} {vals}", file=sys.stderr)
        if a.trace_overhead:
            traced.append(run_once(a.workload, a.first_seed + i * a.sets, seconds, 1))

    names = [n for n in sets[0][0]["result"]["metrics"] if n in metrics]
    print(f"workload {a.workload}: {a.runs} runs x {a.sets} sets, {seconds} s each")
    print(f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    ok = True
    for name in names:
        m = metrics[name]
        medians = []
        for k, runs in enumerate(sets):
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            medians.append(med)
            flag = "" if name == "setup_s" or spread <= m["bound"] else "  OVER"
            ok &= flag == ""
            print(f"{name:<18} {k:>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {m['bound']:>6}{flag}")
        if len(medians) == 2:
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            flag = "" if worse <= m["bound"] else "  OVER"
            ok &= flag == ""
            print(f"{name:<18}     second median worse by {worse:+.3f} (bound {m['bound']}){flag}")
    shares = [sum(r["result"]["failed"] for r in s) / max(1, sum(r["result"]["attempted"] for r in s)) for s in sets]
    print(f"failed share per set: {shares}")
    probes = [r["probe"] for s in sets for r in s if r["probe"]]
    if probes:
        flat = [v for pr in probes for v in pr]
        print(f"host probe: median {statistics.median(flat):.1f} ms, min {min(flat):.1f}, max {max(flat):.1f}")
    if traced:
        print("tracing overhead (traced build's end-to-end vs untraced set 0, medians):")
        for name in names:
            plain = statistics.median(r["result"]["metrics"][name]["value"] for r in sets[0])
            vals = [r["traced_e2e"][name]["value"] for r in traced if r["traced_e2e"]]
            if vals and plain:
                t = statistics.median(vals)
                print(f"  {name:<18} untraced {plain:>12.5g} traced {t:>12.5g} ({(t - plain) / plain:+.1%})")
    print("steady" if ok and len(set(shares)) == 1 else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
