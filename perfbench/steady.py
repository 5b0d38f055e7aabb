#!/usr/bin/env python3
"""Steadiness check of the G-HBA benchmark.

    python3 perfbench/steady.py [--runs N] [--workloads w1,w2] [--seed-base S]

Run from the repository root. Runs every workload as two interleaved sets
of N runs each (A, B, A, B, ...), every run with its own seed, through
perfbench/run.py. For each end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance / median) and whether the two
sets agree within BENCHMARK.json's bounds:

  * each set's spread is within the metric's bound, and
  * set B's median differs from set A's, better or worse, by no more than
    the bound.

The workload-specific figures (the "extra" lines) are printed the same way,
without a bound. It also checks that the failed share of operations is the
same in both sets, runs one traced run per workload and prints the ratio of
the traced to the untraced ops_per_s median as the tracing overhead. Every
run's raw result goes to .bench_build/steady.json. Exits 1 when a bound is
missed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    extra = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("e2e", "extra"):
            extra[parts[1]] = float(parts[2])
        if line.startswith("# steal_ticks="):
            for field in line[2:].split():
                key, value = field.split("=")
                extra[key] = float(value)
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "metrics": values, "lines": extra}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per set (two sets per workload)")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    raw = {w: {"A": [], "B": [], "traced": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for s, side in enumerate(("A", "B")):
                seed = args.seed_base + 2 * i + s
                raw[w][side].append(run_once(w, seed, seconds, 0))
    for w in workloads:
        raw[w]["traced"].append(run_once(w, args.seed_base, seconds, 1))

    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    for w in workloads:
        print("== %s (%d + %d runs, %g s each)" % (w, len(raw[w]["A"]),
                                                   len(raw[w]["B"]), seconds))
        shares = {side: {r["failed"] / r["attempted"] for r in raw[w][side]}
                  for side in ("A", "B")}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        print("  failed share: %s (%s)" % (
            sorted(shares["A"] | shares["B"]),
            "same in both sets" if same_share else "DIFFERS"))
        print("  %-20s %-6s %12s %12s %12s %8s | %12s %8s %8s  %s" % (
            "metric", "unit", "A median", "A q1", "A q3", "A spread",
            "B median", "B spread", "B vs A", "verdict"))
        for name, m in metrics.items():
            a = [r["metrics"][name] for r in raw[w]["A"]]
            b = [r["metrics"][name] for r in raw[w]["B"]]
            ma, qa1, qa3, sa = summary(a)
            mb, _, _, sb = summary(b)
            drift = worse_by(ma, mb, m["better"])
            bound = m["bound"]
            good = abs(drift) <= bound and sa <= bound and sb <= bound
            ok &= good
            print("  %-20s %-6s %12.4g %12.4g %12.4g %8.3f | %12.4g %8.3f "
                  "%+8.3f  %s (bound %.2f)" % (
                      name, m["unit"], ma, qa1, qa3, sa, mb, sb, drift,
                      "ok" if good else "MISSED", bound))
        extra_names = sorted({k for r in raw[w]["A"] for k in r["lines"]}
                             - set(metrics))
        for name in extra_names:
            a = [r["lines"].get(name, 0.0) for r in raw[w]["A"]]
            b = [r["lines"].get(name, 0.0) for r in raw[w]["B"]]
            ma, qa1, qa3, sa = summary(a)
            mb, _, _, sb = summary(b)
            print("  %-20s %-6s %12.4g %12.4g %12.4g %8.3f | %12.4g %8.3f"
                  "           (no bound)" % (name, "", ma, qa1, qa3, sa, mb,
                                             sb))
        untraced = statistics.median(
            r["metrics"]["ops_per_s"] for r in raw[w]["A"] + raw[w]["B"])
        traced = raw[w]["traced"][0]["lines"].get("ops_per_s", 0.0)
        print("  tracing overhead: traced ops_per_s %.4g / untraced "
              "median %.4g = %.3f" % (traced, untraced, traced / untraced))
    print("verdict: %s" % ("all within bounds" if ok else "bounds MISSED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
