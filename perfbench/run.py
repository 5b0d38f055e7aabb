#!/usr/bin/env python3
"""The G-HBA benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the repository's libraries
from src/ plus the benchmark binary in perfbench/src/) into .bench_build/perfbench on
first use, pins itself and everything it starts to a fixed CPU set, runs the
binary once and prints:

  * a header ("# ..." lines): host, CPU set, build, data directory, seed;
  * the binary's notes and one "<kind> <metric> <value> <unit>" line per
    metric (kind e2e, extra or layer);
  * the CPU steal ticks of the run, taken from /proc/stat;
  * as the last line, the JSON result: {"correct", "attempted", "failed",
    "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
    metrics (--trace 1).

Exits non-zero, without a result line, when the sources are missing or the
build fails; exits 1 with "correct": false when a model check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "ghba_perfbench")
WORKLOADS = ("hot-read", "cold-read", "mutate-mix", "sim-replay")
BUILD_TYPE = "Release"
# The CPU set every run is pinned to; see README.md ("Noise controls") for
# the spreads that chose it. Falls back to the CPUs this process may use
# when the host has fewer.
PIN_CPUS = 1
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then an incremental build; output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found at %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log, env=env,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd), 3)


def pin():
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[-PIN_CPUS:] if len(allowed) >= PIN_CPUS else allowed
    os.sched_setaffinity(0, cpus)
    return cpus


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    """The commit of a git checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def fs_type(path):
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cpus = pin()
    run_dir = os.path.join(BUILD_ROOT, "run", "%s-%d" % (args.workload,
                                                         os.getpid()))
    spans_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload,
                                                         args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.join(run_dir, "data"),
           "--spans-out", spans if args.trace else ""]

    print("# host nproc=%d cpu=%s" % (os.cpu_count(), cpu_model()))
    print("# cpuset=%s" % ",".join(str(c) for c in cpus))
    print("# build type=%s sha=%s" % (BUILD_TYPE, git_sha()))
    print("# data_dir=%s fs=%s" % (run_dir, fs_type(run_dir)))
    print("# seed=%d seconds=%g trace=%d" % (args.seed, args.seconds,
                                             args.trace))
    sys.stdout.flush()

    steal0 = steal_ticks()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("ghba_perfbench exceeded %d s" % RUN_TIMEOUT_S, 4)
    wall = time.monotonic() - t0
    steal = steal_ticks() - steal0
    shutil.rmtree(run_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    for line in lines[:-1] if result else lines:
        print(line)
    print("# steal_ticks=%d wall_s=%.2f" % (steal, wall))
    if spans and args.trace:
        print("# spans=%s" % spans)
    if result is None:
        fail("ghba_perfbench exited %d without a result" % proc.returncode, 5)
    print(result)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
