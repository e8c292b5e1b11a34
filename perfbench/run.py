#!/usr/bin/env python3
"""Run one workload of the HFAST pipeline benchmark.

    python3 perfbench/run.py --workload fabric_p256 --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run builds libhfast and the driver
from source into .bench_build/perfbench (Release); later runs only check that
the build is current. The driver's full record of each run (host stamp,
per-pass samples, every layer's self time, failures) is kept under
.bench_build/perfbench/results/, and a traced run (--trace 1) also writes a
Chrome trace-event file next to it. The last line of standard output is the
run's result: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 when the run completed (read "correct" for its verdict),
nonzero when the benchmark could not be built or run; then no result line is
printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
DRIVER = os.path.join(BUILD, "hfast_perfbench")
GOLDEN = os.path.join(HERE, "golden.txt")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/ beside perfbench/: run from a repository checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "--target", "hfast_perfbench", "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "a") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
                raise RuntimeError(f"build failed ({' '.join(cmd)}); see {logf.name}")


def commit():
    """HEAD of the repository this benchmark sits in, if it is a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "none (not a git checkout)"


def next_run_index():
    """Runs so far in this checkout's build directory, counting this one."""
    path = os.path.join(BUILD, "run_index")
    n = 0
    if os.path.isfile(path):
        with open(path) as f:
            n = int(f.read().strip() or 0)
    with open(path, "w") as f:
        f.write(str(n + 1))
    return n


def run(workload, seed, seconds, trace, scale="full", write_golden=False):
    """Builds if needed, runs the driver once, returns its full record."""
    build()
    os.makedirs(RESULTS, exist_ok=True)
    index = next_run_index()
    stem = f"{workload}-{scale}-s{seed}-r{index}-t{trace}"
    out = os.path.join(RESULTS, stem + ".json")
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
           "--work-dir", os.path.join(BUILD, "work"), "--out", out,
           "--golden", GOLDEN, "--commit", commit(), "--run-index", str(index)]
    if write_golden:
        cmd.append("--write-golden")
    if trace:
        cmd += ["--chrome-trace", os.path.join(RESULTS, stem + ".trace.json")]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    with open(out) as f:
        rec = json.load(f)
    log(f"{stem}: {time.monotonic() - started:.1f} s, "
        f"{rec['attempted']} cells, {rec['failed']} failed")
    for failure in rec["failures"]:
        log(f"FAILED {failure}")
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-golden", action="store_true",
                    help="re-pin this workload's golden results (default seed only)")
    args = ap.parse_args()
    try:
        rec = run(args.workload, args.seed, args.seconds, args.trace,
                  args.scale, args.write_golden)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    stamp = " ".join(f"{k}={v}" for k, v in rec["stamp"].items())
    print(f"# host: {stamp}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
