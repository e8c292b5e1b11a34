#!/usr/bin/env python3
"""Smoke test for the pipeline benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through its full code path at tiny
scale (P=64), untraced and traced, and checks that:

  * every run is correct, with no failed cell, at the default seed (which
    includes the golden-result check) and at one other seed (the parity
    walls: sharded == serial, warm synth == cold, HTRC == in-memory);
  * every end-to-end metric is emitted untraced and every per-layer metric
    traced, each with the unit BENCHMARK.json gives it;
  * every record carries the host and build stamp, and the traced run writes
    a Chrome trace whose spans all share one run id;
  * run.py, given only BENCHMARK.json and perfbench/, fails without printing
    a result.

Exits nonzero on the first failed check. Takes under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's own runner)

STAMP_KEYS = {"nproc", "hardware_concurrency", "build_type", "compiler",
              "commit", "seed", "run_index", "peak_rss_mb"}


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(rec, expected, label):
    got = rec["metrics"]
    for m in expected:
        check(m["name"] in got, f"{label}: metric {m['name']} missing")
        check(got[m["name"]]["unit"] == m["unit"],
              f"{label}: {m['name']} has unit {got[m['name']]['unit']}, expected {m['unit']}")
        check(isinstance(got[m["name"]]["value"], (int, float)),
              f"{label}: {m['name']} is not a number")


def check_isolated_copy_fails():
    """The benchmark cannot run without the repository's sources."""
    iso = os.path.join(run.BUILD, "smoke-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fabric_p256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=iso, capture_output=True, text=True, timeout=180)
    shutil.rmtree(iso, ignore_errors=True)
    check(proc.returncode != 0, "isolated copy exited 0")
    check('"metrics"' not in proc.stdout, "isolated copy printed a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for seed in (1, 2):
            for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
                label = f"{w['name']} seed={seed} trace={trace}"
                rec = run.run(w["name"], seed, 1, trace, scale="tiny")
                check(rec["correct"] and rec["failed"] == 0,
                      f"{label}: failures {rec['failures']}")
                check(rec["attempted"] >= 1, f"{label}: nothing attempted")
                check(STAMP_KEYS <= set(rec["stamp"]), f"{label}: incomplete stamp")
                check_metrics(rec, expected, label)
                if trace:
                    path = os.path.join(run.RESULTS, os.path.basename(
                        f"{w['name']}-tiny-s{seed}-r{rec['stamp']['run_index']}-t1.trace.json"))
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    check(events, f"{label}: empty Chrome trace")
                    check(len({e["args"]["run_id"] for e in events}) == 1,
                          f"{label}: spans do not share one run id")
                print(f"ok  {label}: {rec['attempted']} cells")
    check_isolated_copy_fails()
    print("ok  isolated copy fails without printing a result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, RuntimeError) as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
