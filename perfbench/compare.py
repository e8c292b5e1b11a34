#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of run records (the JSON files
perfbench/run.py keeps under .bench_build/perfbench/results/) or a single
record. Chrome trace files are skipped.

For every workload, every end-to-end metric (from untraced runs) and every
per-layer metric (from traced runs) is printed with each side's median,
first and third quartile and run count, and the change's delta against the
parent median. Verdicts follow the benchmark's bounds in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than the bound
  within      no worse than the bound allows (not evidence of a gain)
  better      better by more than the bound and by more than the parent's spread
  unresolved  either side's spread (IQR / median) exceeds the bound, so the
              runs cannot tell a change of that size apart from noise --
              unless every change run beats every parent run ("better*")

Per-layer metrics have no bound of their own; they are judged against the
largest end-to-end bound. Counts are reported as "same" or "changed". Below
them come the traced records' `layers`: the self time of every span name,
such as netsim.prewarm.hfast or collective.lower.synth_warm, which shows
where inside a layer a change moved time. A gain claim additionally needs
paired, alternating runs (see README.md).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COUNT_UNITS = {"count", "B"}


def load_records(path):
    files = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".json") and not name.endswith(".trace.json"):
                files.append(os.path.join(path, name))
    else:
        files.append(path)
    records = []
    for f in files:
        with open(f) as fh:
            records.append(json.load(fh))
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, unit, better, bound):
    if better is None:
        return "same" if sorted(parent) == sorted(change) else "changed"
    sign = -1.0 if better == "lower" else 1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    every_better = (min(change) > max(parent)) if better == "higher" else (max(change) < min(parent))
    if max(spread(parent), spread(change)) > bound:
        return "better*" if every_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound and gain > spread(parent):
        return "better"
    return "within"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    layer_bound = max(m["bound"] for m in bench["end_to_end"])

    sides = {"parent": load_records(args.parent), "change": load_records(args.change)}
    workloads = sorted({r["workload"] for recs in sides.values() for r in recs})
    if not workloads:
        print("no run records found", file=sys.stderr)
        return 1

    for side, recs in sides.items():
        hosts = {(r["stamp"]["commit"][:12], r["stamp"]["nproc"], r["stamp"]["build_type"],
                  r["stamp"]["compiler"]) for r in recs}
        for commit, nproc, build, compiler in sorted(hosts):
            print(f"{side}: commit {commit}  nproc {nproc}  build {build}  {compiler}")

    header = (f"{'metric':34} {'unit':6} {'parent median [q1, q3] n':34} "
              f"{'change median [q1, q3] n':34} {'delta':>8}  verdict")
    for wl in workloads:
        print(f"\n== {wl}")
        print(header)
        spans = sorted({k for recs in sides.values() for r in recs
                        if r["workload"] == wl and r["trace"]
                        for k in r["layers"]
                        if not k.startswith(("count:", "cell:", "setup:", "pass"))})
        span_table = {k: {"unit": "s", "better": "lower"} for k in spans}
        for traced, table, field in ((False, e2e, "metrics"), (True, layer, "metrics"),
                                     (True, span_table, "layers")):
            def values(side, name):
                recs = [r for r in sides[side] if r["workload"] == wl
                        and r["trace"] == traced and r["scale"] == "full"]
                if field == "layers":
                    return [r["layers"][name] for r in recs if name in r["layers"]]
                return [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            for name, spec in table.items():
                p, c = values("parent", name), values("change", name)
                if not p or not c:
                    continue
                unit = spec["unit"]
                better = None if unit in COUNT_UNITS else spec["better"]
                bound = spec.get("bound", layer_bound)
                cols = []
                for v in (p, c):
                    q1, med, q3 = quartiles(v)
                    cols.append(f"{med:.6g} [{q1:.4g}, {q3:.4g}] {len(v)}")
                p_med = statistics.median(p)
                delta = (statistics.median(c) - p_med) / abs(p_med) if p_med else 0.0
                print(f"{name:34} {unit:6} {cols[0]:34} {cols[1]:34} "
                      f"{delta:+8.1%}  {verdict(p, c, unit, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
