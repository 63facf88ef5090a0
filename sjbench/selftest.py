#!/usr/bin/env python3
"""Self-test of the benchmark: short fixed-size runs of every workload.

    python3 sjbench/selftest.py [--series N]

For each workload in BENCHMARK.json, with one fixed seed:
  - two untraced runs of exactly N series must both be correct, emit every
    end_to_end metric with its unit, run the identical query sequence, and
    repeat exactly the counts that do not depend on thread interleaving
    (decrypts requested/performed, digest-cache hits, revealed pairs,
    decrypt RPCs);
  - one traced run must be correct and emit every per_layer metric with
    its unit.
Counts the driver marks "_unchecked" (the dashboard's revealed pairs,
which depend on which churn generation each reader's series pinned) are
reported, not compared. Exits non-zero on the first failed check.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 4242


def run(workload, series, trace):
    cmd = [sys.executable, os.path.join(ROOT, "sjbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "60",
           "--trace", str(trace), "--series", str(series)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("FAIL {}: exit {}\n{}{}".format(workload, out.returncode,
                                                out.stdout, out.stderr))
    detail = next(json.loads(l[len("detail: "):]) for l in lines
                  if l.startswith("detail: "))
    return json.loads(lines[-1]), detail


def check_metrics(workload, result, spec):
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL {}: run not correct: {}".format(workload, result))
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("FAIL {}: metric {} missing or wrong unit: {}".format(
                workload, m["name"], got))
    extra = set(result["metrics"]) - {m["name"] for m in spec}
    if extra:
        sys.exit("FAIL {}: unexpected metrics {}".format(workload, extra))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--series", type=int, default=6)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        first, d1 = run(w, args.series, 0)
        second, d2 = run(w, args.series, 0)
        for r in (first, second):
            check_metrics(w, r, bench["end_to_end"])
        if d1["query_digest"] != d2["query_digest"]:
            sys.exit("FAIL {}: query sequences differ".format(w))
        checked = {k: v for k, v in d1["counts"].items()
                   if not k.endswith("_unchecked")}
        for k, v in checked.items():
            if d2["counts"].get(k) != v:
                sys.exit("FAIL {}: count {} differs: {} vs {}".format(
                    w, k, v, d2["counts"].get(k)))
        traced, _ = run(w, args.series, 1)
        check_metrics(w, traced, bench["per_layer"])
        print("ok {}: {} series, counts {}".format(w, d1["series"], checked))
    print("selftest passed")


if __name__ == "__main__":
    main()
