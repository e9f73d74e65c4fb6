"""Run every workload over several seeds and summarise each metric.

Run from the root of a checkout:

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --seeds 1-2 --trace 1

Each (workload, seed) pair is one `run.py` run of BENCHMARK.json's
`run_seconds`, made one after another.  For every metric the summary gives
its unit, sample count, median and quartiles, and for end-to-end metrics
the quartile spread as a share of the median next to the metric's bound.
`failed_frac` is failed runs over attempted runs.  With `--trace 1` it
summarises the per-layer metrics instead and flags counts that do not
repeat exactly.  Raw results go to `.perfbench/suite-<time>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def summarise(values):
    """(median, q1, q3) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="seed list, e.g. 1-10 or 3,7,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    raw = {}
    for workload in names:
        raw[workload] = []
        for seed in seeds:
            res = run(workload, seed, bench["run_seconds"], args.trace)
            raw[workload].append(dict(res, seed=seed))
            print(f"  {workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr, flush=True)

    all_ok = True
    for workload, results in raw.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        all_ok &= failed == 0 and all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, failed_frac = "
              f"{failed}/{attempted} = {failed / max(attempted, 1):.3f}")
        print(f"  {'metric':34s} {'unit':8s} {'n':>3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results
                    if m["name"] in r["metrics"]]
            if not vals:
                print(f"  {m['name']:34s} {m['unit']:8s}   0")
                continue
            med, q1, q3 = summarise(vals)
            spread = (q3 - q1) / med if med else 0.0
            if "bound" in m:
                note = f"{m['bound']:6.3f}"
            elif m["unit"] == "count":
                note = "repeats" if len(set(vals)) == 1 else "VARIES"
            else:
                note = ""
            print(f"  {m['name']:34s} {m['unit']:8s} {len(vals):3d} "
                  f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {note}")

    out = os.path.join(".perfbench", f"suite-{time.strftime('%Y%m%dT%H%M%S')}"
                                     f"-trace{args.trace}.json")
    os.makedirs(".perfbench", exist_ok=True)
    with open(out, "w") as fh:
        json.dump(raw, fh, indent=1)
    print(f"\nraw results: {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
