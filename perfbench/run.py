"""lumitomo benchmark: one workload, one seed, one measured run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload xmlt2d_both --seed 1 --seconds 15 --trace 0

Load model: closed loop, one client.  Each pipeline run is a fresh Python
process (worker.py) that calls `lumitomo.cli.main(argv)`; the next starts
after the previous one has ended.  Thread counts are pinned to 1 in each
child's environment before numpy loads.  The seed becomes `run.seed`, which
picks the Poisson noise draw; phantom and geometry stay fixed so the
accuracy bounds keep their meaning.

Runs repeat until `--seconds` have passed (at least one run).  Before each
run and after the last, SETUP_BURST import-only children are timed from
process start to `lumitomo` imported; with the ready time of every run child
they give `setup_s`, so its samples spread over the whole window rather than
one stretch of machine speed.  Every run's outputs are checked (see
`check`).  With `--trace 1` the runs are followed by one traced run whose
spans give the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.

End-to-end metrics, medians over the runs: `run_s` (wall time of the
`cli.main(argv)` call), `setup_s`, `peak_rss_mb` (`ru_maxrss` of the run
child) and `recon_err` (the largest masked error among the workload's
reconstructions, read back at full precision).  Per-layer metrics come from
`tracer.layer_metrics`, plus `trace.overhead_s`: the traced `cli.main_s`
minus the median untraced `run_s`.  It carries the machine's speed swings,
so a negative value means the overhead is below what the runs resolve;
`trace.wrapper_s` estimates the same cost from the span count instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "LUMITOMO_THREADS": "1"}
SETUP_BURST = 4            # import-only children before each run and after
RUN_DEADLINE_S = 170.0     # whole run, so it ends within 180 s
SPOT_MISMATCH_MAX = 1e-8

NOISE = ["--set", "noise.kind=poisson"]
GRID_3D = ["--set", "grid.dim=3", "--set", "grid.origin=-10,-10,-10",
           "--set", "grid.extent=20,20,20", "--set", "grid.cells=24,24,24",
           "--set", "phantom.inclusions=2.5,2.5,0,1.5,5.0; -3.5,0,0,1.5,10.0"]
XMLT_FILES = {"truth", "weight"} | {f"scan_cone{j:02d}" for j in range(10)}

# name -> (CLI argv, files that must be written, error bound per recon).
# Bounds: criterion 11 (0.15) for xmlt2d_both; the others are the seed's
# error (0.0905, 0.2272, 0.0415 at seeds 1-5) plus a third, rounded up.
WORKLOADS = {
    "xmlt2d_both": (["run-xmlt", "--set", "recon.method=both"],
                    XMLT_FILES | {"recon_multiplier", "recon_lsqr"},
                    {"multiplier": 0.15, "lsqr": 0.15}),
    "xlct2d": (["run-xlct"],
               {"truth", "weight", "recon_fbp", "sinogram"},
               {"fbp": 0.13}),
    "xmlt3d": (["run-xmlt"] + GRID_3D,
               XMLT_FILES | {"recon_multiplier"},
               {"multiplier": 0.31}),
    "xmlt2d_spot": (["run-xmlt", "--set", "run.spot_checks=100"],
                    XMLT_FILES | {"recon_multiplier"},
                    {"multiplier": 0.06}),
}


def child_env(root):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(root, spec, deadline):
    """Start one worker; return (setup seconds, parsed result or None)."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, err = proc.communicate(
                timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            return None, {"error": "timed out"}
        finally:
            if proc.poll() is None:
                proc.kill()
    if ready.strip() != "ready":
        return None, {"error": f"no ready line: {ready!r} {err[-2000:]}"}
    if spec["mode"] == "setup":
        return setup_s, None
    lines = out.strip().splitlines()
    try:
        return setup_s, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return setup_s, {"error": f"no result line (exit {proc.returncode}): "
                                  f"{err[-2000:]}"}


def check(workload, res):
    """Problems with one run's outputs; empty when the run is correct."""
    _, files, bounds = WORKLOADS[workload]
    if res.get("error"):
        return [res["error"]]
    if res.get("rc") != 0:
        return [f"exit code {res.get('rc')}: {res.get('output_tail', '')}"]
    problems = [f"missing {name}.ltf"
                for name in sorted(files - set(res["files"]))]
    problems += [f"non-finite values in {name}.ltf"
                 for name, ok in res["files"].items() if not ok]
    for recon, bound in bounds.items():
        err = res["errors"].get(recon)
        if err is None or not err <= bound:
            problems.append(f"err.{recon} = {err} exceeds {bound}")
    report = res["report"]
    if WORKLOADS[workload][0][0] == "run-xmlt":
        want = report.get("config.run.spot_checks")
        if report.get("spot_check.points") != want:
            problems.append(f"spot_check.points {report.get('spot_check.points')}"
                            f" != requested {want}")
        mismatch = float(report.get("spot_check.max_relative_mismatch", "nan"))
        if not mismatch <= SPOT_MISMATCH_MAX:
            problems.append(f"spot_check.max_relative_mismatch {mismatch}")
    return problems


def run_once(root, workload, seed, tag, deadline, trace=False, extra=()):
    """One CLI call in a fresh process, with its outputs checked.

    `extra` CLI arguments are appended (the self-test shrinks the grids).
    """
    work = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(work, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work)
    traces = os.path.join(root, ".perfbench", "traces")
    os.makedirs(traces, exist_ok=True)
    argv = (WORKLOADS[workload][0] + NOISE
            + ["--set", f"run.seed={seed}", "-o", outdir] + list(extra))
    spec = {"mode": "run", "argv": argv, "outdir": outdir, "trace": trace,
            "run_id": f"{workload}-seed{seed}-{tag}",
            "trace_path": os.path.join(traces,
                                       f"{workload}-seed{seed}.jsonl")}
    try:
        setup_s, res = spawn(root, spec, deadline)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    res["setup_s"] = setup_s
    res["problems"] = check(workload, res)
    return res


def setup_burst(root, deadline):
    """Set-up seconds of SETUP_BURST import-only children."""
    out = []
    for _ in range(SETUP_BURST):
        setup_s, res = spawn(root, {"mode": "setup"}, deadline)
        if setup_s is None:
            raise RuntimeError(f"set-up child failed: {res['error']}")
        out.append(setup_s)
    return out


def measure(root, workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    spawn(root, {"mode": "setup"}, deadline)   # warm the bytecode cache

    runs, setups = [], []
    t0 = time.perf_counter()
    while True:
        setups += setup_burst(root, deadline)
        runs.append(run_once(root, workload, seed, len(runs), deadline))
        print(f"{workload} seed {seed} run {len(runs)}: "
              f"{runs[-1].get('run_s', float('nan')):.3f} s", file=sys.stderr)
        if time.perf_counter() - t0 >= seconds:
            break
    setups += setup_burst(root, deadline)
    setups += [r["setup_s"] for r in runs if r["setup_s"] is not None]
    traced = (run_once(root, workload, seed, "traced", deadline, trace=True)
              if trace else None)

    attempted = runs + ([traced] if traced else [])
    failed = [r for r in attempted if r["problems"]]
    for r in failed:
        print(f"{workload} seed {seed}: FAILED: {r['problems']}",
              file=sys.stderr)
    good = [r for r in runs if not r["problems"]]
    summary = {"correct": not failed, "attempted": len(attempted),
               "failed": len(failed), "metrics": {}}
    if not good or (traced and traced["problems"]):
        return summary
    run_s = statistics.median(r["run_s"] for r in good)
    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = layers["cli.main_s"] - run_s
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        summary["metrics"] = {k: {"value": layers[k], "unit": units[k]}
                              for k in units}
    else:
        summary["metrics"] = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in good), "unit": "MB"},
            "recon_err": {"value": statistics.median(
                max(r["errors"].values()) for r in good), "unit": "ratio"},
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lumitomo", "cli.py")):
        print("perfbench: no src/lumitomo in the working directory; run from "
              "the root of a lumitomo checkout", file=sys.stderr)
        return 2
    summary = measure(root, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
