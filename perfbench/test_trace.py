"""Self-test of the benchmark's span coverage on smoke-size workloads.

    python3 -m pytest -q perfbench/test_trace.py

Each workload runs twice, traced, on a shrunken grid.  Every per-layer
metric of a layer that runs must fire, every metric of a layer that does
not run must read 0, LSQR's operator calls must match its iterations, and
every count must repeat exactly between the two runs.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

SMOKE = {
    "xmlt2d_both": ["--set", "grid.cells=32,32", "--set", "recon.lsqr_iters=5"],
    "xlct2d": ["--set", "grid.cells=32,32", "--set", "xray.n_angles=16",
               "--set", "xray.n_offsets=48"],
    "xmlt3d": ["--set", "grid.cells=12,12,12"],
    "xmlt2d_spot": ["--set", "grid.cells=32,32", "--set", "run.spot_checks=9"],
}

COMMON = {
    "cli.main_s", "pipeline.self_s", "pipeline.emit_s", "config.load_s",
    "fields.phantom_s", "diffusion.weight_solves", "diffusion.weight_solve_s",
    "diffusion.weight_cg_iters", "diffusion.ms_per_solve", "diffusion.apply_s",
    "algebraic.noise_s", "ltfio.write_s", "ltfio.files_written",
    "ltfio.mb_written", "fft.calls", "fft.mpoints", "fft.s", "trace.wrapper_s",
}
CONE = COMMON | {
    "diffusion.forward_solves", "diffusion.forward_solve_s",
    "diffusion.forward_cg_iters", "excitation.scan_s",
    "excitation.cone_transforms", "excitation.cone_transform_s",
    "excitation.cone_kernels", "excitation.cone_kernels_distinct",
    "excitation.cone_kernel_s", "multiplier.invert_s",
    "multiplier.margin_calls", "multiplier.margin_s", "multiplier.symbol_s",
    "multiplier.angular_factor_s", "multiplier.angular_factor_dirs",
}
LSQR = {
    "algebraic.linmap_build_s", "algebraic.lsqr_s", "algebraic.lsqr_iters",
    "algebraic.lsqr_at_cap", "algebraic.pairs", "algebraic.adjoint_calls",
    "algebraic.ms_per_pair",
}
FIRES = {
    "xmlt2d_both": CONE | LSQR,
    "xlct2d": COMMON | {"excitation.xray_s", "excitation.us_per_ray",
                        "fbp.fbp_s", "fbp.divide_s"},
    "xmlt3d": CONE | {"multiplier.rss_growth_mb"},
    "xmlt2d_spot": CONE,
}
# ru_maxrss grows inside the multiplier only when it sets a new peak.
MAY_BE_ZERO = {"multiplier.rss_growth_mb"}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def traced_layers(workload):
    res = bench.run_once(ROOT, workload, seed=7, tag="selftest",
                         deadline=time.perf_counter() + 170, trace=True,
                         extra=SMOKE[workload])
    assert res["rc"] == 0 and not res["error"], res
    assert all(res["files"].values()), res["files"]
    return res["layers"]


@pytest.fixture(scope="module", params=sorted(SMOKE))
def pair(request):
    return request.param, traced_layers(request.param), \
        traced_layers(request.param)


def test_layers_fire_where_they_run(pair):
    workload, layers, _ = pair
    # trace.overhead_s needs the untraced runs; run.py adds it.
    assert set(layers) == set(PER_LAYER) - {"trace.overhead_s"}
    for name, value in layers.items():
        if name in FIRES[workload]:
            assert value > 0, name
        elif name not in MAY_BE_ZERO:
            assert value == 0, name


def test_lsqr_operator_calls_match_iterations(pair):
    _, layers, _ = pair
    iters = layers["algebraic.lsqr_iters"]
    if iters:
        assert layers["algebraic.pairs"] == iters + 1      # + dot test
        assert layers["algebraic.adjoint_calls"] == iters + 2  # + start
        assert layers["algebraic.lsqr_at_cap"] == 1


def test_counts_repeat_exactly(pair):
    _, first, second = pair
    for name, unit in PER_LAYER.items():
        if unit == "count":
            assert first[name] == second[name], name


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xlct2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
