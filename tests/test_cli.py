"""Config loading, CLI verbs, exit codes, and pipeline outputs."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

import lumitomo
from lumitomo import config, excitation, pipeline
from lumitomo.cli import main
from lumitomo.config import (DEFAULTS, MAX_CONES, Settings, build_apertures,
                             derive_seed, load_config, parse_config_text)
from lumitomo.errors import (ConfigError, EmptyMaskError,
                             InvalidArgumentError, InvalidOperatorError,
                             LumitomoError, SolverFailureError,
                             StabilityViolationError)
from lumitomo.fields import (MAX_GRID_CELLS, ScalarField, derived_optics,
                             robin_coefficient)
from lumitomo.ltfio import read_field, write_field


SMALL = [
    "grid.cells=48,48",
    "cones.count=3",
    "cones.half_angle_deg=35.0",
    "run.spot_checks=1",
]


def small_args(verb, outdir, *extra):
    args = [verb, "-o", str(outdir)]
    for item in SMALL + list(extra):
        args += ["--set", item]
    return args


# (verb, --set items, stderr text) of the settings refused before a verb's
# first stage: the method-dependent ranges, by the two verbs that invert,
# then `abc` for every key but run.output_dir, by every verb and, for
# run-xmlt, under every method
_RECON_RANGES = [
    (["recon.eps=-1"], "recon.eps must be >= 0, got -1"),
    (["recon.method=both", "recon.eps=-1e-3"], "recon.eps must be >= 0"),
    (["recon.method=lsqr", "recon.lsqr_iters=0"],
     "recon.lsqr_iters must be >= 1, got 0"),
    (["recon.method=both", "recon.lsqr_iters=-2"],
     "recon.lsqr_iters must be >= 1"),
    (["recon.method=lsqr", "recon.lsqr_atol=-1"],
     "recon.lsqr_atol must be >= 0, got -1")]
_VERB_METHODS = [("run-xmlt", [f"recon.method={m}"])
                 for m in ("multiplier", "lsqr", "both")] + [
    (verb, []) for verb in ("run-xlct", "scan", "weight", "reconstruct",
                            "phantom", "check-stability")]
BAD_SETTINGS = [(verb, items, message) for verb in ("run-xmlt", "reconstruct")
                for items, message in _RECON_RANGES] + [
    (verb, method + [f"{key}=abc"], key)
    for key in sorted(set(DEFAULTS) - {"run.output_dir"})
    for verb, method in _VERB_METHODS]
BAD_SETTINGS_IDS = [f"{verb}-{' '.join(items)}"
                    for verb, items, _ in BAD_SETTINGS]


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config()
        assert cfg == DEFAULTS

    def test_file_and_overrides_win_in_order(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nmedium.mu_a = 0.07\nrun.seed = 9\n")
        cfg = load_config(str(p), ["run.seed=10"])
        assert cfg["medium.mu_a"] == "0.07"
        assert cfg["run.seed"] == "10"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["medium.mu_b=1.0"])

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("medium.mu_a 0.05")

    def test_build_apertures_fan(self):
        aps = build_apertures(dict(DEFAULTS, **{"cones.count": "4"}), 2)
        assert len(aps) == 4
        assert aps[0].axis == pytest.approx((1.0, 0.0))
        assert aps[1].axis == pytest.approx((0.0, 1.0), abs=1e-15)

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(12345, "noise.cone0")
        assert a == derive_seed(12345, "noise.cone0")
        assert a != derive_seed(12345, "noise.cone1")
        assert a != derive_seed(12346, "noise.cone0")


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        assert main(["run-xmlt", "-o", str(tmp_path),
                     "--set", "bogus.key=1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        assert main(small_args("run-xmlt", tmp_path,
                               "medium.mu_a=not-a-number")) == 2

    def test_uncovered_cone_set_is_stability_error(self, tmp_path, capsys,
                                                   monkeypatch):
        # refused at the gate, before the scan stage builds the cone
        # operator and scans
        def no_scan(*args):
            raise AssertionError("scan stage before the gate's refusal")
        monkeypatch.setattr(pipeline, "ConeConvolution", no_scan)
        monkeypatch.setattr(pipeline, "simulate_boundary_scan", no_scan)
        rc = main(["run-xmlt", "-o", str(tmp_path),
                   "--set", "grid.cells=32,32", "--set", "cones.count=1"])
        assert rc == 3
        assert "stability" in capsys.readouterr().err

    def test_uncovered_cone_set_gates_only_the_multiplier(self, tmp_path,
                                                          capsys):
        args = ["-o", str(tmp_path), "--set", "grid.cells=32,32",
                "--set", "cones.count=1"]
        assert main(["scan"] + args) == 0
        capsys.readouterr()
        assert main(["reconstruct"] + args) == 3
        err = capsys.readouterr().err
        assert "set run.force_pseudo=true" in err
        assert "check_margin" not in err
        assert main(["reconstruct"] + args
                    + ["--set", "run.force_pseudo=true"]) == 0
        report = _report(tmp_path)
        assert report["stability.margin"] == "0.000000e+00"
        assert int(report["stability.invisible_count"]) > 0
        assert main(["reconstruct"] + args
                    + ["--set", "recon.method=lsqr"]) == 0
        assert not any(k.startswith("stability.") for k in _report(tmp_path))

    @pytest.mark.parametrize("method,code", [
        ("lsqr", 0), (DEFAULTS["recon.method"], 3), ("both", 3)])
    def test_run_xmlt_gates_only_the_multiplier(self, tmp_path, capsys,
                                                method, code):
        assert main(["run-xmlt", "-o", str(tmp_path), "--set",
                     "grid.cells=32,32", "--set", "cones.count=1", "--set",
                     f"recon.method={method}"]) == code
        if code:
            assert "stability" in capsys.readouterr().err
            return
        report = _report(tmp_path)
        assert "recon_lsqr.ltf" in os.listdir(tmp_path)
        assert not any(k.startswith("stability.") for k in report)
        assert "wall_clock.gate" in report

    def test_solver_failure_maps_to_4(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise SolverFailureError("did not converge", residual=1.0,
                                     iterations=5)
        monkeypatch.setattr(pipeline, "run_xmlt", boom)
        assert main(["run-xmlt", "-o", str(tmp_path)]) == 4
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("exc,code", [
        (StabilityViolationError, 3), (InvalidOperatorError, 4),
        (EmptyMaskError, 2), (ConfigError, 2), (InvalidArgumentError, 2),
        (LumitomoError, 2)])
    def test_other_toolkit_errors_map_to_exit_codes(self, tmp_path,
                                                    monkeypatch, exc, code):
        def boom(cfg):
            raise exc("raised by the test")
        monkeypatch.setattr(pipeline, "run_xmlt", boom)
        assert main(["run-xmlt", "-o", str(tmp_path)]) == code

    @pytest.mark.parametrize("verb", ["run-xmlt", "run-xlct", "scan",
                                      "phantom"])
    def test_empty_error_mask_exits_2_without_traceback(
            self, tmp_path, capsys, monkeypatch, verb):
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", _no_weight_solve)
        rc = main(small_args(verb, tmp_path, "error.eps_bg=100"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "background threshold" in err
        assert len(err.strip().splitlines()) == 1

    def test_run_xlct_rejects_3d_before_the_weight_solve(self, tmp_path,
                                                         monkeypatch):
        def weight_solve(op, h):
            raise AssertionError("weight solved before the dimension check")
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", weight_solve)
        assert main(["run-xlct", "-o", str(tmp_path), "--set", "grid.dim=3",
                     "--set", "grid.origin=-10,-10,-10",
                     "--set", "grid.extent=20,20,20",
                     "--set", "grid.cells=8,8,8",
                     "--set", "phantom.inclusions=2.5,2.5,0,1.5,5.0"]) == 2

    @pytest.mark.parametrize("item", [
        "xray.n_angles=0", "xray.n_angles=7", "xray.n_offsets=1",
        "xray.n_offsets=0"])
    def test_run_xlct_rejects_short_sinogram_before_the_weight_solve(
            self, tmp_path, monkeypatch, capsys, item):
        def weight_solve(op, h):
            raise AssertionError("weight solved before the sinogram check")
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", weight_solve)
        assert main(small_args("run-xlct", tmp_path, item)) == 2
        key = item.partition("=")[0]
        low = {"xray.n_angles": 8, "xray.n_offsets": 2}[key]
        assert f"{key} must be >= {low}" in capsys.readouterr().err

    @pytest.mark.parametrize("items", [
        ["xray.n_angles=1000000000000000"], ["xray.n_offsets=1000000000000000"],
        ["xray.n_angles=8193", "xray.n_offsets=8192"]],
        ids=["angles", "offsets", "just-above"])
    def test_run_xlct_refuses_an_oversized_sinogram_before_the_weight_solve(
            self, tmp_path, monkeypatch, capsys, items):
        # 8193 * 8192 lines is 8192 above the bound of 2^26
        def weight_solve(op, h):
            raise AssertionError("weight solved before the sinogram check")
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", weight_solve)
        assert main(small_args("run-xlct", tmp_path, *items)) == 2
        err = capsys.readouterr().err
        assert (f"xray.n_angles * xray.n_offsets must be <= {MAX_GRID_CELLS}"
                in err)
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "truth.ltf").exists()

    def test_oversized_grid_exits_2_without_traceback(self, tmp_path, capsys):
        rc = main(["phantom", "-o", str(tmp_path), "--set",
                   "grid.cells=4,1000000000000000000000000000000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cell limit" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "truth.ltf").exists()

    @pytest.mark.parametrize("name,content", [
        ("missing.cfg", None), ("a-directory", None),
        ("latin.cfg", b"\xff\xfe")], ids=["missing", "directory", "non-utf8"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys,
                                                    name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        elif name == "a-directory":
            path.mkdir()
        with pytest.raises(ConfigError, match=f"cannot read config file {path}"):
            load_config(str(path))
        rc = main(["check-stability", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_reconstruct_of_a_scan_missing_a_cone_file_exits_2(self, tmp_path,
                                                                capsys):
        assert main(small_args("scan", tmp_path)) == 0
        os.remove(tmp_path / "scan_cone01.ltf")
        capsys.readouterr()
        assert main(small_args("reconstruct", tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "scan_cone01.ltf" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_output_dir_under_a_regular_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        assert main(["phantom", "-o", str(tmp_path / "plain" / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and "plain" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_non_utf8_scan_manifest_is_invalid_argument(self, tmp_path, capsys):
        assert main(small_args("scan", tmp_path)) == 0
        (tmp_path / "scan_manifest.txt").write_bytes(b"\xff\xfeLTSCAN v3\n")
        capsys.readouterr()
        assert main(small_args("reconstruct", tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid argument: ") and "scan_manifest.txt" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_zero_spot_checks_is_config_error(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", _no_weight_solve)
        assert main(small_args("run-xmlt", tmp_path, "run.spot_checks=0")) == 2
        assert "run.spot_checks must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run-xmlt", "scan"])
    def test_spot_checks_beyond_the_lattice_are_refused(self, tmp_path,
                                                        capsys, monkeypatch,
                                                        verb):
        # a 16^2 grid has 9 x 9 lattice points, cells 4..12 on each axis
        def no_solve(*args):
            raise AssertionError("spot-check solve before the refusal")
        monkeypatch.setattr(pipeline, "full_physics_measurements", no_solve)
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", _no_weight_solve)
        assert main(small_args(verb, tmp_path, "grid.cells=16,16",
                               "run.spot_checks=82")) == 2
        assert "run.spot_checks must be <= 81" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run-xmlt", "scan"])
    def test_zero_cones_refused_before_the_weight_solve(
            self, tmp_path, capsys, monkeypatch, verb):
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", _no_weight_solve)
        assert main(small_args(verb, tmp_path, "cones.count=0")) == 2
        err = capsys.readouterr().err
        assert "cones.count must be >= 1" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", ["check-stability", "run-xlct",
                                      "run-xmlt"])
    def test_cone_count_beyond_the_bound_refused_before_any_aperture(
            self, tmp_path, capsys, monkeypatch, verb):
        def no_aperture(**kwargs):
            raise AssertionError("aperture built before the refusal")
        monkeypatch.setattr(config, "Aperture", no_aperture)
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", _no_weight_solve)
        assert main([verb, "-o", str(tmp_path), "--set",
                     f"cones.count={MAX_CONES + 1}"]) == 2
        err = capsys.readouterr().err
        assert f"cones.count must be <= {MAX_CONES}, got {MAX_CONES + 1}" in err
        assert len(err.strip().splitlines()) == 1

    def test_cone_count_at_the_bound_is_accepted(self):
        settings = Settings(load_config(None, [f"cones.count={MAX_CONES}"]))
        assert len(settings.apertures) == MAX_CONES

    @pytest.mark.parametrize("verb", ["run-xmlt", "reconstruct"])
    def test_unknown_recon_method_refused_before_the_first_stage(
            self, tmp_path, capsys, monkeypatch, verb):
        if verb == "reconstruct":
            assert main(small_args("scan", tmp_path)) == 0
            capsys.readouterr()
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", _no_weight_solve)

        def no_kernel(ap, grid):
            raise AssertionError("cone kernel built before the refusal")
        monkeypatch.setattr(excitation, "cone_kernel", no_kernel)
        assert main(small_args(verb, tmp_path, "recon.method=fbp")) == 2
        err = capsys.readouterr().err
        assert "recon.method must be multiplier|lsqr|both" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb,items,message", BAD_SETTINGS,
                             ids=BAD_SETTINGS_IDS)
    def test_bad_recon_settings_refused_before_the_first_stage(
            self, tmp_path, capsys, monkeypatch, scanned, verb, items,
            message):
        # a negative eps gave eps = |eps|'s image with suppressed_fraction
        # 0; zero LSQR iterations an all-zero image with stop reason cap; a
        # negative atol a run with both of LSQR's atol stops disabled.  A
        # malformed value of any key is refused by every verb, whether it
        # reads the key or not
        outdir = scanned if verb == "reconstruct" else tmp_path / "out"
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", _no_weight_solve)

        def no_kernel(ap, grid):
            raise AssertionError("cone kernel built before the refusal")
        monkeypatch.setattr(excitation, "cone_kernel", no_kernel)
        assert main(small_args(verb, outdir, *items)) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        if verb == "reconstruct":
            assert not list(outdir.glob("recon_*"))
        else:
            assert not outdir.exists()

    @pytest.mark.parametrize("items", [
        ["recon.method=lsqr", "recon.eps=-1"],
        ["recon.method=multiplier", "recon.lsqr_iters=0"],
        ["recon.method=multiplier", "recon.lsqr_atol=-1"]],
        ids=["eps-lsqr", "iters-multiplier", "atol-multiplier"])
    def test_settings_of_a_method_that_does_not_run_are_not_checked(
            self, tmp_path, items):
        assert main(small_args("run-xmlt", tmp_path, *items)) == 0

    def test_spot_checks_fill_the_lattice_without_repeats(self, tmp_path,
                                                          monkeypatch):
        foci = []

        def recording(op, h, f, ap, points):
            foci.extend(tuple(x) for x in points)
            return full_physics(op, h, f, ap, points)
        full_physics = pipeline.full_physics_measurements
        monkeypatch.setattr(pipeline, "full_physics_measurements", recording)
        assert main(small_args("run-xmlt", tmp_path, "grid.cells=16,16",
                               "run.spot_checks=81")) == 0
        assert _report(tmp_path)["spot_check.points"] == "81"
        assert len(set(foci)) == len(foci) == 81

    def test_reconstruct_without_scan_is_config_error(self, tmp_path):
        assert main(small_args("reconstruct", tmp_path)) == 2

    @pytest.mark.parametrize("item", [
        "recon.eps=nan", "recon.lsqr_atol=inf", "boundary.h=nan",
        "noise.photons=inf", "recon.lsqr_iters=many",
        "run.force_pseudo=maybe", "recon.nonneg=maybe"])
    def test_bad_typed_value_is_config_error(self, tmp_path, capsys, item):
        rc = main(small_args("run-xmlt", tmp_path, "noise.kind=poisson", item))
        assert rc == 2
        assert f"{item.partition('=')[0]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["scan", "run-xmlt", "run-xlct"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, verb):
        rc = main(small_args(verb, tmp_path, "noise.kind=poisson",
                             "run.seed=-1"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "run.seed must be >= 0" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("verb", ["run-xlct", "run-xmlt"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_boundary_datum_is_config_error(
            self, tmp_path, monkeypatch, capsys, verb, value):
        # h <= 0 gives a weight <= 0, which no reconstruction can divide by
        def weight_solve(op, h):
            raise AssertionError("weight solved before the boundary.h check")
        monkeypatch.setattr(pipeline, "solve_adjoint_weight", weight_solve)
        rc = main([verb, "-o", str(tmp_path), "--set", "grid.cells=16,16",
                   "--set", f"boundary.h={value}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "boundary.h must be > 0" in err
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_boundary_datum_is_config_error(self, tmp_path,
                                                        capsys):
        # the weight solve's right-hand-side norm overflows to inf
        rc = main(["run-xlct", "-o", str(tmp_path), "--set", "grid.cells=16,16",
                   "--set", "boundary.h=1e308"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "boundary.h" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "sinogram.ltf").exists()

    @pytest.mark.parametrize("method", ["multiplier", "lsqr"])
    def test_reconstruct_refuses_a_weight_of_another_dimension(
            self, tmp_path, capsys, method):
        assert main(small_args("scan", tmp_path)) == 0
        assert main(["weight", "-o", str(tmp_path / "w3"),
                     "--set", "grid.dim=3", "--set", "grid.cells=8,8,8",
                     "--set", "grid.origin=-10,-10,-10",
                     "--set", "grid.extent=20,20,20",
                     "--set", "phantom.inclusions=2.5,2.5,0,1.5,5.0"]) == 0
        os.replace(tmp_path / "w3" / "weight.ltf", tmp_path / "weight.ltf")
        capsys.readouterr()
        assert main(small_args("reconstruct", tmp_path,
                               f"recon.method={method}")) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("method", ["multiplier", "lsqr", "both"])
    def test_reconstruct_refuses_a_weight_of_another_grid(
            self, tmp_path, capsys, method):
        # the same cells over a larger box: LSQR's data and operator would
        # have the same sizes, so only the grids tell them apart
        assert main(["scan", "-o", str(tmp_path),
                     "--set", "grid.cells=32,32"]) == 0
        assert main(["weight", "-o", str(tmp_path / "w"),
                     "--set", "grid.cells=32,32",
                     "--set", "grid.extent=30,30"]) == 0
        os.replace(tmp_path / "w" / "weight.ltf", tmp_path / "weight.ltf")
        capsys.readouterr()
        assert main(["reconstruct", "-o", str(tmp_path),
                     "--set", f"recon.method={method}"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not list(tmp_path.glob("recon_*"))

    def test_seed_beyond_64_bits_is_accepted(self, tmp_path):
        assert main(small_args("scan", tmp_path, "noise.kind=poisson",
                               f"run.seed={2 ** 128 - 1}")) == 0


class TestVerbs:
    def test_phantom_writes_truth(self, tmp_path):
        assert main(small_args("phantom", tmp_path)) == 0
        truth = read_field(tmp_path / "truth.ltf")
        assert truth.grid.cells == (48, 48)
        assert truth.values.max() == pytest.approx(10.0)
        assert (tmp_path / "truth.pgm").exists()
        assert (tmp_path / "truth_slice.csv").exists()
        assert (tmp_path / "report.txt").exists()

    def test_medium_overrides_of_the_derived_values(self, tmp_path, capsys):
        # medium.D and medium.A set to what the defaults derive give the
        # same weight, byte for byte; zero values are refused
        _, D = derived_optics(*(float(DEFAULTS[f"medium.{key}"])
                                for key in ("mu_a", "mu_s", "g")))
        A = robin_coefficient(float(DEFAULTS["medium.refractive_index"]))
        assert main(small_args("weight", tmp_path / "derived")) == 0
        assert main(small_args("weight", tmp_path / "set", f"medium.D={D!r}",
                               f"medium.A={A!r}")) == 0
        assert ((tmp_path / "set" / "weight.ltf").read_bytes()
                == (tmp_path / "derived" / "weight.ltf").read_bytes())
        for item in ("medium.D=0", "medium.A=0"):
            capsys.readouterr()
            assert main(small_args("weight", tmp_path / "bad", item)) == 2
            err = capsys.readouterr().err
            assert "bad medium spec" in err
            assert len(err.strip().splitlines()) == 1

    def test_weight_writes_positive_weight(self, tmp_path):
        assert main(small_args("weight", tmp_path)) == 0
        v = read_field(tmp_path / "weight.ltf")
        assert np.all(v.values > 0)
        assert v.values.max() <= 1.0 + 1e-12
        report = dict(ln.split(" = ", 1) for ln in
                      (tmp_path / "report.txt").read_text().splitlines())
        assert report["solver.weight.iterations"] in ("1", "2")
        assert float(report["solver.weight.residual"]) <= 1e-13

    def test_check_stability_prints_margin(self, tmp_path, capsys):
        assert main(small_args("check-stability", tmp_path)) == 0
        out = capsys.readouterr().out
        assert "stability.margin" in out
        assert "stability.invisible_count = 0" in out

    def test_scan_then_reconstruct(self, tmp_path):
        assert main(small_args("scan", tmp_path)) == 0
        assert (tmp_path / "scan_manifest.txt").exists()
        assert (tmp_path / "scan_cone00.ltf").exists()
        assert main(small_args("reconstruct", tmp_path,
                               "recon.method=both")) == 0
        rec = read_field(tmp_path / "recon_multiplier.ltf")
        truth = read_field(tmp_path / "truth.ltf")
        # same-grid inversion: coarse but clearly correlated with the truth
        corr = np.corrcoef(rec.values.ravel(), truth.values.ravel())[0, 1]
        assert corr > 0.7
        assert (tmp_path / "recon_lsqr.ltf").exists()
        assert (tmp_path / "lsqr_history.csv").exists()

    def test_reconstruct_keeps_the_scan_record(self, tmp_path):
        def record(report):
            return {k: v for k, v in report.items()
                    if k.startswith(("scan.", "solver.weight.", "noise."))}

        assert main(small_args("scan", tmp_path, "noise.kind=poisson")) == 0
        scanned = record(_report(tmp_path))
        assert {"scan.mode", "solver.weight.iterations",
                "noise.applied"} <= set(scanned)
        assert main(small_args("reconstruct", tmp_path,
                               "recon.method=both")) == 0
        report = _report(tmp_path)
        assert record(report) == scanned
        assert "lsqr.iterations" in report
        assert main(small_args("reconstruct", tmp_path,
                               "recon.method=multiplier")) == 0
        report = _report(tmp_path)
        assert record(report) == scanned
        assert not any(k.startswith("lsqr.") for k in report)
        assert {k for k in report if k.startswith("wall_clock.")} == {
            "wall_clock.setup", "wall_clock.gate", "wall_clock.reconstruct",
            "wall_clock.multiplier", "wall_clock.emit"}

    def test_scan_then_reconstruct_equals_run_xmlt(self, tmp_path):
        # the two halves of the XMLT sequence write the scan's files, the
        # reconstructions and the LSQR history of the whole, byte for byte
        items = ["grid.cells=48,48", "noise.kind=poisson",
                 "recon.method=both", "run.spot_checks=1"]
        whole, halves = tmp_path / "whole", tmp_path / "halves"
        for verb, outdir in [("run-xmlt", whole), ("scan", halves),
                             ("reconstruct", halves)]:
            argv = [verb, "-o", str(outdir)]
            for item in items:
                argv += ["--set", item]
            assert main(argv) == 0
        cones = sorted(p.name for p in whole.glob("scan_cone*.ltf"))
        assert cones == [f"scan_cone{j:02d}.ltf" for j in range(10)]
        assert sorted(p.name for p in halves.glob("scan_cone*.ltf")) == cones
        for name in ["truth.ltf", "weight.ltf", "scan_manifest.txt", *cones,
                     "recon_multiplier.ltf", "recon_lsqr.ltf",
                     "lsqr_history.csv"]:
            assert (halves / name).read_bytes() == (whole / name).read_bytes()

    def test_a_run_failing_in_lsqr_leaves_a_scan_to_reconstruct(
            self, tmp_path, monkeypatch, capsys):
        # run-xmlt writes the scan's files when its noise stage ends
        def failing_lsqr(*args, **kwargs):
            raise SolverFailureError("did not converge", residual=1.0,
                                     iterations=5)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "lsqr", failing_lsqr)
            assert main(small_args("run-xmlt", tmp_path,
                                   "recon.method=both")) == 4
        assert "solver failure" in capsys.readouterr().err
        written = {p.name for p in tmp_path.iterdir()}
        assert {"truth.ltf", "weight.ltf", "scan_manifest.txt",
                "scan_cone00.ltf", "scan_cone02.ltf"} <= written
        assert not written & {"recon_multiplier.ltf", "report.txt"}
        assert main(small_args("reconstruct", tmp_path,
                               "recon.method=multiplier")) == 0
        assert (tmp_path / "recon_multiplier.ltf").exists()

    def test_scan_manifest_read_from_another_directory(self, tmp_path,
                                                       monkeypatch):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert main(small_args("scan", "out dir")) == 0
        monkeypatch.chdir(tmp_path / "b")
        assert main(small_args("reconstruct", "../a/out dir")) == 0
        assert (tmp_path / "a" / "out dir" / "recon_multiplier.ltf").exists()

    def test_run_xmlt_end_to_end(self, tmp_path, capsys):
        rc = main(small_args("run-xmlt", tmp_path, "recon.method=multiplier"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "error.multiplier.absolute" in out
        report = (tmp_path / "report.txt").read_text()
        assert "spot_check.max_relative_mismatch" in report
        assert "config.grid.cells = 48,48" in report
        err = float([ln for ln in report.splitlines()
                     if ln.startswith("error.multiplier.absolute")][0]
                    .split("=")[1])
        assert err < 0.5

    @pytest.mark.parametrize("n", [1, 4])
    def test_spot_checks_count_as_requested(self, tmp_path, n):
        assert main(small_args("run-xmlt", tmp_path,
                               f"run.spot_checks={n}")) == 0
        assert f"spot_check.points = {n}\n" in (tmp_path / "report.txt").read_text()

    @pytest.mark.parametrize("extra,reason", [
        ([], "atol"),
        (["recon.lsqr_iters=5"], "cap"),
        (SMALL + ["recon.lsqr_atol=1e-2"], "atol"),
        (SMALL + ["noise.kind=poisson"], "discrepancy")],
        ids=["default-config", "capped", "converging", "noisy"])
    def test_lsqr_stop_reason_in_report(self, tmp_path, extra, reason):
        args = ["run-xmlt", "-o", str(tmp_path)]
        for item in ["recon.method=lsqr"] + extra:
            args += ["--set", item]
        assert main(args) == 0
        report = (tmp_path / "report.txt").read_text()
        assert f"lsqr.stop_reason = {reason}\n" in report
        assert "lsqr.preconditioner = parametrix\n" in report
        history = np.loadtxt(tmp_path / "lsqr_history.csv", delimiter=",",
                             skiprows=1)
        assert (f"lsqr.final_normal_residual = {history[-1, 2]:.6e}\n"
                in report)
        assert (f"lsqr.final_relative_normal_residual = {history[-1, 3]:.6e}\n"
                in report)
        if reason == "atol":
            # noise-free data is consistent: the residual, not the relative
            # normal residual, meets atol
            assert history[-1, 0] < 200
            assert history[-1, 3] > float(_report(tmp_path)[
                "config.recon.lsqr_atol"])

    def test_noisy_default_run_stops_at_the_noise_level(self, tmp_path):
        # Poisson data at the default 1e6 photons: the discrepancy principle
        # stops LSQR well inside the iteration cap, below the multiplier's
        # error
        assert main(["run-xmlt", "-o", str(tmp_path), "--set",
                     "recon.method=both", "--set", "noise.kind=poisson"]) == 0
        report = _report(tmp_path)
        assert report["lsqr.stop_reason"] == "discrepancy"
        assert int(report["lsqr.iterations"]) <= 60
        assert float(report["error.lsqr.absolute"]) <= 0.02
        history = np.loadtxt(tmp_path / "lsqr_history.csv", delimiter=",",
                             skiprows=1)
        data = np.concatenate([read_field(tmp_path / f"scan_cone{j:02d}.ltf")
                               .values.ravel() for j in range(10)])
        noise = np.sqrt(np.sum(data) / 1e6)
        assert history[-1, 1] <= noise < history[-2, 1]
        # no iterate gets below the residual that no model removes, the
        # noise of each double cone's two scans about their mean
        floor = float(report["lsqr.residual_floor"])
        assert 0 < floor <= noise
        assert np.all(history[:, 1] >= floor * (1 - 1e-6))

    def test_residual_floor_of_the_double_cones(self, tmp_path):
        # the default 10 cones are 5 double cones scanned twice: the floor
        # is the root sum of squares of each scan's deviation from its
        # double cone's mean, the same on a repeated run, and exactly 0
        # without noise
        def floor(outdir, *extra):
            argv = ["run-xmlt", "-o", str(outdir)]
            for item in ("grid.cells=48,48", "run.spot_checks=1",
                         "recon.method=lsqr") + extra:
                argv += ["--set", item]
            assert main(argv) == 0
            return _report(outdir)["lsqr.residual_floor"]

        noisy = floor(tmp_path / "a", "noise.kind=poisson")
        assert floor(tmp_path / "b", "noise.kind=poisson") == noisy
        scans = np.stack([read_field(tmp_path / "a" / f"scan_cone{j:02d}.ltf")
                          .values for j in range(10)]).reshape(2, 5, -1)
        expected = np.sqrt(np.sum((scans - scans.mean(axis=0)) ** 2))
        assert float(noisy) == pytest.approx(expected, rel=1e-6)
        assert float(noisy) > 0
        assert floor(tmp_path / "c") == "0.000000e+00"

    def test_reconstruct_uses_the_scan_manifest_noise(self, tmp_path, capsys):
        assert main(small_args("scan", tmp_path, "noise.kind=poisson",
                               "noise.photons=1e3")) == 0
        manifest = tmp_path / "scan_manifest.txt"
        assert manifest.read_text().startswith(
            "LTSCAN v3\nnoise kind=poisson photons=1000\n")

        def lsqr_stop(*extra):
            assert main(small_args("reconstruct", tmp_path,
                                   "recon.method=lsqr", *extra)) == 0
            report = _report(tmp_path)
            return report["lsqr.stop_reason"], report["lsqr.iterations"]

        # no noise flags: the recorded noise sets the discrepancy stop, as
        # the same noise given in the config does
        recorded = lsqr_stop()
        assert recorded[0] == "discrepancy"
        assert _report(tmp_path)["config.noise.photons"] == "1000"
        assert lsqr_stop("noise.kind=poisson", "noise.photons=1e3") == recorded
        # a config that contradicts the manifest exits 2 with one line
        capsys.readouterr()
        assert main(small_args("reconstruct", tmp_path, "recon.method=lsqr",
                               "noise.kind=poisson")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "contradicts" in err
        # a v2 manifest records no noise: the config's noise.kind=none
        # holds, and LSQR fits the noise until atol or the cap
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(["LTSCAN v2"] + lines[2:]) + "\n")
        assert lsqr_stop()[0] != "discrepancy"

    def test_noise_free_scan_refuses_a_noisy_config(self, tmp_path, capsys):
        assert main(small_args("scan", tmp_path)) == 0
        assert (tmp_path / "scan_manifest.txt").read_text().startswith(
            "LTSCAN v3\nnoise kind=none\n")
        capsys.readouterr()
        assert main(small_args("reconstruct", tmp_path, "recon.method=lsqr",
                               "noise.kind=poisson")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "contradicts" in err

    def test_weight_positive_nowhere_refused_by_every_method(self, tmp_path,
                                                              capsys):
        # every method divides by the floored weight: an all-zero or a
        # negated weight file exits 2 with one line
        assert main(small_args("scan", tmp_path)) == 0
        v = read_field(tmp_path / "weight.ltf")
        for bad in (np.zeros(v.grid.cells), -v.values):
            write_field(tmp_path / "weight.ltf", ScalarField(v.grid, bad))
            for method in ("multiplier", "lsqr", "both"):
                capsys.readouterr()
                assert main(small_args("reconstruct", tmp_path,
                                       f"recon.method={method}")) == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1
                assert "the weight v must be positive somewhere" in err

    @pytest.mark.parametrize("photons", ["0", "-1e3"])
    def test_non_positive_photons_refused_by_reconstruct(self, tmp_path,
                                                         capsys, photons):
        assert main(small_args("scan", tmp_path)) == 0
        capsys.readouterr()
        assert main(small_args("reconstruct", tmp_path, "recon.method=lsqr",
                               "noise.kind=poisson",
                               f"noise.photons={photons}")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "noise.photons" in err

    def test_run_xlct_end_to_end(self, tmp_path, capsys):
        rc = main(small_args("run-xlct", tmp_path, "xray.n_angles=60",
                             "xray.n_offsets=97", "recon.filter=ramp",
                             "recon.cutoff=1.0"))
        assert rc == 0
        assert "error.fbp.absolute" in capsys.readouterr().out
        assert (tmp_path / "sinogram.ltf").exists()
        assert (tmp_path / "recon_fbp.ltf").exists()

    def test_noise_changes_scan_deterministically(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d3 = tmp_path / "c"
        for d in (d1, d2):
            assert main(small_args("scan", d, "noise.kind=poisson",
                                   "noise.photons=1e4")) == 0
        assert main(small_args("scan", d3, "noise.kind=poisson",
                               "noise.photons=1e4", "run.seed=999")) == 0
        a = read_field(d1 / "scan_cone00.ltf").values
        b = read_field(d2 / "scan_cone00.ltf").values
        c = read_field(d3 / "scan_cone00.ltf").values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_default_cones_share_scans_of_one_double_cone(self, tmp_path):
        # cones j and j+5 of the default 10 are one double cone: one clean
        # field, but each cone keeps its own noise stream
        def run(outdir, *extra):
            argv = ["run-xmlt", "-o", str(outdir)]
            for item in ("grid.cells=48,48", "run.spot_checks=1") + extra:
                argv += ["--set", item]
            assert main(argv) == 0

        clean, noisy = tmp_path / "clean", tmp_path / "noisy"
        run(clean)
        run(noisy, "noise.kind=poisson")
        for j in range(10):
            assert (clean / f"scan_cone{j:02d}.ltf").exists()
        for j in range(5):
            a, b = (read_field(clean / f"scan_cone{k:02d}.ltf").values
                    for k in (j, j + 5))
            assert np.max(a) > 0 and np.array_equal(a, b)
            a, b = (read_field(noisy / f"scan_cone{k:02d}.ltf").values
                    for k in (j, j + 5))
            assert not np.array_equal(a, b)
        assert _report(clean)["scan.distinct_apertures"] == "5"

    def test_distinct_apertures_in_scan_and_reconstruct(self, tmp_path):
        assert main(small_args("scan", tmp_path)) == 0
        assert _report(tmp_path)["scan.distinct_apertures"] == "3"
        assert main(small_args("reconstruct", tmp_path)) == 0
        assert _report(tmp_path)["scan.distinct_apertures"] == "3"

    @pytest.mark.parametrize("method", ["both", "multiplier"])
    @pytest.mark.parametrize("verb", ["run-xmlt", "reconstruct", "scan"])
    def test_one_cone_operator_per_run(self, tmp_path, monkeypatch, verb,
                                       method):
        # the scan, the multiplier's low shell and LSQR share one
        # ConeConvolution: one kernel per distinct aperture, also when the
        # multiplier alone streams the spectra through the scan, which keeps
        # the low-shell sum (or, in reconstruct, a pass of its own forms it);
        # `scan` inverts nothing, so its spectra stream whatever the method
        if verb == "reconstruct":
            assert main(small_args("scan", tmp_path)) == 0
        kernels = []
        cone_kernel = excitation.cone_kernel
        monkeypatch.setattr(excitation, "cone_kernel",
                            lambda ap, grid: kernels.append(ap)
                            or cone_kernel(ap, grid))
        assert main(small_args(verb, tmp_path, f"recon.method={method}")) == 0
        assert len(kernels) == len(set(kernels)) == 3

    def test_multiplier_statistics_in_report(self, tmp_path):
        def stats(verb, outdir, *extra):
            assert main(small_args(verb, outdir, *extra)) == 0
            report = _report(outdir)
            return (float(report["multiplier.m_ref"]),
                    float(report["multiplier.suppressed_fraction"]))

        m_ref, fraction = stats("run-xmlt", tmp_path / "run")
        assert m_ref > 0 and fraction == 0.0
        assert main(small_args("scan", tmp_path / "scan")) == 0
        assert stats("reconstruct", tmp_path / "scan") == (m_ref, fraction)
        # a larger eps suppresses more of the table and leaves m_ref, the
        # median entry, alone: at eps = 1 the entries below the median
        # (every entry of this table is positive)
        fractions = [stats("run-xmlt", tmp_path / eps, f"recon.eps={eps}")
                     for eps in ("0.9", "1.0", "2.0")]
        assert [m for m, _ in fractions] == [m_ref] * 3
        assert 0.0 < fractions[0][1] < fractions[1][1] == 0.5
        assert 0.5 < fractions[2][1] < 1.0
        assert main(small_args("run-xmlt", tmp_path / "lsqr",
                               "recon.method=lsqr")) == 0
        assert not any(key.startswith("multiplier.")
                       for key in _report(tmp_path / "lsqr"))

    def test_noise_ignores_roundoff_sign_of_exact_zeros(self):
        # cells whose exact value is 0 carry FFT roundoff of either sign
        rng = np.random.default_rng(11)
        exact = rng.uniform(0.0, 1.0, (40, 40))
        zero = rng.uniform(size=exact.shape) < 0.4
        exact[zero] = 0.0
        ulp = 1e-16 * exact.max()
        roundoff = ulp * rng.uniform(-1.0, 1.0, exact.shape)
        settings = Settings(dict(DEFAULTS, **{"noise.kind": "poisson",
                                              "noise.photons": "1e4"}))

        def noisy(perturbation):
            values = np.where(zero, perturbation, exact)
            return pipeline._noise(values, "noise.cone0", settings, {})

        ref = noisy(roundoff)
        for perturbation in (-roundoff, roundoff + ulp, roundoff - ulp, 0.0):
            assert np.array_equal(noisy(perturbation), ref)


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    """A directory holding what `scan` writes on the SMALL config."""
    outdir = tmp_path_factory.mktemp("scanned")
    assert main(small_args("scan", outdir)) == 0
    return outdir


def _no_weight_solve(op, h):
    raise AssertionError("weight solved before the refusal")


def _report(outdir):
    return dict(ln.split(" = ", 1) for ln in
                (outdir / "report.txt").read_text().splitlines())


class TestWallClock:
    XLCT = ["xray.n_angles=60", "xray.n_offsets=97"]

    def test_stage_keys(self, tmp_path):
        expected = {
            "run-xmlt": ["setup", "gate", "scan", "spot_check", "noise",
                         "reconstruct", "multiplier", "emit"],
            "run-xlct": ["setup", "scan", "noise", "reconstruct", "emit"],
            "phantom": ["setup", "emit"],
            "weight": ["setup", "emit"],
            "scan": ["setup", "scan", "noise", "emit"],
            "reconstruct": ["setup", "gate", "reconstruct", "multiplier",
                            "emit"],
        }
        for verb, stages in expected.items():
            outdir = tmp_path / ("scan" if verb == "reconstruct" else verb)
            assert main(small_args(verb, outdir, *self.XLCT)) == 0
            report = _report(outdir)
            keys = {k for k in report if k.startswith("wall_clock.")}
            assert keys == {f"wall_clock.{stage}" for stage in stages}, verb
            assert all(float(report[key]) >= 0.0 for key in keys)
            if verb in ("run-xmlt", "scan"):
                assert report["scan.focus_grid"] == "48,48", verb
        # each method's sub-stage only when it runs, and LSQR's dot test
        # within LSQR's
        for method, ran in [("lsqr", {"lsqr", "lsqr_dot_test"}),
                            ("both", {"multiplier", "lsqr", "lsqr_dot_test"})]:
            assert main(small_args("reconstruct", tmp_path / "scan",
                                   f"recon.method={method}")) == 0
            report = _report(tmp_path / "scan")
            assert {k for k in report if k.startswith("wall_clock.")} == {
                f"wall_clock.{stage}" for stage in
                ["setup", "gate", "reconstruct", "emit", *ran]}, method
            assert (float(report["wall_clock.lsqr_dot_test"])
                    <= float(report["wall_clock.lsqr"])), method

    def test_reports_equal_without_wall_clock_lines(self, tmp_path):
        def stripped():
            assert main(small_args("run-xmlt", tmp_path,
                                   "noise.kind=poisson")) == 0
            text = (tmp_path / "report.txt").read_text()
            return [ln for ln in text.splitlines()
                    if not ln.startswith("wall_clock")]

        assert stripped() == stripped()

    def test_other_verbs_repeat_bit_for_bit(self, tmp_path):
        # run-xlct, and scan then reconstruct, with Poisson noise: every
        # output file, report.txt without its wall_clock lines
        def outputs():
            shutil.rmtree(tmp_path, ignore_errors=True)
            assert main(small_args("run-xlct", tmp_path / "xlct", *self.XLCT,
                                   "noise.kind=poisson")) == 0
            assert main(small_args("scan", tmp_path / "scan",
                                   "noise.kind=poisson")) == 0
            assert main(small_args("reconstruct", tmp_path / "scan",
                                   "recon.method=both")) == 0
            files = {}
            for path in sorted(tmp_path.rglob("*.*")):
                data = path.read_bytes()
                if path.name == "report.txt":
                    data = b"\n".join(ln for ln in data.split(b"\n")
                                      if not ln.startswith(b"wall_clock"))
                files[path.relative_to(tmp_path)] = data
            return files

        first = outputs()
        assert {path.parts[0] for path in first} == {"xlct", "scan"}
        assert outputs() == first

    @pytest.mark.parametrize("verb,extra,stages", [
        ("run-xmlt", [], ["emit", "gate", "multiplier", "noise", "reconstruct",
                          "scan", "setup", "spot_check"]),
        ("run-xlct", XLCT, ["emit", "noise", "reconstruct", "scan", "setup"])])
    def test_cli_prints_stage_times(self, tmp_path, capsys, verb, extra, stages):
        # every wall_clock.<stage> report line, sorted, after the summary
        assert main(small_args(verb, tmp_path, *extra)) == 0
        out = capsys.readouterr().out.splitlines()
        report = _report(tmp_path)
        timing = [ln for ln in out if ln.startswith("wall_clock.")]
        assert timing == [f"wall_clock.{stage} = {report['wall_clock.' + stage]}"
                          for stage in stages]
        first = out.index(timing[0])
        assert out[first - 1].startswith("wall_clock_seconds = ")
        assert out[first + len(timing)].startswith("outputs written to")


def test_thread_cap_is_set_by_package_import():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["LUMITOMO_THREADS"] = "3"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(lumitomo.__file__))
    code = ("import os, lumitomo; print(os.environ['OMP_NUM_THREADS'], "
            "os.environ['OPENBLAS_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["3", "3", "3"]


def test_runs_do_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma: about 1 MB of peak RSS and 15-30 ms of
    # a cold run, and numpy.polynomial (which the 3D symbol table's
    # interpolant does without) 6 ms; a fresh interpreter, since the tests
    # import both anyway
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(lumitomo.__file__))
    out = str(tmp_path)
    runs = [["run-xmlt", "-o", out, "--set", "grid.cells=32,32",
             "--set", "recon.method=both"],
            ["run-xmlt", "-o", out, "--set", "grid.dim=3",
             "--set", "grid.origin=-10,-10,-10", "--set", "grid.extent=20,20,20",
             "--set", "grid.cells=12,12,12",
             "--set", "phantom.inclusions=2.5,2.5,0,1.5,5.0; -3.5,0,0,1.5,10.0"]]
    code = ("import json, sys; from lumitomo.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(codes, 'numpy.ma' in sys.modules, "
            "'numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "[0, 0] False False", proc.stderr


@pytest.mark.parametrize("args", [
    ["check-stability", "--set", "cones.amplitude=1e308"],
    ["run-xlct", "--set", "boundary.h=1e308", "--set", "grid.cells=16,16"]])
def test_overflowing_values_print_one_stderr_line(tmp_path, args):
    # in a child process numpy's RuntimeWarnings reach stderr, which
    # pytest's warning capture would hide in process
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(lumitomo.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "lumitomo.cli", *args, "-o", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


# One --set value at a time on a 16^2 grid with 8 angles.  Integers stay
# within +-12, so fuzzed sizes stay small (cells <= 16 per axis,
# cones.count <= 12); floats reach the extremes.
FUZZ_BASE = ["grid.cells=16,16", "xray.n_angles=8", "xray.n_offsets=16",
             "noise.kind=poisson"]
_NUMBER = st.one_of(st.integers(-12, 12).map(str),
                    st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(["+1", "-0", "+inf", "-nan", "1_0", " 8 ",
                                     "1e-320", "-1e308", "0.0"]))
_VALUE = st.one_of(
    _NUMBER,
    st.sampled_from(["", " ", "x", "+", "-", ",", "1,", ",1", "1,,2", "0x10",
                     "true", "\u00e9", "nan,nan", "1;2", "none", "ramp"]),
    st.lists(_NUMBER, min_size=1, max_size=4).map(",".join),
    st.lists(st.lists(_NUMBER, min_size=1, max_size=5).map(",".join),
             min_size=1, max_size=3).map("; ".join))


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verb=st.sampled_from(["run-xlct", "check-stability"]),
       key=st.sampled_from(sorted(set(DEFAULTS) - {"run.output_dir"})),
       value=_VALUE)
# values that once escaped as raw exceptions
@example(verb="run-xlct", key="grid.extent", value="1e308,1e308")
@example(verb="run-xlct", key="medium.refractive_index", value="1e-300")
@example(verb="run-xlct", key="medium.refractive_index", value="1e308")
@example(verb="run-xlct", key="noise.photons", value="1e308")
@example(verb="run-xlct", key="phantom.inclusions", value="0,0,1e308,5")
@example(verb="run-xlct", key="phantom.inclusions", value="0,0,1,1e308")
@example(verb="run-xlct", key="run.seed", value="-1")
def test_fuzzed_config_value_fails_only_with_toolkit_errors(
        tmp_path, capsys, verb, key, value):
    # a raw exception escapes `main`; a toolkit error exits 2-4 with one line
    rc = main([verb, "-o", str(tmp_path)]
              + [a for item in FUZZ_BASE + [f"{key}={value}"]
                 for a in ("--set", item)])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    if rc:
        assert len(err.strip().splitlines()) == 1
