"""Reach guard: every public function of the package runs in some CLI verb.

Each verb runs once on a small grid under `sys.setprofile`, which records
the code object of every Python call.  A public module-level function that
no verb calls is library code without a run behind it; it belongs in the
tests (see `oracles.py`) or nowhere.
"""

import importlib
import inspect
import pkgutil
import sys

import lumitomo
from lumitomo.cli import main

# Functions the verbs do not call, each kept on purpose.
ALLOWED = {
    # the paper's symbol r0(xi) of one cone: the reference of the symbol
    # tables and of the full-aperture closed forms (criterion 8)
    "multiplier.multiplier_symbol",
    # the reader of run-xlct's sinogram.ltf, for whoever reads that output
    "ltfio.read_sinogram",
}

SMALL = ["--set", "grid.cells=32,32", "--set", "xray.n_angles=16",
         "--set", "xray.n_offsets=48"]


def public_functions():
    """{"module.name": function} over every module of the package."""
    out = {}
    for info in pkgutil.iter_modules(lumitomo.__path__, "lumitomo."):
        mod = importlib.import_module(info.name)
        short = info.name.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == info.name):
                out[f"{short}.{name}"] = obj
    return out


def test_every_public_function_is_reached(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("noise.kind = poisson\nrecon.method = both\n")
    out = str(tmp_path / "out")
    runs = [
        ["phantom", "--config", str(config)],
        ["weight"],
        ["check-stability"],
        ["scan", "--set", "noise.kind=poisson"],
        ["reconstruct", "--set", "recon.method=both"],
        ["run-xmlt", "--set", "recon.method=both",
         "--set", "noise.kind=poisson"],
        ["run-xlct"],
    ]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main([verb, "-o", out] + SMALL + rest)
                 for verb, *rest in runs]
    finally:
        sys.setprofile(previous)
    assert sys.getprofile() is previous
    capsys.readouterr()
    assert codes == [0] * len(runs)
    functions = public_functions()
    reached = {name for name, fn in functions.items() if fn.__code__ in called}
    unreached = sorted(set(functions) - reached - ALLOWED)
    assert not unreached, f"no verb calls {unreached}"
    # an allowance for a function that a verb does call is stale
    assert not ALLOWED & reached, f"verbs call the allowed {ALLOWED & reached}"
