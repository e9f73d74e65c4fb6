"""Reach guard: every public function, method and property of the package
runs in some CLI verb.

Each verb runs once on a small grid under `sys.setprofile`, which records
the code object of every Python call.  A public module-level function, or
a public method or property of a class the package defines, that no verb
calls is library code without a run behind it; it belongs in the tests
(see `oracles.py` and `conftest.py`) or nowhere.
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


def _function(attr):
    """The function behind a class attribute, unwrapped: a method's, a
    static or class method's, or a property's getter; None for anything
    else."""
    if isinstance(attr, property):
        attr = attr.fget
    elif isinstance(attr, (staticmethod, classmethod)):
        attr = attr.__func__
    # a context manager's wrapper runs for every context manager
    return inspect.unwrap(attr) if inspect.isfunction(attr) else None


def public_functions():
    """{"module.name": function} over every module of the package, with
    {"module.Class.name": function} for the public methods and properties
    of the classes it defines."""
    out = {}
    for info in pkgutil.iter_modules(lumitomo.__path__, "lumitomo."):
        mod = importlib.import_module(info.name)
        short = info.name.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    fn = _function(attr)
                    if not attr_name.startswith("_") and fn is not None:
                        out[f"{short}.{name}.{attr_name}"] = fn
            elif inspect.isfunction(obj):
                out[f"{short}.{name}"] = inspect.unwrap(obj)
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
        # the multiplier alone streams the cone spectra through its scan
        ["run-xmlt", "--set", "recon.method=multiplier",
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
