"""Output fingerprints of four small runs, and the generator of their
checked-in record, `fingerprints.json` next to this file.

Each run is one or more CLI calls into one output directory.  The
fingerprint of an `.ltf` or `.csv` file is its value count, sum, L2 norm,
largest magnitude and the values at five evenly spaced flat indices, all
at full precision; that of `report.txt` is every line but the
`wall_clock*` ones and `config.run.output_dir`.  `test_fingerprints.py`
compares a fresh run with the record.

    PYTHONPATH=src python tests/fingerprints.py

reruns the four runs and rewrites the record.  Only a change that moves
outputs on purpose does that, and states the old and new values.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from lumitomo import ltfio
from lumitomo.cli import main

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "fingerprints.json")

POISSON = ["noise.kind=poisson", "run.seed=1"]
GRID_32 = ["grid.cells=32,32"]
GRID_3D = ["grid.dim=3", "grid.origin=-10,-10,-10", "grid.extent=20,20,20",
           "grid.cells=12,12,12",
           "phantom.inclusions=2.5,2.5,0,1.5,5.0; -3.5,0,0,1.5,10.0"]

# run name: the (verb, --set items) of its CLI calls, in order
RUNS = {
    "xmlt2d_both": [("run-xmlt", GRID_32 + POISSON + ["recon.method=both"])],
    "scan_reconstruct": [
        ("scan", GRID_32 + POISSON + ["cones.count=3",
                                      "cones.half_angle_deg=35.0"]),
        ("reconstruct", GRID_32 + ["cones.count=3",
                                   "cones.half_angle_deg=35.0",
                                   "recon.method=both"])],
    "xlct2d": [("run-xlct", GRID_32 + POISSON + ["xray.n_angles=16",
                                                  "xray.n_offsets=48"])],
    "xmlt3d_both": [("run-xmlt", GRID_3D + POISSON + ["recon.method=both"])],
}


def run(name, outdir):
    """The CLI calls of run `name` into `outdir`."""
    for verb, items in RUNS[name]:
        argv = [verb, "-o", str(outdir)]
        for item in items:
            argv += ["--set", item]
        rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"{name}: {verb} exited {rc}")


def _values(path):
    if path.endswith(".csv"):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).ravel()
    if os.path.basename(path) == "sinogram.ltf":
        return ltfio.read_sinogram(path).values.ravel()
    return ltfio.read_field(path).values.ravel()


def fingerprint(outdir):
    """{"files": {name: fingerprint}, "report": {key: value}} of `outdir`."""
    files = {}
    for name in sorted(os.listdir(outdir)):
        if not name.endswith((".ltf", ".csv")):
            continue
        x = _values(os.path.join(outdir, name))
        at = np.linspace(0, x.size - 1, 5).astype(int)
        files[name] = {"size": int(x.size), "sum": float(np.sum(x)),
                       "norm": float(np.linalg.norm(x)),
                       "max_abs": float(np.max(np.abs(x))),
                       "values": [float(v) for v in x[at]]}
    report = {}
    with open(os.path.join(outdir, "report.txt")) as fh:
        for line in fh:
            key, _, val = line.rstrip("\n").partition(" = ")
            if not (key.startswith("wall_clock")
                    or key == "config.run.output_dir"):
                report[key] = val
    return {"files": files, "report": report}


def fingerprints(root):
    """Fingerprints of every run, each run in its own directory of `root`."""
    out = {}
    for name in RUNS:
        run(name, os.path.join(root, name))
        out[name] = fingerprint(os.path.join(root, name))
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root, \
            contextlib.redirect_stdout(io.StringIO()):
        record = fingerprints(root)
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {RECORD}", file=sys.stderr)
