"""Every output of four small runs against its checked-in fingerprint
(`fingerprints.py`, `fingerprints.json`): a change that moves any output
file or report line, by a relative 1e-9 of the weight say, fails here."""

import json
import math

import pytest

import fingerprints

# Each value, and the largest magnitude, within RTOL of the file's largest
# magnitude; the norm within RTOL of itself; the sum within RTOL of
# sqrt(size) times the norm, which bounds the sum of magnitudes.
RTOL = 1e-12
# LSQR's outputs and report lines (every name with "lsqr" in it).  LSQR
# amplifies roundoff: perturbing the Poisson data by a relative 1e-15
# moved recon_lsqr.ltf by up to 5.3e-12 of its maximum in these runs (nine
# perturbation seeds), and the other LSQR outputs by less.
LSQR_RTOL = 1e-10


@pytest.fixture(scope="module")
def record():
    with open(fingerprints.RECORD) as fh:
        return json.load(fh)


def _printed_close(got, want, rtol):
    """Two report values are the same text, or comma lists of numbers of
    which each is within rtol, or one unit of its last printed digit, of
    the recorded one.  Integers compare exactly."""
    if got == want:
        return True
    xs, ys = got.split(","), want.split(",")
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        mantissa, e, exponent = y.lower().partition("e")
        if "." not in mantissa and not e:
            return False
        unit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
        if not abs(fx - fy) <= rtol * abs(fy) + unit:
            return False
    return True


@pytest.mark.parametrize("name", list(fingerprints.RUNS))
def test_outputs_match_the_record(tmp_path, record, name):
    fingerprints.run(name, tmp_path)
    got, want = fingerprints.fingerprint(tmp_path), record[name]
    assert sorted(got["files"]) == sorted(want["files"])
    for fname, w in want["files"].items():
        g = got["files"][fname]
        rtol = LSQR_RTOL if "lsqr" in fname else RTOL
        assert g["size"] == w["size"], fname
        tol = rtol * w["max_abs"]
        assert abs(g["norm"] - w["norm"]) <= rtol * w["norm"], fname
        assert abs(g["sum"] - w["sum"]) <= (
            rtol * math.sqrt(w["size"]) * w["norm"]), fname
        for key, a, b in [("max_abs", g["max_abs"], w["max_abs"])] + [
                (f"values[{i}]", a, b)
                for i, (a, b) in enumerate(zip(g["values"], w["values"]))]:
            assert abs(a - b) <= tol, (fname, key, a, b)
    assert sorted(got["report"]) == sorted(want["report"])
    for key, val in want["report"].items():
        rtol = LSQR_RTOL if "lsqr" in key else RTOL
        assert _printed_close(got["report"][key], val, rtol), (
            key, got["report"][key], val)
