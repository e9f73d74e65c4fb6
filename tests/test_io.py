"""Round trips and validation for the on-disk containers."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lumitomo.cli import main
from lumitomo.errors import InvalidArgumentError, LumitomoError
from lumitomo.excitation import Aperture, ConeScanData, Sinogram
from lumitomo.fields import ScalarField, make_grid
from lumitomo.ltfio import (read_field, read_scan, read_sinogram, write_field,
                            write_pgm, write_scan, write_sinogram)

from conftest import constant_field, two_bump_phantom


def test_field_round_trip_bit_exact(tmp_path, grid64):
    f = two_bump_phantom(grid64)
    p = tmp_path / "f.ltf"
    write_field(p, f)
    g = read_field(p)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    # a second write of the read-back file is byte-identical
    p2 = tmp_path / "f2.ltf"
    write_field(p2, g)
    assert p.read_bytes() == p2.read_bytes()


def test_field_irrational_geometry_survives(tmp_path):
    g = make_grid(2, (-np.pi, 1 / 3), (np.sqrt(2), 7 / 11), (8, 12))
    f = ScalarField(g, np.random.default_rng(0).standard_normal(g.cells))
    p = tmp_path / "irr.ltf"
    write_field(p, f)
    back = read_field(p)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_variant_mismatch_rejected(tmp_path, grid64):
    f = two_bump_phantom(grid64)
    p = tmp_path / "f.ltf"
    write_field(p, f)
    with pytest.raises(InvalidArgumentError):
        read_sinogram(p)


# boundary=1 marked the boundary-face files of earlier versions
@pytest.mark.parametrize("token", [b"boundary=1", b"sinogram=1"])
def test_read_field_refuses_variant_token(tmp_path, grid64, token):
    p = tmp_path / "f.ltf"
    write_field(p, two_bump_phantom(grid64))
    p.write_bytes(p.read_bytes().replace(b"v1 ", b"v1 " + token + b" ", 1))
    with pytest.raises(InvalidArgumentError, match="not a plain field"):
        read_field(p)


def test_not_ltfield_rejected(tmp_path):
    p = tmp_path / "junk.ltf"
    p.write_bytes(b"PNG nope\n\x00\x01")
    with pytest.raises(InvalidArgumentError):
        read_field(p)


def test_malformed_field_rejected(tmp_path, grid64):
    p = tmp_path / "f.ltf"
    write_field(p, two_bump_phantom(grid64))
    header, _, payload = p.read_bytes().partition(b"\n")
    p.write_bytes(header + b"\n" + payload[:80])   # 10 of 64*64 values
    with pytest.raises(InvalidArgumentError):
        read_field(p)
    no_origin = b" ".join(t for t in header.split()
                          if not t.startswith(b"origin="))
    p.write_bytes(no_origin + b"\n" + payload)
    with pytest.raises(InvalidArgumentError):
        read_field(p)


def test_header_sizes_overflowing_int64_rejected(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64, which an empty payload matched
    p = tmp_path / "f.ltf"
    p.write_bytes(b"LTFIELD v1 dim=2 cells=4294967296,4294967296 "
                  b"origin=0,0 extent=1,1\n")
    with pytest.raises(InvalidArgumentError):
        read_field(p)


@pytest.mark.parametrize("geometry", [b"origin=nan,0 extent=1,1",
                                      b"origin=0,0 extent=inf,1"])
def test_non_finite_header_geometry_rejected(tmp_path, geometry):
    p = tmp_path / "f.ltf"
    p.write_bytes(b"LTFIELD v1 dim=2 cells=4,4 " + geometry + b"\n"
                  + np.ones(16).tobytes())
    with pytest.raises(InvalidArgumentError):
        read_field(p)


def test_non_finite_sinogram_axes_rejected(tmp_path):
    p = tmp_path / "s.ltf"
    p.write_bytes(b"LTFIELD v1 sinogram=1 angles=0,nan offsets=0,1\n"
                  + np.ones(4).tobytes())
    with pytest.raises(InvalidArgumentError):
        read_sinogram(p)


_SIZES = st.sampled_from([4, 5, 7, 2 ** 31, 2 ** 32, 2 ** 33, 2 ** 63, 10 ** 30])
_REALS = st.one_of(st.floats(-1e3, 1e3),
                   st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                    0.0, -1.0, 1e308]))
_JUNK = st.one_of(st.sampled_from(["", "x", "1e3", "0x10", "1,,2", "\u00e9"]),
                  st.lists(_REALS, max_size=4).map(lambda v: ",".join(map(repr, v))))


@st.composite
def _ltfield(draw):
    """A valid header of a random variant with up to two tokens dropped or
    replaced by junk, and a payload whose length is random or equal to the
    header's value count, exact or wrapped to 64 bits as numpy's integer
    product would give it."""
    variant = draw(st.sampled_from(["field", "boundary", "sinogram"]))
    if variant == "sinogram":
        angles = draw(st.lists(st.floats(-4, 4), min_size=1, max_size=4))
        offsets = draw(st.lists(st.floats(-4, 4), min_size=1, max_size=4))
        tokens = {"sinogram": "1", "angles": ",".join(map(repr, angles)),
                  "offsets": ",".join(map(repr, offsets))}
        count = len(angles) * len(offsets)
    else:
        dim = draw(st.sampled_from([2, 3]))
        cells = draw(st.lists(_SIZES, min_size=dim, max_size=dim))
        tokens = {"dim": str(dim), "cells": ",".join(map(str, cells)),
                  "origin": ",".join(["-1.5"] * dim),
                  "extent": ",".join(["3.0"] * dim)}
        if variant == "boundary":
            tokens["boundary"] = "1"
            count = 2 * sum(math.prod(cells) // n for n in cells)
        else:
            count = math.prod(cells)
    for key in draw(st.lists(st.sampled_from(sorted(tokens)), max_size=2)):
        if draw(st.booleans()):
            tokens.pop(key, None)
        else:
            tokens[key] = draw(_JUNK)
    sizes = [n for n in (count, count % 2 ** 64) if n <= 64]
    n_values = draw(st.sampled_from(sizes) if sizes and draw(st.booleans())
                    else st.integers(0, 64))
    header = " ".join(["LTFIELD v1"] + [f"{k}={v}" for k, v in tokens.items()])
    return (header.encode("utf-8") + b"\n"
            + np.arange(n_values, dtype="<f8").tobytes()
            + b"\x00" * draw(st.sampled_from([0, 0, 0, 3])))


# Header sizes reach 10**30 while a payload holds at most 64 values, so a
# reader that sized an array from the header would fail here.  A read that
# succeeds must account for every payload value with the header's exact
# (unwrapped) sizes.
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_ltfield())
def test_fuzzed_files_fail_only_with_toolkit_errors(tmp_path, data):
    p = tmp_path / "fuzz.ltf"
    p.write_bytes(data)
    n_payload = (len(data) - data.index(b"\n") - 1) // 8
    for reader in (read_field, read_sinogram):
        try:
            read = reader(p)
        except LumitomoError:
            continue
        if reader is read_sinogram:
            assert read.angles.size * read.offsets.size == n_payload
        else:
            assert read.grid.n_cells == n_payload


def test_malformed_sinogram_rejected(tmp_path):
    p = tmp_path / "s.ltf"
    write_sinogram(p, Sinogram(np.zeros(3), np.zeros(4), np.ones((3, 4))))
    header, _, payload = p.read_bytes().partition(b"\n")
    p.write_bytes(header + b"\n" + payload[:8 * 5])
    with pytest.raises(InvalidArgumentError):
        read_sinogram(p)
    p.write_bytes(header.replace(b"angles=", b"angels=") + b"\n" + payload)
    with pytest.raises(InvalidArgumentError):
        read_sinogram(p)


def test_sinogram_round_trip(tmp_path):
    angles = np.linspace(0, np.pi, 18, endpoint=False)
    offsets = np.linspace(-np.sqrt(3), np.sqrt(3), 33)
    values = np.random.default_rng(2).standard_normal((18, 33))
    p = tmp_path / "s.ltf"
    write_sinogram(p, Sinogram(angles, offsets, values))
    back = read_sinogram(p)
    assert np.array_equal(back.angles, angles)
    assert np.array_equal(back.offsets, offsets)
    assert np.array_equal(back.values, values)


def test_scan_round_trip(tmp_path, grid64):
    aps = [Aperture(dim=2, axis=(np.cos(t), np.sin(t)),
                    half_angle=np.deg2rad(25), taper_width=0.1,
                    amplitude=1.5)
           for t in (0.0, 1.1)]
    rng = np.random.default_rng(3)
    fields = [ScalarField(grid64, rng.standard_normal(grid64.cells))
              for _ in aps]
    scan = ConeScanData(grid64, fields, aps)
    manifest = tmp_path / "scan.txt"
    write_scan(manifest, str(tmp_path / "scan"), scan)
    back = read_scan(manifest)
    assert len(back.fields) == 2
    for orig, got in zip(fields, back.fields):
        assert np.array_equal(orig.values, got.values)
    for orig, got in zip(aps, back.apertures):
        assert got.axis == pytest.approx(orig.axis, abs=0)
        assert got.half_angle == orig.half_angle
        assert got.taper_width == orig.taper_width
        assert got.amplitude == orig.amplitude


def test_scan_round_trip_keeps_every_cone(tmp_path, grid64):
    aps = [Aperture(dim=2, axis=(np.cos(t), np.sin(t)), half_angle=0.5)
           for t in (0.0, 1.0, 2.0)]
    scan = ConeScanData(grid64, [constant_field(grid64, float(j))
                                 for j in range(3)], aps)
    manifest = tmp_path / "scan.txt"
    write_scan(manifest, str(tmp_path / "scan"), scan)
    back = read_scan(manifest)
    assert [f.values[0, 0] for f in back.fields] == [0.0, 1.0, 2.0]
    for orig, got in zip(aps, back.apertures, strict=True):
        assert got.axis == pytest.approx(orig.axis, abs=0)


def test_scan_file_name_with_whitespace_rejected(tmp_path, grid64):
    ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
    scan = ConeScanData(grid64, [two_bump_phantom(grid64)], [ap])
    with pytest.raises(InvalidArgumentError):
        write_scan(tmp_path / "scan.txt", str(tmp_path / "my scan"), scan)


def test_scan_v1_manifest_is_refused(tmp_path, grid64, capsys):
    ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
    scan = ConeScanData(grid64, [two_bump_phantom(grid64)], [ap])
    manifest = tmp_path / "scan_manifest.txt"
    write_scan(manifest, str(tmp_path / "scan"), scan)
    text = manifest.read_text()
    assert text.startswith("LTSCAN v2\ncone file=scan_cone00.ltf ")
    manifest.write_text(text.replace("LTSCAN v2", "LTSCAN v1"))
    with pytest.raises(InvalidArgumentError, match="LTSCAN v1.*re-run `scan`"):
        read_scan(manifest)
    write_field(tmp_path / "weight.ltf", constant_field(grid64, 1.0))
    assert main(["reconstruct", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "LTSCAN v1" in err and "re-run `scan`" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("header", ["LTSCAN v0", "LTSCAN v4", "LTSCAN"])
def test_scan_unknown_version_refused(tmp_path, header):
    p = tmp_path / "scan.txt"
    p.write_text(f"{header}\ncone file=c.ltf\n")
    with pytest.raises(InvalidArgumentError, match="not a scan manifest"):
        read_scan(p)


def test_scan_noise_round_trip(tmp_path, grid64):
    ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
    noise = {"noise.kind": "poisson", "noise.photons": "1000"}
    scan = ConeScanData(grid64, [two_bump_phantom(grid64)], [ap], noise)
    manifest = tmp_path / "scan.txt"
    write_scan(manifest, str(tmp_path / "scan"), scan)
    text = manifest.read_text()
    assert text.startswith("LTSCAN v3\nnoise kind=poisson photons=1000\n"
                           "cone file=scan_cone00.ltf ")
    back = read_scan(manifest)
    assert back.noise == noise
    assert np.array_equal(back.fields[0].values, scan.fields[0].values)
    # the same scan as a v2 manifest records no noise
    lines = text.splitlines()
    manifest.write_text("\n".join(["LTSCAN v2"] + lines[2:]) + "\n")
    assert read_scan(manifest).noise is None


@pytest.mark.parametrize("line", ["", "noise kind=poisson", "noise kind=gauss",
                                  "noise kind=none photons=10",
                                  "cone kind=none"])
def test_scan_bad_noise_line(tmp_path, grid64, line):
    ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
    scan = ConeScanData(grid64, [two_bump_phantom(grid64)], [ap],
                        {"noise.kind": "none"})
    manifest = tmp_path / "scan.txt"
    write_scan(manifest, str(tmp_path / "scan"), scan)
    lines = manifest.read_text().splitlines()
    assert lines[1] == "noise kind=none"
    manifest.write_text("\n".join([lines[0], line] + lines[2:]) + "\n")
    with pytest.raises(InvalidArgumentError):
        read_scan(manifest)


def test_scan_bad_manifest(tmp_path):
    p = tmp_path / "scan.txt"
    p.write_text("LTSCAN v2\nblob file=nope.ltf\n")
    with pytest.raises(InvalidArgumentError):
        read_scan(p)
    p.write_text("something else\n")
    with pytest.raises(InvalidArgumentError):
        read_scan(p)


def test_pgm_header_and_size(tmp_path, grid64):
    f = two_bump_phantom(grid64)
    p = tmp_path / "f.pgm"
    vmin, vmax = write_pgm(p, f)
    data = p.read_bytes()
    assert data.startswith(b"P5\n64 64\n255\n")
    assert len(data) == len(b"P5\n64 64\n255\n") + 64 * 64
    assert vmin == float(f.values.min())
    assert vmax == float(f.values.max())


def test_pgm_requires_2d(tmp_path):
    g = make_grid(3, (0, 0, 0), (1, 1, 1), (4, 4, 4))
    with pytest.raises(InvalidArgumentError):
        write_pgm(tmp_path / "f.pgm", constant_field(g, 1.0))
