"""Round trips and validation for the on-disk containers."""

import numpy as np
import pytest

from lumitomo.diffusion import BoundaryField, boundary_face_count
from lumitomo.errors import InvalidArgumentError
from lumitomo.excitation import Aperture, ConeScanData, Sinogram
from lumitomo.fields import ScalarField, make_grid
from lumitomo.ltfio import (read_boundary_field, read_field, read_scan,
                            read_sinogram, write_boundary_field, write_field,
                            write_pgm, write_scan, write_sinogram)

from conftest import two_bump_phantom


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


def test_boundary_round_trip(tmp_path, grid64):
    vals = np.random.default_rng(1).uniform(0.1, 2.0,
                                            boundary_face_count(grid64))
    bf = BoundaryField(grid64, vals)
    p = tmp_path / "b.ltf"
    write_boundary_field(p, bf)
    back = read_boundary_field(p)
    assert back.grid == grid64
    assert np.array_equal(back.values, vals)


def test_variant_mismatch_rejected(tmp_path, grid64):
    f = two_bump_phantom(grid64)
    p = tmp_path / "f.ltf"
    write_field(p, f)
    with pytest.raises(InvalidArgumentError):
        read_boundary_field(p)
    with pytest.raises(InvalidArgumentError):
        read_sinogram(p)
    b = tmp_path / "b.ltf"
    write_boundary_field(b, BoundaryField.constant(grid64, 1.0))
    with pytest.raises(InvalidArgumentError):
        read_field(b)


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


def test_scan_file_name_with_whitespace_rejected(tmp_path, grid64):
    ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
    scan = ConeScanData(grid64, [two_bump_phantom(grid64)], [ap])
    with pytest.raises(InvalidArgumentError):
        write_scan(tmp_path / "scan.txt", str(tmp_path / "my scan"), scan)


def test_scan_v1_manifest_resolves_against_working_directory(
        tmp_path, grid64, monkeypatch):
    ap = Aperture(dim=2, axis=(1.0, 0.0), half_angle=0.5)
    scan = ConeScanData(grid64, [two_bump_phantom(grid64)], [ap])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    manifest = tmp_path / "sub" / "scan.txt"
    write_scan(manifest, "sub/scan", scan)
    text = manifest.read_text()
    assert text.startswith("LTSCAN v2\ncone file=scan_cone00.ltf ")
    manifest.write_text(text.replace("LTSCAN v2", "LTSCAN v1")
                            .replace("file=", "file=sub/"))
    back = read_scan(manifest)
    assert np.array_equal(back.fields[0].values, scan.fields[0].values)


def test_scan_bad_manifest(tmp_path):
    p = tmp_path / "scan.txt"
    p.write_text("LTSCAN v1\nblob file=nope.ltf\n")
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
        write_pgm(tmp_path / "f.pgm", ScalarField.full(g, 1.0))
