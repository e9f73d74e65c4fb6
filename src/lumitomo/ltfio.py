"""LTFIELD container I/O.

Every file starts with one ASCII header line

    LTFIELD v1 dim=<d> cells=<n1,...> origin=<o1,...> extent=<e1,...>

followed by a newline and the row-major little-endian float64 payload.
A sinogram file adds the header token sinogram=1 and carries explicit
angles=<...> and offsets=<...> tables instead of a grid.

Floats in headers are written with repr-precision so that a read/write
round trip is bit-exact.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InvalidArgumentError
from .fields import Grid, ScalarField, make_grid
from .excitation import Aperture, ConeScanData, Sinogram

_MAGIC = "LTFIELD v1"
# the keys of a scan manifest's noise line, by noise.kind
_NOISE_KEYS = {"none": {"noise.kind"},
               "poisson": {"noise.kind", "noise.photons"}}


def _fmt_floats(values):
    return ",".join(format(float(x), ".17g") for x in values)


def _parse_floats(text):
    return tuple(float(x) for x in text.split(","))


def _grid_tokens(grid: Grid):
    return (f"dim={grid.dim} cells={','.join(str(n) for n in grid.cells)} "
            f"origin={_fmt_floats(grid.origin)} extent={_fmt_floats(grid.extent)}")


def _parse_header(line):
    parts = line.strip().split()
    if parts[:2] != ["LTFIELD", "v1"]:
        raise InvalidArgumentError("not an LTFIELD v1 file")
    tokens = {}
    for p in parts[2:]:
        key, _, val = p.partition("=")
        tokens[key] = val
    return tokens


def _grid_from_tokens(tokens):
    try:
        return make_grid(int(tokens["dim"]), _parse_floats(tokens["origin"]),
                         _parse_floats(tokens["extent"]),
                         tuple(int(x) for x in tokens["cells"].split(",")))
    except (KeyError, ValueError) as err:
        raise InvalidArgumentError(f"bad LTFIELD grid header: {err!r}") from err


def _shaped(path, payload, shape):
    # an exact integer product: a numpy product of header sizes can wrap
    if payload.size != math.prod(shape):
        raise InvalidArgumentError(
            f"{path} holds {payload.size} values; its header needs {shape}")
    return payload.reshape(shape)


def _write(path, header, payload):
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(payload, dtype="<f8").tobytes())


def _read(path):
    with open(path, "rb") as fh:
        raw_header = fh.readline()
        raw = fh.read()
    try:
        header = raw_header.decode("ascii")
    except UnicodeDecodeError as err:
        raise InvalidArgumentError(f"{path} is not an LTFIELD file") from err
    tokens = _parse_header(header)
    if len(raw) % 8 != 0:
        raise InvalidArgumentError(f"{path} has a truncated payload")
    return tokens, np.frombuffer(raw, dtype="<f8")


def write_field(path, field: ScalarField):
    _write(path, f"{_MAGIC} {_grid_tokens(field.grid)}", field.values)


def read_field(path) -> ScalarField:
    """Read a plain field; a header with a variant token (sinogram=1, or
    the boundary=1 of earlier versions) is refused."""
    tokens, payload = _read(path)
    if "boundary" in tokens or "sinogram" in tokens:
        raise InvalidArgumentError(f"{path} is not a plain field file")
    grid = _grid_from_tokens(tokens)
    return ScalarField(grid, _shaped(path, payload, grid.cells))


def write_sinogram(path, sino: Sinogram):
    header = (f"{_MAGIC} sinogram=1 angles={_fmt_floats(sino.angles)} "
              f"offsets={_fmt_floats(sino.offsets)}")
    _write(path, header, sino.values)


def read_sinogram(path) -> Sinogram:
    tokens, payload = _read(path)
    if tokens.get("sinogram") != "1":
        raise InvalidArgumentError(f"{path} is not a sinogram file")
    try:
        angles = np.array(_parse_floats(tokens["angles"]))
        offsets = np.array(_parse_floats(tokens["offsets"]))
    except (KeyError, ValueError) as err:
        raise InvalidArgumentError(f"bad sinogram header in {path}: {err!r}") from err
    return Sinogram(angles, offsets,
                    _shaped(path, payload, (angles.size, offsets.size)))


def write_scan(manifest_path, prefix, scan: ConeScanData):
    """Write one LTFIELD per cone plus a text manifest of the apertures;
    the manifest names cone files relative to its own directory (v2) and,
    when the scan records its noise, starts with a `noise` line (v3)."""
    lines = ["LTSCAN v2"]
    if scan.noise is not None:
        lines = ["LTSCAN v3", "noise " + " ".join(
            f"{key.partition('.')[2]}={val}" for key, val in scan.noise.items())]
    for j, (fld, ap) in enumerate(zip(scan.fields, scan.apertures)):
        fname = f"{prefix}_cone{j:02d}.ltf"
        rel = os.path.relpath(fname, os.path.dirname(manifest_path) or ".")
        if any(c.isspace() for c in rel):
            raise InvalidArgumentError(f"scan file name {rel!r} has whitespace")
        write_field(fname, fld)
        lines.append(
            f"cone file={rel} axis={_fmt_floats(ap.axis)} "
            f"half_angle={ap.half_angle:.17g} taper_width={ap.taper_width:.17g} "
            f"amplitude={ap.amplitude:.17g}")
    with open(manifest_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_scan(manifest_path) -> ConeScanData:
    """Read a v2 or v3 scan manifest: cone files resolve against the
    manifest's directory, and only v3 records the noise, as `noise.<key>`
    config values.  A v1 manifest, whose files resolved against the
    working directory, is refused."""
    try:
        with open(manifest_path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as err:
        raise InvalidArgumentError(
            f"{manifest_path} is not a text manifest: {err}") from None
    if lines[:1] == ["LTSCAN v1"]:
        raise InvalidArgumentError(
            f"{manifest_path} is an LTSCAN v1 manifest, which is no longer "
            "read; re-run `scan`")
    if not lines or lines[0] not in ("LTSCAN v2", "LTSCAN v3"):
        raise InvalidArgumentError(f"{manifest_path} is not a scan manifest")
    header, body = lines[0], lines[1:]
    base = os.path.dirname(manifest_path)
    noise = None
    if header == "LTSCAN v3":
        tokens = body.pop(0).split() if body else []
        noise = {f"noise.{key}": val for key, _, val in
                 (p.partition("=") for p in tokens[1:])}
        if (tokens[:1] != ["noise"]
                or set(noise) != _NOISE_KEYS.get(noise.get("noise.kind"))):
            raise InvalidArgumentError(f"{manifest_path} has no valid noise line")
    fields, apertures = [], []
    for ln in body:
        if not ln.startswith("cone "):
            raise InvalidArgumentError(f"bad manifest line: {ln!r}")
        tokens = dict(p.partition("=")[::2] for p in ln.split()[1:])
        try:
            fld = read_field(os.path.join(base, tokens["file"]))
            apertures.append(Aperture(
                dim=fld.grid.dim, axis=_parse_floats(tokens["axis"]),
                half_angle=float(tokens["half_angle"]),
                taper_width=float(tokens["taper_width"]),
                amplitude=float(tokens["amplitude"])))
        except (KeyError, ValueError) as err:
            raise InvalidArgumentError(f"bad manifest line {ln!r}: {err!r}") from err
        fields.append(fld)
    if not fields:
        raise InvalidArgumentError("manifest lists no cones")
    return ConeScanData(fields[0].grid, fields, apertures, noise)


def write_pgm(path, field: ScalarField):
    """8-bit binary PGM rendering, linear from the field's minimum to its
    maximum.

    Returns those (vmin, vmax) bounds so they can be recorded.
    """
    if field.grid.dim != 2:
        raise InvalidArgumentError("PGM rendering requires a 2D field")
    vals = field.values
    vmin, vmax = float(vals.min()), float(vals.max())
    span = vmax - vmin if vmax > vmin else 1.0
    img = np.clip((vals - vmin) / span * 255.0, 0, 255).astype(np.uint8)
    # transpose so x runs along image columns, y up
    img = img.T[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
    return vmin, vmax
