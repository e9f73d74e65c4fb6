"""Flat key = value run configuration.

The format is plain text, one `key = value` per line, with dotted section
prefixes (e.g. `medium.mu_a = 0.05`) and `#` comments.  Every key has a
default; the resolved configuration (defaults included) is echoed into the
run report so no silent default can hide.  Only this module reads the
strings: a verb parses every key once, into a `Settings`, before its first
stage.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError
from .fields import (MAX_GRID_CELLS, OpticalMedium, PhantomSpec,
                     derived_optics, make_grid, robin_coefficient)
from .excitation import Aperture
from .fbp import FbpFilter

DEFAULTS = {
    "grid.dim": "2",
    "grid.origin": "-10,-10",
    "grid.extent": "20,20",
    "grid.cells": "128,128",
    "medium.mu_a": "0.05",
    "medium.mu_s": "15.0",
    "medium.g": "0.9",
    "medium.refractive_index": "1.37",
    "medium.D": "",            # set to override the derived value
    "medium.A": "",            # set to override the refractive-index fit
    "phantom.background": "0.0",
    "phantom.inclusions": "2.5,2.5,1.0,5.0; 3.5,0.0,1.0,10.0",
    "boundary.h": "1.0",
    "cones.count": "10",
    "cones.start_deg": "0.0",
    "cones.half_angle_deg": "19.2",
    "cones.taper_frac": "0.15",
    "cones.amplitude": "1.0",
    "xray.n_angles": "180",
    "xray.n_offsets": "256",
    "noise.kind": "none",
    "noise.photons": "1e6",
    "recon.method": "multiplier",
    "recon.eps": "1e-3",
    "recon.filter": "ramp-hann",
    "recon.cutoff": "0.9",
    "recon.lsqr_iters": "200",
    "recon.lsqr_atol": "1e-8",
    "recon.nonneg": "true",
    "error.eps_bg": "0.5",
    "run.seed": "12345",
    "run.output_dir": "out",
    "run.spot_checks": "9",
    "run.force_pseudo": "false",
}


def parse_config_text(text):
    """Parse `key = value` lines into a dict (later keys win)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def load_config(path=None, overrides=None):
    """Resolve defaults, an optional config file, and --set overrides."""
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config file {path}: "
                              f"{getattr(err, 'strerror', None) or err}") from None
        cfg.update(parse_config_text(text))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, val = item.partition("=")
        cfg[key.strip()] = val.strip()
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _number(text, key, kind=float, low=None, strict=False):
    """One finite number of config `key`, at least `low` (above it when
    `strict`) unless low is None; ConfigError otherwise."""
    try:
        val = kind(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if kind is float and not np.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    if low is None or val > low or (val == low and not strict):
        return val
    raise ConfigError(f"{key} must be {'>' if strict else '>='} {low}, "
                      f"got {text}")


def _float(cfg, key, low=None, strict=False):
    return _number(cfg[key], key, float, low, strict)


def _int(cfg, key, low=None):
    return _number(cfg[key], key, int, low)


def _floats(text, key):
    return tuple(_number(x, key) for x in text.split(","))


def _bool(cfg, key):
    val = cfg[key].strip().lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {cfg[key]!r}")


def build_grid(cfg):
    try:
        return make_grid(_int(cfg, "grid.dim"),
                         _floats(cfg["grid.origin"], "grid.origin"),
                         _floats(cfg["grid.extent"], "grid.extent"),
                         tuple(_number(x, "grid.cells", int)
                               for x in cfg["grid.cells"].split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec: {exc}") from exc


def build_medium(cfg):
    try:
        mu_a = _float(cfg, "medium.mu_a")
        if cfg["medium.D"]:
            D = _float(cfg, "medium.D")
        else:
            _, D = derived_optics(mu_a, _float(cfg, "medium.mu_s"),
                                  _float(cfg, "medium.g"))
        if cfg["medium.A"]:
            A = _float(cfg, "medium.A")
        else:
            A = robin_coefficient(_float(cfg, "medium.refractive_index"))
        return OpticalMedium(mu_a=mu_a, D=D, A=A)
    except ValueError as exc:
        raise ConfigError(f"bad medium spec: {exc}") from exc


def build_phantom_spec(cfg, grid):
    dim = grid.dim
    text = cfg["phantom.inclusions"].strip()
    inclusions = []
    if text:
        for item in text.split(";"):
            vals = _floats(item, "phantom.inclusions")
            if len(vals) != dim + 2:
                raise ConfigError(
                    f"inclusion needs {dim + 2} numbers (center, radius, "
                    f"concentration), got {item.strip()!r}")
            if not grid.contains(vals[:dim]):
                raise ConfigError(
                    f"inclusion center {vals[:dim]} lies outside the grid")
            inclusions.append((vals[:dim], vals[dim], vals[dim + 1]))
    return PhantomSpec(background=_float(cfg, "phantom.background"),
                       inclusions=tuple(inclusions))


# The largest cones.count.  Grouping a cone set into its distinct double
# cones is vectorized (0.08 s for 1000 2D cones, one thread); what the
# bound limits is the memory of runs with LSQR (recon.method both or
# lsqr), whose cone operator holds one half spectrum per distinct cone on
# the doubled grid, 0.26 MB at 128^2 and 8.5 MB at 64^3: 1000 cones (500
# distinct) hold 130 MB of spectra in 2D, and on large 3D grids the
# spectra of far fewer cones exceed the memory of a small machine.  The
# scan of a multiplier-only run, and the `scan` verb, build one spectrum
# at a time, so there the cone count costs time, not memory.
MAX_CONES = 1000


def build_apertures(cfg, dim):
    """Cone set with axes fanned in the xy-plane from start_deg."""
    count = _int(cfg, "cones.count", 1)
    if count > MAX_CONES:
        raise ConfigError(f"cones.count must be <= {MAX_CONES}, got {count}")
    start = np.deg2rad(_float(cfg, "cones.start_deg"))
    half = np.deg2rad(_float(cfg, "cones.half_angle_deg"))
    taper = _float(cfg, "cones.taper_frac") * half
    amp = _float(cfg, "cones.amplitude")
    apertures = []
    for j in range(count):
        ang = start + j * (2.0 * np.pi / count)
        axis = (np.cos(ang), np.sin(ang)) if dim == 2 else \
            (np.cos(ang), np.sin(ang), 0.0)
        apertures.append(Aperture(dim=dim, axis=axis, half_angle=half,
                                  taper_width=taper, amplitude=amp))
    return apertures


class Settings:
    """The values of a resolved config `cfg`, every key parsed and
    range-checked whatever the verb reads (`text` keeps the strings); with
    `inverts`, also the settings of the methods that recon.method runs."""

    def __init__(self, cfg, inverts=False):
        self.text = dict(cfg)
        self.grid = build_grid(cfg)
        self.phantom = build_phantom_spec(cfg, self.grid)
        self.medium = build_medium(cfg)
        self.boundary_h = _float(cfg, "boundary.h", 0, strict=True)
        self.apertures = build_apertures(cfg, self.grid.dim)
        self.spot_checks = _int(cfg, "run.spot_checks", 1)
        kind = cfg["noise.kind"]
        if kind not in ("none", "poisson"):
            raise ConfigError(f"noise.kind must be none|poisson, got {kind!r}")
        photons = _float(cfg, "noise.photons", 0, strict=True)
        self.photons = photons if kind == "poisson" else None
        self.seed = _int(cfg, "run.seed", 0)
        self.method = cfg["recon.method"]
        if self.method not in ("multiplier", "lsqr", "both"):
            raise ConfigError("recon.method must be multiplier|lsqr|both, "
                              f"got {self.method!r}")
        multiplier = inverts and self.method != "lsqr"
        lsqr = inverts and self.method != "multiplier"
        self.eps = _float(cfg, "recon.eps", 0 if multiplier else None)
        self.lsqr_iters = _int(cfg, "recon.lsqr_iters", 1 if lsqr else None)
        self.lsqr_atol = _float(cfg, "recon.lsqr_atol", 0 if lsqr else None)
        self.nonneg = _bool(cfg, "recon.nonneg")
        self.force_pseudo = _bool(cfg, "run.force_pseudo")
        self.eps_bg = _float(cfg, "error.eps_bg", 0)
        self.n_angles = _int(cfg, "xray.n_angles", 8)
        self.n_offsets = _int(cfg, "xray.n_offsets", 2)
        # the sinogram and FBP's padded profiles hold one value per line:
        # bounded as a field's cells are (512 MiB of float64)
        if self.n_angles * self.n_offsets > MAX_GRID_CELLS:
            raise ConfigError(
                f"xray.n_angles * xray.n_offsets must be <= {MAX_GRID_CELLS}, "
                f"got {self.n_angles} * {self.n_offsets}")
        try:
            self.fbp_filter = FbpFilter(kind=cfg["recon.filter"],
                                        cutoff=_float(cfg, "recon.cutoff"))
        except ValueError as exc:
            raise ConfigError(f"bad recon.filter or recon.cutoff: {exc}") from exc
        self.output_dir = cfg["run.output_dir"]

    @property
    def noise_record(self):
        """The noise.* strings that a scan records in its manifest."""
        return ({"noise.kind": "none"} if self.photons is None else
                {"noise.kind": "poisson", "noise.photons": f"{self.photons:.17g}"})

    def use_recorded_noise(self, record):
        """Take the noise that a scan records (its manifest's `noise_record`,
        None for none): noise.kind=none, the default, defers to it; any
        other noise config must agree with it (ConfigError otherwise)."""
        if record is None:
            return
        photons = (_float(record, "noise.photons", 0, strict=True)
                   if record["noise.kind"] == "poisson" else None)
        if self.photons not in (None, photons):
            raise ConfigError(
                f"noise.kind={self.text['noise.kind']} noise.photons="
                f"{self.text['noise.photons']} contradicts the scan manifest's "
                + " ".join(f"{k}={v}" for k, v in record.items()))
        self.photons = photons
        self.text.update(record)


def derive_seed(base_seed, stream_name):
    """Deterministic per-stream seed: SeedSequence(base, crc32(name))."""
    tag = zlib.crc32(stream_name.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(tag,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
