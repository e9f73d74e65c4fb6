"""Command-line interface.

Verbs: phantom, weight, scan, reconstruct, check-stability, run-xmlt,
run-xlct.  Each accepts --config <path> and repeated --set key=value
overrides.  Exit codes: 0 success; 2 invalid config or arguments, a file
that cannot be read or written, and any other toolkit error; 3 stability
violation (a cone set with invisible directions, refused when the
multiplier runs); 4 solver failure or a linear map failing its dot test.

Each verb runs the `lumitomo.pipeline` function of its name (dashes become
underscores).  LUMITOMO_THREADS is applied by `import lumitomo`.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lumitomo",
        description="Simulation and reconstruction for modulated luminescent "
                    "tomography (cone- and line-excitation variants).")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("phantom", "weight", "scan", "reconstruct",
                 "check-stability", "run-xmlt", "run-xlct"):
        p = sub.add_parser(verb)
        p.add_argument("--config", default=None, help="path to key=value config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")
        p.add_argument("-o", "--output-dir", default=None,
                       help="override run.output_dir")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # imported here so that `import lumitomo.cli` costs no more than `lumitomo`
    import numpy as np
    from . import pipeline
    from .config import load_config
    from .errors import (ConfigError, InvalidArgumentError,
                         InvalidOperatorError, LumitomoError,
                         SolverFailureError, StabilityViolationError)

    try:
        cfg = load_config(args.config, args.overrides)
        if args.output_dir:
            cfg["run.output_dir"] = args.output_dir
        # overflow or 0/0 on extreme config values is refused by the finite
        # checks; numpy's warnings would only precede the one-line error
        with np.errstate(all="ignore"):
            report = getattr(pipeline, args.verb.replace("-", "_"))(cfg)
        if args.verb == "check-stability":
            for key in sorted(report):
                print(f"{key} = {report[key]}")
            return 0
        for key in ("error.multiplier.absolute", "error.lsqr.absolute",
                    "error.fbp.absolute", "stability.margin",
                    "wall_clock_seconds"):
            if key in report:
                print(f"{key} = {report[key]}")
        for key in sorted(k for k in report if k.startswith("wall_clock.")):
            print(f"{key} = {report[key]}")
        print(f"outputs written to {cfg['run.output_dir']}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidArgumentError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 2
    except StabilityViolationError as exc:
        print(f"stability violation: {exc}", file=sys.stderr)
        return 3
    except (SolverFailureError, InvalidOperatorError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except LumitomoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
