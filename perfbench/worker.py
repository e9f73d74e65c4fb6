"""One benchmark child process: import lumitomo, signal ready, run one CLI call.

Started by run.py with the thread-count variables and PYTHONPATH (the
checkout's `src`) already in its environment, so numpy's BLAS sees them
when it loads.  argv[1] is a JSON spec.  The child prints `ready` once
`lumitomo` is imported (the parent times set-up up to that line); in `run`
mode it then times
`lumitomo.cli.main(argv)`, reads every written `.ltf` file back outside the
timed region, and prints one JSON result line.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _report(outdir):
    path = os.path.join(outdir, "report.txt")
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, val = line.partition(" = ")
            if sep:
                out[key] = val.rstrip("\n")
    return out


def _read_back(outdir, report):
    """Finite-value flag per .ltf file and masked error per reconstruction."""
    import numpy as np
    from lumitomo import ltfio
    from lumitomo.algebraic import relative_error

    files = {}
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".ltf"):
            continue
        path = os.path.join(outdir, name)
        if name == "sinogram.ltf":
            values = ltfio.read_sinogram(path).values
        else:
            values = ltfio.read_field(path).values
        files[name[:-4]] = bool(np.all(np.isfinite(values)))
    errors = {}
    truth = ltfio.read_field(os.path.join(outdir, "truth.ltf"))
    eps_bg = float(report["config.error.eps_bg"])
    for name in files:
        if name.startswith("recon_"):
            recon = ltfio.read_field(os.path.join(outdir, f"{name}.ltf"))
            errors[name[len("recon_"):]] = relative_error(truth, recon,
                                                          eps_bg)[1]
    return files, errors


def main():
    spec = json.loads(sys.argv[1])
    import lumitomo.cli
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)

    result = {"rc": None, "error": None}
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            result["rc"] = lumitomo.cli.main(spec["argv"])
    except (Exception, SystemExit):
        result["error"] = traceback.format_exc(limit=-3)
    result["run_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    spans = list(tracer.spans) if tracer else None
    result["output_tail"] = captured.getvalue()[-2000:]

    if result["rc"] == 0:
        try:
            outdir = spec["outdir"]
            result["report"] = _report(outdir)
            result["files"], result["errors"] = _read_back(outdir,
                                                           result["report"])
            if tracer:
                # spans of the read-back above are left out
                tracer.spans = spans
                result["layers"] = tracing.layer_metrics(spans)
                tracer.dump(spec["trace_path"])
        except Exception:
            result["error"] = traceback.format_exc(limit=-3)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
