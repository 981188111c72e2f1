"""One benchmark round in its own process: run ``kzquench.cli.main`` once.

Usage: python3 bench/child.py SPEC.json

SPEC holds the CLI arguments, the mode and where to write the result:
  probe  stop as soon as the command would begin its work (set-up only);
  run    run the command, then the sweep's period fit, untraced;
  trace  the same with spans around every layer's public functions.
The result JSON holds the monotonic time at which the command began its
work, the command's wall time (plus the fit), the fit and, when traced, the
spans and counts.
"""

import json
import math
import os
import sys
import time


class _Probe(Exception):
    """Raised where the command would begin its work, to end a probe."""


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import tracing

    import kzquench
    from kzquench import cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(kzquench.__file__).startswith(src + os.sep):
        print("kzquench imported from %s, not from %s" % (kzquench.__file__, src),
              file=sys.stderr)
        return 4
    mode = spec["mode"]
    tracer = tracing.Tracer()
    if mode == "trace":
        tracing.install(tracer)
    command = spec["argv"][-1]
    cmd_name = "cmd_" + command
    original = getattr(cli, cmd_name)
    mark = {}

    def started(cfg):
        mark["t_cmd"] = time.monotonic()
        if mode == "probe":
            raise _Probe
        if mode == "trace":
            tracer.armed = True
            tracer.open(cmd_name, "cli")
        return original(cfg)

    setattr(cli, cmd_name, started)
    out = {"mode": mode}
    try:
        rc = cli.main(spec["argv"])
    except _Probe:
        out["t_cmd"] = mark["t_cmd"]
        _write(spec["result"], out)
        return 0
    t_end = time.monotonic()
    if tracer.armed:
        tracer.close()
    out.update(rc=rc, t_cmd=mark.get("t_cmd"))
    fit_s = 0.0
    if command == "sweep" and rc == 0:
        out["fit"], fit_s = _fit_period(spec["prefix"] + "_sweep.csv", spec["fit_period"])
    out["wall_s"] = t_end - mark["t_cmd"] + fit_s if "t_cmd" in mark else None
    if mode == "trace":
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    _write(spec["result"], out)
    return 0


def _fit_period(csv_path, expected):
    """Fit the sweep's oscillation period with analysis.fit_oscillation; timed."""
    from kzquench import analysis
    import numpy as np

    t0 = time.monotonic()
    rows = read_csv(csv_path)
    sweep = analysis.Sweep(np.array(rows["tau_Q"]), np.array(rows["n_numeric"]))
    try:
        fit = analysis.fit_oscillation(sweep, expected)
        result = {"period": fit.period, "rel_residual": fit.rel_residual}
    except (analysis.FitFailure, analysis.InsufficientData) as exc:
        result = {"period": math.nan, "error": str(exc)}
    return result, time.monotonic() - t0


def read_csv(path):
    """Columns of a kzquench CSV by header name, as floats."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(float(v))
    return cols


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
