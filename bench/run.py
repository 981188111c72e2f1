"""End-to-end benchmark of the kzquench CLI, with per-layer times when traced.

Usage, from the repository root:

    python3 bench/run.py --workload sweep_roundtrip --seed 1 --seconds 40 --trace 0

Every round runs the workload's ``kzquench`` command in a fresh child process
(``bench/child.py``), one at a time, with the package from ``src/``, its
output in a temporary directory under ``bench/.work`` and the run pinned to
one thread.  The parent checks each round's outputs, then prints one line per
metric and, last, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0  end-to-end metrics, medians over the rounds:
           wall_s       command start to ``cli.main`` return, plus the sweep's fit
           cpu_s        user + system CPU of the child process
           setup_s      child spawn to command start (interpreter, imports,
                        config load and check), over set-up probes and rounds
           peak_rss_mb  peak resident memory of the child
--trace 1  per-layer metrics from traced rounds, each paired with an untraced
           one to measure the tracing overhead; the spans are written to
           ``bench/out/trace-<workload>-seed<seed>.json``.

Rounds start while the next one is expected to end within ``--seconds``; at
least one (one pair when traced) always runs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import tracing  # noqa: E402
from workloads import ROUND_TRIP_PERIOD, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150.0
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"evolver.evolve_s": "s", "evolver.calls": "count", "evolver.steps": "count",
               "evolver.magnus_applies": "count", "evolver.mode_steps": "count",
               "evolver.us_per_mode_apply": "us",
               "quadrature.panels_s": "s", "quadrature.nodes": "count",
               "correlators.transform_s": "s", "correlators.transform_elems": "count",
               "correlators.closed_s": "s",
               "edoracle.evolve_s": "s", "edoracle.ground_state_s": "s",
               "edoracle.measure_s": "s", "edoracle.calls": "count",
               "protocol.build_s": "s", "closedform.s": "s", "closedform.calls": "count",
               "analysis.fit_s": "s", "cli.self_s": "s", "trace.overhead_s": "s"}


class HarnessError(RuntimeError):
    """The benchmark could not run a round; no result is printed."""


def child_env(src):
    """The parent's environment, one thread (set above), no worker fan-out, and
    bytecode caching on, so set-up times the cached import a user sees."""
    env = dict(os.environ)
    env.pop("KZQUENCH_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = src
    return env


def run_child(root, workdir, workload, inp, mode, tag):
    """Run one child in its own directory; returns (result dict, rusage, prefix)."""
    rdir = os.path.join(workdir, tag)
    os.mkdir(rdir)
    prefix = os.path.join(rdir, "out")
    spec = {"argv": [a for s in inp["sets"] for a in ("--set", s)]
            + ["--set", "output.prefix=" + prefix, workload.command],
            "mode": mode, "src": os.path.join(root, "src"), "prefix": prefix,
            "fit_period": ROUND_TRIP_PERIOD, "result": os.path.join(rdir, "result.json")}
    spec_path = os.path.join(rdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    err_path = os.path.join(rdir, "stderr.txt")
    with open(err_path, "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                cwd=root, env=child_env(spec["src"]),
                                stdout=subprocess.DEVNULL, stderr=err)
        status, usage = _wait(proc)
    if status != 0 or not os.path.exists(spec["result"]):
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        raise HarnessError("%s child for %s exited with %d:\n%s"
                           % (mode, workload.name, status, tail))
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if result["t_cmd"] is None:
        raise HarnessError("%s never started its work: exit code %r"
                           % (workload.command, result.get("rc")))
    result["setup_s"] = result["t_cmd"] - t_spawn
    return result, usage, prefix


def _wait(proc):
    """Reap the child with its resource usage; kill it past CHILD_TIMEOUT_S."""
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed:
        raise HarnessError("child killed after %.0f s" % CHILD_TIMEOUT_S)
    return proc.returncode, usage


def check_round(workload, prefix, inp, ref, result):
    """(operations attempted, problems); unreadable output fails every operation."""
    ops = workload.operations(inp)
    try:
        return ops, workload.check(prefix, inp, ref, result)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return ops, ["output of %s unreadable: %r" % (workload.command, exc)] * ops


def run(workload, seed, seconds, trace, root):
    inp = workload.inputs(seed)
    ref = workload.reference(inp)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        return _rounds(workload, seed, seconds, trace, root, workdir, inp, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _rounds(workload, seed, seconds, trace, root, workdir, inp, ref):
    n = [0]

    def child(mode):
        n[0] += 1
        return run_child(root, workdir, workload, inp, mode, "%s-%d" % (mode, n[0]))

    child("probe")   # warm-up: bytecode and file caches
    setups = [] if trace else [child("probe")[0]["setup_s"] for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if trace else ("run",)
    samples = {m: [] for m in modes}
    attempted = failed = 0
    problems = []
    t0 = time.monotonic()
    while True:
        t_round = time.monotonic()
        for mode in modes:
            result, usage, prefix = child(mode)
            ops, bad = check_round(workload, prefix, inp, ref, result)
            attempted += ops
            failed += min(len(bad), ops)
            problems += bad
            samples[mode].append((result, usage))
            print("round %d %-5s wall %.4f s  cpu %.4f s  setup %.4f s  %d ops, %d failed"
                  % (len(samples[mode]), mode, result["wall_s"], usage.ru_utime + usage.ru_stime,
                     result["setup_s"], ops, len(bad)), flush=True)
            if mode == "run":
                setups.append(result["setup_s"])
        elapsed = time.monotonic() - t0
        if elapsed + (time.monotonic() - t_round) > seconds:
            break
    walls = [r["wall_s"] for r, _ in samples["run"]]
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(u.ru_utime + u.ru_stime for _, u in samples["run"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(u.ru_maxrss / 1024.0 for _, u in samples["run"]),
        }
        units = UNITS
    else:
        per_round = [tracing.layer_metrics(r["spans"], r["counts"])
                     for r, _ in samples["trace"]]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        traced_walls = [r["wall_s"] for r, _ in samples["trace"]]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = LAYER_UNITS
        _write_trace(workload, seed, inp, samples["trace"], per_round, walls)
    for p in problems:
        print("CHECK FAILED %s: %s" % (workload.name, p))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def _write_trace(workload, seed, inp, traced, per_round, untraced_walls):
    """Spans and per-round layer metrics of the traced rounds, as JSON."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    rounds = []
    for (result, _), metrics in zip(traced, per_round):
        rounds.append({"wall_s": result["wall_s"],
                       "layer_self_sum_s": sum(tracing.self_times(result["spans"])),
                       "metrics": metrics,
                       "spans": [dict(zip(("name", "layer", "start", "end", "parent"), s))
                                 for s in result["spans"]]})
    path = os.path.join(out_dir, "trace-%s-seed%d.json" % (workload.name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "inputs": inp["sets"],
                   "untraced_wall_s": untraced_walls, "rounds": rounds}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kzquench", "cli.py")):
        print("bench: no kzquench package under %s; run from the repository root" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root)
    except HarnessError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    for name, m in out["metrics"].items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("operations attempted %d, failed %d" % (out["attempted"], out["failed"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
