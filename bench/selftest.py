"""Self-test of the benchmark's correctness checks.

Usage, from the repository root:  python3 bench/selftest.py

Runs every workload once at a reduced size (looser solver tolerance, fewer
tau values, N = 4 for validate), requires its checks to accept the real
output, then corrupts that output one way at a time and requires the checks
to reject each corruption.  A check that cannot fail would prove nothing.
Exits with 1 if any case goes the wrong way.
"""

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import SWEEP_TOL, WORKLOADS


def _edit_csv(path, column, edit):
    """Rewrite one CSV column through ``edit(values) -> values``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    j = body[0].index(column)
    values = edit([float(row[j]) for row in body[1:]])
    for row, v in zip(body[1:], values):
        row[j] = repr(float(v))
    with open(path, "w") as fh:
        fh.write("\n".join(comments + [",".join(row) for row in body]) + "\n")


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _bump_row(i, amount):
    def edit(values):
        values[i] += amount
        return values
    return edit


def _first_check(prefix, key, amount):
    def edit(doc):
        c = next(c for c in doc["checks"] if c["name"].startswith(key))
        field = next(iter(k for k in c["detail"] if k in ("n_ed", "kinks_ed", "parity")))
        c["detail"][field] += amount
    return lambda: _edit_json(prefix + "_validate.json", edit)


def corruptions(name, prefix, inp, ref, result):
    """(label, function that corrupts the output in place) for one workload."""
    if name == "sweep_roundtrip":
        csv = prefix + "_sweep.csv"
        return [
            ("n_numeric row 3 moved by 1.5x the tolerance",
             lambda: _edit_csv(csv, "n_numeric", _bump_row(3, 1.5 * SWEEP_TOL * ref[1]))),
            ("fitted period 5% off",
             lambda: result["fit"].update(period=result["fit"]["period"] * 1.05)),
        ]
    if name == "correlator_curves":
        tag = ("%g" % inp["taus"][-1]).replace(".", "p")
        csv = "%s_correlator_tau%s.csv" % (prefix, tag)
        return [
            ("Czz_quadrature column scaled by 1.25",
             lambda: _edit_csv(csv, "Czz_quadrature", lambda v: [1.25 * x for x in v])),
            ("C_zz(0) sign flipped",
             lambda: _edit_csv(csv, "Czz_quadrature", lambda v: [-v[0]] + v[1:])),
        ]
    return [
        ("ED density moved by 2e-6 (tolerance 1e-6)",
         _first_check(prefix, "ed_vs_bdg_roundtrip", 2e-6)),
        ("ED kink density moved by 2e-6",
         _first_check(prefix, "ed_vs_bdg_reversed", 2e-6)),
        ("parity off by 1e-8 (tolerance 1e-9)", _first_check(prefix, "parity", 1e-8)),
        ("all_passed set to false",
         lambda: _edit_json(prefix + "_validate.json",
                            lambda d: d.update(all_passed=False))),
    ]


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.HERE, ".work"))
    bad = 0
    try:
        for name, w in WORKLOADS.items():
            inp = w.inputs(seed=1, reduced=True)
            ref = w.reference(inp)
            result, _, prefix = run.run_child(root, workdir, w, inp, "run", name)
            ops, problems = run.check_round(w, prefix, inp, ref, result)
            ok = ops > 0 and not problems
            bad += not ok
            print("%s %s: real output, %d operations, %d rejected %s"
                  % ("ok  " if ok else "FAIL", name, ops, len(problems), problems))
            pristine = os.path.join(workdir, name + "-pristine")
            shutil.copytree(os.path.dirname(prefix), pristine)
            for label, corrupt in corruptions(name, prefix, inp, ref, result):
                saved = json.loads(json.dumps(result))
                corrupt()
                _, problems = run.check_round(w, prefix, inp, ref, result)
                ok = bool(problems)
                bad += not ok
                print("%s %s: %s -> %s" % ("ok  " if ok else "FAIL", name, label,
                                           "; ".join(problems) or "ACCEPTED"))
                shutil.rmtree(os.path.dirname(prefix))
                shutil.copytree(pristine, os.path.dirname(prefix))
                result.clear()
                result.update(saved)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest %s" % ("passed" if not bad else "FAILED (%d cases)" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
