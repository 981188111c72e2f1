import contextlib
import errno
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzquench
from kzquench import cli, closedform, correlators, edoracle, evolver, protocol, quadrature


def child_env(**extra):
    """Environment for a CLI child process that runs in a temporary directory.

    The child imports the same ``kzquench`` as this suite, installed or not:
    the directory holding the package comes first on PYTHONPATH, and inherited
    entries are made absolute, since a relative one (``PYTHONPATH=src``) does
    not resolve from the child's working directory.
    """
    inherited = [os.path.abspath(p)
                 for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    package_root = str(Path(kzquench.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join([package_root, *inherited]))


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "kzquench.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=child_env())


def test_sweep_csv_deterministic(tmp_path):
    args = ["--set", 'sweep.tau_q={"values": [12.87]}',
            "--set", "output.prefix=out_a", "sweep"]
    r = run_cli(args, tmp_path)
    assert r.returncode == 0, r.stderr
    args2 = ["--set", 'sweep.tau_q={"values": [12.87]}',
             "--set", "output.prefix=out_b", "sweep"]
    assert run_cli(args2, tmp_path).returncode == 0
    a = (tmp_path / "out_a_sweep.csv").read_bytes()
    b = (tmp_path / "out_b_sweep.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("# config_hash=")
    header = text.splitlines()[1]
    assert header == "tau_Q,n_numeric,n_closed_form,n0,f,M,delta,T_Q_predicted"
    sidecar = json.loads((tmp_path / "out_a_sweep.json").read_text())
    assert sidecar["rows"] == 1
    assert "config" in sidecar


def test_sweep_values_roundtrip_against_library(tmp_path):
    args = ["--set", 'sweep.tau_q={"values": [16.0]}',
            "--set", "output.prefix=o", "sweep"]
    assert run_cli(args, tmp_path).returncode == 0
    line = (tmp_path / "o_sweep.csv").read_text().splitlines()[2].split(",")
    tau, n_num, n_cf = float(line[0]), float(line[1]), float(line[2])
    assert tau == 16.0
    from kzquench import closedform
    assert abs(n_cf - closedform.density_prediction_roundtrip(16.0, 1.0).n) < 1e-15
    assert abs(n_num - n_cf) < 0.05 * n_cf


def test_empty_sweep_is_usage_error(tmp_path):
    r = run_cli(["--set", 'sweep.tau_q={"values": []}', "sweep"], tmp_path)
    assert r.returncode == cli.EXIT_CONFIG


def test_bad_config_file(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    r = run_cli(["--config", str(bad), "sweep"], tmp_path)
    assert r.returncode == cli.EXIT_CONFIG


def test_unknown_protocol_kind(tmp_path):
    r = run_cli(["--set", "protocol.kind=bogus", "sweep"], tmp_path)
    assert r.returncode == cli.EXIT_CONFIG


def test_correlator_csv_columns(tmp_path):
    args = ["--set", 'correlator.tau_q=[8.0]', "--set", "correlator.r_step=4.0",
            "--set", "output.prefix=c", "correlator"]
    r = run_cli(args, tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "c_correlator_tau8.csv").read_text().splitlines()
    assert lines[1] == "r,n0_r_scaled,Czz_quadrature,Czz_closed,minus_alpha_sq,beta_sq,dephased"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    # beta column is exactly zero at r = 0
    assert float(first[5]) == 0.0
    llines = (tmp_path / "c_lengths_tau8.csv").read_text().splitlines()
    assert llines[1] == "m,l_alpha,l_beta,xi_hat"
    assert len(llines) == 2 + 5


def test_protocol_render(tmp_path):
    r = run_cli(["--set", 'sweep.tau_q={"values": [4.0]}', "protocol-render"], tmp_path)
    assert r.returncode == 0
    assert "breakpoints" in r.stdout and "crossings" in r.stdout


def test_validate_report(tmp_path):
    args = ["--set", "validate.N=6", "--set", 'validate.tau_q=[1.0]',
            "--set", "output.prefix=v", "validate"]
    r = run_cli(args, tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "v_validate.json").read_text())
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert any("ed_vs_bdg" in n for n in names)
    assert all("tolerance" in c for c in report["checks"])
    for c in report["checks"]:
        if c["name"].startswith("ed_vs_bdg"):
            assert c["detail"]["sector_dim"] == 8 and c["detail"]["ed_steps"] > 0


def test_validate_reports_ed_run_record(tmp_path):
    # each ED check carries the oracle's step record from ManyBodyState.meta
    cfg = cli.load_config(None, ["validate.N=4", "validate.tau_q=[1.0]",
                                 "output.prefix=" + str(tmp_path / "r")])
    checks = {c["name"]: c["detail"] for c in cli.cmd_validate(cfg)["checks"]}
    for name, sch in [("ed_vs_bdg_roundtrip_tau1", protocol.round_trip(0.0, 1.0, 1.0)),
                      ("ed_vs_bdg_reversed_tau1", protocol.reversed_round_trip(1.5, 1.0, 1.0))]:
        meta = edoracle.evolve_exact(sch, 4).meta
        d = checks[name]
        assert (d["ed_steps"], d["ed_rejected"], d["ed_h_min"], d["sector_dim"]) == \
            (meta["steps"], meta["rejected"], meta["h_min"], meta["sector_dim"])


def test_validate_detects_injected_loosening(tmp_path, monkeypatch):
    # a deliberately wrong tolerance shows up in the report as a failure
    cfg = cli.load_config(None, ["validate.N=6", 'validate.tau_q=[1.0]',
                                 "output.prefix=" + str(tmp_path / "w")])
    report = cli.cmd_validate(cfg)
    assert report["all_passed"]
    # injected loosening: corrupt one check and re-evaluate the aggregate
    report["checks"][0]["passed"] = False
    assert not all(c["passed"] for c in report["checks"])


def test_validate_odd_n_rejected(tmp_path):
    r = run_cli(["--set", "validate.N=7", "--set", 'validate.tau_q=[1.0]',
                 "--set", "output.prefix=x", "validate"], tmp_path)
    assert r.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in r.stderr


# config files that cases below read, written into tmp_path before the run
CONFIG_FILES = {
    "latin1.json": '{"output": {"prefix": "caf\u00e9"}}'.encode("latin-1"),
    "deep.json": b"[" * 5000 + b"]" * 5000,
}


@pytest.mark.parametrize("args", [
    pytest.param(["--set", "protocol.g_rt=1.5", "sweep"], id="protocol-value"),
    pytest.param(["--set", "protocol.grt=0.5", "sweep"], id="protocol-unknown-key"),
    pytest.param(["--set", "protocol=3", "sweep"], id="section-not-object"),
    pytest.param(["--set", "sweep.tau_q=[-1]", "sweep"], id="negative-tau"),
    pytest.param(["--set", "sweep.tau_q=[NaN]", "sweep"], id="nan-tau"),
    pytest.param(["--set", 'sweep.tau_q={"start": 10, "stop": 20, "step": 0}', "sweep"],
                 id="zero-range-step"),
    pytest.param(["--set", 'sweep.tau_q={"start": 10, "stop": 60, "step": 1e-9}', "sweep"],
                 id="range-too-long"),
    pytest.param(["--set", "solver.rel_tol=1", "sweep"], id="solver-value"),
    pytest.param(["--set", "solver.foo=1", "sweep"], id="solver-unknown-option"),
    # the solver section takes rel_tol and abs_tol only
    pytest.param(["--set", "solver.frame=lab", "sweep"], id="solver-frame"),
    pytest.param(["--set", "solver.gap_floor=0.3", "sweep"], id="solver-gap-floor"),
    pytest.param(["--set", "solver.max_step=0.5", "sweep"], id="solver-max-step"),
    pytest.param(["--set", "solver.max_steps=10", "sweep"], id="solver-max-steps"),
    # leggauss(100000) would build a 100,000 x 100,000 matrix (80 GB)
    pytest.param(["--set", "quadrature.order=100000", "sweep"], id="quadrature-order-too-large"),
    # 16 x 5,000 = 80,000 nodes per support region
    pytest.param(["--set", "quadrature.n_support=5000", "correlator"],
                 id="quadrature-too-many-nodes"),
    pytest.param(["--set", "validate.N=20", "validate"], id="validate-n-too-large"),
    pytest.param(["--set", "solver.rel_tol=1e-6", "validate"], id="validate-solver-ignored"),
    pytest.param(["--set", "correlator.tau_q=[1.0]", "correlator"],
                 id="correlator-out-of-regime"),
    pytest.param(["--set", "protocol.R=2", "correlator"], id="correlator-outside-closed-forms"),
    # 2 max(l_beta) = 373 at tau 32: about 3.7e11 points at this step
    pytest.param(["--set", "correlator.r_step=1e-9", "correlator"], id="r-grid-too-long"),
    # r_max = 37,300 is 374 points at this step, but needs about 112,000 nodes
    pytest.param(["--set", "correlator.r_max_factor=200", "--set", "correlator.r_step=100",
                  "correlator"], id="r-max-too-many-nodes"),
    # protocol values must be finite numbers: not inf, a bool or an int beyond a float
    pytest.param(["--set", "protocol.R=Infinity", "--set", "sweep.tau_q=[10]", "sweep"],
                 id="protocol-infinite-R"),
    pytest.param(["--set", "protocol.g_f=Infinity", "--set", "sweep.tau_q=[10]", "sweep"],
                 id="protocol-infinite-g-f"),
    pytest.param(["--set", "protocol.kind=quarter_turn", "--set", "protocol.jy_initial=Infinity",
                  "--set", "sweep.tau_q=[10]", "sweep"], id="protocol-infinite-jy-initial"),
    pytest.param(["--set", "protocol.R=true", "--set", "sweep.tau_q=[10]", "sweep"],
                 id="protocol-bool"),
    pytest.param(["--set", "protocol.R=1" + "0" * 400, "--set", "sweep.tau_q=[10]", "sweep"],
                 id="protocol-int-beyond-float"),
    # unknown sections and keys, and another version, are refused, not ignored
    pytest.param(["--set", "foo.bar=1", "protocol-render"], id="unknown-section"),
    pytest.param(["--set", "version=2", "protocol-render"], id="version-override"),
    pytest.param(["--set", "sweep.tauq=[10]", "protocol-render"], id="sweep-unknown-key"),
    pytest.param(["--set", "correlator.tau_q=[8.0]", "--set", "correlator.rstep=4",
                  "correlator"], id="correlator-unknown-key"),
    pytest.param(["--set", 'sweep.tau_q={"start": 10, "stop": 12, "step": 1, "stpe": 5}',
                  "protocol-render"], id="tau-range-unknown-key"),
    pytest.param(["--set", 'sweep.tau_q={"values": [10], "stop": 3}', "protocol-render"],
                 id="tau-values-unknown-key"),
    # a key of another protocol kind would be ignored, yet change the hash
    pytest.param(["--set", "protocol.g_qt=2", "protocol-render"], id="protocol-other-kind-key"),
    # finite values whose schedule has a segment longer than protocol.MAX_DURATION
    pytest.param(["--set", "protocol.R=1e300", "--set", "sweep.tau_q=[10]", "sweep"],
                 id="protocol-huge-R"),
    pytest.param(["--set", "sweep.tau_q=[1e300]", "sweep"], id="sweep-huge-tau"),
    pytest.param(["--set", "validate.tau_q=[1e12]", "validate"], id="validate-huge-tau"),
    # finite values whose schedule changes a parameter faster than protocol.MAX_RATE,
    # where the squared rates of (epsilon_q, delta_q) overflow
    pytest.param(["--set", "protocol.R=1e-300", "--set", "sweep.tau_q=[10]", "sweep"],
                 id="protocol-tiny-R"),
    pytest.param(["--set", "sweep.tau_q=[1e-300]", "sweep"], id="sweep-tiny-tau"),
    # a parameter larger than protocol.MAX_PARAM in size
    pytest.param(["--set", "protocol.g_i=1e70", "--set", "sweep.tau_q=[1e-61]", "sweep"],
                 id="protocol-huge-g"),
    pytest.param(["--set", "protocol.kind=quarter_turn", "--set", "protocol.jy_initial=2e6",
                  "--set", "sweep.tau_q=[10]", "sweep"], id="protocol-huge-jy"),
    # documents the JSON reader cannot take: not UTF-8, or nested past its depth
    pytest.param(["--config", "latin1.json", "sweep"], id="config-file-not-utf8"),
    pytest.param(["--config", "deep.json", "sweep"], id="config-file-too-deep"),
    pytest.param(["--set", "sweep.tau_q=" + "[" * 5000 + "]" * 5000, "sweep"],
                 id="set-value-too-deep"),
    pytest.param(["--set", "a." * 2999 + "a=1", "sweep"], id="set-key-too-deep"),
    # the error names the key or the file on one line
    pytest.param(["--set", "a\nb=1", "--set", "a\nb.c=2", "protocol-render"],
                 id="set-key-with-line-break"),
    pytest.param(["--config", "a\nb.json", "sweep"], id="config-path-with-line-break"),
    # output file names the file system refuses: a NUL byte, or longer than its limit
    pytest.param(["--set", 'output.prefix="a\\u0000b"', "sweep"], id="prefix-nul"),
    pytest.param(["--set", "output.prefix=" + "o" * 300, "sweep"], id="prefix-too-long"),
    # both taus would write _correlator_tau8.csv and _lengths_tau8.csv
    pytest.param(["--set", "correlator.tau_q=[8,8.0000001]", "correlator"],
                 id="correlator-shared-file-tag"),
    # both taus would name the checks ed_vs_bdg_roundtrip_tau1, parity_tau1, ...
    pytest.param(["--set", "validate.tau_q=[1,1.0000001]", "validate"],
                 id="validate-shared-check-name"),
])
def test_invalid_config_is_config_error(tmp_path, args):
    inputs = sorted(name for name in CONFIG_FILES if name in args)
    for name in inputs:
        (tmp_path / name).write_bytes(CONFIG_FILES[name])
    r = run_cli(args, tmp_path)
    assert r.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), r.stderr
    # rejected before anything ran
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


class _ClosedPipe(io.StringIO):
    """stdout whose reader is gone, as in ``kzquench protocol-render | head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("command, code", [("protocol-render", cli.EXIT_OK),
                                           ("validate", cli.EXIT_VALIDATION)])
def test_closed_output_pipe_is_not_an_error(monkeypatch, capsys, command, code):
    # the command's own exit code, no traceback, and later output goes nowhere
    monkeypatch.setattr(cli, "cmd_validate", lambda cfg: {"all_passed": False, "checks": []})
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main([command]) == code
    with sys.stdout as devnull:
        assert devnull.name == os.devnull
        print("more output", file=devnull, flush=True)
    assert capsys.readouterr().err == ""


def test_absent_keys_come_from_the_defaults():
    # a section replaced wholesale runs on the defaults of the keys it leaves out
    cfg = cli.load_config(None, ['solver={"rel_tol": 1e-6}', "correlator={}"])
    assert cfg["solver"] == {"rel_tol": 1e-6, "abs_tol": 1e-10}
    assert cfg["correlator"] == cli.DEFAULT_CONFIG["correlator"]


def test_config_file_and_set_replace_values_within_a_section(tmp_path):
    # a tau_q object replaces the default range whole, from a file as from --set
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {"tau_q": {"values": [10, 12]}}}))
    cfg = cli.load_config(str(path))
    assert cfg["sweep"]["tau_q"] == {"values": [10, 12]}
    assert cli.load_config(None, ["sweep.tau_q.values=[10, 12]"]) == cfg
    assert cli.load_config(None, ['sweep.tau_q={"values": [10, 12]}']) == cfg
    r = run_cli(["--config", str(path), "protocol-render"], tmp_path)
    assert r.returncode == cli.EXIT_OK, r.stderr
    assert cli.config_hash(cli.load_config()) == "bb94347e2a1bc773"


def test_correlator_reads_each_tau_once(tmp_path, monkeypatch):
    # every schedule and closed form is built once, by the command that uses it
    calls = {"build_schedule": [], "correlator_closed_forms": []}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name].append(args)
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    args = [a for s in FAST + ["correlator.tau_q=[8.0, 9.0]", "correlator.r_step=4.0",
                               "output.prefix=" + str(tmp_path / "c")] for a in ("--set", s)]
    assert cli.main(args + ["correlator"]) == cli.EXIT_OK
    assert [a[1] for a in calls["build_schedule"]] == [8.0, 9.0]
    assert [a[0].tau_q for a in calls["correlator_closed_forms"]] == [8.0, 9.0]


def test_run_errors_are_not_config_errors(tmp_path, monkeypatch):
    args = ["--set", "sweep.tau_q=[10.0]", "--set", "output.prefix=" + str(tmp_path / "e"),
            "sweep"]

    def fail(exc):
        def evolve(*_args, **_kwargs):
            raise exc
        return evolve

    # cmd_sweep evolves the whole tau list in one batched call
    monkeypatch.setattr(evolver, "evolve_spectra_quadrature",
                        fail(evolver.NumericalFailure("step underflow")))
    assert cli.main(args) == cli.EXIT_NUMERICAL
    # a ValueError from inside the numerics is a bug, not bad input
    monkeypatch.setattr(evolver, "evolve_spectra_quadrature", fail(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        cli.main(args)


# Each kind chosen by protocol.kind runs on the table's defaults plus the
# values set; the one-way ramp 10 -> 2 never crosses g = 1.  The same kinds
# with the protocol object replaced wholesale run on the table's defaults.
TABLE_CASES = [
    pytest.param(kind, sets, id=kind + "-section") for kind, sets in (
        ("round_trip", ["protocol.kind=round_trip"]),
        ("reversed_round_trip", ["protocol.kind=reversed_round_trip", "protocol.g_rt=1.5"]),
        ("quarter_turn", ["protocol.kind=quarter_turn"]),
        ("one_way", ["protocol.kind=one_way", "protocol.g_f=2"]))
] + [pytest.param(kind, ['protocol={"kind": "%s"}' % kind], id=kind + "-wholesale")
     for kind in ("round_trip", "reversed_round_trip", "quarter_turn", "one_way")]
# loose settings: the closed-form columns do not depend on them
FAST = ["solver.rel_tol=1e-3", "solver.abs_tol=1e-3", "quadrature.order=4",
        "quadrature.n_support=2"]


def _read_rows(path):
    return [[float(x) for x in line.split(",")]
            for line in path.read_text().splitlines()[2:]]


def _library_density(sch):
    """(n_closed, n0, f, M, delta, T_Q) from the library at the schedule's labels."""
    lab = sch.labels
    tau, R = lab["tau_q"], lab["R"]
    if sch.kind == "one_way":
        if not min(lab["g_i"], lab["g_f"]) < 1.0 < max(lab["g_i"], lab["g_f"]):
            return [math.nan] * 6
        n0 = closedform.kz_density(tau)
        return [n0, n0, 1.0, 0.0, 0.0, math.nan]
    if sch.kind == "quarter_turn":
        g_turn = lab["g_qt"]
        pred = closedform.density_quarter_turn(tau, R, g_turn)
        n = closedform.density_quarter_turn_quadrature(tau, R, g_turn)
    else:
        g_turn = lab["g_rt"]
        pred = closedform.density_prediction_roundtrip(tau, R, g_turn)
        n = pred.n
    assert pred.T_Q == pytest.approx(closedform.period(g_turn, R), rel=1e-14)
    return [n, pred.n0, pred.f, pred.M, pred.delta, pred.T_Q]


@pytest.mark.parametrize("kind,sets", TABLE_CASES)
def test_closed_forms_describe_the_evolved_schedule(tmp_path, kind, sets):
    prefix = str(tmp_path / "t")
    cfg = cli.load_config(None, sets + FAST + ["output.prefix=" + prefix])
    sch = cli.build_schedule(cfg["protocol"], 8.0)
    assert sch.kind == kind
    args = [a for s in sets + FAST + ["output.prefix=" + prefix] for a in ("--set", s)]
    assert cli.main(args + ["--set", "sweep.tau_q=[8.0]", "sweep"]) == cli.EXIT_OK
    (row,) = _read_rows(tmp_path / "t_sweep.csv")
    expected = _library_density(sch)
    assert row[0] == 8.0
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(row[2:], expected))
    if kind == "one_way" and sch.labels["g_f"] == 2:
        assert all(math.isnan(x) for x in row[2:])

    rc = cli.main(args + ["--set", "correlator.tau_q=[8.0]", "--set", "correlator.r_step=4.0",
                          "correlator"])
    if kind in ("quarter_turn", "one_way"):
        assert rc == cli.EXIT_CONFIG  # no correlator closed forms
        return
    assert rc == cli.EXIT_OK
    lab = sch.labels
    if kind == "round_trip":
        ls = correlators.length_scales_roundtrip(8.0, lab["g_f"])
    else:
        ls = correlators.primed_length_scales(8.0, lab["g_rt"])
    lengths = _read_rows(tmp_path / "t_lengths_tau8.csv")
    assert [row[2] for row in lengths] == list(ls.l_beta)
    assert [row[1] for row in lengths[:2]] == list(ls.l_alpha)
    assert all(row[3] == ls.xi_hat for row in lengths)
    curve = np.array(_read_rows(tmp_path / "t_correlator_tau8.csv"))
    r = curve[:, 0]
    assert r[-1] <= 2.0 * max(ls.l_beta) < r[-1] + 4.0
    if kind == "round_trip":
        c_closed = correlators.czz_closed(r, 8.0, lab["g_f"])
    else:
        alpha, beta = correlators.primed_correlators_closed(r, 8.0, lab["g_rt"])
        c_closed = np.abs(beta) ** 2 - alpha ** 2
    np.testing.assert_allclose(curve[:, 3], c_closed, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("sets,tau,g_turn", [
    (["protocol.kind=quarter_turn", "protocol.g_qt=1.05"], 10.0, 1.05),
    (["protocol.kind=round_trip"], 1.0, 0.0)], ids=["quarter_turn", "round_trip"])
def test_out_of_regime_row_keeps_the_period(tmp_path, sets, tau, g_turn):
    # a phase curvature b <= 0 voids the Gaussian decomposition only: n0, f, M,
    # delta and the round trip's n_closed_form read nan, while the period and
    # the quarter turn's quadrature hold at any tau
    quarter = "protocol.kind=quarter_turn" in sets
    decompose = (closedform.density_quarter_turn if quarter
                 else closedform.density_prediction_roundtrip)
    with pytest.raises(closedform.OutOfRegimeError, match="b = "):
        decompose(tau, 1.0, g_turn)
    args = [a for s in sets + FAST + ["output.prefix=" + str(tmp_path / "t"),
                                      "sweep.tau_q=[%r]" % tau] for a in ("--set", s)]
    assert cli.main(args + ["sweep"]) == cli.EXIT_OK
    (row,) = _read_rows(tmp_path / "t_sweep.csv")
    assert row[0] == tau and row[1] > 0.0
    if quarter:
        assert row[2] == closedform.density_quarter_turn_quadrature(tau, 1.0, g_turn)
    else:
        assert math.isnan(row[2])
    assert all(math.isnan(x) for x in row[3:7])
    assert row[7] == closedform.period(g_turn, 1.0)


def test_protocol_kind_runs_on_its_own_defaults(tmp_path):
    # the chosen kind's keys come from cli.PROTOCOLS, not from another kind's
    prefix = str(tmp_path / "k")
    sets = ["protocol.kind=one_way", "sweep.tau_q=[8.0]", "output.prefix=" + prefix] + FAST
    cfg = cli.load_config(None, sets)
    assert cfg["protocol"] == {"kind": "one_way", "g_i": 10.0, "g_f": 0.0}
    assert cli.main([a for s in sets for a in ("--set", s)] + ["sweep"]) == cli.EXIT_OK
    sidecar = json.loads((tmp_path / "k_sweep.json").read_text())
    assert sidecar["config"]["protocol"] == cfg["protocol"]
    assert sidecar["config_hash"] == cli.config_hash(cfg)
    (row,) = _read_rows(tmp_path / "k_sweep.csv")
    assert row[2] == closedform.kz_density(8.0)  # the ramp 10 -> 0 crosses g = 1
    # the default round trip keeps its config and hash
    default = cli.load_config(None, [])
    assert default["protocol"] == {"kind": "round_trip", "g_rt": 0.0, "R": 1.0,
                                   "g_i": 10.0, "g_f": 10.0}
    assert cli.config_hash(default) == "bb94347e2a1bc773"


def test_sweep_row_does_not_depend_on_its_batch(tmp_path):
    # tau 11 evolved among three quench times and alone: the same row and record
    def sweep(taus, name):
        prefix = str(tmp_path / name)
        sets = FAST + ["sweep.tau_q=%s" % json.dumps(taus), "output.prefix=" + prefix]
        assert cli.main([a for s in sets for a in ("--set", s)] + ["sweep"]) == cli.EXIT_OK
        lines = (tmp_path / (name + "_sweep.csv")).read_text().splitlines()[2:]
        return lines, json.loads((tmp_path / (name + "_sweep.json")).read_text())["solver_rows"]

    lines, records = sweep([10.0, 11.0, 12.0], "batch")
    (alone_line,), (alone_record,) = sweep([11.0], "alone")
    assert lines[1] == alone_line
    assert records[1] == alone_record
    assert [r["tau_Q"] for r in records] == [10.0, 11.0, 12.0]
    assert all(r["accepted"] + r["rejected"] == r["steps"] > 0 for r in records)


def test_sweep_sidecar_records_mirror_and_numpy_build(tmp_path):
    # R = 1 is a mirror and R = 2 is not; the numpy build is recorded, and a
    # rerun writes the same sidecar byte for byte
    def sweep(R, name):
        sets = FAST + ["protocol.R=%r" % R, "sweep.tau_q=[10.0]",
                       "output.prefix=" + str(tmp_path / name)]
        assert cli.main([a for s in sets for a in ("--set", s)] + ["sweep"]) == cli.EXIT_OK
        return (tmp_path / (name + "_sweep.json")).read_bytes()

    one, again, two = sweep(1.0, "one"), sweep(1.0, "one"), sweep(2.0, "two")
    assert one == again
    mirror, plain = json.loads(one), json.loads(two)
    assert [r["mirrored"] for r in mirror["solver_rows"] + plain["solver_rows"]] == [True, False]
    # each record is the row's tau_Q, its norm drift and the evolver's meta, key for key
    (spectrum,) = evolver.evolve([(protocol.round_trip(0.0, 10.0), [1.0])])
    assert set(mirror["solver_rows"][0]) == {"tau_Q", "norm_drift", *spectrum.meta}
    assert mirror["numpy"]["version"] == np.__version__
    assert isinstance(mirror["numpy"]["simd_target"], str) and mirror["numpy"]["simd_target"]


def test_correlator_sidecar_records_each_tau(tmp_path):
    # the correlator's sidecar holds the sweep's run record, one solver row per
    # tau, and a rerun writes it byte for byte
    def correlator(name):
        sets = FAST + ["correlator.tau_q=[8.0, 9.0]", "correlator.r_step=4.0",
                       "output.prefix=" + str(tmp_path / name)]
        assert cli.main([a for s in sets for a in ("--set", s)] + ["correlator"]) == cli.EXIT_OK
        return (tmp_path / (name + "_correlator.json")).read_bytes()

    first, again = correlator("c"), correlator("c")
    assert first == again
    sidecar = json.loads(first)
    cfg = cli.load_config(None, FAST + ["correlator.tau_q=[8.0, 9.0]", "correlator.r_step=4.0",
                                        "output.prefix=" + str(tmp_path / "c")])
    assert set(sidecar) == {"config", "config_hash", "package_version", "solver_rows", "numpy"}
    assert sidecar["config"] == cfg and sidecar["config_hash"] == cli.config_hash(cfg)
    assert [r["tau_Q"] for r in sidecar["solver_rows"]] == [8.0, 9.0]
    assert all(r["accepted"] + r["rejected"] == r["steps"] > 0 for r in sidecar["solver_rows"])
    assert sidecar["numpy"]["version"] == np.__version__


def test_sweep_with_a_sudden_second_ramp(tmp_path):
    # at R = 1e-10 and 1e-20 no mode can follow the second ramp, so it runs in the
    # lab frame for every mode; at 1e-20 it is shorter than the step floor and
    # takes only its frame change.  Both rows are the sudden-quench limit
    def sweep(R):
        prefix = str(tmp_path / ("r%g" % R))
        args = ["--set", "protocol.R=%r" % R, "--set", "sweep.tau_q=[10.0]",
                "--set", "output.prefix=" + prefix, "sweep"]
        assert cli.main(args) == cli.EXIT_OK
        (row,) = _read_rows(Path(prefix + "_sweep.csv"))
        (record,) = json.loads(Path(prefix + "_sweep.json").read_text())["solver_rows"]
        modes = len(quadrature.support_panels(protocol.round_trip(0.0, 10.0, R))[0])
        assert all(math.isfinite(x) for x in row) and record["lab_modes"] == modes
        return row[1]

    slow, sudden = sweep(1e-10), sweep(1e-20)
    assert abs(sudden / slow - 1.0) <= 1e-8 and 0.4 < sudden < 0.5


@pytest.mark.parametrize("g_qt", [1.5, 2.5])
def test_quarter_turn_closed_form_column_tracks_evolution(tmp_path, g_qt):
    # n_closed_form integrates the closed form over (0, pi/2), where it holds;
    # over the whole zone it was 18% (g_qt 1.5) and 68% (2.5) above n_numeric
    args = ["--set", "protocol.kind=quarter_turn", "--set", "protocol.g_qt=%r" % g_qt,
            "--set", "sweep.tau_q=[10.0]", "--set", "output.prefix=" + str(tmp_path / "q"),
            "sweep"]
    assert cli.main(args) == cli.EXIT_OK
    (row,) = _read_rows(tmp_path / "q_sweep.csv")
    assert abs(row[2] - row[1]) <= 0.01 * row[1]


def _readme_recipes():
    """(table rows, `kzquench ...` commands) of README.md's "Reproduction recipes"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Reproduction recipes\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]
    return rows, [c for row in rows for c in re.findall(r"`(kzquench [^`]*)`", row)]


def test_readme_recipes_are_one_command_per_row():
    rows, commands = _readme_recipes()
    assert rows and len(commands) == len(rows)


@pytest.mark.parametrize("command", _readme_recipes()[1])
def test_readme_recipe_configures_a_run(command):
    # each recipe loads, resolves its quench times and builds its first
    # schedule (and, for correlator, its closed forms and r grid); nothing evolves
    argv = shlex.split(command)
    name = argv[-1]
    assert argv[0] == "kzquench" and set(argv[1:-1:2]) == {"--set"}
    assert name in ("sweep", "correlator", "validate")
    cfg = cli.load_config(None, argv[2:-1:2])
    taus = cli._tau_list(cfg, name)
    sch = cli.build_schedule(cfg["protocol"], taus[0])
    if name == "correlator":
        ls, _ = cli.correlator_closed_forms(sch)
        assert len(cli._r_grid(cfg["correlator"], ls)) > 1


# --set documents for the config fuzz: keys the loader knows, nested past them or
# unknown, and JSON values of every type, the edges of floats and ints among them
_FUZZ_KEYS = st.sampled_from([
    "version", "protocol", "protocol.kind", "protocol.g_rt", "protocol.R", "protocol.g_i",
    "protocol.g_f", "protocol.g_qt", "protocol.jy_initial", "solver", "solver.rel_tol",
    "solver.abs_tol", "quadrature", "quadrature.order", "quadrature.n_support", "sweep",
    "sweep.tau_q", "sweep.tau_q.values", "sweep.tau_q.start", "sweep.tau_q.step",
    "correlator", "correlator.tau_q", "correlator.r_max_factor", "correlator.r_step",
    "validate", "validate.N", "validate.tau_q", "output", "output.prefix",
    # unknown, nested past a value, or with a line break
    "foo", "foo.bar", "sweep.tauq", "protocol.R.x", "solver.rel_tol.a.b", "", ".", "a\nb",
    "a\nb.c"])
_FUZZ_NUMBERS = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([0, 1, 2, 7, 8, 14, 16, 2 ** 64, 10 ** 400, -10 ** 400, 0.5, 1.0, 1.5, 4.0,
                     8.0, 10.0, 32.0, 1e-3, 1e-8, 1e-300, 5e-324, 1e308, -1e308, math.inf,
                     -math.inf, math.nan]))
# strings hold no "/" of their own, so that no output prefix leaves the run's directory
_FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), _FUZZ_NUMBERS, st.text(st.characters(exclude_characters="/"), max_size=6),
    st.sampled_from(["round_trip", "reversed_round_trip", "quarter_turn", "one_way", "out",
                     "caf\u00e9"]))
# a quench-time range either short or past MAX_TAU_POINTS, so no example runs long
_FUZZ_RANGES = st.fixed_dictionaries({
    "start": st.sampled_from([0.0, 1.0, 10.0, 12.0, -5.0, 1e308, math.nan]),
    "stop": st.sampled_from([10.0, 12.0, 20.0, 0.0, 1e308, math.inf]),
    "step": st.sampled_from([1.0, 0.25, 0.0, -1.0, 1e-9, 1e-300, 10 ** 400])})
_FUZZ_VALUES = st.recursive(
    st.one_of(_FUZZ_SCALARS, _FUZZ_RANGES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["values", "start", "stop", "step", "kind", "R", "x"]),
                      inner, max_size=3),
    max_leaves=6)
_FUZZ_SETS = st.lists(st.one_of(
    st.tuples(_FUZZ_KEYS, _FUZZ_VALUES.map(json.dumps)).map("=".join),
    st.sampled_from(["no-equals-sign", "sweep.tau_q=[10", "protocol.R=x",
                     # valid settings, so that a document also runs to its outputs
                     "sweep.tau_q=[10.0, 12.5]", 'sweep.tau_q={"start": 10, "stop": 12, "step": 0.5}',
                     "correlator.tau_q=[8.0]", "validate.N=4", "validate.tau_q=[1.5]",
                     "protocol.kind=reversed_round_trip", "protocol.R=2", "quadrature.order=4",
                     "solver.rel_tol=1e-6"])),
    max_size=3)
# output prefixes, each drawn on its own so that it also meets otherwise valid documents
_FUZZ_PREFIXES = st.none() | st.one_of(
    _FUZZ_SCALARS, st.sampled_from(["", ".", "out", "sub/out", "./o", "a\u0000b", "a\nb",
                                    "o" * 300])).map(json.dumps)


def _stub_spectra(fails):
    """Cheap stand-ins for the evolvers: three nodes per schedule, or a NumericalFailure."""
    def spectrum(q, weights=None):
        if fails:
            raise evolver.NumericalFailure("stub failure")
        q = np.asarray(q, dtype=float)
        zero, one = np.zeros(len(q), dtype=complex), np.ones(len(q), dtype=complex)
        return evolver.SpectrumResult(q, zero.real, one, zero, one, zero, weights,
                                      meta={"steps": 0})

    def quadrature(schedules, opts=None, **_kwargs):
        q = np.array([0.5, 1.5, 2.5])
        return [spectrum(q, np.full(3, math.pi / 3.0)) for _ in schedules]

    def exact(schedule, N, opts=None):
        if fails:
            raise evolver.NumericalFailure("stub failure")
        ker = edoracle._kernels(N)
        y = np.zeros(ker.D, dtype=complex)
        y[0] = 1.0
        return edoracle.ManyBodyState(y, N, {"steps": 0, "rejected": 0, "h_min": math.inf,
                                             "sector_dim": ker.D})

    return quadrature, lambda jobs, opts=None: [spectrum(q) for _, q in jobs], exact


@settings(max_examples=200)
@given(sets=_FUZZ_SETS, prefix=_FUZZ_PREFIXES,
       command=st.sampled_from(["sweep", "correlator", "validate", "protocol-render"]),
       fails=st.booleans())
def test_config_fuzz_exits_by_the_contract(sets, prefix, command, fails):
    # any --set document ends in exit 0; in exit 2 with one "config error:" line and
    # no file; in exit 3 only from a NumericalFailure; or, for validate, whose checks
    # the stubs fail, in exit 1 with its report.  Never an uncaught exception.
    quadrature, evolve, exact = _stub_spectra(fails)
    sets = sets + ([] if prefix is None else ["output.prefix=" + prefix])
    argv = [a for s in sets for a in ("--set", s)] + [command]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            mock.patch.object(evolver, "evolve_spectra_quadrature", quadrature), \
            mock.patch.object(evolver, "evolve", evolve), \
            mock.patch.object(edoracle, "evolve_exact", exact), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
        files = sorted(os.listdir(tmp))
    lines = err.getvalue().splitlines()
    if code == cli.EXIT_CONFIG:
        assert len(lines) == 1 and lines[0].startswith("config error: ") and files == []
    elif code == cli.EXIT_NUMERICAL:
        assert fails and len(lines) == 1 and lines[0].startswith("numerical failure: ")
    else:
        assert code == cli.EXIT_OK or code == cli.EXIT_VALIDATION and command == "validate"
        assert lines == [] and (files or command == "protocol-render")
