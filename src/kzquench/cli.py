"""Command-line front end: sweeps, correlators, validation, schedule rendering.

A run is configured by a versioned JSON document; any field can be overridden
on the command line with repeated ``--set dotted.key=value`` flags.  Output
CSVs carry a header row plus a comment line with the configuration hash, and
all numeric formatting uses shortest round-trip decimals, so reruns with the
same configuration are byte-identical.  A sweep or a correlator run evolves
its whole tau list in one lock-step batch, in this process; each row is
bitwise what its tau gives alone, and no environment variable changes a run.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure; a reader that closes stdout early ends the run with the
code it had reached, without a traceback.  ``load_config`` refuses unknown
sections and keys and fills absent keys in from the defaults; each value is
then checked by the one function that reads it (protocol values must be
finite numbers, and no schedule segment may last over
``protocol.MAX_DURATION``), and every command reads its whole configuration
before it evolves or writes anything, so a configuration error never
surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, closedform, correlators, edoracle, evolver, protocol
from .evolver import NumericalFailure, SolverOptions
from .lattice import mode_grid

CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# Each protocol kind: its schedule builder and the config keys it reads, with
# their defaults.  load_config fills a section's absent keys in from here, and
# build_schedule is the one reader of protocol parameters.
PROTOCOLS = {
    "round_trip": (protocol.round_trip,
                   {"g_rt": 0.0, "R": 1.0, "g_i": protocol.DEFAULT_G_INITIAL,
                    "g_f": protocol.DEFAULT_G_FINAL}),
    "reversed_round_trip": (protocol.reversed_round_trip, {"g_rt": 1.5, "R": 1.0}),
    "quarter_turn": (protocol.quarter_turn,
                     {"g_qt": 1.5, "R": 1.0, "jy_initial": protocol.DEFAULT_JY_INITIAL}),
    "one_way": (protocol.one_way, {"g_i": 10.0, "g_f": 0.0}),
}
MAX_TAU_POINTS = 100_000  # longest {start, stop, step} range of quench times
MAX_R_POINTS = 10_000  # longest correlator r grid
MAX_QUADRATURE_NODES = 30_000  # the panel-width cap asks for about 3 r_max nodes
# Gauss-Legendre points per panel; leggauss solves an order-by-order eigenproblem
MAX_QUADRATURE_ORDER = 256


DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    # load_config fills in the chosen kind's keys from PROTOCOLS
    "protocol": {"kind": "round_trip"},
    "solver": {"rel_tol": 1e-8, "abs_tol": 1e-10},
    "quadrature": {"order": 16, "n_support": 12},
    "sweep": {"tau_q": {"start": 10.0, "stop": 60.0, "step": 0.25}},
    "correlator": {"tau_q": [32.0], "r_max_factor": 2.0, "r_step": 1.0},
    "validate": {"N": 8, "tau_q": [1.0, 2.0]},
    "output": {"prefix": "kzquench_out"},
}


def _merge(base, override):
    """base with override's sections merged key by key; a value below a section is replaced."""
    out = dict(base)
    for k, v in override.items():
        both = isinstance(v, dict) and isinstance(out.get(k), dict)
        out[k] = {**out[k], **v} if both else v
    return out


def load_config(path=None, overrides=()):
    """The configuration: DEFAULT_CONFIG, then the file at ``path``, then ``overrides``.

    A file or the overrides replace each key they name within a section
    whole, so ``--set a.b.c=v`` gives what a file holding {"a": {"b": {"c": v}}}
    gives.  Raises ConfigError unless the document has this version, only
    known sections, each an object holding only known keys (protocol: the
    chosen kind's), and an output prefix in an existing directory.  Absent
    keys are filled in from the defaults (protocol keys from the chosen
    kind's PROTOCOLS entry), so the config, its hash and the sidecar hold
    every parameter the run reads.
    """
    cfg = DEFAULT_CONFIG
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # unreadable, not UTF-8, not JSON, or nested past the parser's depth
            raise ConfigError("%s: %s" % (path, exc)) from None
        if not isinstance(user, dict):
            raise ConfigError("%s must hold a JSON object" % path)
        cfg = _merge(cfg, user)
    # the overrides form one more document, merged like a file
    user = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError("--set expects dotted.key=value, got %r" % item)
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError:
            raise ConfigError("--set %s: value nested too deeply" % key) from None
        node = user
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError("--set %s: %r is not an object" % (key, p))
        node[parts[-1]] = value
    try:
        cfg = json.loads(json.dumps(_merge(cfg, user)))  # deep copy
    except RecursionError:
        raise ConfigError("configuration nested too deeply") from None
    version = cfg["version"]
    if isinstance(version, bool) or version != CONFIG_VERSION:
        raise ConfigError("unsupported config version %r" % (version,))
    for name, section in cfg.items():
        if name not in DEFAULT_CONFIG:
            raise ConfigError("unknown section %r" % name)
        if name == "version":
            continue
        if not isinstance(section, dict):
            raise ConfigError("%s must be a JSON object, got %r" % (name, section))
        defaults = json.loads(json.dumps(DEFAULT_CONFIG[name]))  # deep copy
        if name == "protocol":
            kind = section.setdefault("kind", defaults["kind"])
            if not isinstance(kind, str) or kind not in PROTOCOLS:
                raise ConfigError("unknown protocol kind %r" % (kind,))
            defaults.update(PROTOCOLS[kind][1])
        for key in section:
            if key not in defaults:
                raise ConfigError("%s: unknown key %r" % (name, key))
        for key, default in defaults.items():
            section.setdefault(key, default)
    prefix = cfg["output"]["prefix"]
    if not isinstance(prefix, str):
        raise ConfigError("output.prefix must be a string, got %r" % (prefix,))
    if not os.path.isdir(os.path.dirname(prefix) or "."):
        raise ConfigError("output.prefix: no directory %r" % os.path.dirname(prefix))
    return cfg


def config_hash(cfg):
    """Hash of the physics configuration (output destinations excluded)."""
    body = {k: v for k, v in cfg.items() if k != "output"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows, cfg):
    with open(path, "w") as fh:
        fh.write("# config_hash=%s\n" % config_hash(cfg))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def build_schedule(pcfg, tau_q):
    """The configured protocol's schedule at tau_q, built from the PROTOCOLS table.

    ``pcfg`` is a loaded protocol section, which holds every key its kind
    reads.  ConfigError unless each is a finite number the builder accepts.
    """
    builder, keys = PROTOCOLS[pcfg["kind"]]
    values = {k: _number(pcfg[k], "protocol." + k) for k in keys}
    try:
        return builder(tau_q=tau_q, **values)
    except ValueError as exc:
        raise ConfigError("protocol: %s" % exc) from None


def _number(value, key, positive=False):
    """value as a float; ConfigError unless it is a finite number (> 0 if positive)."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond a float
        finite = False
    if not finite:
        raise ConfigError("%s must be a finite number, got %r" % (key, value))
    if positive and not value > 0:
        raise ConfigError("%s must be > 0, got %r" % (key, value))
    return float(value)


def _tau_list(cfg, section):
    """Quench times of ``section.tau_q``: a list, {"values": [...]} or {start, stop, step}.

    Raises ConfigError unless they form a non-empty list of finite positive
    numbers; a range may hold at most MAX_TAU_POINTS of them.
    """
    key = section + ".tau_q"
    entry = cfg[section]["tau_q"]
    if isinstance(entry, dict) and set(entry) == {"values"}:
        entry = entry["values"]
    if isinstance(entry, dict):
        if set(entry) != {"start", "stop", "step"}:
            raise ConfigError("%s dict needs exactly start/stop/step or values, got %s"
                              % (key, sorted(entry)))
        start = _number(entry["start"], key + ".start")
        stop = _number(entry["stop"], key + ".stop")
        step = _number(entry["step"], key + ".step", positive=True)
        # np.arange makes ceil of this many points; count them before allocating
        if (stop + 0.5 * step - start) / step > MAX_TAU_POINTS:
            raise ConfigError("%s range holds more than %d points" % (key, MAX_TAU_POINTS))
        entry = np.arange(start, stop + 0.5 * step, step)
    elif not isinstance(entry, list):
        raise ConfigError("%s must be a list or {start, stop, step}" % key)
    taus = [_number(v, key, positive=True) for v in entry]
    if not taus:
        raise ConfigError("%s resolved to an empty list" % key)
    return taus


def _tau_tags(taus, key):
    """The %g form of each tau, which names its outputs; ConfigError if two share one."""
    tags = {}
    for tau in taus:
        tag = "%g" % tau
        if tag in tags:
            raise ConfigError("%s: %r and %r both print as %s, which names their outputs"
                              % (key, tags[tag], tau, tag))
        tags[tag] = tau
    return list(tags)


def _solver_settings(cfg):
    """(SolverOptions, quadrature keywords) from the solver and quadrature sections."""
    try:
        opts = SolverOptions(**cfg["solver"])
    except (TypeError, ValueError) as exc:
        raise ConfigError("solver: %s" % exc) from None
    quad = cfg["quadrature"]
    for key, value in quad.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError("quadrature.%s must be a positive integer, got %r"
                              % (key, value))
    # each support region gets n_support panels of order nodes
    if quad["order"] > MAX_QUADRATURE_ORDER \
            or quad["order"] * quad["n_support"] > MAX_QUADRATURE_NODES:
        raise ConfigError("quadrature.order=%d, n_support=%d: order must be <= %d and "
                          "order * n_support <= %d" % (quad["order"], quad["n_support"],
                                                       MAX_QUADRATURE_ORDER,
                                                       MAX_QUADRATURE_NODES))
    return opts, quad


def correlator_closed_forms(schedule):
    """(length scales, r -> (alpha, beta, dephased)) of the evolved schedule's kind and labels.

    The closed forms hold at R = 1 for the reversed protocol and for the
    round trip at g_rt = 0; ConfigError elsewhere.
    """
    kind, lab = schedule.kind, schedule.labels
    if kind not in ("round_trip", "reversed_round_trip") or lab["R"] != 1.0 \
            or (kind == "round_trip" and lab["g_rt"] != 0.0):
        raise ConfigError("correlator closed forms hold at R = 1 for the reversed "
                          "protocol and for the round trip at g_rt = 0 only")
    tau = lab["tau_q"]
    try:
        if kind == "round_trip":
            g_f = lab["g_f"]
            return (correlators.length_scales_roundtrip(tau, g_f),
                    lambda r: (correlators.alpha_closed(r, tau),
                               correlators.beta_closed(r, tau, g_f),
                               correlators.dephased_czz(r, tau)))
        g_rt = lab["g_rt"]
        return (correlators.primed_length_scales(tau, g_rt),
                lambda r: (*correlators.primed_correlators_closed(r, tau, g_rt),
                           correlators.dephased_ckk(r, tau)))
    except closedform.OutOfRegimeError as exc:
        raise ConfigError("correlator at tau_q=%g: %s" % (tau, exc)) from None


def _r_grid(ccfg, ls):
    """The r grid [0, r_max_factor * max(l_beta)], refused before it is made if it
    holds more than MAX_R_POINTS points or needs more than MAX_QUADRATURE_NODES."""
    r_max = _number(ccfg["r_max_factor"], "correlator.r_max_factor",
                    positive=True) * max(ls.l_beta)
    r_step = _number(ccfg["r_step"], "correlator.r_step", positive=True)
    if r_max / r_step + 1.0 > MAX_R_POINTS or 3.0 * r_max > MAX_QUADRATURE_NODES:
        raise ConfigError("correlator r grid [0, %g] at step %g: more than %d points, or "
                          "about 3 r_max > %d quadrature nodes"
                          % (r_max, r_step, MAX_R_POINTS, MAX_QUADRATURE_NODES))
    return np.arange(0.0, r_max + 1e-9, r_step)


def closed_form_density(schedule):
    """(n_closed, n0, f, M, delta, T_Q) of the evolved schedule, from its kind and labels.

    All NaN for a one-way ramp that never crosses g = 1.  Outside the
    asymptotic regime of the density decomposition (phase curvature b <= 0)
    only n0, f, M, delta and the round trip's n_closed are NaN: the period
    and the quarter turn's quadrature hold there too.
    """
    lab = schedule.labels
    tau_q, R = lab["tau_q"], lab["R"]
    nan = float("nan")
    if schedule.kind == "one_way":
        if not schedule.crossings:
            return (nan,) * 6
        n0 = closedform.kz_density(tau_q)
        return n0, n0, 1.0, 0.0, 0.0, nan
    quarter = schedule.kind == "quarter_turn"
    g_turn = lab["g_qt"] if quarter else lab["g_rt"]
    if not quarter and g_turn == 1.0:
        return nan, closedform.kz_density(tau_q), nan, nan, nan, math.inf
    n = closedform.density_quarter_turn_quadrature(tau_q, R, g_turn) if quarter else nan
    try:
        if quarter:
            pred = closedform.density_quarter_turn(tau_q, R, g_turn)
        else:  # the round trip and the reversed protocol
            pred = closedform.density_prediction_roundtrip(tau_q, R, g_turn)
            n = pred.n
    except closedform.OutOfRegimeError:
        return n, nan, nan, nan, nan, closedform.period(g_turn, R)
    if isinstance(pred, closedform.AiryDensity):
        return n, nan, nan, nan, nan, pred.T_Q
    return n, pred.n0, pred.f, pred.M, pred.delta, pred.T_Q


def cmd_sweep(cfg):
    schedules = [build_schedule(cfg["protocol"], tau) for tau in _tau_list(cfg, "sweep")]
    opts, quad = _solver_settings(cfg)
    # one lock-step batch; each row is bitwise what its tau gives alone
    spectra = evolver.evolve_spectra_quadrature(schedules, opts, **quad)
    rows = [[sch.tau_q, evolver.defect_density(sp), *closed_form_density(sch)]
            for sch, sp in zip(schedules, spectra)]
    keys = ("steps", "accepted", "rejected", "h_min", "lab_modes", "sa_windows", "sa_share")
    records = [{"tau_Q": sch.tau_q, "norm_drift": float(sp.norm_drift),
                **{k: sp.meta[k] for k in keys}}
               for sch, sp in zip(schedules, spectra)]
    prefix = cfg["output"]["prefix"]
    csv_path = prefix + "_sweep.csv"
    _write_csv(csv_path,
               ["tau_Q", "n_numeric", "n_closed_form", "n0", "f", "M", "delta",
                "T_Q_predicted"],
               rows, cfg)
    # the solver's record of each row holds no wall time, so reruns are byte-identical
    sidecar = {"config": cfg, "config_hash": config_hash(cfg),
               "package_version": __version__, "rows": len(rows), "solver_rows": records}
    with open(prefix + "_sweep.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return [csv_path, prefix + "_sweep.json"]


def cmd_correlator(cfg):
    prefix = cfg["output"]["prefix"]
    taus = _tau_list(cfg, "correlator")
    tags = [tag.replace(".", "p") for tag in _tau_tags(taus, "correlator.tau_q")]
    schedules = [build_schedule(cfg["protocol"], tau) for tau in taus]
    forms = [correlator_closed_forms(sch) for sch in schedules]
    grids = [_r_grid(cfg["correlator"], ls) for ls, _ in forms]
    opts, quad = _solver_settings(cfg)
    # one lock-step batch; each spectrum is bitwise what its tau gives alone
    spectra = evolver.evolve_spectra_quadrature(
        schedules, opts, max_r=[float(r[-1]) for r in grids], **quad)
    files = []
    for tau, tag, (ls, closed), r, sp in zip(taus, tags, forms, grids, spectra):
        fc = correlators.fermionic_correlators_numeric(sp, r)
        c_quad = correlators.czz(fc)
        n0 = closedform.kz_density(tau)
        alpha, beta, dephased = closed(r)
        c_closed = np.abs(beta) ** 2 - alpha ** 2
        rows = [[ri, n0 * ri, cq, cc, -a * a, abs(b) ** 2, dp]
                for ri, cq, cc, a, b, dp in zip(r, c_quad, c_closed, alpha, beta, dephased)]
        path = "%s_correlator_tau%s.csv" % (prefix, tag)
        _write_csv(path,
                   ["r", "n0_r_scaled", "Czz_quadrature", "Czz_closed",
                    "minus_alpha_sq", "beta_sq", "dephased"],
                   rows, cfg)
        files.append(path)
        lrows = []
        for m in range(5):
            lrows.append([m + 1, ls.l_alpha[m] if m < 2 else float("nan"),
                          ls.l_beta[m], ls.xi_hat])
        lpath = "%s_lengths_tau%s.csv" % (prefix, tag)
        _write_csv(lpath, ["m", "l_alpha", "l_beta", "xi_hat"], lrows, cfg)
        files.append(lpath)
    return files


def _ed_record(state):
    """The ED oracle's run record for a validate check's detail."""
    m = state.meta
    return {"ed_steps": m["steps"], "ed_rejected": m["rejected"], "ed_h_min": m["h_min"],
            "sector_dim": m["sector_dim"]}


def cmd_validate(cfg):
    """ED-oracle comparison plus invariant checks; machine-readable report."""
    # validate runs at SolverOptions() and its own mode grids
    for name in ("solver", "quadrature"):
        if cfg[name] != DEFAULT_CONFIG[name]:
            raise ConfigError("%s: validate runs at fixed settings and reads no %s "
                              "section; leave it at its default" % (name, name))
    N = cfg["validate"]["N"]
    try:
        edoracle.check_chain_length(N)
    except ValueError as exc:
        raise ConfigError("validate.N: %s" % exc) from None
    taus = _tau_list(cfg, "validate")
    tags = _tau_tags(taus, "validate.tau_q")
    checks = []

    def record(name, passed, detail, tolerance):
        checks.append({"name": name, "passed": bool(passed), "detail": detail,
                       "tolerance": tolerance})

    opts = SolverOptions()
    try:
        pairs = [(protocol.round_trip(0.0, tau, 1.0), protocol.reversed_round_trip(1.5, tau, 1.0))
                 for tau in taus]
    except ValueError as exc:
        raise ConfigError("validate.tau_q: %s" % exc) from None
    # every BdG spectrum in one lock-step batch, the N = 64 sample last
    spectra = evolver.evolve([(s, mode_grid(N)) for pair in pairs for s in pair]
                             + [(protocol.round_trip(0.0, 10.0, 1.0), mode_grid(64))], opts)
    for tag, (sch, schr), sp, spr in zip(tags, pairs, spectra[:-1:2], spectra[1::2]):
        st = edoracle.evolve_exact(sch, N, opts)
        n_ed = edoracle.measure_defects(st, "paramagnetic")
        n_bdg = evolver.fermion_density(sp)
        record("ed_vs_bdg_roundtrip_tau" + tag, abs(n_ed - n_bdg) < 1e-6,
               {"n_ed": n_ed, "n_bdg": n_bdg, "diff": abs(n_ed - n_bdg),
                **_ed_record(st)}, 1e-6)
        par = edoracle.parity_expectation(st)
        record("parity_tau" + tag, abs(par - 1.0) < 1e-9, {"parity": par}, 1e-9)
        str_ = edoracle.evolve_exact(schr, N, opts)
        k_ed = edoracle.measure_defects(str_, "ferromagnetic")
        k_bdg = evolver.defect_density(spr)
        record("ed_vs_bdg_reversed_tau" + tag, abs(k_ed - k_bdg) < 1e-6,
               {"kinks_ed": k_ed, "kinks_bdg": k_bdg, "diff": abs(k_ed - k_bdg),
                **_ed_record(str_)}, 1e-6)
    sp = spectra[-1]
    record("norm_drift", sp.norm_drift <= 10.0 * opts.rel_tol,
           {"norm_drift": sp.norm_drift}, 10.0 * opts.rel_tol)
    terms = closedform.interference_terms_roundtrip(sp.q, 10.0, 1.0)
    lo = (terms.A - terms.B) ** 2 - 1e-3
    hi = (terms.A + terms.B) ** 2 + 1e-3
    ok = bool(np.all(sp.p >= lo) and np.all(sp.p <= hi))
    record("bounds_sample", ok, {"max_violation": float(max(np.max(lo - sp.p), np.max(sp.p - hi)))}, 1e-3)
    report = {"checks": checks, "all_passed": all(c["passed"] for c in checks),
              "config_hash": config_hash(cfg)}
    prefix = cfg["output"]["prefix"]
    with open(prefix + "_validate.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def cmd_protocol_render(cfg):
    stream = sys.stdout
    taus = _tau_list(cfg, "sweep")
    sch = build_schedule(cfg["protocol"], taus[0])
    stream.write("schedule kind=%s  span=[%g, %g]\n" % (sch.kind, sch.t_start, sch.t_end))
    stream.write("breakpoints (t, g, J_x, J_y):\n")
    times = [sch.segments[0].t_start] + [s.t_end for s in sch.segments]
    for t in times:
        g, jx, jy = sch.params_at(t)
        stream.write("  %s %s %s %s\n" % (_fmt(t), _fmt(g), _fmt(jx), _fmt(jy)))
    stream.write("crossings (t, q_c, label):\n")
    for c in sch.crossings:
        stream.write("  %s %s %s\n" % (_fmt(c.t), _fmt(c.q_c), c.label))
    return sch


def main(argv=None):
    parser = argparse.ArgumentParser(prog="kzquench",
                                     description="Quench interferometry runs")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (dotted path, JSON value)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "correlator", "validate", "protocol-render"):
        sub.add_parser(name)
    args = parser.parse_args(argv)
    code = EXIT_OK
    try:
        cfg = load_config(args.config, args.set)
        if args.command == "sweep":
            for f in cmd_sweep(cfg):
                print(f)
        elif args.command == "correlator":
            for f in cmd_correlator(cfg):
                print(f)
        elif args.command == "validate":
            report = cmd_validate(cfg)
            if not report["all_passed"]:
                code = EXIT_VALIDATION
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "protocol-render":
            cmd_protocol_render(cfg)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader closed stdout: drop the rest, so the interpreter's last
        # flush at exit has nowhere to fail
        sys.stdout = open(os.devnull, "w")
    return code


if __name__ == "__main__":
    sys.exit(main())
