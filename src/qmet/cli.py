"""Command-line front end: reproducible sweeps emitted as CSV/JSON.

Commands mirror the library's capabilities: 'qfi' and 'gbound' sweep the
numeric Fisher quantities against their closed forms, 'optimize' cross-checks
the bound by derivative-free search, 'phase-sim' runs the read-out simulator,
'jc' and 'oscillator' evaluate the two measurement-model examples, and
'selftest' executes the randomized property suites.

One parser, built at import, takes the command and ten flags, in any order.  A
run is configured by defaults, then an INI file (sections [model], [grid],
[diff], [phasesim], [optimizer], [run]), then flags: each overrides the one
before.  One settings table declares each setting once: its INI section, its key
(its RunConfig attribute and config-hash entry too), default, parser and, for
eight keys, flag help; another section or key, bar [model] and [diff] method, is
a config error.  One model table holds each model's defaults and each probe's
factory and closed forms.  One sweep table gives each command its row builder,
which checks its model's parameters, its columns, models and points; one loop runs
every sweep: a point's numerical failure, a Python float overflow included, or
a non-finite value in a column not declared as possibly non-finite, is exit 3
naming that point.  The 'qfi' column, the 'jc' classical Fisher information and
the 'phase-sim' read-out Fisher information are analytic by default; a [diff]
section (method defaults to richardson-fd) switches all three to the
finite-difference oracle.  The generators behind G and max_qfi are always
analytic.  With a fixed seed, repeated runs produce byte-identical output;
every file carries its config hash.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .cem import _optimize, encoded_qfi, g_bound
from .errors import InvalidParameter, QmetError
from .fisher import classical_fisher
from .models import (
    jc_readout_model,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
    reference,
)
from .numdiff import RICHARDSON, DiffSpec
from .phasesim import IDEAL, REALISTIC, PhaseSimConfig, _check_bounds, _readouts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Configuration could not be resolved into a runnable sweep."""


@dataclass
class RunConfig:
    """Fully resolved sweep configuration: these fields, and each _SETTINGS row's key."""

    command: str
    model: str = "qubit-direction"
    model_params: dict = field(default_factory=dict)
    diff_method: Optional[str] = None  # None: analytic where a path exists

    def __post_init__(self):
        for _, key, default, parse, _ in _SETTINGS:
            setattr(self, key, None if default is None else parse(default))

    def diff(self) -> Optional[DiffSpec]:
        """The finite-difference oracle spec, None when no [diff] section was given."""
        if self.diff_method is None:
            return None
        return DiffSpec(method=self.diff_method, step=self.step, levels=self.levels)

    def canonical(self) -> str:
        items = {"command": self.command, "model": self.model,
                 "model_params": json.dumps(self.model_params, sort_keys=True),
                 "diff": f"{self.diff_method}:{self.step}:{self.levels}"}
        for section, key, _, parse, _ in _SETTINGS:
            if section != "diff" and key != "out":  # [diff] enters as diff; out is unhashed
                v = getattr(self, key)
                items[key] = ",".join(f"{x:.17g}" for x in v) if parse is _parse_grid else v
        return "\n".join(f"{k}={items[k]}" for k in sorted(items))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop = float(start), float(stop)
        if not math.isfinite(stop - start):  # nan, inf, or a span that overflows
            raise ConfigError(f"grid {text!r} needs a finite START, STOP and STOP - START")
        grid = np.linspace(start, stop, int(count))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"grid spec must be START:STOP:N, got {text!r}") from exc
    if grid.size == 0:
        raise ConfigError(f"grid {text!r} is empty")
    if grid.size > 10**5:
        raise ConfigError(f"grid {text!r} exceeds 1e5 points")
    return grid


# Each model's parameter defaults; a probe's factory of them, and its closed forms of
# (params, theta, t), NaN where none exists.  The lambdas look the factories and
# `reference` up at call time, so a patched module attribute takes effect.
_Model = namedtuple("_Model", "params build qfi max_qfi g", defaults=(None,) * 4)
_MODELS = {
    "qubit-direction": _Model({"omega": 1.0},
        build=lambda p: make_qubit_direction(p["omega"]),
        qfi=lambda p, q, t: reference("direction_qfi")(theta=q, omega=p["omega"], t=t),
        max_qfi=lambda p, q, t: reference("direction_max_qfi")(omega=p["omega"], t=t),
        g=lambda p, q, t: reference("direction_g")(omega=p["omega"], t=t)),
    "qubit-xcomponent": _Model({"omega": 1.0},
        build=lambda p: make_qubit_xcomponent(p["omega"]),
        qfi=lambda p, q, t: math.nan,
        max_qfi=lambda p, q, t: reference("xcomponent_max_qfi")(theta=q, omega=p["omega"], t=t),
        g=lambda p, q, t: reference("xcomponent_g")(theta=q, omega=p["omega"], t=t)),
    "nv-spin1": _Model({"mu": 1.0, "D": 1.44 * math.pi, "E": 5e-5 * math.pi},
        build=lambda p: make_nv_spin1(p["mu"], p["D"], p["E"]),
        qfi=lambda p, q, t: math.nan,
        max_qfi=lambda p, q, t: reference("nv_max_qfi")(theta=q, mu=p["mu"], E=p["E"], t=t),
        g=lambda p, q, t: reference("nv_g")(theta=q, mu=p["mu"], E=p["E"], t=t)),
    "jaynes-cummings": _Model({"kappa": 0.5, "n_max": 8, "alpha1_sq": 0.5}),
    "oscillator": _Model({"mass": 1.0, "omega": 1.0}),
}


# (INI section, key, default, parser, flag help): each setting's one declaration.  The key
# is its RunConfig attribute and config-hash entry too; the default is parser text or None.
# A row with help is also the flag --<key>, read by the same parser; the rest are INI-only.
_SETTINGS = (
    ("grid", "theta", "0.3:2.8:10", _parse_grid, "theta grid START:STOP:N"),
    ("grid", "t", "0.3:3:10", _parse_grid, "time grid START:STOP:N"),
    ("diff", "step", None, float, None),
    ("diff", "levels", "2", int, None),
    ("phasesim", "n", "6", int, "control-qubit count"),
    ("phasesim", "m", "3", int, "controllization subdivisions"),
    ("phasesim", "tau", None, float, "read-out base time"),
    ("optimizer", "restarts", "8", int, None),
    ("optimizer", "iterations", "400", int, None),
    ("run", "seed", "0", int, "random seed"),
    ("run", "out", None, str, "output path (default stdout)"),
    ("run", "format", "csv", str, "csv or json (default csv)"),
)


def _parsed(text: str, parse, where: str):
    """text parsed; text the parser rejects is a ConfigError naming where it was given."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where} must be {parse.__name__}, got {text!r}") from exc


def _read_ini(path: Optional[str]) -> dict:
    """{section: {key: text}} of the INI file at path, {} for none.  An unparsable file, a
    section other than [model] and those of _SETTINGS, or a key no row declares (nor [diff]
    method) is a ConfigError; [DEFAULT] keys, copied into every section, are not checked."""
    ini = configparser.ConfigParser()
    ini.optionxform = str  # model parameters like D and E are case-sensitive
    try:
        if path is not None and not ini.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path!r}")
        sections = {name: dict(ini[name]) for name in ini.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
    declared = {(section, key) for section, key, *_ in _SETTINGS} | {("diff", "method")}
    for name, keys in sections.items():
        if name not in {section for section, _ in declared} | {"model"}:
            raise ConfigError(f"unknown section [{name}]")
        for key in keys:
            if name != "model" and (name, key) not in declared and key not in ini.defaults():
                raise ConfigError(f"unknown key [{name}] {key}")
    return sections


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the INI file, then flags, each overriding the one before; then checks."""
    cfg, sweep = RunConfig(command=args.command), _SWEEPS.get(args.command)
    cfg.model = sweep.models[0] if sweep is not None else cfg.model
    ini = _read_ini(args.config)
    if "model" in ini:
        cfg.model = ini["model"].get("name", cfg.model)
        cfg.model_params = {key: _parsed(text, float, f"[model] {key}")
                            for key, text in ini["model"].items() if key != "name"}
    if "diff" in ini:  # any [diff] section selects the oracle path
        cfg.diff_method = ini["diff"].get("method", RICHARDSON)
    for section, key, _, parse, _ in _SETTINGS:
        if key in ini.get(section, {}):
            setattr(cfg, key, _parsed(ini[section][key], parse, f"[{section}] {key}"))

    if args.model is not None:
        cfg.model = args.model
    for _, key, _, parse, _ in _SETTINGS:
        if (text := getattr(args, key, None)) is not None:
            setattr(cfg, key, _parsed(text, parse, f"--{key}"))

    if cfg.model not in _MODELS:
        raise ConfigError(f"unknown model {cfg.model!r}; choose from {', '.join(sorted(_MODELS))}")
    if sweep is not None and cfg.model not in sweep.models:
        raise ConfigError(f"command {args.command!r} supports models "
                          f"{', '.join(sweep.models)}, got {cfg.model!r}")
    params = dict(_MODELS[cfg.model].params)
    for key in cfg.model_params:
        if key not in params:
            raise ConfigError(f"model {cfg.model!r} does not take parameter {key!r}")
    params.update(cfg.model_params)
    cfg.model_params = params
    for key, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"[model] {key} must be finite, got {value}")
    if cfg.restarts < 1 or cfg.iterations < 1 or cfg.seed < 0:
        raise ConfigError(f"optimizer restarts and iterations must be >= 1 and its seed >= 0, "
                          f"got {cfg.restarts}, {cfg.iterations} and {cfg.seed}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.out is not None:  # checked here, as the sweep writes only after its last point
        folder, name = os.path.split(cfg.out)
        if not os.path.isdir(folder or "."):
            raise ConfigError(f"output path {cfg.out!r}: no directory {folder!r}")
        if not name or os.path.isdir(cfg.out):
            raise ConfigError(f"output path {cfg.out!r} names a directory, not a file")
    try:
        cfg.diff()  # DiffSpec owns the valid [diff] settings
    except ValueError as exc:
        raise ConfigError(f"[diff] {exc}") from exc
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_records(cfg: RunConfig, columns, records) -> None:
    """Render records deterministically and write them to cfg.out or stdout."""
    if cfg.format == "json":
        payload = {
            "version": __version__,
            "config_sha256": cfg.config_hash(),
            "columns": list(columns),
            "records": [[_fmt(v) for v in rec] for rec in records],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# qmet {__version__} config-sha256={cfg.config_hash()}"]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in rec) for rec in records)
        text = "\n".join(lines) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _qfi_row(cfg: RunConfig):
    probe, p = _MODELS[cfg.model], cfg.model_params
    model = probe.build(p)
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[0, 0] = 1.0  # the projector on the first basis state
    diff = cfg.diff()

    def row(point):
        theta, t = point
        report, sigma_dyn = encoded_qfi(model, theta, t, rho0, diff)
        value, max_value = report.value, sigma_dyn ** 2
        ref, max_ref = probe.qfi(p, theta, t), probe.max_qfi(p, theta, t)
        abs_err = abs(value - ref) if math.isfinite(ref) else math.nan
        max_abs_err = abs(max_value - max_ref) if math.isfinite(max_ref) else math.nan
        return (theta, t, value, report.error_estimate, ref, abs_err,
                max_value, max_ref, max_abs_err)

    return row


def _gbound_row(cfg: RunConfig):
    probe = _MODELS[cfg.model]
    model = probe.build(cfg.model_params)

    def row(point):
        theta, t = point
        sol = g_bound(model, theta, t)
        max_value = sol.gaps[0] ** 2
        ref = probe.g(cfg.model_params, theta, t)
        abs_err = abs(sol.G_value - ref) if math.isfinite(ref) else math.nan
        gamma = max_value / sol.G_value if sol.G_value > 0 else math.inf
        return (theta, t, sol.G_value, ref, abs_err, sol.condition_holds, max_value, gamma)

    return row


def _optimize_row(cfg: RunConfig):
    model = _MODELS[cfg.model].build(cfg.model_params)

    def row(point):
        theta, t = point
        sol, (best, _, _) = _optimize(model, theta, t, (cfg.restarts, cfg.iterations), cfg.seed)
        gap = abs(best - sol.G_value) / sol.G_value if sol.G_value > 0 else math.nan
        return (cfg.restarts, cfg.iterations, cfg.seed, theta, t, best, sol.G_value, gap,
                sol.condition_holds)

    return row


def _phase_sim_row(cfg: RunConfig):
    model = _MODELS[cfg.model].build(cfg.model_params)
    diff = cfg.diff()
    try:  # PhaseSimConfig's bounds on n, m and tau
        _check_bounds(cfg.n, cfg.m, cfg.tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    def row(point):
        theta, t = point
        sol = g_bound(model, theta, t)
        sim = PhaseSimConfig(n=cfg.n, m=cfg.m, tau=cfg.tau, t=t, V=sol.V_opt,
                             rho0=np.outer(sol.psi_opt, sol.psi_opt.conj()))
        tau, (ideal, real) = _readouts(sim, model, theta, diff, (IDEAL, REALISTIC))
        G = sol.G_value
        ratios = (ideal.value / G, real.value / G) if G > 0 else (math.nan, math.nan)
        return (cfg.n, cfg.m, tau, theta, t, ideal.value, ideal.error_estimate, real.value,
                real.error_estimate, G, *ratios)

    return row


def _jc_row(cfg: RunConfig):
    p = cfg.model_params
    alpha1_sq = p["alpha1_sq"]
    if not 0.0 <= alpha1_sq <= 1.0:
        raise InvalidParameter(f"alpha1_sq must be in [0, 1], got {alpha1_sq}")
    if not float(p["n_max"]).is_integer():  # its range is jc_readout_model's
        raise InvalidParameter(f"n_max must be an integer, got {p['n_max']}")
    alpha0, alpha1 = math.sqrt(1.0 - alpha1_sq), math.sqrt(alpha1_sq)
    diff = cfg.diff()
    # One read-out model per t; jc_readout_model owns the ranges of kappa and n_max.
    readout = {t: jc_readout_model(p["kappa"], t, alpha0, alpha1, int(p["n_max"]))
               for t in cfg.t.tolist()}

    def row(point):
        omega, t = point
        fc_sim = classical_fisher(readout[t], omega, diff)  # first: it checks omega in (0, inf)
        fq = reference("jc_qfi")(t=t, alpha1_sq=alpha1_sq)
        fc_ref = reference("jc_fc")(omega=omega, kappa=p["kappa"], t=t, alpha1_sq=alpha1_sq)
        threshold = reference("jc_enhancement_threshold")(omega=omega, kappa=p["kappa"], t=t)
        divergent = fq == 0.0
        gamma = math.inf if divergent else fc_sim.value / fq
        region = (1.0 - alpha1_sq) < threshold
        return (omega, t, fq, fc_sim.value, fc_sim.error_estimate, fc_ref, gamma,
                (not divergent) and gamma > 1.0, threshold, region, divergent)

    return row


def _oscillator_row(cfg: RunConfig):
    mass, omega = cfg.model_params["mass"], cfg.model_params["omega"]
    for key, value in (("mass", mass), ("omega", omega)):
        if not value > 0.0:
            raise InvalidParameter(f"{key} must be positive, got {value}")

    def row(t):
        fq = reference("oscillator_qfi")(m=mass, omega=omega, t=t)
        fc = reference("oscillator_fc")(m=mass, omega=omega)
        gamma = reference("oscillator_gamma")(omega=omega, t=t)
        small_sine = abs(math.sin(omega * t / 2.0)) < 0.5
        return (omega, t, fq, fc, gamma, gamma > 1.0, small_sine)

    return row


def _theta_t(cfg: RunConfig):
    return itertools.product(cfg.theta.tolist(), cfg.t.tolist())


# One entry per sweep command: its row builder, which does the once-per-run set-up and
# returns row(point); its columns; those of them that may hold a non-finite value; the
# models it accepts, the first being its default; and its grid points.  The default grid
# is theta-major, so the probe commands decompose H(theta) (and g_diag, where G is
# needed) once per theta row, at its first t: the library keeps that working point
# (cem._point).  The oscillator's closed forms take t alone.
_Sweep = namedtuple("_Sweep", "build columns nonfinite models points",
                    defaults=(tuple(name for name, m in _MODELS.items() if m.build), _theta_t))
_SWEEPS = {
    "qfi": _Sweep(_qfi_row, "theta t qfi qfi_err qfi_ref abs_err max_qfi max_qfi_ref "
                  "max_abs_err", "qfi_ref abs_err"),
    "gbound": _Sweep(_gbound_row, "theta t g g_ref abs_err condition max_qfi gamma", "gamma"),
    "optimize": _Sweep(_optimize_row, "restarts iterations seed theta t best_fi g rel_gap "
                       "condition", "rel_gap"),
    "phase-sim": _Sweep(_phase_sim_row, "n m tau theta t fi_ideal fi_ideal_err fi_realistic "
                        "fi_realistic_err g ratio_ideal ratio_realistic",
                        "ratio_ideal ratio_realistic"),
    "jc": _Sweep(_jc_row, "omega t fq_ref fc_sim fc_sim_err fc_ref gamma gamma_gt1 "
                 "alpha0sq_threshold enhancement_region gamma_divergent",
                 "gamma", ("jaynes-cummings",)),
    "oscillator": _Sweep(_oscillator_row, "omega t fq_ref fc_ref gamma gamma_gt1 "
                         "small_sine_region", "gamma", ("oscillator",),
                         lambda cfg: cfg.t.tolist()),
}


def _sweep(cfg: RunConfig, sweep: _Sweep) -> int:
    """Rows at every grid point in order, written once.  A parameter the builder rejects
    is a [model] ConfigError.  The first row that raises a QmetError or ArithmeticError,
    or holds a non-finite value outside sweep.nonfinite, is exit 3 naming its point.
    NumPy's floating-point warnings are off meanwhile; that finiteness rule replaces them."""
    try:
        row = sweep.build(cfg)
    except InvalidParameter as exc:
        raise ConfigError(f"[model] {exc}") from exc
    columns, nonfinite = sweep.columns.split(), sweep.nonfinite.split()
    records = []
    with np.errstate(all="ignore"):
        for point in sweep.points(cfg):
            try:
                records.append(row(point))
                for name, value in zip(columns, records[-1]):
                    if not (math.isfinite(value) or name in nonfinite):
                        raise ArithmeticError(f"non-finite {name} = {value}")
            except (QmetError, ArithmeticError) as exc:
                print(f"numerical failure at grid point {point}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                return EXIT_NUMERICAL
    write_records(cfg, columns, records)
    return EXIT_OK


def cmd_selftest(cfg: RunConfig) -> int:
    from .selftest import run_all  # only this command needs it: kept out of start-up

    results = run_all()
    all_ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and passed
    return EXIT_OK if all_ok else EXIT_NUMERICAL


_PARSER = argparse.ArgumentParser(
    prog="qmet",
    description="Fisher-information sweeps for controlled energy measurements",
)
_PARSER.add_argument("command", choices=(*_SWEEPS, "selftest"))
_PARSER.add_argument("--config", help="INI config file")
_PARSER.add_argument("--model", help="model name")
for _, key, _, _, help_text in _SETTINGS:
    if help_text is not None:
        _PARSER.add_argument(f"--{key}", help=help_text)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _sweep(cfg, _SWEEPS[cfg.command]) if cfg.command in _SWEEPS else cmd_selftest(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QmetError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
