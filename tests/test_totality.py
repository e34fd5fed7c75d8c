"""The library is total at the edges of the float range: the generators, encoded_qfi,
fisher_cem, the phase read-outs and tune_tau (each analytic and DiffSpec), optimize_cem,
both distributions, circuit_oracle, jc's classical_fisher (analytic and DiffSpec) and the
model factories, fed nan, +-inf, +-1e308, +-1e200, 5e-324 or 0 in one argument while the
others keep working values, or an extreme pair of them, return finite values (an error
estimate may be inf) or raise a QmetError or ValueError, and let no NumPy warning escape.
Every count qmet takes refuses those values, floats and bools with its own typed error, and
runs a NumPy integer as the equal Python int."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from qmet import cem, models, phasesim
from qmet.errors import InvalidParameter, QmetError
from qmet.fisher import FisherReport, OutcomeDistribution, classical_fisher
from qmet.numdiff import DiffSpec

EDGES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, -1e200, 5e-324, 0.0)
NV_PARAMS = (1.0, 1.44 * math.pi, 5e-5 * math.pi)
THETA, T = 0.8, 1.1


def ground(d):
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def readout_calls(model, theta, t, tau=None, shift=None):
    """{name: call} of the phase read-out entry points; the config is made in the call."""
    def cfg():
        return phasesim.PhaseSimConfig(n=4, m=2, t=t, tau=tau, energy_shift=shift,
                                       rho0=ground(model.dim))

    found = {"ideal_distribution": lambda: phasesim.ideal_distribution(cfg(), model, theta),
             "realistic_distribution": lambda: phasesim.realistic_distribution(cfg(), model,
                                                                              theta),
             "circuit_oracle": lambda: phasesim.circuit_oracle(cfg(), model, theta)}
    for diff, suffix in ((None, ""), (DiffSpec(), "-diff")):
        found.update({
            f"fisher_phase_readout-ideal{suffix}": lambda diff=diff: phasesim.fisher_phase_readout(
                cfg(), model, theta, diff, mode="ideal"),
            f"fisher_phase_readout-realistic{suffix}":
                lambda diff=diff: phasesim.fisher_phase_readout(cfg(), model, theta, diff,
                                                                mode="realistic"),
            f"tune_tau{suffix}": lambda diff=diff: phasesim.tune_tau(cfg(), model, theta,
                                                                     diff=diff),
        })
    return found


def calls(model, theta=THETA, t=T):
    """{name: call} of every entry point that takes (model, theta, t)."""
    d, diff = model.dim, DiffSpec()
    return {
        "g_bound": lambda: cem.g_bound(model, theta, t),
        "g_bound-diff": lambda: cem.g_bound(model, theta, t, diff),
        "generator_pair": lambda: cem.generator_pair(model, theta, t),
        "generator_pair-diff": lambda: cem.generator_pair(model, theta, t, diff),
        "encoded_qfi": lambda: cem.encoded_qfi(model, theta, t, ground(d)),
        "encoded_qfi-diff": lambda: cem.encoded_qfi(model, theta, t, ground(d), diff),
        "fisher_cem": lambda: cem.fisher_cem(model, theta, t, np.eye(d), ground(d)),
        "fisher_cem-diff": lambda: cem.fisher_cem(model, theta, t, np.eye(d), ground(d), diff),
        "optimize_cem": lambda: cem.optimize_cem(model, theta, t, budget=(2, 10)),
        **readout_calls(model, theta, t),
    }


def jc_calls(kappa=0.5, t=1.0, omega=1.0):
    """{name: call} of jc's classical_fisher, analytic and finite-difference; the read-out
    model is made in the call."""
    def fisher(diff=None):
        return classical_fisher(models.jc_readout_model(kappa, t, 0.6, 0.8, 4), omega, diff)

    return {"jc": fisher, "jc-diff": lambda: fisher(DiffSpec())}


FACTORIES = {
    "qubit-direction": lambda v=1.0: models.make_qubit_direction(v),
    "qubit-xcomponent": lambda v=1.0: models.make_qubit_xcomponent(v),
    "nv-spin1": lambda v=NV_PARAMS[0]: models.make_nv_spin1(v, *NV_PARAMS[1:]),
    "nv-spin1-D": lambda v=NV_PARAMS[1]: models.make_nv_spin1(NV_PARAMS[0], v, NV_PARAMS[2]),
    "nv-spin1-E": lambda v=NV_PARAMS[2]: models.make_nv_spin1(*NV_PARAMS[:2], v),
    "jaynes-cummings": lambda v=0.5: models.make_jaynes_cummings(v, 4),
}
PROBES = ("qubit-direction", "qubit-xcomponent", "nv-spin1")


def cases(argument, v):
    """{label: call} that feeds v to one argument."""
    if argument in FACTORIES:  # a model parameter: the factory, then every entry point
        def made(name=argument):
            model = FACTORIES[name](v)
            return {} if name == "jaynes-cummings" else calls(model)

        return {"factory": made}
    if argument.startswith("jc-"):
        return jc_calls(**{argument[3:]: v})
    found = {}
    for name in PROBES:
        model = FACTORIES[name]()
        entries = {"theta": lambda: calls(model, theta=v), "t": lambda: calls(model, t=v),
                   "tau": lambda: readout_calls(model, THETA, T, tau=v),
                   "energy_shift": lambda: readout_calls(model, THETA, T, shift=v)}[argument]()
        found.update({f"{name} {label}": call for label, call in entries.items()})
    return found


def values(result):
    """Every float a result holds, error estimates left out."""
    if isinstance(result, FisherReport):
        return [result.value]
    if isinstance(result, OutcomeDistribution):
        return list(result.probs)
    if isinstance(result, (cem.CemSolution, cem.GeneratorPair)):
        return [x for name, x in vars(result).items() if name != "method" for x in values(x)]
    if isinstance(result, tuple):
        return [x for item in result for x in values(item)]
    if isinstance(result, np.ndarray):
        return list(np.ravel(result).view(float) if result.dtype == complex else np.ravel(result))
    if isinstance(result, dict):
        return []
    return [float(result)]


def outcome(call):
    """"ok", "typed" or what went wrong, with NumPy's warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except (QmetError, ValueError):
            return "typed", None
        except Exception as exc:  # noqa: BLE001 -- a warning or an untyped error
            return f"{type(exc).__name__}: {exc}", None
    if not all(math.isfinite(x) for x in values(result)):
        return "non-finite value", None
    return "ok", result


@pytest.mark.parametrize("argument", ["theta", "t", "tau", "energy_shift", *FACTORIES,
                                      "jc-kappa", "jc-t", "jc-omega"])
def test_every_entry_point_is_total_at_the_float_edges(argument):
    failures = []
    for v in EDGES:
        pending = list(cases(argument, v).items())
        while pending:
            label, call = pending.pop()
            kind, result = outcome(call)
            if kind not in ("ok", "typed"):
                failures.append(f"{argument} = {v}, {label}: {kind}")
            elif isinstance(result, dict):  # a model was made: run every entry point on it
                pending += [(f"{label} {name}", c) for name, c in result.items()]
    assert not failures, "\n".join(failures)


def test_two_extreme_arguments_at_once():
    """A field of 5e307 at theta = 1e-300 keeps H(theta) small while dH/dtheta holds 1e308,
    so its matrix in the eigenbasis of H overflows: the analytic paths raise a QmetError."""
    model = FACTORIES["nv-spin1"](5e307)
    found = {label: outcome(call)[0] for label, call in calls(model, theta=1e-300).items()}
    assert set(found.values()) <= {"ok", "typed"}, found
    assert found["fisher_phase_readout-ideal"] == found["g_bound"] == "typed"


def test_a_large_field_at_t_zero():
    """At mu = 1e200 NumPy's norm of dH/dtheta overflows in its sum of squares, while dH's
    matrix in the eigenbasis of H stays finite; at t = 0, g_dyn and its rounding bound are
    0, so no estimate forms 0 x inf."""
    model = FACTORIES["nv-spin1"](1e200)
    found = {label: outcome(call)[0] for label, call in calls(model, t=0.0).items()}
    assert set(found.values()) <= {"ok", "typed"}, found


def count_calls():
    """{argument: (call of one count, its entry point's error, the name its message gives,
    a valid count)} of every count argument qmet takes; the other arguments keep working
    values."""
    model = FACTORIES["qubit-direction"]()
    U, sz, sx = model.u_of(THETA, T), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])

    def readout(n=4, m=2):
        cfg = phasesim.PhaseSimConfig(n=n, m=m, t=T, rho0=ground(2))
        return phasesim.realistic_distribution(cfg, model, THETA)

    def jc(n_max):
        return classical_fisher(models.jc_readout_model(0.5, 1.0, 0.6, 0.8, n_max), 1.0)

    return {
        "DiffSpec levels": (lambda v: cem.g_bound(model, THETA, T, DiffSpec(levels=v)),
                            ValueError, "levels", 2),
        "PhaseSimConfig n": (lambda v: readout(n=v), ValueError, "control-qubit count n", 4),
        "PhaseSimConfig m": (lambda v: readout(m=v), ValueError, "subdivision count m", 2),
        "aligned_tau n": (lambda v: phasesim.aligned_tau(model, THETA, v), ValueError,
                          "control-qubit count n", 4),
        "controllization_factors m": (lambda v: phasesim.controllization_factors(U, v),
                                      ValueError, "subdivision count m", 3),
        "controllization_oracle m": (
            lambda v: phasesim.controllization_oracle(U, 1, 0, ground(2), v), ValueError,
            "subdivision count m", 2),
        "make_jaynes_cummings n_max": (lambda v: models.make_jaynes_cummings(0.5, v).h_of(1.0),
                                       InvalidParameter, "n_max", 4),
        "jc_readout_model n_max": (jc, InvalidParameter, "n_max", 4),
        "jc_field_state n_max": (lambda v: models.jc_field_state(1.0, 1.0, 0.6, 0.8, v),
                                 InvalidParameter, "n_max", 4),
        "optimize_cem restarts": (lambda v: cem.optimize_cem(model, THETA, T, budget=(v, 10)),
                                  ValueError, "budget restarts", 2),
        "optimize_cem iterations": (lambda v: cem.optimize_cem(model, THETA, T, budget=(2, v)),
                                    ValueError, "budget iterations", 10),
        "max_gap_lemma_check trials": (lambda v: cem.max_gap_lemma_check(sz, sx, trials=v),
                                       ValueError, "trials", 5),
    }


def bits(result) -> bytes:
    """The bytes of every number, string and array a result holds, error estimates too."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return b"|".join(bits(x) for x in result)
    if isinstance(result, str):
        return result.encode()
    return np.asarray(result, dtype=complex).tobytes()


@pytest.mark.parametrize("argument", list(count_calls()))
def test_every_count_takes_the_one_count_rule(argument):
    """Each count, fed the float edges, 0, 2.0, 2.5 or True, raises its entry point's typed
    error (ValueError for a configuration count, InvalidParameter for a model parameter) from
    numdiff.require_count, which names it, with no NumPy warning: never a TypeError or
    IndexError, nor a value computed from a float or bool count.  A NumPy integer returns
    the equal Python int's bits."""
    call, error, name, valid = count_calls()[argument]
    failures = []
    for v in (*EDGES, 0, 2.0, 2.5, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(v)
                failures.append(f"{argument} = {v!r} returned a value")
            except error as exc:
                if f"{name} must be an integer" not in str(exc):
                    failures.append(f"{argument} = {v!r}: {exc}")
            except Exception as exc:  # noqa: BLE001 -- a warning or an untyped error
                failures.append(f"{argument} = {v!r}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bits(call(np.int64(valid))) == bits(call(valid))
