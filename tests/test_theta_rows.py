"""cem keeps its last working point (model, theta), and a kept point changes nothing.

Every analytic call at one (model, theta) shares one decomposition of H(theta)
and, where G is needed, one of g_diag (cem._point and its diag); the read-out calls
at one (t, V, rho0) there share one level jet (its levels).  A warm call must equal
the cold one bit for bit: g_bound, generator_pair, the analytic encoded_qfi,
cem._optimum, tune_tau and fisher_phase_readout.  The kept point holds read-only
arrays, no returned array aliases it, a call that raises keeps nothing new, and
another model object misses it.  At CLI level, each row of a 3 x 3 run must equal
the 1 x 1 run at its point, byte for byte.
"""

import io
import math
import weakref
from contextlib import redirect_stdout

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from memos import drop_memos  # noqa: E402
from qmet import cem, cli  # noqa: E402
from qmet.cem import encoded_qfi, g_bound, generator_pair  # noqa: E402
from qmet.errors import DomainBoundary, InvalidParameter  # noqa: E402
from qmet.phasesim import PhaseSimConfig, fisher_phase_readout, tune_tau  # noqa: E402
from qmet.models import (  # noqa: E402
    SIGMA_X,
    HamiltonianModel,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
# Each probe model with a theta range well inside its domain and away from degeneracy.
MODELS = {
    "qubit-direction": (lambda: make_qubit_direction(1.3), (0.05, 3.09)),
    "qubit-xcomponent": (lambda: make_qubit_xcomponent(0.7), (-3.0, 3.0)),
    "nv-spin1": (lambda: make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi), (0.05, 3.0)),
}


@st.composite
def rows(draw):
    """(model, theta, ts): one theta row of one to four times."""
    factory, (lo, hi) = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    theta = draw(st.floats(lo, hi))
    return factory(), theta, draw(st.lists(st.floats(0.05, 6.0), min_size=1, max_size=4))


def assert_same_solution(a, b):
    assert (a.G_value, a.gaps, a.condition_holds, a.method) == (
        b.G_value, b.gaps, b.condition_holds, b.method)
    assert np.array_equal(a.V_opt, b.V_opt) and np.array_equal(a.psi_opt, b.psi_opt)


def ground_projector(d):
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = 1.0
    return rho0


@SETTINGS
@given(rows())
def test_a_kept_theta_half_gives_the_one_point_values(row):
    """Across a theta row, each call with the point kept equals it cold, bit for bit."""
    model, theta, ts = row
    rho0 = ground_projector(model.dim)

    def values(t):
        jet, sol = cem._optimum(model, theta, t)
        return jet, sol, g_bound(model, theta, t), generator_pair(model, theta, t), \
            encoded_qfi(model, theta, t, rho0)

    cem._point(model, theta).diag  # warm: H(theta) and g_diag decomposed before the row
    for t in ts:
        warm = values(t)
        drop_memos()
        cold = values(t)
        assert all(np.array_equal(a, b) for a, b in zip(warm[0], cold[0]))
        for sol in (warm[1], warm[2], cold[2]):
            assert_same_solution(sol, cold[1])
        assert warm[3].gaps == cold[3].gaps
        assert np.array_equal(warm[3].g_dyn, cold[3].g_dyn)
        assert np.array_equal(warm[3].g_diag, cold[3].g_diag)
        assert warm[4] == cold[4]


@pytest.fixture
def spectra(monkeypatch):
    """One-element list counting cem._spectrum calls, from no kept point."""
    drop_memos()
    calls = [0]
    spectrum = cem._spectrum

    def counted(*args):
        calls[0] += 1
        return spectrum(*args)

    monkeypatch.setattr(cem, "_spectrum", counted)
    return calls


def test_returned_arrays_do_not_alias_the_memo():
    """The kept point's arrays are read-only; overwriting every array g_bound and
    generator_pair return leaves the next (warm) call unchanged."""
    model = make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi)
    drop_memos()
    sol, pair = g_bound(model, 0.8, 1.7), generator_pair(model, 0.8, 1.7)
    kept = [a.copy() for a in (sol.V_opt, sol.psi_opt, pair.g_dyn, pair.g_diag)]
    point = cem._point(model, 0.8)
    (es, _), jet = point.diag, point.jet(1.7)
    arrays = (point.E, point.W, point.dH, point.D, point.w, point.g_diag, jet.U, jet.g_dyn)
    assert not any(a.flags.writeable for a in (*arrays, es.eigenvalues, es.eigenvectors))
    for a in (sol.V_opt, sol.psi_opt, pair.g_dyn, pair.g_diag):
        a[...] = 7.0
    sol, pair = g_bound(model, 0.8, 1.7), generator_pair(model, 0.8, 1.7)
    for a, b in zip((sol.V_opt, sol.psi_opt, pair.g_dyn, pair.g_diag), kept):
        assert np.array_equal(a, b)


def test_model_owned_arrays_keep_their_flags():
    """A constant dh_of array enters the kept point through a read-only view of it."""
    dh = SIGMA_X.copy()
    model = HamiltonianModel("x", 2, lambda q: q * SIGMA_X + np.diag([1.0, -1.0]),
                             dh_of=lambda q: dh)
    point = cem._point(model, 0.3)
    assert np.array_equal(point.dH, dh) and not point.dH.flags.writeable
    assert dh.flags.writeable


def test_a_raising_call_stores_nothing(spectra):
    """A call at the domain edge, or one without dh_of, raises and leaves the kept point as
    it was."""
    model = make_qubit_direction(1.0)
    g_bound(model, 0.8, 1.7)
    with pytest.raises(DomainBoundary):
        g_bound(model, 0.0, 1.7)
    g_bound(model, 0.8, 0.4)  # still warm at 0.8
    assert spectra[0] == 2
    drop_memos()
    with pytest.raises(DomainBoundary):
        g_bound(model, 0.0, 1.7)
    g_bound(model, 0.8, 1.7)  # cold: the raising call stored nothing
    assert spectra[0] == 4
    bare = HamiltonianModel("bare", 2, model.h_of, theta_domain=model.theta_domain)
    for _ in range(2):  # its spectrum succeeds, its missing dh_of raises after it
        with pytest.raises(InvalidParameter, match="dh_of"):
            g_bound(bare, 0.8, 1.7)
    assert spectra[0] == 6


def test_another_model_object_misses_the_memo(spectra):
    """The kept point is keyed by the model object: an equal model at the same theta
    decomposes again, the point does not keep its model alive, and it goes with it."""
    first, second = make_qubit_direction(1.0), make_qubit_direction(1.0)
    for model in (first, second, second):
        g_bound(model, 0.8, 1.7)
    assert spectra[0] == 2
    gone, point = weakref.ref(second), weakref.ref(cem._point(second, 0.8))
    del model, second
    assert gone() is None and point() is None and not cem._kept


def optimum_config(model, theta, t):
    """The read-out configuration at g_bound's optimum, as perfbench's readout point and the
    CLI's phase-sim row build it."""
    sol = g_bound(model, theta, t)
    return PhaseSimConfig(n=6, m=3, t=t, V=sol.V_opt,
                          rho0=np.outer(sol.psi_opt, sol.psi_opt.conj()))


def readout(cfg, model, theta):
    """(tune_tau's tau, both modes' FisherReports at it)."""
    tuned = cfg.with_tau(tune_tau(cfg, model, theta, mode="realistic"))
    return tuned.tau, [fisher_phase_readout(tuned, model, theta, mode=mode)
                       for mode in ("ideal", "realistic")]


def cold_readout(cfg, model, theta):
    """readout with every call from no kept point."""
    drop_memos()
    tuned = cfg.with_tau(tune_tau(cfg, model, theta, mode="realistic"))
    reports = []
    for mode in ("ideal", "realistic"):
        drop_memos()
        reports.append(fisher_phase_readout(tuned, model, theta, mode=mode))
    return tuned.tau, reports


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(rows(), st.sampled_from([None, 0.25]))
def test_a_kept_level_jet_gives_the_one_call_values(row, energy_shift):
    """tune_tau and both read-out modes at one working point, with the level jet kept from
    the first, equal the calls made cold, bit for bit; so does a read-out whose shift rule
    differs from the one kept alongside the level jet."""
    model, theta, ts = row
    for t in ts:
        cfg = optimum_config(model, theta, t)
        warm = readout(cfg, model, theta)
        assert warm == cold_readout(cfg, model, theta)
        shifted = PhaseSimConfig(n=6, m=3, t=t, V=cfg.V, rho0=cfg.rho0, tau=warm[0],
                                 energy_shift=energy_shift)
        cem._point(model, theta).levels(t, cfg.V, cfg.factor)  # kept with cfg's shift rule
        warm = fisher_phase_readout(shifted, model, theta)
        drop_memos()
        assert warm == fisher_phase_readout(shifted, model, theta)


@pytest.fixture
def level_jets(monkeypatch):
    """One-element list counting cem._level_weights calls, from no kept point."""
    drop_memos()
    calls = [0]
    level_weights = cem._level_weights

    def counted(*args):
        calls[0] += 1
        return level_weights(*args)

    monkeypatch.setattr(cem, "_level_weights", counted)
    return calls


def test_a_changed_operand_misses_the_kept_level_jet(level_jets):
    """The level jet is kept for one (model object, theta, t, V, rho0): the same call hits
    it, and a change of any one of them builds it again."""
    model = make_qubit_direction(1.0)
    cfg = optimum_config(model, 0.8, 1.7).with_tau(0.3)
    other_v = PhaseSimConfig(n=6, m=3, t=1.7, V=cfg.V[:, ::-1], rho0=cfg.rho0, tau=0.3)
    other_rho = PhaseSimConfig(n=6, m=3, t=1.7, V=cfg.V, rho0=np.eye(2) / 2.0, tau=0.3)
    other_t = PhaseSimConfig(n=6, m=3, t=1.1, V=cfg.V, rho0=cfg.rho0, tau=0.3)
    calls = [(cfg, model, 0.8), (cfg, model, 0.8), (other_t, model, 0.8), (other_v, model, 0.8),
             (other_rho, model, 0.8), (cfg, model, 0.9), (cfg, make_qubit_direction(1.0), 0.9)]
    counts = []
    for args in calls:
        fisher_phase_readout(*args)
        counts.append(level_jets[0])
    assert counts == [1, 1, 2, 3, 4, 5, 6]


def test_a_callers_change_in_place_reaches_neither_the_config_nor_the_read_out(level_jets):
    """PhaseSimConfig keeps read-only copies of V, rho0 and its factor: after the caller
    overwrites its own V and rho0, the config and its read-out are as before, warm or cold."""
    model = make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi)
    sol = g_bound(model, 0.8, 1.7)
    V, rho0 = sol.V_opt.copy(), np.outer(sol.psi_opt, sol.psi_opt.conj())
    cfg = PhaseSimConfig(n=6, m=3, t=1.7, V=V, rho0=rho0, tau=0.2)
    kept = cfg.V.copy(), cfg.rho0.copy(), cfg.factor.copy()
    assert not any(a.flags.writeable for a in (cfg.V, cfg.rho0, cfg.factor))
    before = fisher_phase_readout(cfg, model, 0.8)
    V[...], rho0[...] = np.eye(3), np.diag([0.0, 0.0, 1.0])
    assert all(np.array_equal(a, b) for a, b in zip((cfg.V, cfg.rho0, cfg.factor), kept))
    assert fisher_phase_readout(cfg, model, 0.8) == before and level_jets[0] == 1
    drop_memos()
    assert fisher_phase_readout(cfg, model, 0.8) == before and level_jets[0] == 2


def test_a_callers_change_in_place_does_not_reach_an_outcome_model():
    """cem_outcome_model keeps read-only copies of its validated V and rho0's factor."""
    model = make_qubit_direction(1.0)
    V, rho0 = np.eye(2, dtype=complex), ground_projector(2)
    pm = cem.cem_outcome_model(model, 1.7, V, rho0)
    before = pm.at(0.8).probs, *pm.jet(0.8)
    V[...], rho0[...] = SIGMA_X, np.diag([0.0, 1.0])
    drop_memos()
    after = pm.at(0.8).probs, *pm.jet(0.8)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_the_kept_level_jet_is_read_only():
    """Every array of the kept level jet, and what the read-out keeps beside it, is
    read-only."""
    model = make_qubit_direction(1.0)
    cfg = optimum_config(model, 0.8, 1.7).with_tau(0.3)
    drop_memos()
    fisher_phase_readout(cfg, model, 0.8)
    levels, kept = cem._point(model, 0.8).levels(1.7, cfg.V, cfg.factor)
    arrays = [*levels, *(a for entry in kept.values() for a in entry)]
    assert kept and len(arrays) == 9
    assert not any(np.asarray(a).flags.writeable for a in arrays if np.ndim(a))


def test_a_raising_level_jet_keeps_nothing(level_jets, monkeypatch):
    """A level jet whose construction raises leaves the kept one as it was: the kept
    operands still hit, and the raising ones build it again."""
    model = make_qubit_direction(1.0)
    cfg = optimum_config(model, 0.8, 1.7).with_tau(0.3)
    other = PhaseSimConfig(n=6, m=3, t=1.7, V=cfg.V[:, ::-1], rho0=cfg.rho0, tau=0.3)
    fisher_phase_readout(cfg, model, 0.8)
    counted = cem._level_weights

    def failing(*args):
        counted(*args)
        raise FloatingPointError("injected")

    monkeypatch.setattr(cem, "_level_weights", failing)
    with pytest.raises(FloatingPointError):
        fisher_phase_readout(other, model, 0.8)
    monkeypatch.setattr(cem, "_level_weights", counted)
    fisher_phase_readout(cfg, model, 0.8)  # still kept
    assert level_jets[0] == 2
    fisher_phase_readout(other, model, 0.8)
    assert level_jets[0] == 3


def csv_rows(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == cli.EXIT_OK
    return out.getvalue().splitlines()[2:]  # below the config-hash comment and the header


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("command", ["gbound", "qfi", "optimize", "phase-sim"])
def test_each_grid_row_is_its_one_point_run(tmp_path, command, model):
    ini = tmp_path / "run.ini"
    ini.write_text("[optimizer]\nrestarts = 2\niterations = 12\n")
    lo, hi = MODELS[model][1]
    base = [command, "--model", model, "--config", str(ini), "--n", "5"]
    grid = csv_rows([*base, f"--theta={lo + 0.2}:{hi - 0.2}:3", "--t", "0.4:2.9:3"])
    points = [(theta, t) for theta in np.linspace(lo + 0.2, hi - 0.2, 3).tolist()
              for t in np.linspace(0.4, 2.9, 3).tolist()]
    single = [csv_rows([*base, f"--theta={theta!r}:{theta!r}:1", f"--t={t!r}:{t!r}:1"])
              for theta, t in points]
    assert grid == [line for lines in single for line in lines]
