"""Tests for controlled energy measurements, the bound, and its optimizers."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from qmet import cem
from qmet.cem import (
    _grid_max_rows,
    cem_outcome_model,
    check_condition,
    diagonalizer,
    encoded_qfi,
    fisher_cem,
    g_bound,
    generator_pair,
    local_generator,
    max_gap_lemma_check,
    optimize_cem,
)
from qmet.cli import EXIT_OK, main
from qmet.errors import (
    DegenerateSpectrum,
    DomainBoundary,
    InvalidParameter,
    NonHermitianInput,
    NonSmoothFamily,
)
from qmet.fisher import SUPPORT_THRESHOLD
from qmet.linalg import expm_unitary, fix_phases, require_density, spectral_gap
from qmet.models import (
    HamiltonianModel,
    make_jaynes_cummings,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
    reference,
)
from qmet.numdiff import DiffSpec
from qmet.phasesim import PhaseSimConfig, fisher_phase_readout, tune_tau

from memos import drop_memos

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

NV_PARAMS = {"mu": 1.0, "D": 1.44 * math.pi, "E": 5e-5 * math.pi}


def twist_gauge(monkeypatch, phases):
    """Multiply every column of the one eigenbasis gauge by a fixed phase exp(i phi_k), and
    drop cem's kept point, which holds the untwisted basis."""
    rot = np.exp(1j * phases)
    monkeypatch.setattr(cem, "fix_phases", lambda W: fix_phases(W) * rot)
    drop_memos()


def constant_basis_model(levels):
    """Diagonal family with theta-independent eigenvectors and sliding eigenvalues."""
    levels = np.asarray(levels, dtype=float)
    return HamiltonianModel(
        name="diag",
        dim=levels.size,
        h_of=lambda q: np.diag(levels * (1.0 + q)).astype(complex),
        dh_of=lambda q: np.diag(levels).astype(complex),
        theta_domain=(-0.5, np.inf),
    )


class TestDiagonalizer:
    def test_already_ascending_diagonal_gives_identity(self):
        m = constant_basis_model([0.0, 1.0, 3.0])
        assert np.allclose(diagonalizer(m, 0.2), np.eye(3))

    def test_descending_diagonal_gives_permutation(self):
        m = HamiltonianModel("diag", 3, lambda q: np.diag([3.0, 1.0, 0.0]).astype(complex))
        S = diagonalizer(m, 0.0)
        perm = np.fliplr(np.eye(3))
        assert np.allclose(S, perm)

    def test_reduces_hamiltonian_to_ascending_diagonal(self):
        m = make_qubit_direction(1.0)
        for theta in np.linspace(0.3, 2.8, 7):
            S = diagonalizer(m, float(theta))
            D = S @ m.h_of(float(theta)) @ S.conj().T
            off = D - np.diag(np.diag(D))
            assert np.max(np.abs(off)) <= 1e-9
            assert np.all(np.diff(np.diag(D).real) >= 0)

    def test_field_direction_entry_moduli(self):
        """|S| entries are |sin(theta/2)| and |cos(theta/2)| for the direction model."""
        m = make_qubit_direction(1.0)
        for theta in (0.4, 1.2, 2.0, 2.9):
            S = np.abs(diagonalizer(m, theta))
            s, c = abs(math.sin(theta / 2)), abs(math.cos(theta / 2))
            assert np.allclose(S, [[s, c], [c, s]], atol=1e-10)

    def test_unitary_for_random_families(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            G0 = (z + z.conj().T) / 2 + 3 * np.diag(np.arange(d))  # split the spectrum
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            G1 = (z + z.conj().T) / 2
            m = HamiltonianModel("rand", d, lambda q, A=G0, B=G1: A + q * B)
            S = diagonalizer(m, float(rng.uniform(-0.1, 0.1)))
            assert np.max(np.abs(S @ S.conj().T - np.eye(d))) <= 1e-10

    def test_degenerate_spectrum_raises(self):
        m = HamiltonianModel("deg", 2, lambda q: np.zeros((2, 2), dtype=complex))
        with pytest.raises(DegenerateSpectrum):
            diagonalizer(m, 0.0)


class TestLocalGenerator:
    def test_non_unitary_family_is_not_smooth(self):
        """U(q) = diag(1, 1 + q) gives i dU U^dag = diag(0, i (1 + q)), far from Hermitian."""
        with pytest.raises(NonSmoothFamily, match="Hermiticity defect"):
            local_generator(lambda q: np.diag([1.0, 1.0 + q]).astype(complex), 0.3)

    def test_nan_family_is_not_smooth(self):
        with pytest.raises(NonSmoothFamily, match="Hermiticity defect nan"):
            local_generator(lambda q: np.full((2, 2), math.nan, dtype=complex), 0.3)

    def test_a_stack_is_each_family_bit_for_bit(self):
        """A (2, d, d) stack gives each family's generator bit for bit, and one non-smooth
        family in the stack fails it."""
        m, t = make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi), 1.7
        S0 = diagonalizer(m, 0.8)

        def families(q):
            S = cem._transported(S0.conj().T, diagonalizer(m, q).conj().T)
            return np.stack((m.u_of(q, t), S))

        stacked = local_generator(families, 0.8)
        for k in range(2):
            assert np.array_equal(stacked[k], local_generator(lambda q: families(q)[k], 0.8))
        qubit = make_qubit_direction(1.0)
        local_generator(lambda q: qubit.u_of(q, t), 0.3)  # smooth on its own
        with pytest.raises(NonSmoothFamily, match="Hermiticity defect"):
            local_generator(lambda q: np.stack((qubit.u_of(q, t),
                                                np.diag([1.0, 1.0 + q]).astype(complex))), 0.3)

    def test_shift_family_recovers_generator(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        G = (z + z.conj().T) / 2
        g = local_generator(lambda q: expm_unitary(G, q), 0.8)
        assert np.max(np.abs(g - G)) <= 1e-7

    def test_field_direction_encoding_generator(self):
        """Blocks -C, D with C = sin(theta) sin(2 w t)/2, D = (cos(theta)cos(wt) - i sin(wt)) sin(wt)."""
        w, theta, t = 1.0, 0.9, 1.1
        m = make_qubit_direction(w)
        g = local_generator(lambda q: m.u_of(q, t), theta)
        C = 0.5 * math.sin(theta) * math.sin(2 * w * t)
        D = (math.cos(theta) * math.cos(w * t) - 1j * math.sin(w * t)) * math.sin(w * t)
        expected = np.array([[-C, D], [np.conj(D), C]])
        assert np.max(np.abs(g - expected)) <= 1e-7

    def test_xcomponent_diagonalizer_generator(self):
        """Off-diagonal purely imaginary with modulus w/(2 Om^2); the gap is w/Om^2."""
        w, theta = 1.0, 0.8
        m = make_qubit_xcomponent(w)
        g = generator_pair(m, theta, 1.0, DiffSpec()).g_diag
        om2 = w * w + theta * theta
        assert abs(g[0, 0]) <= 1e-9 and abs(g[1, 1]) <= 1e-9
        assert abs(abs(g[0, 1]) - w / (2 * om2)) <= 1e-7
        assert abs(g[0, 1].real) <= 1e-9
        assert spectral_gap(g) == pytest.approx(w / om2, abs=1e-7)

    def test_field_direction_diagonalizer_generator_gap_is_one(self):
        m = make_qubit_direction(1.0)
        for theta in (0.5, math.pi / 2, 2.6):
            g = generator_pair(m, theta, 1.0, DiffSpec()).g_diag
            assert spectral_gap(g) == pytest.approx(1.0, abs=1e-8)


class TestCheckCondition:
    def test_field_direction_condition_holds(self):
        """Extremal eigenvectors (-i, 1)/sqrt(2) and (i, 1)/sqrt(2): equal moduli."""
        g = np.array([[0.0, -0.5j], [0.5j, 0.0]])
        assert check_condition(g)

    def test_diagonal_generator_fails(self):
        assert not check_condition(np.diag([1.0, 2.0]))

    def test_xcomponent_pattern_holds(self):
        g = 0.3j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert check_condition(g)

    def test_support_restriction(self):
        g = np.diag([1.0, 2.0, 3.0]).astype(complex)
        g[0, 1] = g[1, 0] = 0.5
        # extremal vectors live in disjoint blocks, so their moduli cannot match
        assert not check_condition(g)


def together_model():
    """Two weakly mixed levels whose energies move at rates 1 and 1.01."""
    return HamiltonianModel("together", 2,
                            lambda x: np.array([[x, 1e-3], [1e-3, 1.01 * x + 1.0]], dtype=complex),
                            dh_of=lambda x: np.diag([1.0, 1.01]).astype(complex))


class TestGBound:
    @pytest.mark.parametrize("diff", [None, DiffSpec()], ids=["analytic", "oracle"])
    def test_overflowing_spectral_range_is_invalid(self, diff):
        """omega = 1e308 puts the energies at -+1e308: their range is no float, so _spectrum
        raises instead of returning G = nan."""
        with pytest.raises(InvalidParameter, match="spectral range of H"):
            g_bound(make_qubit_direction(1e308), 1.0, 1.0, diff)

    @pytest.mark.parametrize("entry", [g_bound, generator_pair], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("make, t", [(make_qubit_direction, 1e200),
                                         (make_qubit_xcomponent, 1e5),
                                         (make_qubit_xcomponent, 1e4)],
                             ids=["rounded-phase", "turning-energy", "turn-below-pi"])
    def test_oracle_names_a_fast_phase_not_a_kink(self, entry, make, t):
        """The direction model's energies do not move with theta, but at t = 1e200 their
        rounding turns t E_j by about 1e184 rad from node to node; the x-component model's
        move by about 1e-4 per node, 11 rad at t = 1e5, beyond pi, and 1.1 rad at t = 1e4,
        where the stencil no longer resolves the phase and the generator fails its
        Hermiticity check.  Either way the oracle names t instead of a Hermiticity defect."""
        named = "^" + re.escape(f"t = {t} turns U_t's eigenphases")
        with pytest.raises(InvalidParameter, match=named):
            entry(make(1.0), 0.8, t, DiffSpec())

    def test_oracle_resolves_a_turn_below_the_fast_limit(self):
        """At t = 1e3 the x-component model's phases turn by 0.11 rad across the stencil,
        above FAST_TURN, and the default stencil still resolves them: the oracle's G agrees
        with the analytic one to 1.8e-12."""
        model = make_qubit_xcomponent(1.0)
        oracle, analytic = (g_bound(model, 0.8, 1e3, diff).G_value for diff in (DiffSpec(), None))
        assert abs(oracle - analytic) <= 1e-11 * analytic

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("make, top", [(lambda: make_nv_spin1(**NV_PARAMS), 3.6),
                                           (lambda: make_qubit_xcomponent(1.0), 1.12),
                                           (lambda: together_model(), 1.82)],
                             ids=["nv-spin1", "qubit-xcomponent", "together"])
    def test_oracle_returns_an_accurate_g_or_names_t(self, make, top, levels):
        """t log-uniform in 10..1e4 at theta 0.8: every G the oracle returns is within 1e-8
        relative of the analytic G, and every other call names t, whatever the Hermiticity
        check would say: on nv-spin1's nearly diagonal U_t that check passes a G off by 2e-4
        (levels 2, 1.8 rad).  Two levels moving nearly together take 2L + 3 times a single
        phase's error on their gap.  The phases turn by top rad at t = 1e4, which ends the draw,
        so it names t wherever that exceeds the level count's limit."""
        model, outcomes = make(), set()
        for t in [*10.0 ** np.random.default_rng(levels).uniform(1.0, 4.0, 15), 1e4]:
            analytic = g_bound(model, 0.8, t).G_value
            try:
                oracle = g_bound(model, 0.8, t, DiffSpec(levels=levels)).G_value
            except InvalidParameter as exc:
                assert str(exc).startswith(f"t = {t} turns U_t's eigenphases")
                outcomes.add("named")
                continue
            assert abs(oracle - analytic) <= 1e-8 * analytic
            outcomes.add("returned")
        assert outcomes == ({"returned", "named"} if top > cem._turn_limit(levels)
                            else {"returned"})

    @pytest.mark.parametrize("entry", [
        lambda model: g_bound(model, 1.0, 1.0),
        lambda model: optimize_cem(model, 1.0, 1.0, (1, 4)),
    ], ids=["g_bound", "optimize_cem"])
    def test_overflowing_bound_is_invalid(self, entry):
        """At omega = 1e200 the spectral range and both gaps are finite, but their squared sum
        leaves the float range: a typed error, not Python's untyped OverflowError."""
        with pytest.raises(InvalidParameter, match=r"^G = \(sigma\(g_dyn\) \+ sigma\(g_diag\)\)"
                                                   r"\^2 overflows: gaps 3\.15229e\+184 and 1;"):
            entry(make_qubit_direction(1e200))

    @pytest.mark.parametrize("omega, sigma", [(1e200, "3.15229e+184"), (1e307, "1.71207e+291")])
    @pytest.mark.parametrize("diff", [None, DiffSpec()], ids=["analytic", "oracle"])
    def test_overflowing_max_qfi_is_invalid(self, omega, sigma, diff):
        """encoded_qfi's sigma(g_dyn)^2 leaves the float range: a typed error naming it, on
        the analytic path before the trace check that the overflowing drho would fail."""
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidParameter, match=rf"^sigma\(g_dyn\)\^2 overflows: "
                                                   rf"sigma\(g_dyn\) = {re.escape(sigma)};"):
            encoded_qfi(make_qubit_direction(omega), 1.0, 1.0, rho0, diff)

    @pytest.mark.parametrize("omega, qfi, readouts", [
        (1e100, 7.605114157717552e+167, (1.0691011635590236e+168, 2.4156817781866997e+165)),
        (1e150, 2.6338096009830337e+266, (3.7025202391557137e+266, 8.366009672387865e+263)),
    ])
    def test_overflowing_estimate_is_inf_without_a_warning(self, omega, qfi, readouts):
        """An analytic error estimate beyond the float range is inf, with no NumPy warning
        (tier-1 turns warnings into errors), and the values are those computed with the
        warnings ignored."""
        model, rho0 = make_qubit_direction(omega), np.diag([1.0, 0.0]).astype(complex)
        report, _ = encoded_qfi(model, 1.0, 1.0, rho0)
        assert (report.value, report.error_estimate) == (pytest.approx(qfi, rel=1e-12), math.inf)
        sol = g_bound(model, 1.0, 1.0)
        cfg = PhaseSimConfig(n=6, m=3, t=1.0, V=sol.V_opt,
                             rho0=np.outer(sol.psi_opt, sol.psi_opt.conj()))
        for mode, value in zip(("ideal", "realistic"), readouts):
            report = fisher_phase_readout(cfg, model, 1.0, mode=mode)
            assert (report.value, report.error_estimate) == (pytest.approx(value, rel=1e-12),
                                                             math.inf)

    @pytest.mark.parametrize("model", [
        make_nv_spin1(1e308, NV_PARAMS["D"], NV_PARAMS["E"]),  # H(1) overflows to inf
        HamiltonianModel("big-dh", 2, lambda q: SZ + q * SX, lambda q: 1e308 * (2.0 * SX),
                         (-2.0, 2.0)),  # dH overflows to inf
    ], ids=["h_of", "dh_of"])
    def test_overflowing_model_is_typed_without_a_warning(self, model):
        """A model whose own arithmetic overflows is NonHermitianInput, with no NumPy
        warning: h_of, dh_of and their Hermiticity checks run with the warnings off."""
        with pytest.raises(NonHermitianInput, match="NaN or infinite entry"):
            g_bound(model, 1.0, 1.0)

    def test_finite_bound_is_the_plain_square(self):
        """Where G is finite it is (sigma_dyn + sigma_diag) ** 2 as before, near the edge too."""
        sol = g_bound(make_qubit_direction(1e150), 1.0, 1.0)
        assert sol.G_value == (sol.gaps[0] + sol.gaps[1]) ** 2 == 3.719684333589026e+266

    def test_field_direction_closed_form(self):
        m = make_qubit_direction(1.0)
        ref = reference("direction_g")
        for theta in np.linspace(0.4, 2.7, 6):
            for t in np.linspace(0.3, 6.0, 6):
                sol = g_bound(m, float(theta), float(t))
                assert sol.condition_holds
                assert sol.G_value == pytest.approx(ref(omega=1.0, t=float(t)), rel=1e-6)

    def test_xcomponent_closed_form(self):
        m = make_qubit_xcomponent(1.0)
        ref = reference("xcomponent_g")
        for theta in (0.4, 1.0, 2.2):
            for t in (0.5, 1.3, 2.8):
                sol = g_bound(m, theta, t)
                assert sol.condition_holds
                assert sol.G_value == pytest.approx(
                    ref(theta=theta, omega=1.0, t=t), rel=1e-6
                )

    def test_nv_closed_form(self):
        m = make_nv_spin1(**NV_PARAMS)
        ref = reference("nv_g")
        for theta in (0.1, 0.6, 1.5):
            for t in (0.4, 1.1, 2.5):
                sol = g_bound(m, theta, t)
                assert sol.condition_holds
                assert sol.G_value == pytest.approx(
                    ref(theta=theta, mu=1.0, E=NV_PARAMS["E"], t=t), rel=1e-5
                )

    def test_majorizes_best_preparation_qfi(self):
        cases = [
            (make_qubit_direction(1.0), "direction_max_qfi", lambda q, t: {"omega": 1.0, "t": t}),
            (make_qubit_xcomponent(1.0), "xcomponent_max_qfi",
             lambda q, t: {"theta": q, "omega": 1.0, "t": t}),
            (make_nv_spin1(**NV_PARAMS), "nv_max_qfi",
             lambda q, t: {"theta": q, "mu": 1.0, "E": NV_PARAMS["E"], "t": t}),
        ]
        for model, ref_name, args in cases:
            ref = reference(ref_name)
            for theta in np.linspace(0.3, 1.8, 20):
                for t in np.linspace(0.4, 2.5, 20):
                    sol = g_bound(model, float(theta), float(t))
                    assert sol.G_value >= ref(**args(float(theta), float(t))) - 1e-8

    def test_outputs_satisfy_invariants(self):
        sol = g_bound(make_qubit_direction(1.0), 1.1, 0.9)
        assert np.max(np.abs(sol.V_opt @ sol.V_opt.conj().T - np.eye(2))) <= 1e-10
        assert np.linalg.norm(sol.psi_opt) == pytest.approx(1.0, abs=1e-12)
        pair = generator_pair(make_qubit_direction(1.0), 1.1, 0.9)
        assert sol.G_value == pytest.approx((pair.gaps[0] + pair.gaps[1]) ** 2, abs=1e-10)

    def test_gauge_robustness(self, monkeypatch):
        """theta-independent eigenvector phases leave both gaps (hence G) unchanged."""
        rng = np.random.default_rng(12)
        m = make_qubit_xcomponent(1.0)
        base = generator_pair(m, 0.7, 1.2)
        for _ in range(5):
            twist_gauge(monkeypatch, rng.uniform(0, 2 * math.pi, size=2))
            twisted = generator_pair(m, 0.7, 1.2)
            assert not np.allclose(twisted.g_diag, base.g_diag)  # the twist reaches g_diag
            assert twisted.gaps[1] == pytest.approx(base.gaps[1], abs=1e-9)
            assert twisted.gaps[0] == pytest.approx(base.gaps[0], abs=1e-9)


RICHARDSON = DiffSpec()  # an explicit finite-difference spec selects the oracle path

# model factory, theta grid, t grid: the acceptance grids plus a few d = 18 points.
ORACLE_GRIDS = {
    "qubit-direction": (lambda: make_qubit_direction(1.0),
                        np.linspace(0.2, math.pi - 0.2, 20), np.linspace(0.1, 2 * math.pi, 20)),
    "qubit-xcomponent": (lambda: make_qubit_xcomponent(1.0),
                         np.linspace(0.3, 2.5, 15), np.linspace(0.3, 3.0, 15)),
    "nv-spin1": (lambda: make_nv_spin1(**NV_PARAMS),
                 np.linspace(0.05, 2.0, 10), np.linspace(0.3, 3.0, 10)),
    "jaynes-cummings": (lambda: make_jaynes_cummings(0.5, 8), (0.6, 1.0, 1.7), (0.7, 2.1)),
}


class TestAnalyticGenerators:
    """The generators from dh_of against the Richardson oracle, in the same gauge."""

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_matches_richardson_oracle(self, name):
        make, thetas, ts = ORACLE_GRIDS[name]
        model = make()
        for k, (theta, t) in enumerate(itertools.product(thetas, ts)):
            theta, t = float(theta), float(t)
            fast = generator_pair(model, theta, t)
            oracle = generator_pair(model, theta, t, RICHARDSON)
            assert (fast.method, oracle.method) == ("analytic", "richardson-fd")
            for a, b in zip(fast.gaps, oracle.gaps):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
            assert np.max(np.abs(fast.g_dyn - oracle.g_dyn)) <= 1e-7
            assert np.max(np.abs(fast.g_diag - oracle.g_diag)) <= 1e-7
            sol = g_bound(model, theta, t)
            assert sol.condition_holds == g_bound(model, theta, t, RICHARDSON).condition_holds
            assert sol.G_value == pytest.approx(sum(fast.gaps) ** 2, rel=1e-12)
            if k % 9 == 0:  # the optimizers reach G through the finite-difference Fisher
                fi = fisher_cem(model, theta, t, sol.V_opt,
                                np.outer(sol.psi_opt, sol.psi_opt.conj())).value
                assert sol.condition_holds
                assert fi == pytest.approx(sol.G_value, rel=1e-4)

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_gauge_twist(self, name, monkeypatch):
        """A twist moves g_diag to the twisted gauge, as on the oracle, and keeps both gaps."""
        model = ORACLE_GRIDS[name][0]()
        rng = np.random.default_rng(31)
        base = generator_pair(model, 0.9, 1.4)
        for _ in range(3):
            phases = rng.uniform(0, 2 * math.pi, size=model.dim)
            twist_gauge(monkeypatch, phases)
            twisted = generator_pair(model, 0.9, 1.4)
            assert twisted.gaps == pytest.approx(base.gaps, rel=1e-12, abs=1e-12)
            rot = np.exp(1j * phases)  # g_diag_jk -> exp(-i phi_j) g_diag_jk exp(i phi_k)
            assert np.max(np.abs(twisted.g_diag - rot.conj()[:, None] * base.g_diag * rot)) <= 1e-12
            oracle = generator_pair(model, 0.9, 1.4, RICHARDSON)
            assert np.max(np.abs(twisted.g_diag - oracle.g_diag)) <= 1e-7

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_raw_gauge_twist_leaves_gauge_invariant_results(self, name, monkeypatch):
        """Every consumer reads the one eigenbasis gauge; a twist of it reaches every jet
        and changes none of the gauge-invariant results beyond rounding.  At jc's default
        tau (d = 18) the read-out is rounding-limited well above 1e-12, so there each
        report is held to its own error estimate."""
        model = ORACLE_GRIDS[name][0]()
        theta, t = 0.9, 1.4
        rng = np.random.default_rng(43)
        sol = g_bound(model, theta, t)
        rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
        V = haar_unitary(rng, model.dim)
        cfg = PhaseSimConfig(n=6, m=3, t=t, V=sol.V_opt, rho0=rho0)

        def results():
            """(values held to 1e-12 relative, read-out reports at the default tau)."""
            out = []
            for mode in ("ideal", "realistic"):
                tau = tune_tau(cfg, model, theta, mode=mode)
                out += [tau, fisher_phase_readout(cfg.with_tau(tau), model, theta, mode=mode).value]
            qfi_report, sigma = encoded_qfi(model, theta, t, rho0)
            out += [fisher_cem(model, theta, t, sol.V_opt, rho0).value,
                    fisher_cem(model, theta, t, V, rho0).value, qfi_report.value, sigma]
            return out, [fisher_phase_readout(cfg, model, theta, mode=mode)
                         for mode in ("ideal", "realistic")]

        (base, base_default), W = results(), cem._point(model, theta).jet(t).W
        for _ in range(3):
            phases = rng.uniform(0, 2 * math.pi, size=model.dim)
            with monkeypatch.context() as patch:
                twist_gauge(patch, phases)
                assert np.array_equal(cem._point(model, theta).jet(t).W, W * np.exp(1j * phases))
                values, default = results()
            assert values == pytest.approx(base, rel=1e-12, abs=0.0)
            for report, ref in zip(default, base_default):
                tol = 1e-12 * ref.value if model.dim <= 3 else ref.error_estimate
                assert abs(report.value - ref.value) <= tol

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_model_without_dh_of_raises_on_the_analytic_path(self, name):
        model = ORACLE_GRIDS[name][0]()
        bare = dataclasses.replace(model, dh_of=None)
        sol = g_bound(model, 0.8, 1.1)
        rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
        calls = [
            lambda: generator_pair(bare, 0.8, 1.1),
            lambda: g_bound(bare, 0.8, 1.1),
            lambda: fisher_cem(bare, 0.8, 1.1, sol.V_opt, rho0),
            lambda: encoded_qfi(bare, 0.8, 1.1, rho0),
            lambda: encoded_qfi(bare, 0.8, 1.1, rho0, RICHARDSON),  # g_dyn stays analytic
            lambda: optimize_cem(bare, 0.8, 1.1, budget=(1, 1)),
        ]
        if model.dim <= 3:
            cfg = PhaseSimConfig(n=6, m=3, t=1.1, V=sol.V_opt, rho0=rho0)
            for mode in ("ideal", "realistic"):
                calls.append(lambda mode=mode: fisher_phase_readout(cfg, bare, 0.8, mode=mode))
                calls.append(lambda mode=mode: tune_tau(cfg, bare, 0.8, mode=mode))
        for call in calls:
            with pytest.raises(InvalidParameter, match="dh_of"):
                call()

    @pytest.mark.parametrize("diff", [RICHARDSON, DiffSpec(levels=1)],
                             ids=["richardson", "one-level"])
    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_oracle_path_never_reads_dh_of(self, name, diff):
        """An explicit DiffSpec gives a model without dh_of the full model's results bit for bit."""
        model = ORACLE_GRIDS[name][0]()
        bare = dataclasses.replace(model, dh_of=None)
        pair = generator_pair(bare, 0.8, 1.1, diff)
        full = generator_pair(model, 0.8, 1.1, diff)
        assert pair.method == diff.method and pair.gaps == full.gaps
        assert np.array_equal(pair.g_dyn, full.g_dyn) and np.array_equal(pair.g_diag, full.g_diag)
        sol = g_bound(bare, 0.8, 1.1, diff)
        ref = g_bound(model, 0.8, 1.1, diff)
        assert (sol.G_value, sol.condition_holds, sol.gaps, sol.method) == (
            ref.G_value, ref.condition_holds, ref.gaps, ref.method)
        assert np.array_equal(sol.V_opt, ref.V_opt) and np.array_equal(sol.psi_opt, ref.psi_opt)
        for a, b in zip(pair.gaps, generator_pair(model, 0.8, 1.1).gaps):  # the analytic path
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
        assert sol.G_value == pytest.approx(g_bound(model, 0.8, 1.1).G_value, rel=1e-8)
        rho0 = np.outer(ref.psi_opt, ref.psi_opt.conj())
        assert (fisher_cem(bare, 0.8, 1.1, ref.V_opt, rho0, diff)
                == fisher_cem(model, 0.8, 1.1, ref.V_opt, rho0, diff))
        if model.dim <= 3:
            cfg = PhaseSimConfig(n=6, m=3, t=1.1, V=ref.V_opt, rho0=rho0)
            for mode in ("ideal", "realistic"):
                assert (fisher_phase_readout(cfg, bare, 0.8, diff, mode)
                        == fisher_phase_readout(cfg, model, 0.8, diff, mode))
                assert (tune_tau(cfg, bare, 0.8, mode, diff)
                        == tune_tau(cfg, model, 0.8, mode, diff))

    def test_analytic_path_needs_no_stencil_room(self):
        """At theta = 1e-6 only the finite-difference stencil leaves (0, pi)."""
        m = make_qubit_direction(1.0)
        sol = g_bound(m, 1e-6, 1.0)
        assert sol.method == "analytic"
        assert sol.condition_holds
        assert sol.G_value == pytest.approx(reference("direction_g")(omega=1.0, t=1.0), rel=1e-9)
        with pytest.raises(DomainBoundary):
            g_bound(m, 1e-6, 1.0, RICHARDSON)
        with pytest.raises(DomainBoundary):
            g_bound(m, 0.0, 1.0)  # the domain is open


class TestGeneratorDecompositionCounts:
    """The analytic generators cost one decomposition of H(theta) plus one per generator,
    kept for the next call at the same (model, theta, t)."""

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_g_bound_and_generator_pair(self, decompositions, name):
        model = ORACLE_GRIDS[name][0]()
        decompositions[0] = 0
        g_bound(model, 0.7, 1.3)
        assert 1 <= decompositions[0] <= 3
        decompositions[0] = 0
        generator_pair(model, 0.7, 1.3)  # reads g_bound's decompositions
        assert decompositions[0] == 0

    def test_cli_gbound_point(self, decompositions, tmp_path):
        decompositions[0] = 0
        code = main(["gbound", "--model", "nv-spin1", "--theta", "0.3:1.5:3", "--t", "0.5:2.0:2",
                     "--out", str(tmp_path / "g.csv")])
        assert code == EXIT_OK
        assert 6 <= decompositions[0] <= 3 * 6


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def assert_analytic_report(fast, oracle):
    """An analytic report agrees with its Richardson oracle and bounds its own rounding."""
    scale = max(abs(oracle.value), 1.0)
    assert (fast.method, fast.step, oracle.method) == ("analytic", 0.0, "richardson-fd")
    assert abs(fast.value - oracle.value) <= 1e-8 * scale
    assert 0.0 < fast.error_estimate <= 1e-9 * scale


class TestAnalyticJets:
    """fisher_cem and the qfi column from one decomposition, against the Richardson oracle."""

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_fisher_cem_matches_richardson_oracle(self, name):
        make, thetas, ts = ORACLE_GRIDS[name]
        model = make()
        rng = np.random.default_rng(17)
        for k, (theta, t) in enumerate(itertools.product(thetas, ts)):
            theta, t = float(theta), float(t)
            sol = g_bound(model, theta, t)
            rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
            V = sol.V_opt if k % 2 == 0 else haar_unitary(rng, model.dim)
            assert_analytic_report(fisher_cem(model, theta, t, V, rho0),
                                   fisher_cem(model, theta, t, V, rho0, RICHARDSON))

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_encoded_qfi_matches_richardson_oracle(self, name):
        make, thetas, ts = ORACLE_GRIDS[name]
        model = make()
        rho0 = np.zeros((model.dim, model.dim), dtype=complex)
        rho0[0, 0] = 1.0  # the CLI's ground projector
        for theta, t in itertools.product(thetas, ts):
            theta, t = float(theta), float(t)
            fast, sigma = encoded_qfi(model, theta, t, rho0)
            oracle, oracle_sigma = encoded_qfi(model, theta, t, rho0, RICHARDSON)
            assert_analytic_report(fast, oracle)
            assert sigma == oracle_sigma == generator_pair(model, theta, t).gaps[0]
            assert fast.value <= sigma**2 * (1.0 + 1e-12) + 1e-12

    def test_encoded_qfi_matches_closed_form(self):
        model = make_qubit_direction(1.0)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        ref = reference("direction_qfi")
        for theta, t in itertools.product(np.linspace(0.2, math.pi - 0.2, 7),
                                          np.linspace(0.1, 2 * math.pi, 7)):
            report, _ = encoded_qfi(model, float(theta), float(t), rho0)
            expected = ref(theta=float(theta), omega=1.0, t=float(t))
            assert abs(report.value - expected) <= 1e-12 * max(expected, 1.0)

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_path_selection(self, name):
        """None is analytic and needs dh_of; an explicit spec is the oracle, which does not."""
        model = ORACLE_GRIDS[name][0]()
        bare = dataclasses.replace(model, dh_of=None)
        sol = g_bound(model, 0.8, 1.1)
        rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
        one_level = DiffSpec(levels=1)
        assert fisher_cem(model, 0.8, 1.1, sol.V_opt, rho0).method == "analytic"
        assert fisher_cem(model, 0.8, 1.1, sol.V_opt, rho0, one_level).method == "richardson-fd"
        assert fisher_cem(bare, 0.8, 1.1, sol.V_opt, rho0, RICHARDSON).method == "richardson-fd"
        with pytest.raises(InvalidParameter):
            fisher_cem(bare, 0.8, 1.1, sol.V_opt, rho0)
        assert encoded_qfi(model, 0.8, 1.1, rho0)[0].method == "analytic"
        assert encoded_qfi(model, 0.8, 1.1, rho0, one_level)[0].method == "richardson-fd"
        with pytest.raises(InvalidParameter):
            encoded_qfi(bare, 0.8, 1.1, rho0)

    def test_analytic_path_keeps_the_checks(self):
        m = make_qubit_direction(1.0)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        skew = dataclasses.replace(m, dh_of=lambda q: 1j * SX)
        with pytest.raises(NonHermitianInput):
            fisher_cem(skew, 0.8, 1.0, np.eye(2), rho0)
        with pytest.raises(NonHermitianInput):
            encoded_qfi(skew, 0.8, 1.0, rho0)
        flat = HamiltonianModel("flat", 2, lambda q: np.eye(2, dtype=complex),
                                dh_of=lambda q: SZ.copy())
        with pytest.raises(DegenerateSpectrum):
            fisher_cem(flat, 0.3, 1.0, np.eye(2), rho0)
        with pytest.raises(DegenerateSpectrum):
            encoded_qfi(flat, 0.3, 1.0, rho0)
        with pytest.raises(DomainBoundary):
            encoded_qfi(m, math.pi, 1.0, rho0)

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_decomposition_counts(self, decompositions, name):
        model = ORACLE_GRIDS[name][0]()
        sol = g_bound(model, 0.7, 1.3)
        rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
        decompositions[0] = 0
        fisher_cem(model, 0.7, 1.3, sol.V_opt, rho0)
        assert 1 <= decompositions[0] <= 2
        decompositions[0] = 0
        encoded_qfi(model, 0.7, 1.3, rho0)
        assert 1 <= decompositions[0] <= 3

    def test_cli_qfi_point(self, decompositions, tmp_path):
        decompositions[0] = 0
        code = main(["qfi", "--model", "nv-spin1", "--theta", "0.3:1.5:3", "--t", "0.5:2.0:2",
                     "--out", str(tmp_path / "q.csv")])
        assert code == EXIT_OK
        assert 6 <= decompositions[0] <= 3 * 6


class TestFisherCem:
    def test_energy_measurement_is_time_independent(self):
        m = make_qubit_direction(1.0)
        rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        values = [
            fisher_cem(m, 1.0, float(t), np.eye(2), rho0).value
            for t in np.linspace(0.2, 4.0, 10)
        ]
        assert np.ptp(values) <= 1e-6 * (1 + np.max(values))

    def test_optimal_pair_achieves_bound(self):
        for model, theta, t in [
            (make_qubit_direction(1.0), 1.0, 1.0),
            (make_qubit_direction(1.0), 2.0, 2.4),
            (make_qubit_xcomponent(1.0), 0.8, 1.3),
            (make_nv_spin1(**NV_PARAMS), 0.5, 1.0),
        ]:
            sol = g_bound(model, theta, t)
            assert sol.condition_holds
            fi = fisher_cem(model, theta, t, sol.V_opt,
                            np.outer(sol.psi_opt, sol.psi_opt.conj())).value
            assert fi == pytest.approx(sol.G_value, rel=1e-4)

    @pytest.mark.parametrize("mu", [1.0, 1e3, 1e6, 1e9])
    def test_large_derivatives_pass_the_jet_check(self, mu):
        """The jet's derivatives sum to 0 within their own rounding bound: at mu = 1e6
        (G = 1.6e13 at theta = t = 1) they sum to -7e-10, beyond an absolute 1e-10."""
        model = make_nv_spin1(mu, NV_PARAMS["D"], NV_PARAMS["E"])
        for theta in np.linspace(0.2, 2.9, 10):
            for t in np.linspace(0.1, 3.0, 10):
                sol = g_bound(model, theta, t)
                fi = fisher_cem(model, theta, t, sol.V_opt,
                                np.outer(sol.psi_opt, sol.psi_opt.conj())).value
                if sol.condition_holds:
                    assert fi == pytest.approx(sol.G_value, rel=1e-13)

    def test_commuting_static_case_is_zero(self):
        m = constant_basis_model([0.0, 1.0, 2.5])
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        for diff in (None, RICHARDSON):
            assert fisher_cem(m, 0.4, 1.0, np.eye(3), rho0, diff).value <= 1e-12

    def test_domain_boundary(self):
        """Only the Richardson stencil needs room; the analytic path needs an interior theta."""
        m = make_qubit_direction(1.0)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(DomainBoundary):
            fisher_cem(m, 1e-6, 1.0, np.eye(2), rho0, RICHARDSON)
        with pytest.raises(DomainBoundary):
            fisher_cem(m, 0.0, 1.0, np.eye(2), rho0)  # the domain is open
        assert fisher_cem(m, 1e-6, 1.0, np.eye(2), rho0).method == "analytic"

    def test_outcomes_indexed_by_spectral_order(self):
        m = make_qubit_direction(1.0)
        dist = cem_outcome_model(m, 1.0, np.eye(2), np.diag([1.0, 0.0]).astype(complex)).at(0.8)
        assert dist.outcomes == (0, 1)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestLevelWeights:
    """_node and _level_jet build the weights from one amplitude helper on rho0's factor."""

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_node_and_jet_weights_are_bitwise_equal(self, name):
        model = ORACLE_GRIDS[name][0]()
        rng = np.random.default_rng(5)
        V = haar_unitary(rng, model.dim)
        psi = haar_unitary(rng, model.dim)[:, 0]
        _, factor = require_density(np.outer(psi, psi.conj()))
        assert factor.shape == (model.dim, 1)  # a pure state keeps one column
        for x, t in [(0.8, 1.1), (1.3, 2.2)]:
            ev, p = cem._node(model, x, t, V, factor)
            E, _, _, p_jet, _, _, _ = cem._level_jet(cem._point(model, x).jet(t), V, factor)
            assert np.array_equal(ev, E) and np.array_equal(p, p_jet)

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_rank_two_preparation_matches_the_density_formula(self, name):
        model = ORACLE_GRIDS[name][0]()
        rng = np.random.default_rng(6)
        V, basis = haar_unitary(rng, model.dim), haar_unitary(rng, model.dim)
        rho0 = 0.7 * np.outer(basis[:, 0], basis[:, 0].conj())
        rho0 += 0.3 * np.outer(basis[:, 1], basis[:, 1].conj())
        _, factor = require_density(rho0)
        assert factor.shape == (model.dim, 2)
        x, t = 0.9, 1.4
        _, p = cem._node(model, x, t, V, factor)
        S, u = diagonalizer(model, x), model.u_of(x, t)
        density = np.diagonal(S @ V @ u @ rho0 @ u.conj().T @ V.conj().T @ S.conj().T).real
        assert np.max(np.abs(p - density)) <= 1e-15
        assert fisher_cem(model, x, t, V, rho0).value == pytest.approx(
            fisher_cem(model, x, t, V, rho0, RICHARDSON).value, rel=1e-7)


class TestOptimizeCem:
    def test_reaches_closed_form_on_field_direction(self):
        m = make_qubit_direction(1.0)
        sol = g_bound(m, 1.0, 1.0)
        best, v_star, psi_star = optimize_cem(m, 1.0, 1.0, budget=(3, 150), seed=1)
        assert best >= 0.99 * sol.G_value
        assert best <= sol.G_value + 1e-3
        assert np.max(np.abs(v_star @ v_star.conj().T - np.eye(2))) <= 1e-9

    @pytest.mark.parametrize("budget", [(0, 10), (1, 0)])
    def test_rejects_an_empty_budget(self, budget):
        with pytest.raises(ValueError, match="budget"):
            optimize_cem(make_qubit_direction(1.0), 1.0, 1.0, budget=budget)

    def test_seeded_restart_guarantee_with_minimal_budget(self):
        m = make_qubit_direction(1.0)
        sol = g_bound(m, 1.2, 0.9)
        best, _, _ = optimize_cem(m, 1.2, 0.9, budget=(1, 1), seed=0)
        assert best >= 0.99 * sol.G_value

    def test_static_family_yields_zero(self):
        m = HamiltonianModel("static", 2, lambda q: np.diag([0.0, 1.0]).astype(complex),
                             dh_of=lambda q: np.zeros((2, 2), dtype=complex))
        assert g_bound(m, 0.3, 1.0).G_value == g_bound(m, 0.3, 1.0, RICHARDSON).G_value == 0.0
        best, _, _ = optimize_cem(m, 0.3, 1.0, budget=(2, 40), seed=3)
        assert best <= 1e-10

    def test_determinism(self):
        m = make_qubit_direction(1.0)
        a, va, pa = optimize_cem(m, 0.9, 1.1, budget=(2, 60), seed=7)
        b, vb, pb = optimize_cem(m, 0.9, 1.1, budget=(2, 60), seed=7)
        assert a == b
        assert np.array_equal(va, vb)
        assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("model", [make_qubit_direction(1.0), make_nv_spin1(**NV_PARAMS)],
                             ids=lambda m: m.name)
    def test_more_restarts_never_worse(self, model):
        """Restart 0 runs identically in both batches, so extra rows can only add."""
        one, _, _ = optimize_cem(model, 0.8, 1.7, budget=(1, 40), seed=11)
        many, _, _ = optimize_cem(model, 0.8, 1.7, budget=(8, 40), seed=11)
        assert many >= one

    @pytest.mark.parametrize("model", [
        make_qubit_direction(1.0), make_qubit_xcomponent(1.0), make_nv_spin1(**NV_PARAMS),
    ], ids=lambda m: m.name)
    def test_reaches_the_bound_without_the_analytic_seed(self, model, monkeypatch):
        """An independent cross-check: with the seed replaced by the identity control
        and |0>, no restart starts at the closed-form optimum, yet the search lands on G."""
        for theta, t, seed in [(0.7, 1.3, 3), (1.4, 0.6, 17)]:
            sol = g_bound(model, theta, t)
            eye = np.eye(model.dim, dtype=complex)
            poor = dataclasses.replace(sol, V_opt=eye, psi_opt=eye[0])
            with monkeypatch.context() as patch:
                patch.setattr(cem, "_solution", lambda *args, s=poor: s)
                best, v_star, psi_star = optimize_cem(model, theta, t, budget=(8, 400),
                                                      seed=seed)
            assert abs(best - sol.G_value) <= 1e-2 * sol.G_value
            rho = np.outer(psi_star, psi_star.conj())
            # fisher_cem and the optimizer both build the weights from amplitudes, so a
            # small weight keeps its relative accuracy on either side.
            assert fisher_cem(model, theta, t, v_star, rho).value == pytest.approx(best, rel=1e-12)

    def test_fixed_decompositions_whatever_the_budget(self, decompositions):
        """One for the jet and one per generator; no line search decomposes anything.  A
        warm call at the same (model, theta) decomposes g_dyn alone."""
        m = make_nv_spin1(**NV_PARAMS)
        counts = []
        for budget in [(1, 6), (2, 40), (8, 400)]:
            drop_memos()
            decompositions[0] = 0
            _, v_star, _ = optimize_cem(m, 0.8, 1.7, budget=budget, seed=5)
            counts.append(decompositions[0])
            assert np.max(np.abs(v_star @ v_star.conj().T - np.eye(m.dim))) <= 1e-10
        decompositions[0] = 0
        optimize_cem(m, 0.8, 2.3, budget=(1, 6))
        assert (counts, decompositions[0]) == ([3, 3, 3], 1)

    def test_grid_stages_per_line_search(self, monkeypatch):
        """One kernel call scores the starts, then two per line search: the shared coarse
        nodes, then each restart's fine nodes."""
        m = make_nv_spin1(**NV_PARAMS)
        calls = []
        fisher = cem._fisher

        def counted(coef, table):
            values = fisher(coef, table)
            calls.append(values.shape)
            return values

        monkeypatch.setattr(cem, "_fisher", counted)
        for restarts, iterations in [(1, 6), (2, 40), (8, 400)]:
            calls.clear()
            optimize_cem(m, 0.8, 1.7, budget=(restarts, iterations), seed=5)
            assert len(calls) == 1 + 2 * iterations
            assert calls[0] == (restarts, 1)
            assert set(calls[1::2]) == {(restarts, cem.COARSE_NODES)}
            assert set(calls[2::2]) == {(restarts, cem.FINE_NODES)}

    @pytest.mark.parametrize("model", [
        make_qubit_direction(1.0), make_qubit_xcomponent(1.0), make_nv_spin1(**NV_PARAMS),
    ], ids=lambda m: m.name)
    def test_objective_matches_fisher_cem(self, model):
        """The analytic kernel scores Haar-random pairs as fisher_cem does."""
        rng = np.random.default_rng(29)
        for theta, t in [(0.7, 1.3), (1.4, 0.6), (2.2, 2.9)]:
            for _ in range(4):
                V = haar_unitary(rng, model.dim)
                psi = haar_unitary(rng, model.dim)[:, 0]
                value = kernel_values(model, theta, t, V[None], psi[None])[0]
                rho = np.outer(psi, psi.conj())
                assert value == pytest.approx(fisher_cem(model, theta, t, V, rho).value,
                                              rel=1e-12)

    def test_kernel_scores_zero_amplitudes_and_line_nodes(self):
        """V = I and basis states put some weights at zero, below SUPPORT_THRESHOLD: the
        kernel skips them as fisher_cem does, at the starts and along one control and one
        preparation line, node by node against the explicitly rotated V or psi."""
        model = make_nv_spin1(**NV_PARAMS)  # its m = 0 level decouples from m = +-1
        theta, t, radius = 0.9, 1.7, 0.6
        d = model.dim
        eye = np.eye(d, dtype=complex)
        V, psi = np.stack([eye] * d), eye.copy()
        starts = kernel_values(model, theta, t, V, psi)
        weights = np.abs(cem._point(model, theta).jet(t).W.conj().T @ model.u_of(theta, t)) ** 2
        assert np.sum(weights <= SUPPORT_THRESHOLD) >= d  # each basis state misses a level
        for j in range(d):
            rho = np.outer(psi[j], psi[j].conj())
            assert starts[j] == pytest.approx(fisher_cem(model, theta, t, eye, rho).value,
                                              rel=1e-12, abs=1e-12)

        K, y, Yt = carried_rows(model, theta, t, V, psi)
        terms, moves = cem._move_terms(d), rotation_moves(d)
        nodes = -radius + (radius + radius) * cem._COARSE
        table = np.stack([np.ones_like(nodes), np.cos(nodes), np.sin(nodes)])
        checked = 0
        for coord in [d + 1, d * d]:  # the Y-type control move of levels (0, 1); psi's (0, 1)
            coef = cem._line(K, y, psi, Yt, terms[coord], coord < d * d)
            values = cem._fisher(coef, table)
            assert values.shape == (d, cem.COARSE_NODES)
            for j in range(d):
                for k, x in enumerate(nodes):
                    R = rotation(d, *moves[coord], x)
                    V_x, psi_x = (R, psi[j]) if coord < d * d else (eye, R @ psi[j])
                    rho = np.outer(psi_x, psi_x.conj())
                    assert values[j, k] == pytest.approx(
                        fisher_cem(model, theta, t, V_x, rho).value, rel=1e-12, abs=1e-12)
                    checked += values[j, k] > 0.0
        assert checked > 0

    @pytest.mark.parametrize("model", [
        make_qubit_direction(1.0), make_qubit_xcomponent(1.0), make_nv_spin1(**NV_PARAMS),
    ], ids=lambda m: m.name)
    def test_seeded_search_reaches_the_bound_to_rounding(self, model):
        """Restart 0 starts at the closed-form optimum, so the value is G up to rounding."""
        checked = 0
        for theta, t in itertools.product([0.3, 1.1, 2.4], [0.4, 1.7]):
            sol = g_bound(model, theta, t)
            if not sol.condition_holds:
                continue
            best, _, _ = optimize_cem(model, theta, t, budget=(2, 20), seed=4)
            assert best == pytest.approx(sol.G_value, rel=1e-12)
            checked += 1
        assert checked > 0

    def test_needs_no_stencil_room(self):
        """The objective is analytic, so a point 1e-7 inside the domain is enough."""
        m = make_qubit_direction(1.0)
        best, _, _ = optimize_cem(m, 1e-7, 1.0, budget=(2, 20), seed=0)
        assert best == pytest.approx(g_bound(m, 1e-7, 1.0).G_value, rel=1e-12)
        with pytest.raises(DomainBoundary):
            optimize_cem(m, 0.0, 1.0, budget=(1, 1))

    @pytest.mark.parametrize("seeded", [True, False], ids=["analytic-seed", "poor-seed"])
    @pytest.mark.parametrize("model", [
        make_qubit_direction(1.0), make_qubit_xcomponent(1.0), make_nv_spin1(**NV_PARAMS),
    ], ids=lambda m: m.name)
    def test_lockstep_matches_serial_reference(self, model, seeded, monkeypatch):
        random_wins = 0
        for theta, t, seed in [(0.7, 1.3, 3), (1.4, 0.6, 17)]:
            sol = g_bound(model, theta, t)
            if not seeded:  # identity control and |0>: the random restarts decide the result
                eye = np.eye(model.dim, dtype=complex)
                sol = dataclasses.replace(sol, V_opt=eye, psi_opt=eye[0])
            with monkeypatch.context() as patch:
                if not seeded:
                    patch.setattr(cem, "_solution", lambda *args, s=sol: s)
                fast, _, _ = optimize_cem(model, theta, t, budget=(3, 30), seed=seed)
            per_restart = serial_optimize_cem(model, theta, t, (3, 30), seed, sol)
            rho = np.outer(sol.psi_opt, sol.psi_opt.conj())  # the reference scores as fisher_cem
            assert per_restart[0] == pytest.approx(
                fisher_cem(model, theta, t, sol.V_opt, rho).value, rel=1e-12, abs=1e-12)
            assert fast == pytest.approx(max(per_restart), rel=1e-9)
            random_wins += int(np.argmax(per_restart) > 1)  # [seed value, restart 0, ...]
        assert seeded or random_wins > 0


def carried_rows(model, theta, t, V, psi):
    """(K, y, Yt) of the pairs (V[r], psi[r]): K = [W^dag V; -2i g_diag W^dag V] and
    y = [U_t psi; -2i g_dyn U_t psi] as rows, y = (psi @ Yt) reshaped to (R, 2, d)."""
    jet = cem._point(model, theta).jet(t)
    Wh = jet.W.conj().T
    Yt = np.concatenate((jet.U, -2j * jet.g_dyn @ jet.U)).T
    K = np.concatenate((Wh, -2j * jet.g_diag @ Wh)) @ V
    return K, (psi @ Yt).reshape(len(psi), 2, model.dim), Yt


def kernel_values(model, theta, t, V, psi):
    """optimize_cem's kernel value at each of the pairs (V[r], psi[r])."""
    K, y, Yt = carried_rows(model, theta, t, V, psi)
    return cem._fisher(cem._line(K, y, psi, Yt), np.ones((1, 1)))[:, 0]


# --- serial reference: one restart and one scalar grid line search at a time --------


def rotation_moves(d):
    """optimize_cem's moves as (kind, i, j): the d^2 control moves, then the 2d - 2 preparation moves."""
    pairs = list(zip(*np.triu_indices(d, 1)))
    return ([("phase", j, j) for j in range(d)]
            + [(kind, i, j) for i, j in pairs for kind in ("x", "y")]
            + [("y", 0, j) for j in range(1, d)]
            + [("phase", j, j) for j in range(1, d)])


def rotation(d, kind, i, j, delta):
    """exp(-i delta B) for |j><j|, |i><j| + |j><i| or i|i><j| - i|j><i|, entry by entry: a
    (d, d) matrix for a scalar delta, a (..., d, d) stack for an array of them."""
    delta = np.asarray(delta, dtype=float)
    R = np.zeros(delta.shape + (d, d), dtype=complex)
    R[..., range(d), range(d)] = 1.0
    c, s = np.cos(delta), np.sin(delta)
    if kind == "phase":
        R[..., j, j] = c - 1j * s
    elif kind == "x":
        R[..., i, i] = R[..., j, j] = c
        R[..., i, j] = R[..., j, i] = -1j * s
    else:
        R[..., i, i] = R[..., j, j] = c
        R[..., i, j], R[..., j, i] = s, -s
    return R


def scalar_grid_max(f, lo, hi):
    """One row of _grid_max_rows, node by node: the first best of the coarse nodes across
    [lo, hi], then of the fine nodes across one coarse spacing either side of it, clipped
    to [lo, hi], taken only if strictly better.  f scores a stage's nodes in one call."""
    step = (hi - lo) / (cem.COARSE_NODES - 1)
    a, b = lo, hi
    best_x, best_f = lo, -math.inf
    for nodes in (cem.COARSE_NODES, cem.FINE_NODES):
        xs = [a + (b - a) * (k / (nodes - 1)) for k in range(nodes)]
        for x, fx in zip(xs, f(np.array(xs))):
            if fx > best_f:
                best_x, best_f = x, fx
        a, b = max(lo, best_x - step), min(hi, best_x + step)
    return best_x, float(best_f)


def serial_optimize_cem(model, theta, t, budget, seed, sol):
    """Restart-by-restart reference of optimize_cem's rotation moves, seeded at sol.

    Each probe builds exp(-i delta B) entry by entry as a phase on one
    component or a cos/sin mix of two, applies it to the control (from the
    right) or the preparation, and scores the pair with fisher_cem's density
    route, built once from the public diagonalizer, u_of and generator_pair; a
    grid stage's probes are scored as one stack.  Returns the direct value at the
    seed followed by each restart's final value.
    """
    restarts, iterations = budget
    d = model.dim
    S = diagonalizer(model, theta)  # rows: the measured eigenbras, in generator_pair's gauge
    U = model.u_of(theta, t)
    pair = generator_pair(model, theta, t)

    def objective(V, psi):
        """sum_j dp_j^2 / p_j with p_j = (B sigma B^dag)_jj, B = S V and sigma = U psi psi^dag U^dag;
        dp_j = 2 Im (g_diag B sigma B^dag)_jj + (B dsigma B^dag)_jj, dsigma = -i [g_dyn, sigma].
        V (..., d, d) and psi (..., d) broadcast against each other."""
        phi = (U @ psi[..., None])[..., 0]
        sigma = phi[..., :, None] * phi[..., None, :].conj()
        dsigma = -1j * (pair.g_dyn @ sigma - sigma @ pair.g_dyn)
        B = S @ V
        Bh = B.conj().swapaxes(-2, -1)
        A = B @ sigma @ Bh
        p = np.diagonal(A, axis1=-2, axis2=-1).real
        dp = (2.0 * np.diagonal(pair.g_diag @ A, axis1=-2, axis2=-1).imag
              + np.diagonal(B @ dsigma @ Bh, axis1=-2, axis2=-1).real)
        support = p > SUPPORT_THRESHOLD
        return np.sum(np.where(support, dp**2 / np.where(support, p, 1.0), 0.0), axis=-1)

    moves = rotation_moves(d)
    n_v = d * d

    rng = np.random.default_rng(seed)
    values = [float(objective(sol.V_opt, sol.psi_opt))]
    for restart in range(restarts):
        if restart == 0:
            V, psi = sol.V_opt, sol.psi_opt
        else:
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(z)
            V = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = z / np.linalg.norm(z)

        current, radius = float(objective(V, psi)), 0.6
        for it in range(iterations):
            coord = it % len(moves)
            if coord == 0 and it > 0:
                radius = max(radius * 0.8, 1e-3)

            def moved(delta, c=coord, V=V, psi=psi):
                R = rotation(d, *moves[c], delta)
                return (V @ R, psi) if c < n_v else (V, (R @ psi[:, None])[..., 0])

            xc, fc = scalar_grid_max(lambda v: objective(*moved(v)), -radius, radius)
            if fc > current:
                (V, psi), current = moved(xc), fc
        values.append(current)
    return values


class TestGridMaxRows:
    def test_matches_scalar_grid_row_by_row(self):
        """Rows share a bracket, so each random bracket is one call over its own rows."""
        rng = np.random.default_rng(21)
        brackets, rows = 16, 4
        for lo, width in zip(rng.uniform(-2.0, 1.0, size=brackets),
                             rng.uniform(0.1, 3.0, size=brackets)):
            hi = lo + width
            peak = rng.uniform(lo - 0.5, hi + 0.5, size=rows)  # some maxima sit outside
            scale = rng.uniform(0.1, 5.0, size=rows)
            power = rng.choice([1.0, 1.5, 2.0], size=rows)

            def f(v):
                return -scale[:, None] * np.abs(v - peak[:, None]) ** power[:, None]

            xs, fs = _grid_max_rows(f, lo, hi)
            for r in range(rows):
                x_r, f_r = scalar_grid_max(
                    lambda v: -scale[r] * np.abs(v - peak[r]) ** power[r], lo, hi)
                assert xs[r] == pytest.approx(x_r, rel=1e-14, abs=1e-14)
                assert fs[r] == pytest.approx(f_r, rel=1e-14, abs=1e-14)

    def test_bimodal_line_returns_the_global_maximum(self):
        """A golden section on [-1, 1] keeps [-1, 0.236] after its first step and so
        climbs the broad local hill at -0.6; the coarse stage sees both hills."""
        centre = np.array([0.7, -0.7, 0.55])[:, None]  # the narrow, higher hill; its mirror

        def f(v):
            return (np.exp(-((v + np.sign(centre) * 0.6) / 0.3) ** 2)
                    + 2.0 * np.exp(-((v - centre) / 0.1) ** 2))

        xs, fs = _grid_max_rows(f, -1.0, 1.0)
        assert np.all(np.abs(xs - centre[:, 0]) <= 2.0 / 1024)  # the last spacing
        assert np.all(fs >= 1.999)  # the local hill peaks at 1
        assert np.array_equal(fs, f(xs[:, None])[:, 0])

    def test_returns_the_best_node_it_evaluated(self):
        """An objective that drifts down from call to call: the coarse stage holds the best."""
        rng = np.random.default_rng(8)
        peak = rng.uniform(-1.0, 1.0, size=12)[:, None]
        seen = []

        def f(v):
            value = -(v - peak) ** 2 - 0.01 * len(seen)
            seen.append((v, value))
            return value

        xs, fs = _grid_max_rows(f, -1.0, 1.0)
        assert len(seen) == 2
        assert seen[0][0].shape == (cem.COARSE_NODES,)  # the coarse nodes are shared
        assert seen[1][0].shape == (peak.size, cem.FINE_NODES)
        assert [value.shape for _, value in seen] == [(peak.size, cem.COARSE_NODES),
                                                     (peak.size, cem.FINE_NODES)]
        nodes = np.concatenate([np.broadcast_to(v, value.shape) for v, value in seen], axis=1)
        values = np.concatenate([value for _, value in seen], axis=1)
        best = np.argmax(values, axis=1)
        rows = np.arange(peak.size)
        assert np.array_equal(xs, nodes[rows, best])
        assert np.array_equal(fs, values[rows, best])
        assert np.all(best < cem.COARSE_NODES)  # every best node is a coarse node

    @pytest.mark.parametrize("radius", [1e-3, 0.6, 1.0])
    def test_coarse_nodes_hold_the_centre_and_the_fine_spacing_is_2r_over_1024(self, radius):
        """The current point (delta = 0) is a coarse node, and the fine nodes, clipped at
        the ends of the line or not, are at most 2 radius / 1024 apart."""
        peak = np.array([-1.0, -0.999, -0.3, 0.0, 0.4, 0.9995, 1.0, 2.0])[:, None] * radius
        seen = []

        def f(v):
            seen.append(v)
            return -np.abs(v - peak)

        _grid_max_rows(f, -radius, radius)
        coarse, fine = seen
        assert 0.0 in coarse
        assert np.all(np.diff(fine, axis=1) <= 2.0 * radius / 1024 * (1.0 + 1e-12))  # rounding
        assert np.all((-radius <= fine) & (fine <= radius))

    def test_stays_in_the_bracket_and_never_below_the_centre(self):
        """Each random radius is its own bracket, so each row is one call."""
        rng = np.random.default_rng(5)
        rows = 64
        radius = rng.uniform(1e-3, 0.6, size=rows)
        peak = rng.uniform(-2.0, 2.0, size=rows) * radius  # half of them outside
        spike = rng.uniform(size=rows) < 0.25  # a spike at 0, narrower than any spacing

        def f(v, r):
            hill = 0.9 * np.exp(-((v - peak[r]) / radius[r]) ** 2)
            return np.maximum(hill, np.exp(-(v / 1e-12) ** 2)) if spike[r] else hill

        xs, fs = np.array([
            np.concatenate(_grid_max_rows(lambda v, r=r: np.atleast_2d(f(v, r)),
                                          -radius[r], radius[r]))
            for r in range(rows)]).T
        assert np.all((-radius <= xs) & (xs <= radius))
        assert np.array_equal(fs, [f(x, r) for r, x in enumerate(xs)])
        assert np.all(fs >= [f(0.0, r) for r in range(rows)])
        assert np.all(xs[spike] == 0.0)


class TestMaxGapLemma:
    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="equal dimension"):
            max_gap_lemma_check(SZ, np.eye(3))
        with pytest.raises(ValueError, match="trials must be positive"):
            max_gap_lemma_check(SZ, SZ, trials=0)

    def test_zero_second_matrix(self):
        M1 = np.diag([2.0, -1.0]).astype(complex)
        numeric, analytic = max_gap_lemma_check(M1, np.zeros((2, 2)), trials=10)
        assert analytic == pytest.approx(3.0)
        assert numeric == pytest.approx(3.0, abs=1e-12)

    def test_pauli_z_pair_achieves_four(self):
        numeric, analytic = max_gap_lemma_check(SZ, SZ, trials=5)
        assert analytic == pytest.approx(4.0)
        assert numeric == pytest.approx(4.0, abs=1e-9)

    def test_random_pairs_never_exceed(self):
        rng = np.random.default_rng(15)
        z1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        M1, M2 = (z1 + z1.conj().T) / 2, (z2 + z2.conj().T) / 2
        numeric, analytic = max_gap_lemma_check(M1, M2, trials=500, seed=4)
        assert numeric <= analytic + 1e-9
        assert numeric >= analytic - 1e-9  # constructed pair achieves it
