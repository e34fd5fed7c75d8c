"""Tests for controlled energy measurements, the bound, and its optimizers."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from qmet import cem
from qmet.cem import (
    _golden_max_rows,
    cem_outcome_model,
    check_condition,
    diagonalizer,
    diagonalizer_family,
    encoded_qfi,
    fisher_cem,
    g_bound,
    generator_pair,
    local_generator,
    max_gap_lemma_check,
    optimize_cem,
)
from qmet.cli import EXIT_OK, main
from qmet.errors import DegenerateSpectrum, DomainBoundary, NonHermitianInput
from qmet.linalg import expm_unitary, fix_phases, spectral_gap
from qmet.models import (
    HamiltonianModel,
    make_jaynes_cummings,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
    reference,
)
from qmet.numdiff import DiffSpec

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

NV_PARAMS = {"mu": 1.0, "D": 1.44 * math.pi, "E": 5e-5 * math.pi}


def twist_gauge(monkeypatch, phases):
    """Multiply every column of the phase-fixed eigenbasis by a fixed phase exp(i phi_k)."""
    rot = np.exp(1j * phases)
    monkeypatch.setattr(cem, "fix_phases", lambda W: fix_phases(W) * rot)


def constant_basis_model(levels):
    """Diagonal family with theta-independent eigenvectors and sliding eigenvalues."""
    levels = np.asarray(levels, dtype=float)
    return HamiltonianModel(
        name="diag",
        dim=levels.size,
        h_of=lambda q: np.diag(levels * (1.0 + q)).astype(complex),
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
        g = local_generator(diagonalizer_family(m, theta), theta)
        om2 = w * w + theta * theta
        assert abs(g[0, 0]) <= 1e-9 and abs(g[1, 1]) <= 1e-9
        assert abs(abs(g[0, 1]) - w / (2 * om2)) <= 1e-7
        assert abs(g[0, 1].real) <= 1e-9
        assert spectral_gap(g) == pytest.approx(w / om2, abs=1e-7)

    def test_field_direction_diagonalizer_generator_gap_is_one(self):
        m = make_qubit_direction(1.0)
        for theta in (0.5, math.pi / 2, 2.6):
            g = local_generator(diagonalizer_family(m, theta), theta)
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


class TestGBound:
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
    def test_model_without_dh_of_falls_back_to_richardson(self, name):
        model = ORACLE_GRIDS[name][0]()
        bare = dataclasses.replace(model, dh_of=None)
        pair = generator_pair(bare, 0.8, 1.1)
        assert pair.method == "richardson-fd"
        assert pair.gaps == generator_pair(model, 0.8, 1.1, RICHARDSON).gaps
        for a, b in zip(pair.gaps, generator_pair(model, 0.8, 1.1).gaps):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
        sol = g_bound(bare, 0.8, 1.1)
        assert sol.method == "richardson-fd"
        assert sol.G_value == pytest.approx(g_bound(model, 0.8, 1.1).G_value, rel=1e-8)

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
    """The analytic generators cost one decomposition of H(theta) plus one per generator."""

    @pytest.mark.parametrize("name", list(ORACLE_GRIDS))
    def test_g_bound_and_generator_pair(self, decompositions, name):
        model = ORACLE_GRIDS[name][0]()
        decompositions[0] = 0
        g_bound(model, 0.7, 1.3)
        assert 1 <= decompositions[0] <= 3
        decompositions[0] = 0
        generator_pair(model, 0.7, 1.3)
        assert 1 <= decompositions[0] <= 3

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
        """None with dh_of is analytic; an explicit spec or a model without dh_of is not."""
        model = ORACLE_GRIDS[name][0]()
        bare = dataclasses.replace(model, dh_of=None)
        sol = g_bound(model, 0.8, 1.1)
        rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
        central = DiffSpec(method="central-fd")
        assert fisher_cem(model, 0.8, 1.1, sol.V_opt, rho0).method == "analytic"
        assert fisher_cem(model, 0.8, 1.1, sol.V_opt, rho0, central).method == "central-fd"
        assert fisher_cem(bare, 0.8, 1.1, sol.V_opt, rho0).method == "richardson-fd"
        assert encoded_qfi(model, 0.8, 1.1, rho0)[0].method == "analytic"
        assert encoded_qfi(model, 0.8, 1.1, rho0, central)[0].method == "central-fd"
        assert encoded_qfi(bare, 0.8, 1.1, rho0)[0].method == "richardson-fd"

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

    def test_commuting_static_case_is_zero(self):
        m = constant_basis_model([0.0, 1.0, 2.5])
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        fi = fisher_cem(m, 0.4, 1.0, np.eye(3), rho0).value
        assert fi <= 1e-12

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


class TestOptimizeCem:
    def test_reaches_closed_form_on_field_direction(self):
        m = make_qubit_direction(1.0)
        sol = g_bound(m, 1.0, 1.0)
        best, v_star, psi_star = optimize_cem(m, 1.0, 1.0, budget=(3, 150), seed=1)
        assert best >= 0.99 * sol.G_value
        assert best <= sol.G_value + 1e-3
        assert np.max(np.abs(v_star @ v_star.conj().T - np.eye(2))) <= 1e-9

    def test_seeded_restart_guarantee_with_minimal_budget(self):
        m = make_qubit_direction(1.0)
        sol = g_bound(m, 1.2, 0.9)
        best, _, _ = optimize_cem(m, 1.2, 0.9, budget=(1, 1), seed=0)
        assert best >= 0.99 * sol.G_value

    def test_static_family_yields_zero(self):
        m = HamiltonianModel("static", 2, lambda q: np.diag([0.0, 1.0]).astype(complex))
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
                monkeypatch.setattr(cem, "g_bound", lambda *args, s=sol: s)
            fast, _, _ = optimize_cem(model, theta, t, budget=(3, 30), seed=seed)
            per_restart = serial_optimize_cem(model, theta, t, (3, 30), seed, sol)
            assert fast == pytest.approx(max(per_restart), rel=1e-9)
            random_wins += int(np.argmax(per_restart) > 1)  # [seed value, restart 0, ...]
        assert seeded or random_wins > 0


# --- serial reference: one restart and one scalar golden section at a time ----------


def scalar_golden_max(f, lo, hi, iters=14):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, e = b - invphi * (b - a), a + invphi * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(iters):
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    return (c, fc) if fc >= fe else (e, fe)


def serial_optimize_cem(model, theta, t, budget, seed, sol):
    """Restart-by-restart optimizer the lockstep batch replaced, seeded at sol.

    Returns the direct value at the seed followed by each restart's final value.
    """
    restarts, iterations = budget
    step = 1e-5 * (1.0 + abs(theta))
    d = model.dim
    n_v, n_p = d * d, 2 * d - 2
    systems = []
    for x in (theta - step, theta + step, theta):
        E, W = np.linalg.eigh(model.h_of(x))
        systems.append((np.exp(-1j * t * E), W))

    def objective(V, psi):
        p_minus, p_plus, p0 = [np.abs(W.conj().T @ (V @ (W @ (ph * (W.conj().T @ psi))))) ** 2
                               for ph, W in systems]
        dp = (p_plus - p_minus) / (2.0 * step)
        mask = p0 > 1e-12
        return float(np.sum(dp[mask] ** 2 / p0[mask]))

    def hermitian(x):
        A = np.diag(x[:d]).astype(complex)
        i, j = np.triu_indices(d, 1)
        A[i, j] = x[d::2] + 1j * x[d + 1::2]
        A[j, i] = x[d::2] - 1j * x[d + 1::2]
        return A

    def state(x):
        amps = np.ones(d)
        for i in range(d - 1):
            amps[i] *= math.cos(x[i])
            amps[i + 1:] *= math.sin(x[i])
        return amps * np.exp(1j * np.concatenate([[0.0], x[d - 1:]]))

    def angles(psi):
        v = psi * (psi[0].conjugate() / abs(psi[0])) if abs(psi[0]) > 1e-14 else psi
        out, tail = np.zeros(n_p), 1.0
        for i in range(d - 1):
            out[i] = math.acos(min(max(abs(v[i]) / tail, 0.0), 1.0)) if tail > 1e-14 else 0.0
            tail *= math.sin(out[i])
        out[d - 1:] = np.angle(v[1:])
        return out

    rng = np.random.default_rng(seed)
    values = [objective(sol.V_opt, sol.psi_opt)]
    for restart in range(restarts):
        if restart == 0:
            v_seed, psi0 = sol.V_opt, sol.psi_opt
        else:
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(z)
            v_seed = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            z = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi0 = z / np.linalg.norm(z)
        x = np.concatenate([np.zeros(n_v), angles(psi0)])

        def value_at(y):
            return objective(v_seed @ expm_unitary(hermitian(y[:n_v]), 1.0), state(y[n_v:]))

        current, radius = value_at(x), 0.6
        for it in range(iterations):
            coord = it % (n_v + n_p)
            if coord == 0 and it > 0:
                radius = max(radius * 0.8, 1e-3)

            def along(val, c=coord):
                y = x.copy()
                y[c] = val
                return value_at(y)

            xc, fc = scalar_golden_max(along, x[coord] - radius, x[coord] + radius)
            if fc > current:
                x[coord], current = xc, fc
        values.append(current)
    return values


class TestGoldenMaxRows:
    def test_matches_scalar_golden_section_row_by_row(self):
        rng = np.random.default_rng(21)
        rows = 16
        lo = rng.uniform(-2.0, 1.0, size=rows)
        hi = lo + rng.uniform(0.1, 3.0, size=rows)
        peak = rng.uniform(lo - 0.5, hi + 0.5)  # some maxima sit outside the bracket
        scale = rng.uniform(0.1, 5.0, size=rows)
        power = rng.choice([1.0, 1.5, 2.0], size=rows)

        def f(v):
            return -scale * np.abs(v - peak) ** power

        xs, fs = _golden_max_rows(f, lo, hi)
        for r in range(rows):
            x_r, f_r = scalar_golden_max(
                lambda v: float(-scale[r] * abs(v - peak[r]) ** power[r]), lo[r], hi[r])
            assert xs[r] == pytest.approx(x_r, rel=1e-14, abs=1e-14)
            assert fs[r] == pytest.approx(f_r, rel=1e-14, abs=1e-14)


class TestMaxGapLemma:
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
