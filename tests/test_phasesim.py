"""Tests for the phase-estimation read-out simulator and its oracles."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qmet import phasesim
from qmet.cem import _level_jet, _node, _point, cem_outcome_model, fisher_cem, g_bound
from qmet.errors import AliasingRisk, DegenerateSpectrum, DomainBoundary, OracleTooLarge
from qmet.fisher import OutcomeDistribution, ProbabilityModel, classical_fisher
from qmet.linalg import expm_unitary, require_hermitian, require_nondegenerate
from qmet.models import (
    HamiltonianModel,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
)
from qmet.numdiff import DEFAULT_DIFF, DiffSpec
from qmet.phasesim import (
    PhaseSimConfig,
    aligned_tau,
    circuit_oracle,
    controllization_factors,
    controllization_oracle,
    default_tau,
    fisher_phase_readout,
    ideal_distribution,
    realistic_distribution,
    tune_tau,
)

from memos import drop_memos
from stencils import central5

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def fixed_model(H):
    H = np.asarray(H, dtype=complex)
    return HamiltonianModel("fixed", H.shape[0], lambda q: H,
                            dh_of=lambda q: np.zeros_like(H))


def ground_projector(d):
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def optimal_config(model, theta, t, n, m, tau=None):
    sol = g_bound(model, theta, t)
    rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
    return PhaseSimConfig(n=n, m=m, tau=tau, t=t, V=sol.V_opt, rho0=rho0), sol


class TestEnergyProbs:
    def test_ground_state_point_mass(self):
        m = fixed_model(np.diag([-1.0, 1.0]))
        dist = cem_outcome_model(m, 2.0, np.eye(2), ground_projector(2)).at(0.3)
        assert np.allclose(dist.probs, [1.0, 0.0])

    def test_maximally_mixed_is_uniform_for_any_control(self):
        rng = np.random.default_rng(0)
        m = make_qubit_direction(1.0)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        V, _ = np.linalg.qr(z)
        dist = cem_outcome_model(m, 1.3, V, np.eye(2) / 2).at(1.0)
        assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-12)

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            cem_outcome_model(fixed_model(np.eye(2)), 1.0, np.eye(2), np.eye(2) / 2).at(0.0)

    def test_outside_the_domain_raises(self):
        """As fisher_cem does: qubit-direction's domain is (0, pi)."""
        levels = cem_outcome_model(make_qubit_direction(1.0), 1.0, np.eye(2), ground_projector(2))
        for x in (-1.0, 0.0, math.pi, math.nan):
            with pytest.raises(DomainBoundary, match=f"parameter value {x} is outside"):
                levels.at(x)


class TestIdealDistribution:
    def test_outside_the_domain_raises(self):
        model = make_qubit_direction(1.0)
        cfg = PhaseSimConfig(n=3, m=1, t=1.0, rho0=ground_projector(2))
        for distribution in (ideal_distribution, realistic_distribution):
            with pytest.raises(DomainBoundary, match=r"parameter value -1.0 is outside"):
                distribution(cfg, model, -1.0)
            assert distribution(cfg, model, 1.0).probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_aligned_energy_gives_point_mass(self):
        """With tau*xi a multiple of the grid spacing the kernel picks a single bin."""
        n, c = 3, 2.0
        m = fixed_model(np.diag([0.0, c]))
        k = 3
        tau = 2 * math.pi * k / (2**n * c)
        rho_excited = np.diag([0.0, 1.0]).astype(complex)
        cfg = PhaseSimConfig(n=n, m=1, tau=tau, t=1.0, rho0=rho_excited)
        dist = ideal_distribution(cfg, m, 0.5)
        expected_bin = (-k) % 2**n
        assert dist.probs[expected_bin] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_over_random_configs(self):
        rng = np.random.default_rng(1)
        model = make_qubit_direction(1.0)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = z / np.linalg.norm(z)
            cfg = PhaseSimConfig(n=n, m=1, t=float(rng.uniform(0.2, 3.0)),
                                 rho0=np.outer(psi, psi.conj()))
            dist = ideal_distribution(cfg, model, float(rng.uniform(0.3, 2.8)))
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist.probs >= 0)

    def test_concentrates_on_energy_distribution_as_n_grows(self):
        """Binning the read-out to the nearest energy peak recovers the two-peak law.

        The kernel tails shrink with n, so the pushforward of the Q-distribution
        onto the nearest peak converges to the energy distribution.
        """
        model = make_qubit_direction(1.0)
        theta, t = 1.0, 1.0
        cfg0, _ = optimal_config(model, theta, t, 4, 1)
        p_energy = cem_outcome_model(model, t, cfg0.control(2), cfg0.rho0).at(theta).probs
        tau = default_tau(model, theta)
        xi = np.array([0.0, 2.0])  # shifted spectrum of the qubit
        tvs = []
        for n in (4, 6, 8):
            cfg = PhaseSimConfig(n=n, m=1, tau=tau, t=t, V=cfg0.V, rho0=cfg0.rho0)
            dist = ideal_distribution(cfg, model, theta).probs
            centers = (-tau * xi * 2**n / (2 * math.pi)) % 2**n
            bins = np.arange(2**n)
            circ = np.abs((bins[:, None] - centers[None, :] + 2 ** (n - 1)) % 2**n
                          - 2 ** (n - 1))
            nearest = np.argmin(circ, axis=1)
            push = np.array([dist[nearest == j].sum() for j in range(2)])
            tvs.append(0.5 * np.abs(push - p_energy).sum())
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[2] < 0.01

    def test_aliasing_guard(self):
        model = make_qubit_direction(1.0)  # spectral range 2
        cfg = PhaseSimConfig(n=4, m=1, tau=2 * math.pi, t=1.0, rho0=np.eye(2) / 2)
        with pytest.raises(AliasingRisk):
            ideal_distribution(cfg, model, 1.0)

    def test_one_dimensional_system_is_a_single_peak(self):
        m = fixed_model(np.array([[0.7]]))
        cfg = PhaseSimConfig(n=3, m=1, tau=1.0, t=1.0,
                             rho0=np.array([[1.0]], dtype=complex))
        dist = ideal_distribution(cfg, m, 0.0)
        # the shifted eigenvalue is zero, so the only peak sits in bin 0
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)


class TestRealisticDistribution:
    def test_kernel_product_identity(self):
        """With a = 1, phi = 0 the cosine product telescopes to the squared kernel."""
        rng = np.random.default_rng(2)
        for n in (1, 2, 4, 6):
            alpha = rng.uniform(0.05, 2 * math.pi - 0.05, size=50)
            prod = np.ones_like(alpha)
            for level in range(1, n + 1):
                prod *= 1.0 + np.cos(2 ** (level - 1) * alpha)
            assert np.allclose(prod / 2**n, ref_kernel(alpha, n), atol=1e-12)
            cfg = PhaseSimConfig(n=n, m=1, t=1.0, rho0=np.eye(2) / 2)
            coef = phasesim._level_coefficients(cfg, alpha[None, :], None, "ideal")
            kernels, _ = phasesim._level_products(coef)  # bin Q = 0 holds K_n(alpha)
            assert np.allclose(kernels[0, :, 0], ref_kernel(alpha, n), atol=1e-12)

    def test_normalization(self):
        model = make_qubit_direction(1.0)
        cfg, _ = optimal_config(model, 1.0, 1.0, 5, 3)
        dist = realistic_distribution(cfg, model, 1.0)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_converges_to_ideal_as_m_doubles(self):
        """On a trace-centered spectrum the total variation decreases monotonically."""
        model = make_qubit_direction(1.0)  # traceless Hamiltonian
        theta, t = 1.0, 1.0
        sol = g_bound(model, theta, t)
        rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
        tau = 0.5
        base = PhaseSimConfig(n=5, m=1, tau=tau, t=t, V=sol.V_opt, rho0=rho0,
                              energy_shift=0.0)
        ideal = ideal_distribution(base, model, theta)
        tvs = []
        for m in (1, 2, 4, 8, 16, 32, 64):
            cfg = PhaseSimConfig(n=5, m=m, tau=tau, t=t, V=sol.V_opt, rho0=rho0,
                                 energy_shift=0.0)
            tvs.append(ideal.total_variation(realistic_distribution(cfg, model, theta)))
        assert all(a > b for a, b in zip(tvs, tvs[1:]))
        # the damping a^(2^(l-1) m) -> 1 gives roughly geometric decay in m
        assert tvs[-1] < 0.02
        assert tvs[-2] / tvs[-1] == pytest.approx(2.0, rel=0.15)


class TestControllizationFactors:
    def test_damping_above_one_rejected(self):
        for a, words in ((1.1, "a = 1.1 exceeds 1"), (math.nan, "a is NaN")):
            with pytest.raises(ValueError, match=words):
                phasesim.ControllizationFactors(a=a, phi=0.0, eps_m=0.0)

    def test_the_readout_names_a_nan_damping_factor(self):
        """The realistic read-out checks its damping factors by ControllizationFactors'
        rule: tau (E + shift) beyond the float range makes the spins, and so a, NaN, and
        that is the error named, not a NaN distribution."""
        cfg = PhaseSimConfig(n=4, m=2, t=1.0, tau=2.0, energy_shift=1e308,
                             rho0=np.diag([1.0, 0.0]).astype(complex))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="damping factor a is NaN"):
            realistic_distribution(cfg, make_qubit_direction(1.0), 0.8)

    @pytest.mark.parametrize("shift", [1e308, -1e308])
    def test_an_overflowing_level_phase_is_named(self, shift):
        """Where the top level's phase 2^(n-1) tau (E + shift) leaves the float range, every
        read-out names it before any arithmetic on it: at tau = 0.5, tau (E + shift) is
        finite and a = 1, so only the level phase overflows; at the default tau, tau
        (E + shift) overflows too."""
        words = r"level phase 2\^\(n-1\) tau \(E \+ shift\) = 2\^3 x "
        model, rho0 = make_qubit_direction(1.0), np.diag([1.0, 0.0]).astype(complex)
        fixed = PhaseSimConfig(n=4, m=2, t=1.0, tau=0.5, energy_shift=shift, rho0=rho0)
        for read in (ideal_distribution, realistic_distribution):
            with pytest.raises(ValueError, match=words + "5e\\+307 overflows"):
                read(fixed, model, 0.8)
        default = replace(fixed, tau=None)
        for call in (lambda: fisher_phase_readout(default, model, 0.8, mode="ideal"),
                     lambda: fisher_phase_readout(default, model, 0.8, mode="realistic"),
                     lambda: tune_tau(default, model, 0.8)):
            with pytest.raises(ValueError, match=words + "inf overflows"):
                call()

    def test_identity(self):
        f = controllization_factors(np.eye(3), 5)
        assert f.a == pytest.approx(1.0)
        assert f.phi == 0.0
        assert abs(f.eps_m) == pytest.approx(0.0, abs=1e-15)

    def test_traceless_unitary(self):
        f = controllization_factors(np.diag([1.0, -1.0]), 2)
        assert f.a == 0.0
        assert f.phi == 0.0  # degenerate phase convention

    def test_qubit_rotation(self):
        """U = exp(-i x sigma_z): tr(U)/2 = cos(x)."""
        x = 0.1
        f = controllization_factors(expm_unitary(SZ, x), 4)
        assert f.a == pytest.approx(math.cos(x), abs=1e-12)
        assert f.phi in (0.0, pytest.approx(math.pi))

    def test_error_halves_as_m_doubles(self):
        """|eps_m| = |cos^m(w tau/m) - 1| ~ (w tau)^2/(2m) on a traceless qubit."""
        model = make_qubit_direction(1.0)
        tau = 0.8
        eps = []
        for m in (2, 4, 8, 16, 32):
            u = expm_unitary(model.h_of(1.0), tau / m)
            eps.append(abs(controllization_factors(u, m).eps_m))
        for a, b in zip(eps, eps[1:]):
            assert b < a
        assert eps[-2] / eps[-1] == pytest.approx(2.0, rel=0.1)


class TestFisherPhaseReadout:
    def test_ideal_readout_approaches_cem_information(self):
        model = make_qubit_direction(1.0)
        theta, t = 1.0, 1.0
        cfg, sol = optimal_config(model, theta, t, 10, 1)
        target = fisher_cem(model, theta, t, sol.V_opt,
                            np.outer(sol.psi_opt, sol.psi_opt.conj())).value
        value = fisher_phase_readout(cfg, model, theta, mode="ideal").value
        assert value == pytest.approx(target, rel=0.05)
        assert value <= target * 1.0001

    def test_monotone_in_n(self):
        model = make_qubit_direction(1.0)
        theta, t = 1.0, 1.0
        values = []
        for n in (4, 6, 8, 10):
            cfg, _ = optimal_config(model, theta, t, n, 1)
            values.append(fisher_phase_readout(cfg, model, theta, mode="ideal").value)
        assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))

    def test_static_readout_has_zero_information(self):
        model = fixed_model(np.diag([0.0, 1.3]))
        cfg = PhaseSimConfig(n=4, m=1, t=1.0, rho0=np.diag([0.3, 0.7]).astype(complex))
        for diff in (None, DEFAULT_DIFF):
            for mode in ("ideal", "realistic"):
                assert fisher_phase_readout(cfg, model, 0.5, diff, mode).value <= 1e-12

    def test_tuned_realistic_readout_near_bound(self):
        model = make_qubit_direction(1.0)
        theta, t = 1.0, 1.0
        cfg, sol = optimal_config(model, theta, t, 6, 3)
        tau = tune_tau(cfg, model, theta, mode="realistic")
        value = fisher_phase_readout(cfg.with_tau(tau), model, theta, mode="realistic").value
        assert value >= 0.8 * sol.G_value

    @pytest.mark.parametrize("diff", [None, DEFAULT_DIFF], ids=["analytic", "oracle"])
    def test_unknown_mode_is_rejected(self, diff):
        model = make_qubit_direction(1.0)
        cfg, _ = optimal_config(model, 1.0, 1.0, 4, 1)
        with pytest.raises(ValueError, match="mode"):
            fisher_phase_readout(cfg, model, 1.0, diff, mode="bogus")
        with pytest.raises(ValueError, match="mode"):
            tune_tau(cfg, model, 1.0, mode="bogus", diff=diff)

    def test_realistic_gap_to_ideal_shrinks_with_m(self):
        model = make_qubit_direction(1.0)
        theta, t = 1.0, 1.0
        sol = g_bound(model, theta, t)
        rho0 = np.outer(sol.psi_opt, sol.psi_opt.conj())
        gaps = []
        for m in (1, 16):
            cfg = PhaseSimConfig(n=4, m=m, tau=0.5, t=t, V=sol.V_opt, rho0=rho0)
            ideal = fisher_phase_readout(cfg, model, theta, mode="ideal").value
            real = fisher_phase_readout(cfg, model, theta, mode="realistic").value
            gaps.append(abs(real - ideal))
        assert gaps[1] < gaps[0]


class TestCircuitOracle:
    def test_single_qubit_interference_pattern(self):
        """n = 1 on an eigenstate: probabilities (1 +- cos(alpha))/2."""
        c = 1.1
        model = fixed_model(np.diag([0.0, c]))
        tau = 0.7
        cfg = PhaseSimConfig(n=1, m=1, tau=tau, t=0.9,
                             rho0=np.diag([0.0, 1.0]).astype(complex))
        dist = circuit_oracle(cfg, model, 0.2)
        alpha = tau * c
        assert dist.probs[0] == pytest.approx((1 + math.cos(alpha)) / 2, abs=1e-12)
        assert dist.probs[1] == pytest.approx((1 - math.cos(alpha)) / 2, abs=1e-12)

    def test_matches_kernel_formula_on_field_direction(self):
        model = make_qubit_direction(1.0)
        for n in (3, 5, 6):
            cfg, _ = optimal_config(model, 1.0, 1.0, n, 1)
            oracle = circuit_oracle(cfg, model, 1.0)
            formula = ideal_distribution(cfg, model, 1.0)
            assert oracle.total_variation(formula) <= 1e-8

    def test_pure_state_and_rank_one_density_agree(self):
        model = make_qubit_xcomponent(1.0)
        psi = np.array([0.6, 0.8j])
        cfg = PhaseSimConfig(n=2, m=1, t=1.2, rho0=np.outer(psi, psi.conj()))
        a = circuit_oracle(cfg, model, 0.7)
        # same preparation entered as an eigendecomposed mixture
        rho = 0.999999999999 * np.outer(psi, psi.conj()) + 1e-12 * np.eye(2) / 2
        rho = rho / np.trace(rho).real
        cfg2 = PhaseSimConfig(n=2, m=1, t=1.2, rho0=rho)
        b = circuit_oracle(cfg2, model, 0.7)
        assert a.total_variation(b) <= 1e-9

    @pytest.mark.parametrize("model_name", ["qubit-direction", "nv-spin1"])
    @pytest.mark.parametrize("n", [3, 6])
    def test_mixed_preparation_matches_kernel_formula(self, model_name, n):
        """A full-rank rho0 in a random eigenbasis under a random control V: the oracle's
        ensemble over the factor's columns gives the kernel formula's distribution."""
        model = make_qubit_direction(1.0) if model_name == "qubit-direction" else \
            make_nv_spin1(*NV)
        rng, d = np.random.default_rng(n), model.dim
        V, B = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                for _ in range(2))
        weights = rng.uniform(0.1, 1.0, d)
        cfg = PhaseSimConfig(n=n, m=1, t=1.1, V=V,
                             rho0=(B * (weights / weights.sum())) @ B.conj().T)
        assert cfg.factor.shape == (d, d)
        oracle = circuit_oracle(cfg, model, 0.9)
        assert oracle.total_variation(ideal_distribution(cfg, model, 0.9)) <= 1e-8

    def test_size_guard(self):
        model = make_qubit_direction(1.0)
        cfg = PhaseSimConfig(n=7, m=1, t=1.0, rho0=np.eye(2) / 2)
        with pytest.raises(OracleTooLarge):
            circuit_oracle(cfg, model, 1.0)


class TestControllizationOracle:
    def test_diagonal_blocks_pass_through(self):
        """x = y: the channel acts exactly as the controlled unitary (factor 1)."""
        rng = np.random.default_rng(3)
        u = expm_unitary(SZ, 0.37)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        for x in (0, 1):
            block = controllization_oracle(u, x, x, rho, m=3)
            expected = np.linalg.matrix_power(u, 3) @ rho @ np.linalg.matrix_power(u, 3).conj().T \
                if x == 1 else rho
            sub = block[2 * x: 2 * x + 2, 2 * x: 2 * x + 2]
            assert np.max(np.abs(sub - expected)) <= 1e-12

    def test_traceless_unitary_kills_coherence(self):
        u = np.diag([1.0, -1.0]).astype(complex)
        rho = np.eye(2) / 2
        block = controllization_oracle(u, 0, 1, rho, m=1)
        assert np.max(np.abs(block)) <= 1e-14

    def test_off_diagonal_damping_factor(self):
        """x=0, y=1, qubit rotation: the block is cos(x)^m e^{i m phi} rho U^dag^m."""
        u = expm_unitary(SZ, 0.1)
        rho = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        m = 4
        block = controllization_oracle(u, 0, 1, rho, m=m)
        factors = controllization_factors(u, m)
        u_m = np.linalg.matrix_power(u, m)
        expected = (factors.a**m * np.exp(1j * m * factors.phi)) * (rho @ u_m.conj().T)
        assert np.max(np.abs(block[:2, 2:] - expected)) <= 1e-10
        assert factors.a == pytest.approx(math.cos(0.1), abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(OracleTooLarge):
            controllization_oracle(np.eye(7), 0, 1, np.eye(7) / 7, m=1)

    def test_a_nan_state_fails_the_closed_form_check(self):
        with pytest.raises(ArithmeticError, match="closed form"):
            controllization_oracle(np.eye(2), 0, 1, np.full((2, 2), math.nan), m=2)

    @pytest.mark.parametrize("x1,y1", [(2, 0), (0, 2)])
    def test_control_index_must_be_a_qubit_state(self, x1, y1):
        with pytest.raises(ValueError, match="control indices"):
            controllization_oracle(np.eye(2), x1, y1, np.eye(2) / 2, m=1)


class TestConfigValidation:
    def test_bad_qubit_count(self):
        with pytest.raises(ValueError):
            PhaseSimConfig(n=0, m=1, t=1.0, rho0=np.eye(2) / 2)

    def test_bad_subdivisions(self):
        with pytest.raises(ValueError):
            PhaseSimConfig(n=2, m=0, t=1.0, rho0=np.eye(2) / 2)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            PhaseSimConfig(n=2, m=1, tau=-0.5, t=1.0, rho0=np.eye(2) / 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau(self, value):
        with pytest.raises(ValueError, match="tau"):
            PhaseSimConfig(n=2, m=1, tau=value, t=1.0, rho0=np.eye(2) / 2)
        cfg = PhaseSimConfig(n=2, m=1, t=1.0, rho0=np.eye(2) / 2)
        with pytest.raises(ValueError, match="tau"):
            cfg.with_tau(value)

    @pytest.mark.parametrize("name", ["t", "energy_shift"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_and_shift(self, name, value):
        kwargs = {"n": 2, "m": 1, "t": 1.0, "rho0": np.eye(2) / 2, name: value}
        with pytest.raises(ValueError, match=name):
            PhaseSimConfig(**kwargs)

    def test_aligned_tau_satisfies_guard(self):
        model = make_qubit_direction(1.0)
        tau = aligned_tau(model, 1.0, 6)
        assert tau * 2.0 < 2 * math.pi  # spectral range is 2

    @pytest.mark.parametrize("n, m, named", [
        (6, 3.5, "subdivision count m must be an integer"),
        (6, True, "subdivision count m must be an integer"),
        (6, np.float64(3.0), "subdivision count m must be an integer"),
        (6.0, 3, "control-qubit count n must be an integer"),
        (True, 3, "control-qubit count n must be an integer"),
    ])
    def test_non_integer_counts(self, n, m, named):
        """A float or bool n or m is refused where the counts are checked (the config, and
        with_tau and the CLI through _check_bounds): unchecked, m = 3.5 scores 3.5
        controllization rounds, m = True runs as 1, and n = 6.0 or True dies in the kernel
        with an untyped TypeError."""
        with pytest.raises(ValueError, match=named):
            PhaseSimConfig(n=n, m=m, t=1.0, rho0=np.eye(2) / 2)
        with pytest.raises(ValueError, match=named):
            phasesim._check_bounds(n, m, 0.5)

    def test_numpy_integer_counts_pass(self):
        cfg = PhaseSimConfig(n=np.int64(6), m=np.int32(3), t=1.0, rho0=np.eye(2) / 2)
        assert cfg.with_tau(0.5).tau == 0.5
        assert aligned_tau(make_qubit_direction(1.0), 0.8, np.int64(6)) > 0.0

    @pytest.mark.parametrize("n", [0, -1, 13, 6.0, True])
    def test_aligned_tau_checks_n_as_the_config_does(self, n):
        with pytest.raises(ValueError, match="control-qubit count"):
            aligned_tau(make_qubit_direction(1.0), 0.8, n)

    def test_aligned_tau_needs_two_levels(self):
        with pytest.raises(AliasingRisk, match="zero range"):
            aligned_tau(fixed_model([[0.7]]), 1.0, 6)


# --- serial reference: the expm-based read-out, one node and one tau at a time ---------


def ref_spectrum(model, theta):
    ev = np.linalg.eigvalsh(require_hermitian(model.h_of(theta)))
    require_nondegenerate(ev)
    return ev


def ref_shift(cfg, ev):
    return -float(ev[0]) if cfg.energy_shift is None else float(cfg.energy_shift)


def ref_shifted_spectrum(cfg, model, theta, tau):
    ev = ref_spectrum(model, theta)
    if tau * float(ev[-1] - ev[0]) >= 2.0 * math.pi:
        raise AliasingRisk("reference: bins are not injective")
    return ev + ref_shift(cfg, ev)


def ref_energy_probs(model, theta, t, V, rho0):
    ev, W = np.linalg.eigh(require_hermitian(model.h_of(theta)))
    require_nondegenerate(ev)
    u_t = expm_unitary(model.h_of(theta), t)
    M = V @ (u_t @ rho0 @ u_t.conj().T) @ V.conj().T
    return np.clip(np.einsum("ij,jk,ki->i", W.conj().T, M, W).real, 0.0, None)


def ref_tau(cfg, model, theta):
    if cfg.tau is not None:
        return cfg.tau
    ev = ref_spectrum(model, theta)
    return 0.9 * 2.0 * math.pi / (float(ev[-1] - ev[0]) + 1e-6)


PI_LONG = 4 * np.arctan(np.longdouble(1))


def ref_alpha(phase, n):
    """phase + 2 pi Q / 2^n over the bins Q, in long double from the float64 phase.

    Rounding alpha in float64 would move the kernel by up to 2^n eps |alpha|
    (7.5e-14 at n = 10), as much as the library error the tests bound.
    """
    Q = np.arange(2**n)
    return np.asarray(phase, dtype=np.longdouble)[..., None] + 2 * PI_LONG * Q / 2**n


def ref_kernel(alpha, n):
    """The squared Dirichlet kernel straight from its definition, both sines on the full grid.

    Evaluated in long double; alpha may be float64 or long double.
    """
    N = 2**n
    half = np.asarray(alpha, dtype=np.longdouble) / 2
    s = np.sin(half)
    singular = np.abs(s) < 1e-9
    safe = np.where(singular, 1, s)
    return np.where(singular, 1, (np.sin(N * half) / (N * safe)) ** 2)


def ref_ideal(cfg, model, theta):
    tau = ref_tau(cfg, model, theta)
    xi = ref_shifted_spectrum(cfg, model, theta, tau)
    p = ref_energy_probs(model, theta, cfg.t, cfg.control(model.dim), cfg.rho0)
    kernel = ref_kernel(ref_alpha(tau * xi, cfg.n), cfg.n)
    probs = (p[:, None] * kernel).sum(axis=0).astype(float)
    return OutcomeDistribution(outcomes=tuple(range(2**cfg.n)), probs=probs)


def ref_realistic(cfg, model, theta):
    tau = ref_tau(cfg, model, theta)
    xi = ref_shifted_spectrum(cfg, model, theta, tau)
    p = ref_energy_probs(model, theta, cfg.t, cfg.control(model.dim), cfg.rho0)
    shift = ref_shift(cfg, ref_spectrum(model, theta))
    u_sub = expm_unitary(model.h_of(theta) + shift * np.eye(model.dim), tau / cfg.m)
    factors = controllization_factors(u_sub, cfg.m)
    Q = np.arange(2**cfg.n)
    beta = tau * xi[:, None] + 2.0 * math.pi * Q[None, :] / 2**cfg.n + cfg.m * factors.phi
    prod = np.ones((model.dim, 2**cfg.n))
    for level in range(1, cfg.n + 1):
        w = 2 ** (level - 1)
        prod *= 1.0 + factors.a ** (w * cfg.m) * np.cos(w * beta)
    probs = (p[:, None] * prod).sum(axis=0) / 2**cfg.n
    return OutcomeDistribution(outcomes=tuple(Q.tolist()), probs=np.clip(probs, 0.0, None))


def ref_fisher(cfg, model, theta, diff, mode):
    frozen = cfg.with_tau(ref_tau(cfg, model, theta))
    dist = ref_ideal if mode == "ideal" else ref_realistic
    pm = ProbabilityModel(at=lambda x: dist(frozen, model, x), theta_domain=model.theta_domain)
    return classical_fisher(pm, theta, diff)


def ref_tune_tau(cfg, model, theta, mode, diff, coarse=32, refine=16):
    """The serial scan: (candidate taus, their values, chosen tau)."""
    hi = 0.98 * 2.0 * math.pi / (float(np.ptp(ref_spectrum(model, theta))) + 1e-6)
    taus = np.geomspace(hi / 300.0, hi, coarse)

    def fi(tau):
        try:
            return ref_fisher(cfg.with_tau(tau), model, theta, diff, mode).value
        except AliasingRisk:
            return -np.inf

    values = [fi(tau) for tau in taus]
    best = int(np.argmax(values))
    fine = np.linspace(taus[max(best - 1, 0)], taus[min(best + 1, len(taus) - 1)], refine)
    candidates = np.concatenate([taus, fine])
    all_values = np.array(values + [fi(tau) for tau in fine])
    return candidates, all_values, float(candidates[int(np.argmax(all_values))])


NV = (1.0, 1.44 * math.pi, 5e-5 * math.pi)
ONE_LEVEL = DiffSpec(levels=1)
SCAN_TOL = 1e-7  # relative to max(|F|, 1)


def steep_model(rate=2000.0):
    """Field direction theta with magnitude exp(rate (theta - 1/2)): the range grows fast."""
    def h_of(q):
        return math.exp(rate * (q - 0.5)) * (math.cos(q) * SZ + math.sin(q) * SX)

    return HamiltonianModel("steep", 2, h_of)


SCAN_CASES = {  # model factory, theta, t
    "qubit-direction": (lambda: make_qubit_direction(1.0), 1.0, 1.0),
    "nv-spin1": (lambda: make_nv_spin1(*NV), 0.7, 1.3),
    "qubit-xcomponent": (lambda: make_qubit_xcomponent(1.0), 0.8, 1.1),  # its ground energy moves
    "steep": (steep_model, 0.5, 0.4),
}


def scan_case(model_name, n, shift):
    make, theta, t = SCAN_CASES[model_name]
    model = make()
    if model_name == "steep":  # too steep for g_bound's finite-difference generators
        psi = np.array([0.6, 0.8j])
        cfg = PhaseSimConfig(n=n, m=3, t=t, rho0=np.outer(psi, psi.conj()))
    else:
        cfg, _ = optimal_config(model, theta, t, n, 3)
    return replace(cfg, energy_shift=shift), model, theta


class TestBatchedReadoutMatchesSerial:
    """The batched node layer and tau kernel against the serial expm-based read-out."""

    @pytest.mark.parametrize("model_name", ["qubit-direction", "nv-spin1"])
    @pytest.mark.parametrize("n", [1, 6, 10])
    @pytest.mark.parametrize("shift", [None, 0.0])
    def test_distributions(self, model_name, n, shift):
        cfg, model, theta = scan_case(model_name, n, shift)
        for tau in (0.3, 0.9 * default_tau(model, theta)):
            tuned = cfg.with_tau(tau)
            for fast, ref in ((ideal_distribution, ref_ideal),
                              (realistic_distribution, ref_realistic)):
                diff = np.abs(fast(tuned, model, theta).probs - ref(tuned, model, theta).probs)
                assert diff.max() <= 1e-13

    @pytest.mark.parametrize("model_name, n, mode, diff, shift", [
        ("qubit-direction", 6, "ideal", DEFAULT_DIFF, None),
        ("qubit-direction", 6, "realistic", ONE_LEVEL, 0.0),
        ("qubit-direction", 10, "ideal", ONE_LEVEL, None),
        ("qubit-direction", 10, "realistic", DEFAULT_DIFF, 0.0),
        ("nv-spin1", 6, "ideal", ONE_LEVEL, 0.0),
        ("nv-spin1", 6, "realistic", DEFAULT_DIFF, None),
        ("nv-spin1", 10, "ideal", DEFAULT_DIFF, 0.0),
        ("nv-spin1", 10, "realistic", ONE_LEVEL, None),
        ("steep", 6, "ideal", DEFAULT_DIFF, None),
        ("steep", 10, "realistic", ONE_LEVEL, 0.0),
    ])
    def test_tau_scan(self, model_name, n, mode, diff, shift):
        cfg, model, theta = scan_case(model_name, n, shift)
        candidates, ref_values, ref_best = ref_tune_tau(cfg, model, theta, mode, diff)
        values, _ = phasesim._scorer(cfg, model, theta, diff)[1](candidates, mode)
        aliased = np.isneginf(ref_values)
        assert np.array_equal(np.isneginf(values), aliased)
        if model_name == "steep":
            assert aliased[:32].sum() >= 2 and aliased[31]  # the top candidates alias
        finite = ~aliased
        scale = np.maximum(np.abs(ref_values[finite]), 1.0)
        assert np.all(np.abs(values[finite] - ref_values[finite]) <= SCAN_TOL * scale)

        best = tune_tau(cfg, model, theta, mode=mode, diff=diff)
        if best != ref_best:
            a = ref_fisher(cfg.with_tau(best), model, theta, diff, mode).value
            b = ref_fisher(cfg.with_tau(ref_best), model, theta, diff, mode).value
            assert abs(a - b) <= SCAN_TOL * max(abs(b), 1.0)
        report = fisher_phase_readout(cfg.with_tau(ref_best), model, theta, diff, mode)
        ref = ref_fisher(cfg.with_tau(ref_best), model, theta, diff, mode)
        assert abs(report.value - ref.value) <= SCAN_TOL * max(abs(ref.value), 1.0)
        assert 0.0 < report.error_estimate < np.inf

    def test_readout_raises_when_a_stencil_node_aliases(self):
        cfg, model, theta = scan_case("steep", 6, None)
        candidates, ref_values, _ = ref_tune_tau(cfg, model, theta, "realistic", DEFAULT_DIFF)
        tau = candidates[int(np.flatnonzero(np.isneginf(ref_values))[0])]
        with pytest.raises(AliasingRisk):
            fisher_phase_readout(cfg.with_tau(tau), model, theta, DEFAULT_DIFF, "realistic")


def jet_inputs(cfg, model, theta):
    """(energies, level weights, (dxi, dp)) at theta, the shift as the read-out applies it."""
    E, dE, _, p, dp, _, _ = _level_jet(_point(model, theta).jet(cfg.t),
                                       cfg.control(model.dim), cfg.factor)
    return E, p, (dE - dE[0] if cfg.energy_shift is None else dE, dp)


def oracle_scores(cfg, model, theta, taus, mode):
    """Richardson read-out Fisher values at every tau, through the library's stencil."""
    return phasesim._scorer(cfg, model, theta, DEFAULT_DIFF)[1](taus, mode)[0]


class TestAnalyticReadout:
    """The read-out jet at theta alone against the Richardson stencil and central5."""

    @pytest.mark.parametrize("model_name", ["qubit-direction", "nv-spin1", "qubit-xcomponent"])
    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    @pytest.mark.parametrize("shift", [None, 0.0])
    def test_scan_agrees_with_richardson(self, model_name, n, mode, shift):
        cfg, model, theta = scan_case(model_name, n, shift)
        E, score, method, step = phasesim._scorer(cfg, model, theta, None)
        assert (method, step) == ("analytic", 0.0)
        hi = 0.98 * 2.0 * math.pi / (float(np.ptp(E)) + 1e-6)
        coarse = np.geomspace(hi / 300.0, hi, 32)
        values, errs = score(coarse, mode)
        ref_values = oracle_scores(cfg, model, theta, coarse, mode)
        fine = [np.linspace(coarse[max(b - 1, 0)], coarse[min(b + 1, 31)], 16)
                for b in (int(np.argmax(values)), int(np.argmax(ref_values)))]
        taus = np.concatenate([coarse] + fine)  # both paths' full candidate sets
        values, errs = score(taus, mode)
        ref_values = oracle_scores(cfg, model, theta, taus, mode)
        assert np.all(np.isfinite(values)) and np.all((0.0 < errs) & (errs < np.inf))
        assert np.all(np.abs(values - ref_values) <= SCAN_TOL * np.maximum(np.abs(ref_values), 1.0))

        best, ref_best = tune_tau(cfg, model, theta, mode), tune_tau(cfg, model, theta, mode,
                                                                       DEFAULT_DIFF)
        if best != ref_best:
            a, b = (fisher_phase_readout(cfg.with_tau(x), model, theta, DEFAULT_DIFF, mode).value
                    for x in (best, ref_best))
            assert abs(a - b) <= SCAN_TOL * max(abs(b), 1.0)
        report = fisher_phase_readout(cfg.with_tau(best), model, theta, mode=mode)
        oracle = fisher_phase_readout(cfg.with_tau(best), model, theta, DEFAULT_DIFF, mode)
        assert (report.method, report.step) == ("analytic", 0.0)
        assert 0.0 < report.error_estimate < np.inf
        assert abs(report.value - oracle.value) <= SCAN_TOL * max(abs(oracle.value), 1.0)

    @pytest.mark.parametrize("model_name", ["qubit-direction", "nv-spin1", "qubit-xcomponent"])
    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("shift", [None, 0.0])
    def test_bin_derivatives_match_central5(self, model_name, n, shift):
        cfg, model, theta = scan_case(model_name, n, shift)
        E, p, jet = jet_inputs(cfg, model, theta)
        taus = np.array([0.05, 0.5, 0.95]) * 2.0 * math.pi / float(np.ptp(E))
        V = cfg.control(model.dim)
        for mode in ("ideal", "realistic"):
            parts = list(phasesim._readout_chunks(cfg, E, p, taus, mode, jet))
            probs, dprobs = (np.concatenate([part[k] for part in parts]) for k in (1, 2))
            assert np.array_equal(probs, phasesim._readout_probs(cfg, E, p, taus, mode))

            def probs_at(x):
                return phasesim._readout_probs(cfg, *_node(model, x, cfg.t, V, cfg.factor),
                                               taus, mode)

            fd = central5(probs_at, theta, 3e-6)
            assert np.abs(dprobs - fd).max() <= 1e-7 * np.abs(dprobs).max()

    def test_explicit_diff_runs_the_stencil(self):
        cfg, model, theta = scan_case("nv-spin1", 6, None)
        tau = 0.5 * default_tau(model, theta)
        for mode in ("ideal", "realistic"):
            report = fisher_phase_readout(cfg.with_tau(tau), model, theta, ONE_LEVEL, mode)
            values, errs = phasesim._scorer(cfg, model, theta, ONE_LEVEL)[1](np.array([tau]), mode)
            assert (report.value, report.error_estimate) == (values[0], errs[0])
            assert (report.method, report.step) == ("richardson-fd", ONE_LEVEL.base_step(theta))

    def test_aliasing_is_judged_at_theta(self):
        """nv-spin1's range grows with theta: a tau that aliases just above theta only."""
        cfg, model, theta = scan_case("nv-spin1", 6, None)
        rng_at = [float(np.ptp(np.linalg.eigvalsh(model.h_of(x))))
                  for x in (theta, theta + DEFAULT_DIFF.base_step(theta))]
        assert rng_at[1] > rng_at[0]
        tuned = cfg.with_tau(2.0 * math.pi / math.sqrt(rng_at[0] * rng_at[1]))
        for mode in ("ideal", "realistic"):
            assert fisher_phase_readout(tuned, model, theta, mode=mode).value > 0.0
            with pytest.raises(AliasingRisk):
                fisher_phase_readout(tuned, model, theta, DEFAULT_DIFF, mode)
            with pytest.raises(AliasingRisk):
                fisher_phase_readout(cfg.with_tau(2.0 * math.pi / rng_at[0]), model, theta,
                                     mode=mode)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_kernel_derivative_vanishes_on_the_bins(self, n):
        """At aligned_tau both levels sit on bins: K_n = 1 and K_n' = 0 there."""
        model = make_qubit_direction(1.0)
        tau = aligned_tau(model, 1.0, n)
        cfg = PhaseSimConfig(n=n, m=1, tau=tau, t=1.0, rho0=np.eye(2) / 2)
        phase = tau * np.array([[0.0, 2.0]])  # the shifted spectrum of the qubit
        coef = phasesim._level_coefficients(cfg, phase, np.ones_like(phase), "ideal")
        kernels, dkernels = phasesim._level_products(coef)  # dkernels = K_n' here
        for level, on_bin in ((0, 0), (1, 1)):  # tau * 2 = 2 pi (2^n - 1) / 2^n
            assert kernels[0, level, on_bin] == pytest.approx(1.0, abs=1e-12)
            assert abs(dkernels[0, level, on_bin]) <= 1e-12 * 2**n
        alpha = ref_alpha(phase[0], n)
        assert np.abs(kernels[0] - ref_kernel(alpha, n)).max() <= 1e-13
        h = 1e-6
        slope = (ref_kernel(alpha + h, n) - ref_kernel(alpha - h, n)) / (2 * h)
        assert np.abs(dkernels[0] - slope).max() <= 1e-6 * 2**n


class TestBatchMatchesSingleTau:
    """A batch score equals the single-tau reports bit for bit, however the taus are chunked."""

    @pytest.mark.parametrize("n", [3, 6, 10, 12])
    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    @pytest.mark.parametrize("diff", [None, DEFAULT_DIFF], ids=["analytic", "richardson"])
    def test_batch_equals_single_tau_reports(self, n, mode, diff):
        cfg, model, theta = scan_case("nv-spin1", n, None)
        hi = 0.98 * 2.0 * math.pi / float(np.ptp(np.linalg.eigvalsh(model.h_of(theta))))
        taus = np.geomspace(hi / 300.0, hi, 20)
        values, errs = phasesim._scorer(cfg, model, theta, diff)[1](taus, mode)
        for tau, value, err in zip(taus, values, errs):
            report = fisher_phase_readout(cfg.with_tau(float(tau)), model, theta, diff, mode)
            assert report.value == value
            if diff is None:  # a Richardson batch shares one derivative error bound
                assert report.error_estimate == err

    @pytest.mark.parametrize("model_name", ["qubit-direction", "nv-spin1"])
    @pytest.mark.parametrize("n", [6, 10, 12])
    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    def test_scan_runs_in_full_chunks_within_the_scratch_bound(self, model_name, n, mode,
                                                               monkeypatch):
        """A tune_tau-sized scan of 48 taus equals each tau scored alone, bit for bit.  Each
        chunk pass runs the whole level product within SCRATCH_BYTES, the passes cover all
        taus, and every pass but the last is full: one tau more would cross the bound."""
        cfg, model, theta = scan_case(model_name, n, None)
        passes = []  # (taus, bytes of the last level's factors) per call
        level_products = phasesim._level_products

        def bounded(coef):
            kernels, dkernels = level_products(coef)
            scratch = kernels.nbytes * coef.shape[1]  # one (T, d, 2^n) array per kind
            assert kernels.shape[-1] == 2**n and scratch <= phasesim.SCRATCH_BYTES
            passes.append((coef.shape[2], scratch))
            return kernels, dkernels

        monkeypatch.setattr(phasesim, "_level_products", bounded)
        E, score, _, _ = phasesim._scorer(cfg, model, theta, None)
        hi = 0.98 * 2.0 * math.pi / (float(np.ptp(E)) + 1e-6)
        taus = np.geomspace(hi / 300.0, hi, phasesim.TAU_COARSE + phasesim.TAU_REFINE)
        values, errs = score(taus, mode)
        assert sum(count for count, _ in passes) == taus.size
        for count, scratch in passes[:-1]:
            assert scratch // count * (count + 1) > phasesim.SCRATCH_BYTES
        if n == 6:
            assert len(passes) == 1
        for k in range(taus.size):
            value, err = score(taus[k:k + 1], mode)
            assert (value.tobytes(), err.tobytes()) == (values[k:k + 1].tobytes(),
                                                         errs[k:k + 1].tobytes())


def traced_peak(call):
    """Peak bytes tracemalloc counts while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkspace:
    """_level_products runs in a per-thread workspace that a chunk's yielded probs and
    dprobs outlive, that threads do not share, and that a warm call does not reallocate."""

    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    def test_kept_chunks_equal_single_tau_runs(self, mode):
        """At n = 12 and d = 3 a chunk holds 5 taus, so 12 taus run in three chunks.  Kept
        all at once, every chunk's probs and dprobs equal each tau run alone, bit for bit."""
        cfg, model, theta = scan_case("nv-spin1", 12, None)
        E, p, jet = jet_inputs(cfg, model, theta)
        taus = np.geomspace(0.01, 0.9, 12) * default_tau(model, theta)
        chunks = list(phasesim._readout_chunks(cfg, E, p, taus, mode, jet))
        assert [probs.shape[0] for _, probs, _, _ in chunks] == [5, 5, 2]
        for sl, probs, dprobs, _ in chunks:
            for k, tau in enumerate(taus[sl]):
                ((_, alone, dalone, _),) = phasesim._readout_chunks(
                    cfg, E, p, np.array([tau]), mode, jet)
                assert alone.tobytes() == probs[k:k + 1].tobytes()
                assert dalone.tobytes() == dprobs[k:k + 1].tobytes()

    def test_threads_get_the_bits_of_serial_runs(self):
        """Three threads scoring different read-outs at once, with different chunk shapes
        and a short switch interval, give the values and error estimates of serial runs."""
        cases = [scan_case("qubit-direction", 10, None), scan_case("nv-spin1", 6, 0.0),
                 scan_case("nv-spin1", 10, None)]

        def run(case):
            cfg, model, theta = case
            E, score, _, _ = phasesim._scorer(cfg, model, theta, None)
            taus = np.geomspace(0.01, 0.9, 40) * 2.0 * math.pi / float(np.ptp(E))
            return [b"".join(a.tobytes() for a in score(taus, mode))
                    for mode in ("ideal", "realistic")]

        serial = [run(case) for case in cases]
        barrier, results = threading.Barrier(len(cases)), [None] * len(cases)

        def worker(i):
            barrier.wait()
            results[i] = [run(cases[i]) for _ in range(3)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, runs in enumerate(results):
            assert runs == [serial[i]] * 3

    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    def test_warm_level_products_allocate_little(self, mode):
        """n = 10, 32 taus, d = 2, values and derivatives: one chunk of 1 MiB factors.  A
        warm call's traced peak was 66 KiB (NumPy's broadcast buffers), against 2114 KiB
        with fresh factors per level; the bound is 128 KiB."""
        cfg, model, theta = scan_case("qubit-direction", 10, None)
        E, _, (dxi, _) = jet_inputs(cfg, model, theta)
        taus = np.geomspace(0.01, 0.9, 32) * default_tau(model, theta)
        coef = phasesim._level_coefficients(cfg, taus[:, None] * (E - E[0])[None, :],
                                            taus[:, None] * dxi[None, :], mode)
        assert coef.shape[:4] == (10, 2, 32, 2)
        phasesim._level_products(coef)  # grows the workspace, if it is not large enough
        assert traced_peak(lambda: phasesim._level_products(coef)) <= 128 * 1024

    def test_warm_tune_tau_allocates_little(self):
        """A warm realistic tune_tau at n = 10 keeps a coarse chunk's probs and dprobs,
        256 KiB each: its traced peak was 579 KiB, against 2147 KiB with fresh factors per
        level; the bound is 768 KiB."""
        cfg, model, theta = scan_case("qubit-direction", 10, None)
        tune_tau(cfg, model, theta, mode="realistic")
        assert traced_peak(lambda: tune_tau(cfg, model, theta, mode="realistic")) <= 768 * 1024


def full_scan_tau(cfg, model, theta, mode):
    """tune_tau as a full scan: all 48 candidates scored with their error estimates, the
    fine scan's two ends again, and the first best taken."""
    E, score, _, _ = phasesim._scorer(cfg, model, theta, None)
    hi = 0.98 * 2.0 * math.pi / (float(np.ptp(E)) + 1e-6)
    taus = np.geomspace(hi / 300.0, hi, phasesim.TAU_COARSE)
    values, errs = score(taus, mode)
    best = int(np.argmax(values))
    fine = np.linspace(taus[max(best - 1, 0)], taus[min(best + 1, len(taus) - 1)],
                       phasesim.TAU_REFINE)
    fine_values, fine_errs = score(fine, mode)
    assert np.all(np.isfinite(np.concatenate([errs, fine_errs])))
    for scan, scan_values in ((taus, values), (fine, fine_values)):  # values-only, bit for bit
        assert score(scan, mode, errors=False)[0].tobytes() == scan_values.tobytes()
    candidates = np.concatenate([taus, fine])
    return float(candidates[int(np.argmax(np.concatenate([values, fine_values])))])


class TestValueOnlyScans:
    """tune_tau's values-only scans of 46 taus pick the full scan's tau, bit for bit."""

    @pytest.mark.parametrize("model_name", ["qubit-direction", "nv-spin1"])
    @pytest.mark.parametrize("n", [1, 6, 10])
    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    @pytest.mark.parametrize("shift", [None, 0.0])
    def test_tune_tau_is_the_full_scan_argmax(self, model_name, n, mode, shift):
        cfg, model, theta = scan_case(model_name, n, shift)
        assert tune_tau(cfg, model, theta, mode) == full_scan_tau(cfg, model, theta, mode)

    def test_zero_bins_take_the_full_support_rule(self, monkeypatch):
        """A qubit whose range puts tune_tau's top candidate on aligned_tau at n = 5: in
        ideal mode both levels sit on bins, so every other bin is exactly 0, and the
        chunk that holds it runs _fisher_sum's support rule with its bounds."""
        n, rng = 5, 31e-6 / (0.98 * 32 - 31)  # 0.98 * 2 pi / (rng + 1e-6) = aligned_tau
        model, psi = make_qubit_direction(rng / 2.0), np.array([0.6, 0.8j])
        cfg = PhaseSimConfig(n=n, m=3, t=1.0, rho0=np.outer(psi, psi.conj()))
        top = 0.98 * 2.0 * math.pi / (float(np.ptp(np.linalg.eigvalsh(model.h_of(1.0)))) + 1e-6)
        assert top == pytest.approx(aligned_tau(model, 1.0, n), rel=1e-9)
        probs = ideal_distribution(cfg.with_tau(top), model, 1.0).probs
        assert np.sum(probs == 0.0) == 2**n - 2
        expected = full_scan_tau(cfg, model, 1.0, "ideal")
        sums, fisher_sum = [0], phasesim._fisher_sum

        def counted_sum(*args):
            sums[0] += 1
            return fisher_sum(*args)

        monkeypatch.setattr(phasesim, "_fisher_sum", counted_sum)
        assert tune_tau(cfg, model, 1.0, "ideal") == expected
        assert sums[0] >= 1


def counted_passes(monkeypatch):
    """One-element list counting _readout_chunks calls: kernel passes, one per scan or report
    however many chunks its taus take."""
    count, chunks = [0], phasesim._readout_chunks

    def counted(*args):
        count[0] += 1
        return chunks(*args)

    monkeypatch.setattr(phasesim, "_readout_chunks", counted)
    return count


def report_bits(report):
    return report.value, report.error_estimate


class TestKeptScanPass:
    """The report at tune_tau's tau reads the rows its values-only scan kept beside the level
    jet: the same bits as a fresh point's report, with one kernel pass fewer."""

    @pytest.mark.parametrize("model_name", ["qubit-direction", "nv-spin1"])
    @pytest.mark.parametrize("n", [1, 6, 10, 12])
    @pytest.mark.parametrize("shift", [None, 0.0])
    def test_tuned_reports_equal_a_fresh_point(self, model_name, n, shift):
        cfg, model, theta = scan_case(model_name, n, shift)
        for tuned_mode in ("ideal", "realistic"):
            drop_memos()
            tuned = cfg.with_tau(tune_tau(cfg, model, theta, tuned_mode))
            kept = [report_bits(fisher_phase_readout(tuned, model, theta, mode=mode))
                    for mode in ("ideal", "realistic")]
            drop_memos()
            fresh = [report_bits(fisher_phase_readout(tuned, model, theta, mode=mode))
                     for mode in ("ideal", "realistic")]
            assert kept == fresh

    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    def test_the_tuned_mode_takes_no_pass(self, mode, monkeypatch):
        """After tune_tau, the report in its mode runs no kernel pass and the other mode
        one; the kept rows are read-only."""
        cfg, model, theta = scan_case("nv-spin1", 10, None)
        tuned = cfg.with_tau(tune_tau(cfg, model, theta, mode))
        passes = counted_passes(monkeypatch)
        fisher_phase_readout(tuned, model, theta, mode=mode)
        assert passes[0] == 0
        fisher_phase_readout(tuned, model, theta, mode={"ideal": "realistic",
                                                         "realistic": "ideal"}[mode])
        assert passes[0] == 1
        _, kept = _point(model, theta).levels(cfg.t, cfg.control(model.dim), cfg.factor)
        assert not any(row.flags.writeable for row in kept["scan"][3])

    def test_a_working_point_takes_three_passes(self, monkeypatch):
        """g_bound, a realistic tune_tau and both reports, as perfbench's readout point: two
        scans, and one report pass, at n = 12, where a scan's taus span several chunks."""
        passes = counted_passes(monkeypatch)
        cfg, model, theta = scan_case("nv-spin1", 12, None)
        tuned = cfg.with_tau(tune_tau(cfg, model, theta, "realistic"))
        for mode in ("ideal", "realistic"):
            fisher_phase_readout(tuned, model, theta, mode=mode)
        assert passes[0] == 3

    @pytest.mark.parametrize("change", ["n", "m", "energy_shift", "mode", "tau", "V", "rho0"])
    def test_any_other_read_out_takes_a_pass(self, change, monkeypatch):
        """A report that differs from the tuned one in any input runs its own pass and gets
        a fresh point's bits."""
        cfg, model, theta = scan_case("qubit-direction", 6, None)
        tuned = cfg.with_tau(tune_tau(cfg, model, theta, "realistic"))
        mode = "ideal" if change == "mode" else "realistic"
        rot = expm_unitary(SX, 0.3)
        other = {
            "n": lambda: replace(tuned, n=7), "m": lambda: replace(tuned, m=4),
            "energy_shift": lambda: replace(tuned, energy_shift=0.0),
            "mode": lambda: tuned, "tau": lambda: tuned.with_tau(tuned.tau * (1 + 1e-12)),
            "V": lambda: replace(tuned, V=tuned.V @ rot),
            "rho0": lambda: replace(tuned, rho0=rot @ tuned.rho0 @ rot.conj().T),
        }[change]()
        passes = counted_passes(monkeypatch)
        report = report_bits(fisher_phase_readout(other, model, theta, mode=mode))
        assert passes[0] == 1
        drop_memos()
        assert report == report_bits(fisher_phase_readout(other, model, theta, mode=mode))

    def test_a_raising_scan_keeps_nothing(self, monkeypatch):
        """A values-only scan whose second chunk raises stores no rows: at n = 12 and d = 3 a
        chunk holds 5 taus."""
        cfg, model, theta = scan_case("nv-spin1", 12, None)
        drop_memos()
        E, score, _, _ = phasesim._scorer(cfg, model, theta, None)
        calls, require = [0], phasesim._require_normalized

        def second_fails(probs):
            calls[0] += 1
            if calls[0] == 2:
                raise ValueError("second chunk")
            require(probs)

        monkeypatch.setattr(phasesim, "_require_normalized", second_fails)
        with pytest.raises(ValueError, match="second chunk"):
            score(np.geomspace(0.01, 0.9, 12) * default_tau(model, theta), "ideal",
                  errors=False)
        _, kept = _point(model, theta).levels(cfg.t, cfg.control(model.dim), cfg.factor)
        assert "scan" not in kept


class TestDecompositionCounts:
    """One eigendecomposition per stencil node, whatever the number of tau candidates."""

    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    def test_tune_tau_and_readout(self, decompositions, mode):
        """The Richardson stencil has 7 nodes; the coarse and fine scans share them."""
        model = make_nv_spin1(*NV)
        cfg, _ = optimal_config(model, 0.7, 1.3, 10, 3)
        decompositions[0] = 0
        tune_tau(cfg, model, 0.7, mode=mode, diff=DiffSpec())
        assert decompositions[0] == 7
        decompositions[0] = 0
        fisher_phase_readout(cfg, model, 0.7, DiffSpec(), mode)  # default tau from the center
        assert decompositions[0] == 7

    @pytest.mark.parametrize("mode", ["ideal", "realistic"])
    def test_analytic_path_decomposes_once(self, decompositions, mode):
        """The read-out jet scores every tau candidate at theta alone: from no kept point
        each call decomposes H(theta) once, and a warm call at (model, theta) not at all."""
        model = make_nv_spin1(*NV)
        cfg, _ = optimal_config(model, 0.7, 1.3, 10, 3)
        tuned = cfg.with_tau(tune_tau(cfg, model, 0.7, mode=mode))
        counts = []
        for call in (lambda: tune_tau(cfg, model, 0.7, mode=mode),
                     lambda: fisher_phase_readout(tuned, model, 0.7, mode=mode),
                     lambda: fisher_phase_readout(cfg, model, 0.7, mode=mode)):  # default tau
            drop_memos()
            for _ in range(2):  # cold, then warm
                decompositions[0] = 0
                call()
                counts.append(decompositions[0])
        assert counts == [1, 0, 1, 0, 1, 0]

    def test_with_tau_checks_only_tau(self, decompositions):
        """with_tau does not validate rho0 again, but still rejects a bad tau."""
        model = make_nv_spin1(*NV)
        cfg, _ = optimal_config(model, 0.7, 1.3, 6, 3)
        decompositions[0] = 0
        tuned = cfg.with_tau(0.25)
        assert decompositions[0] == 0
        assert (tuned.tau, cfg.tau) == (0.25, None)
        assert tuned.rho0 is cfg.rho0 and tuned.V is cfg.V
        with pytest.raises(ValueError):
            cfg.with_tau(-1.0)

    def test_circuit_oracle_decomposes_hamiltonian_once(self, decompositions):
        """One decomposition of H(theta) gives tau, U_tau and U_t; rho0 enters through the
        factor cfg validated it with."""
        model = make_nv_spin1(*NV)
        cfg, _ = optimal_config(model, 0.7, 1.3, 6, 3)
        decompositions[0] = 0
        circuit_oracle(cfg, model, 0.7)
        assert decompositions[0] == 1
