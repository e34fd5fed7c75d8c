"""Tests for the Hamiltonian model registry and closed-form references."""

import math

import numpy as np
import pytest

from qmet import models
from qmet.errors import DomainBoundary, InvalidParameter, QmetError, UnknownReference
from qmet.fisher import SUPPORT_THRESHOLD, classical_fisher
from qmet.linalg import eig_hermitian, expm_unitary, require_hermitian
from qmet.models import (
    SIGMA_X,
    SIGMA_Z,
    SPIN1_X,
    SPIN1_Y,
    jc_field_state,
    jc_readout_model,
    make_jaynes_cummings,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
    reference,
    reference_names,
)
from qmet.numdiff import DiffSpec

from stencils import central5


def jc_coupling(omega: float, kappa: float, n_max: int) -> np.ndarray:
    """Atom-field interaction Omega (a^dag sigma_- + a sigma_+) with Omega = kappa sqrt(omega).

    Atom factor first (|g>, |e>), field factor second.
    """
    return kappa * math.sqrt(omega) * models._jc_hopping(n_max)


# (omega, t, alpha1^2): both regions of the read-out, the excited preparation, long times.
JC_POINTS = [(0.6, 0.7, 0.5), (1.0, 2.1, 0.5), (1.7, 0.7, 0.96),
             (0.3, 5.0, 0.3), (1.4, 2.3, 1.0), (0.9, 7.5, 0.8)]


def assert_analytic_derivative(model, thetas, rtol=1e-7):
    for theta in thetas:
        numeric = central5(model.h_of, float(theta), 1e-3 * (1 + abs(theta)))
        analytic = model.dh_of(float(theta))
        scale = max(np.max(np.abs(analytic)), 1.0)
        assert np.max(np.abs(numeric - analytic)) <= rtol * scale


class TestQubitDirection:
    def test_axis_limits(self):
        m = make_qubit_direction(1.0)
        assert np.allclose(m.h_of(0.0), SIGMA_Z)
        assert np.allclose(m.h_of(math.pi / 2), SIGMA_X)

    def test_eigenvalues_are_plus_minus_omega(self):
        m = make_qubit_direction(2.0)
        es = eig_hermitian(m.h_of(math.pi / 4))
        assert np.allclose(es.eigenvalues, [2.0, -2.0])
        assert np.allclose(m.h_of(math.pi / 4), math.sqrt(2) * (SIGMA_Z + SIGMA_X))

    def test_derivative(self):
        m = make_qubit_direction(1.3)
        assert_analytic_derivative(m, np.linspace(0.2, 2.9, 20))

    def test_invalid_parameter(self):
        for omega in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameter,
                               match=f"^omega must be positive and finite, got {omega}$"):
                make_qubit_direction(omega)


class TestQubitXComponent:
    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_omega_rejected(self, omega):
        with pytest.raises(InvalidParameter, match="omega must be positive"):
            make_qubit_xcomponent(omega)

    def test_zero_theta(self):
        m = make_qubit_xcomponent(1.0)
        assert np.allclose(m.h_of(0.0), -SIGMA_Z)

    def test_spectrum_is_plus_minus_omega_theta(self):
        m = make_qubit_xcomponent(1.0)
        es = eig_hermitian(m.h_of(1.0))
        assert np.allclose(es.eigenvalues, [math.sqrt(2), -math.sqrt(2)], atol=1e-10)
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = float(rng.uniform(0.2, 3.0))
            q = float(rng.uniform(-3.0, 3.0))
            ev = eig_hermitian(make_qubit_xcomponent(w).h_of(q)).eigenvalues
            assert np.allclose(ev, [math.hypot(w, q), -math.hypot(w, q)], atol=1e-10)

    def test_derivative_is_sigma_x(self):
        m = make_qubit_xcomponent(0.7)
        for q in (-1.0, 0.0, 2.5):
            assert np.allclose(m.dh_of(q), SIGMA_X)
        assert_analytic_derivative(m, [-2.0, 0.3, 1.7])


class TestNvSpin1:
    def test_zero_field_zero_strain_is_diagonal(self):
        m = make_nv_spin1(1.0, 2.0, 0.0)
        assert np.allclose(m.h_of(0.0), np.diag([8.0, 0.0, 8.0]))

    def test_strain_couples_extremal_levels_only(self):
        coupling = SPIN1_X @ SPIN1_X - SPIN1_Y @ SPIN1_Y
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = 4.0
        assert np.allclose(coupling, expected)

    def test_three_four_five_spectrum(self):
        """With theta*mu = 3, E = 2 the split is 2*chi = 2*sqrt(9+16) = 10."""
        m = make_nv_spin1(1.0, 1.0, 2.0)
        es = eig_hermitian(m.h_of(3.0))
        assert np.allclose(es.eigenvalues, [14.0, 0.0, -6.0], atol=1e-10)

    def test_derivative(self):
        m = make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi)
        assert_analytic_derivative(m, [0.1, 0.5, 1.5])

    def test_invalid_parameters(self):
        """Each parameter outside its finite range is named with its value."""
        for params, message in [
                ((-1.0, 1.0, 0.0), "mu must be positive and finite, got -1.0"),
                ((math.inf, 1.0, 0.0), "mu must be positive and finite, got inf"),
                ((1.0, -0.1, 0.0), "D must be >= 0 and finite, got -0.1"),
                ((1.0, math.nan, 0.0), "D must be >= 0 and finite, got nan"),
                ((1.0, 1.0, -1e-3), "E must be >= 0 and finite, got -0.001"),
                ((1.0, 1.0, math.inf), "E must be >= 0 and finite, got inf")]:
            with pytest.raises(InvalidParameter, match=f"^{message}$"):
                make_nv_spin1(*params)


class TestJaynesCummings:
    def test_coupling_matrix_elements(self):
        """<e,0|H_I|g,1> = Omega = kappa sqrt(omega); annihilation lowers |1> to |0>."""
        w, kappa, n_max = 1.3, 0.5, 8
        H = make_jaynes_cummings(kappa, n_max).h_of(w)
        omega_rabi = kappa * math.sqrt(w)
        g1 = 1            # |g> (x) |1>
        e0 = n_max + 1    # |e> (x) |0>
        assert H[e0, g1] == pytest.approx(omega_rabi)
        assert H[g1, e0] == pytest.approx(omega_rabi)

    def test_ground_row_couples_only_via_raising(self):
        w, kappa, n_max = 1.0, 0.8, 4
        Hi = jc_coupling(w, kappa, n_max)
        g0 = 0
        row = Hi[g0].copy()
        row[n_max + 1] = 0.0  # the |e,0> element is the only nonzero one
        assert np.allclose(row, 0.0)
        assert Hi[g0 + 1, n_max + 1] == pytest.approx(kappa * math.sqrt(w))

    def test_zero_coupling_is_block_diagonal(self):
        m = make_jaynes_cummings(0.0, 4)
        H = m.h_of(1.0)
        assert np.allclose(H[:5, 5:], 0.0)
        assert np.allclose(H[5:, :5], 0.0)

    def test_truncation_guard(self):
        with pytest.raises(InvalidParameter):
            make_jaynes_cummings(0.5, 1)

    @pytest.mark.parametrize("kappa,n_max", [(-0.5, 8), (math.nan, 8), (math.inf, 8), (0.5, 1),
                                             (0.5, 0)])
    def test_both_factories_reject_the_same_parameters(self, kappa, n_max):
        """0 <= kappa < inf and n_max >= 2 hold for the read-out model as for the Hamiltonian;
        an infinite kappa is rejected before any matrix is scaled by it (no warning)."""
        name = "n_max" if n_max < 2 else "kappa"
        with pytest.raises(InvalidParameter, match=f"^{name} must be"):
            make_jaynes_cummings(kappa, n_max)
        with pytest.raises(InvalidParameter, match=f"^{name} must be"):
            jc_readout_model(kappa, 1.0, math.sqrt(0.5), math.sqrt(0.5), n_max)

    @pytest.mark.parametrize("n_max", [10**9, models.JC_N_MAX + 1])
    def test_both_factories_bound_the_truncation(self, n_max):
        """Rejected before _ladder allocates its (n_max + 1)^2 matrix."""
        with pytest.raises(InvalidParameter, match="n_max"):
            make_jaynes_cummings(0.5, n_max)
        with pytest.raises(InvalidParameter, match="n_max"):
            jc_readout_model(0.5, 1.0, math.sqrt(0.5), math.sqrt(0.5), n_max)

    def test_both_factories_accept_the_range_edges(self):
        assert make_jaynes_cummings(0.0, 2).dim == 6
        pm = jc_readout_model(0.0, 1.0, math.sqrt(0.5), math.sqrt(0.5), 2)
        assert pm.at(1.0).probs.tolist() == [1.0, 0.0]  # no coupling: the atom stays in |g>

    def test_derivative(self):
        m = make_jaynes_cummings(0.5, 6)
        assert_analytic_derivative(m, [0.5, 1.0, 2.0])

    def test_hamiltonian_matches_kronecker_definition(self):
        """The prebuilt operators scaled per call give I_2 (x) w(N + 1/2) + jc_coupling."""
        kappa, n_max = 0.5, 8
        m = make_jaynes_cummings(kappa, n_max)
        number = np.diag(np.arange(n_max + 1) + 0.5).astype(complex)
        for w in (0.2, 1.0, 2.7):
            H = np.kron(np.eye(2), w * number) + jc_coupling(w, kappa, n_max)
            assert np.max(np.abs(m.h_of(w) - H)) <= 1e-14 * (1 + w)

    def test_readout_model_matches_coupling_unitary_bitwise(self):
        kappa, t, n_max = 0.5, 2.3, 8
        a0, a1 = math.sqrt(0.3), math.sqrt(0.7)
        pm = jc_readout_model(kappa, t, a0, a1, n_max)
        for w in (0.4, 1.1, 1.9):
            joint = np.kron([1.0, 0.0], jc_field_state(w, t, a0, a1, n_max))
            out = expm_unitary(jc_coupling(w, kappa, n_max), t) @ joint
            expected = [np.linalg.norm(out[:n_max + 1]) ** 2, np.linalg.norm(out[n_max + 1:]) ** 2]
            assert np.array_equal(pm.at(w).probs, expected)


class TestJaynesCummingsJet:
    """The read-out jet: one decomposition of the hopping per truncation, none per point."""

    def test_matches_richardson_oracle_and_closed_form(self):
        kappa = 0.5
        for w, t, a1sq in JC_POINTS:
            pm = jc_readout_model(kappa, t, math.sqrt(1 - a1sq), math.sqrt(a1sq), 8)
            fast, oracle = classical_fisher(pm, w), classical_fisher(pm, w, DiffSpec())
            scale = max(abs(oracle.value), 1.0)
            assert (fast.method, fast.step, oracle.method) == ("analytic", 0.0, "richardson-fd")
            assert abs(fast.value - oracle.value) <= 1e-8 * scale
            assert 0.0 < fast.error_estimate <= 1e-9 * scale
            ref = reference("jc_fc")(omega=w, kappa=kappa, t=t, alpha1_sq=a1sq)
            assert abs(fast.value - ref) <= 1e-12 * (1.0 + ref)

    def test_outcome_under_the_support_threshold_counts_where_its_term_is_exact(self):
        """p_excited = 3.4e-13 < SUPPORT_THRESHOLD but dp^2/p = 1.89: the term is counted
        on both paths, as its bound there is far below the term."""
        w, t, kappa, a1sq = 1.6148906575928343, 4.9443384799801402, 0.5, 0.5
        pm = jc_readout_model(kappa, t, math.sqrt(1 - a1sq), math.sqrt(a1sq), 8)
        assert 0.0 < pm.jet(w)[0][1] <= SUPPORT_THRESHOLD
        ref = reference("jc_fc")(omega=w, kappa=kappa, t=t, alpha1_sq=a1sq)
        for diff in (None, DiffSpec()):
            report = classical_fisher(pm, w, diff)
            assert abs(report.value - ref) <= 1e-6 * (1.0 + abs(ref))
            assert abs(report.value - ref) <= report.error_estimate

    def test_probabilities_match_at(self):
        pm = jc_readout_model(0.5, 2.3, math.sqrt(0.3), math.sqrt(0.7), 8)
        for w in (0.4, 1.1, 1.9):
            p, _, _ = pm.jet(w)
            assert np.max(np.abs(p - pm.at(w).probs)) <= 1e-14

    def test_output_state_derivative(self):
        """Both the free phases and the coupling enter d out / d w, checked against central5."""
        kappa, n_max = 0.5, 8
        a0, a1 = math.sqrt(0.4), math.sqrt(0.6)
        for w, t in ((0.6, 0.7), (1.3, 2.9), (1.9, 6.0)):
            def out_of(x, t=t):
                joint = np.kron([1.0, 0.0], jc_field_state(x, t, a0, a1, n_max))
                return expm_unitary(jc_coupling(x, kappa, n_max), t) @ joint

            out, dout = models._jc_output_jet(kappa, t, a0, a1, n_max, w)
            assert np.max(np.abs(out - out_of(w))) <= 1e-13
            assert np.max(np.abs(dout - central5(out_of, w, 1e-3))) <= 1e-8 * (1.0 + t)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_frequency(self, w):
        """One domain rule, the model's open domain (0, inf), for every path and a NaN."""
        pm = jc_readout_model(0.5, 1.0, math.sqrt(0.5), math.sqrt(0.5), 8)
        for call in (pm.jet, pm.at, lambda x: classical_fisher(pm, x),
                     lambda x: models._jc_output_jet(0.5, 1.0, 0.6, 0.8, 8, x)):
            with pytest.raises(DomainBoundary, match=f"parameter value {w} is outside"):
                call(w)

    def test_unnormalized_field_amplitudes(self):
        with pytest.raises(InvalidParameter):
            jc_readout_model(0.5, 1.0, 0.5, 0.5, 8).jet(1.0)

    def test_nan_field_amplitude_raises(self):
        """A NaN amplitude fails the normalization check instead of giving F = 0."""
        with pytest.raises(InvalidParameter):
            jc_field_state(1.0, 1.0, math.nan, 0.8, 8)
        with pytest.raises(QmetError):
            classical_fisher(jc_readout_model(0.5, 1.0, math.nan, 0.8), 1.0)

    @pytest.mark.parametrize("omega, t, words", [
        (1.0, -math.inf, "t must be finite, got -inf"),
        (1.0, math.nan, "t must be finite, got nan"),
        (math.inf, 0.0, "omega must be finite, got inf"),
        (math.nan, 1.0, "omega must be finite, got nan"),
        (1e308, 10.0, "phase 1.5 omega t must be finite, got inf"),
    ], ids=["t-inf", "t-nan", "omega-inf", "omega-nan", "phase-overflow"])
    def test_field_state_rejects_a_non_finite_phase(self, omega, t, words):
        """omega, t and the phase 1.5 omega t are checked before any arithmetic on them,
        so the error names its cause and no NumPy warning comes first."""
        with pytest.raises(InvalidParameter, match=words):
            jc_field_state(omega, t, 0.6, 0.8, 4)
        with pytest.raises(InvalidParameter, match=words):  # NumPy scalars warn on overflow
            jc_field_state(np.float64(omega), np.float64(t), 0.6, 0.8, 4)

    def test_one_decomposition_per_truncation(self, decompositions):
        models._hopping_eigensystem.cache_clear()
        decompositions[0] = 0
        for w, t, a1sq in JC_POINTS:
            for n_max in (6, 8):
                pm = jc_readout_model(0.5, t, math.sqrt(1 - a1sq), math.sqrt(a1sq), n_max)
                classical_fisher(pm, w)
        assert decompositions[0] == 2
        decompositions[0] = 0
        classical_fisher(jc_readout_model(0.5, 1.0, 0.0, 1.0, 8), 0.9, DiffSpec())
        assert decompositions[0] == 7  # the oracle decomposes at every stencil node


class TestHermiticityEverywhere:
    @pytest.mark.parametrize(
        "factory,domain",
        [
            (lambda: make_qubit_direction(1.1), (0.05, 3.0)),
            (lambda: make_qubit_xcomponent(0.9), (-3.0, 3.0)),
            (lambda: make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi), (0.01, 3.0)),
            (lambda: make_jaynes_cummings(0.5, 5), (0.1, 3.0)),
        ],
    )
    def test_h_of_is_hermitian(self, factory, domain):
        model = factory()
        rng = np.random.default_rng(5)
        for theta in rng.uniform(*domain, size=50):
            require_hermitian(model.h_of(float(theta)))


class TestReferences:
    def test_direction_qfi_value(self):
        """4 sin^2(wt) - sin^2(2wt) sin^2(theta) at theta = pi/2, wt = pi/4 gives 1."""
        val = reference("direction_qfi")(theta=math.pi / 2, omega=1.0, t=math.pi / 4)
        assert val == pytest.approx(4 * 0.5 - 1.0 * 1.0)

    def test_direction_bound_value(self):
        assert reference("direction_g")(omega=1.0, t=math.pi / 2) == pytest.approx(9.0)

    def test_oscillator_ratio_identity(self):
        """F_C/F_Q = 1/(4 sin^2(wt/2)), > 1 exactly when |sin(wt/2)| < 1/2."""
        for wt in np.linspace(0.1, 6.0, 40):
            fq = reference("oscillator_qfi")(m=2.0, omega=1.0, t=wt)
            fc = reference("oscillator_fc")(m=2.0, omega=1.0)
            gamma = reference("oscillator_gamma")(omega=1.0, t=wt)
            assert fc / fq == pytest.approx(gamma, rel=1e-12)
            assert (gamma > 1.0) == (abs(math.sin(wt / 2)) < 0.5)

    def test_jc_fc_at_the_excited_preparation(self):
        """At alpha1_sq = 1 the factor alpha (1 - s^2) / (1 - alpha s^2) is 1 for every t,
        so F_C is (Omega t / omega)^2, also where s^2 = sin^2(Omega t) rounds to 1."""
        for omega, kappa, t in ((1.0, 1.0, math.pi / 2), (4.0, 0.5, math.pi / 2), (0.7, 1.3, 2.1)):
            Om = kappa * math.sqrt(omega)
            fc = reference("jc_fc")(omega=omega, kappa=kappa, t=t, alpha1_sq=1.0)
            assert fc == (Om * t / omega) ** 2
        assert math.sin(math.pi / 2) ** 2 == 1.0  # the first two points had 0 / 0
        below = reference("jc_fc")(omega=0.7, kappa=1.3, t=2.1, alpha1_sq=1.0 - 1e-12)
        assert below == pytest.approx(fc, rel=1e-9)

    def test_jc_threshold_where_its_argument_overflows(self):
        """x = (Omega / omega)^2 tan^2(Omega t) overflows near a pole of tan at tiny omega, but
        the threshold there is finite: r |cos(Omega t)| / 2 with r = Omega / omega, its limit
        as r |sin| >> |cos|, which the form without tan gives exactly."""
        t = math.pi / 2 / 1e-150  # Omega = 1e-150, (Omega / omega)^2 = 1e300
        Om = math.sqrt(1e-300)
        limit = Om / 1e-300 * abs(math.cos(Om * t)) / 2.0
        assert (Om / 1e-300) ** 2 * math.tan(Om * t) ** 2 == math.inf
        assert limit == pytest.approx(3.06e133, rel=1e-3)
        assert reference("jc_enhancement_threshold")(omega=1e-300, kappa=1.0, t=t) == limit

    def test_unknown_reference(self):
        with pytest.raises(UnknownReference):
            reference("no-such-formula")

    def test_registry_is_sorted_and_stable(self):
        names = reference_names()
        assert list(names) == sorted(names)
        assert "xcomponent_g" in names
