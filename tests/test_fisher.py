"""Tests for classical/quantum Fisher information and monotone metrics."""

import math

import numpy as np
import pytest

from qmet.cem import local_generator
from qmet.errors import (
    DimensionMismatch,
    InvalidParameter,
    NonHermitianInput,
    DomainBoundary,
    NonNormalized,
    NotTraceless,
    RankChange,
    RankDeficient,
    UnknownMetricTag,
)
from qmet.fisher import (
    POVM,
    FisherReport,
    OutcomeDistribution,
    ProbabilityModel,
    _fisher_sum,
    classical_fisher,
    fisher_of_povm,
    fisher_rows,
    monotone_metric,
    povm_outcome_model,
    qfi,
    qfi_pure,
    sld,
    sld_povm,
)
from qmet.linalg import expm_unitary, operator_variance
from qmet.models import make_qubit_direction, reference
from qmet.numdiff import DiffSpec, derivative

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def two_outcome_model():
    def at(q):
        return OutcomeDistribution(outcomes=("0", "1"), probs=np.array([q, 1.0 - q]))

    return ProbabilityModel(at=at, theta_domain=(0.0, 1.0))


def pure_family(h_of, psi0, t=1.0):
    psi0 = np.asarray(psi0, dtype=complex)

    def rho_of(q):
        u = expm_unitary(h_of(q), t)
        v = u @ psi0
        return np.outer(v, v.conj())

    return rho_of


class TestClassicalFisher:
    def test_bernoulli_at_half(self):
        """Oracle 1/(theta (1-theta)) gives 4 at theta = 1/2."""
        report = classical_fisher(two_outcome_model(), 0.5)
        assert report.value == pytest.approx(4.0, rel=1e-9)
        assert report.error_estimate >= 0

    def test_bernoulli_matches_oracle_on_grid(self):
        model = two_outcome_model()
        for q in np.linspace(0.1, 0.9, 9):
            value = classical_fisher(model, float(q)).value
            assert value == pytest.approx(1.0 / (q * (1 - q)), rel=1e-8)

    def test_constant_distribution_has_zero_information(self):
        def at(q):
            return OutcomeDistribution(outcomes=("a", "b"), probs=np.array([0.3, 0.7]))

        report = classical_fisher(ProbabilityModel(at=at), 1.2)
        assert report.value <= 1e-18

    def test_domain_boundary(self):
        with pytest.raises(DomainBoundary):
            classical_fisher(two_outcome_model(), 1e-6)

    def test_a_report_holds_no_infinite_value(self):
        """A value that overflowed the float range is a typed error; an estimate may be inf."""
        with pytest.raises(InvalidParameter, match="Fisher information overflows"):
            FisherReport(value=math.inf, method="analytic", step=0.0, error_estimate=0.0)
        assert FisherReport(value=1.0, method="analytic", step=0.0,
                            error_estimate=math.inf).error_estimate == math.inf

    def test_support_exclusion(self):
        """An outcome pinned at zero probability is dropped, not divided by."""
        def at(q):
            return OutcomeDistribution(outcomes=("a", "b", "c"),
                                       probs=np.array([q, 1.0 - q, 0.0]))

        report = classical_fisher(ProbabilityModel(at=at, theta_domain=(0, 1)), 0.4)
        assert report.value == pytest.approx(1.0 / (0.4 * 0.6), rel=1e-8)


def jet_model(p_of, dp_of, domain=(0.0, 1.0)):
    """A model whose jet returns the given probabilities and derivatives at rounding 1e-15."""
    def at(q):
        return OutcomeDistribution(outcomes=tuple(range(len(p_of(q)))), probs=p_of(q))

    return ProbabilityModel(at=at, theta_domain=domain,
                            jet=lambda q: (p_of(q), dp_of(q), 1e-15))


class TestClassicalFisherJet:
    def bernoulli(self):
        return jet_model(lambda q: np.array([q, 1.0 - q]), lambda q: np.array([1.0, -1.0]))

    def test_jet_by_default_stencil_on_request(self):
        model = self.bernoulli()
        fast = classical_fisher(model, 0.3)
        assert (fast.method, fast.step) == ("analytic", 0.0)
        assert fast.value == pytest.approx(1.0 / (0.3 * 0.7), rel=1e-15)
        assert 0.0 < fast.error_estimate <= 1e-13
        oracle = classical_fisher(model, 0.3, DiffSpec())
        assert oracle.method == "richardson-fd"
        assert oracle.value == pytest.approx(fast.value, rel=1e-9)

    def test_domain_check_has_radius_zero(self):
        model = self.bernoulli()
        assert classical_fisher(model, 1e-6).method == "analytic"
        with pytest.raises(DomainBoundary):
            classical_fisher(model, 0.0)
        with pytest.raises(DomainBoundary):
            classical_fisher(model, 1e-6, DiffSpec())

    def test_normalization_of_p_and_dp(self):
        with pytest.raises(NonNormalized):
            classical_fisher(jet_model(lambda q: np.array([q, 0.9 - q]),
                                       lambda q: np.array([1.0, -1.0])), 0.3)
        with pytest.raises(NonNormalized):
            classical_fisher(jet_model(lambda q: np.array([q, 1.0 - q]),
                                       lambda q: np.array([1.0, -1.0 + 1e-9])), 0.3)
        with pytest.raises(NonNormalized, match="derivatives sum to .*nan"):
            classical_fisher(jet_model(lambda q: np.array([q, 1.0 - q]),
                                       lambda q: np.array([math.nan, math.nan])), 0.3)

    def test_the_derivative_sum_tolerance_scales_with_the_jet_rounding(self):
        """1e-10 + len(dp) dp_err: a sum of 3.5e-10 (one ulp of 1e6 is 1.2e-10) passes
        with dp_err = 2e-10 and fails with dp_err = 1e-10 or NaN."""
        p, dp = np.array([0.4, 0.6]), np.array([1e6, -1e6 + 4e-10])
        for dp_err, ok in ((2e-10, True), (1e-10, False), (math.nan, False)):
            model = ProbabilityModel(at=None, theta_domain=(0.0, 1.0),
                                     jet=lambda q, e=dp_err: (p, dp, e))
            if ok:
                assert classical_fisher(model, 0.5).value > 0.0
            else:
                with pytest.raises(NonNormalized):
                    classical_fisher(model, 0.5)

    @pytest.mark.parametrize("value, words", [(-1e-300, "negative Fisher information -1e-300"),
                                              (math.nan, "Fisher information is NaN")],
                             ids=["-1e-300", "nan"])
    def test_a_report_holds_no_negative_or_nan_value(self, value, words):
        with pytest.raises(ArithmeticError, match=words):
            FisherReport(value=value, method="analytic", step=0.0, error_estimate=0.0)

    def test_support_exclusion(self):
        model = jet_model(lambda q: np.array([q, 1.0 - q, 0.0]),
                          lambda q: np.array([1.0, -1.0, 0.0]))
        report = classical_fisher(model, 0.4)
        assert report.value == pytest.approx(1.0 / (0.4 * 0.6), rel=1e-15)

    def test_sub_threshold_outcome_counts_only_where_its_term_is_pinned_down(self):
        """An outcome at or below SUPPORT_THRESHOLD counts when _fisher_sum's bound on its
        term is at most SUB_THRESHOLD_RATIO of it; p = 0, a loose bound and a term that
        overflows are left out, without a floating-point warning."""
        p = np.array([0.5, 1e-14, 1e-14, 0.0, 1e-320])
        dp = np.array([0.1, 1e-7, 1e-12, 1e-7, 1.0])
        # Terms 0.02, 1 (bound 2e-8), 1e-10 (bound 2e-13 > SUB_THRESHOLD_RATIO 1e-10), p = 0,
        # and inf.
        value, err = _fisher_sum(p, dp, 1e-15)
        assert value == pytest.approx(0.02 + 1.0, rel=1e-15)
        assert err == pytest.approx((0.2 + 1e-15) * 1e-15 / 0.5 + (2e-7 + 1e-15) * 1e-15 / 1e-14,
                                    rel=1e-12)
        # A probability error of 1e-17 puts the second term's bound at 1e-3 of it.
        value, _ = _fisher_sum(p, dp, 1e-15, p_err=1e-17)
        assert value == pytest.approx(0.02, rel=1e-15)
        # Above the threshold nothing changes: a term with a loose bound still counts.
        value, _ = _fisher_sum(np.array([1e-11]), np.array([1e-12]), 1e-12)
        assert value == pytest.approx(1e-13, rel=1e-15)

    def test_zero_information_has_nonzero_error(self):
        model = jet_model(lambda q: np.array([0.3, 0.7]), lambda q: np.zeros(2))
        report = classical_fisher(model, 0.5)
        assert report.value == 0.0 and report.error_estimate > 0.0


class TestFisherRows:
    QS = np.array([0.2, 0.5, 0.7])

    def rows(self, x):
        """Bernoulli(q + x) for each q, one row per q."""
        return np.stack([self.QS + x, 1.0 - self.QS - x], axis=-1)

    def test_rows_match_classical_fisher(self):
        values, errs = fisher_rows(self.rows, 0.0)
        for q, value, err in zip(self.QS, values, errs):
            model = ProbabilityModel(at=lambda x, q=q: OutcomeDistribution(
                outcomes=("0", "1"), probs=np.array([q + x, 1.0 - q - x])))
            ref = classical_fisher(model, 0.0)
            assert value == pytest.approx(ref.value, rel=1e-12)
            assert err >= ref.error_estimate * (1.0 - 1e-12)  # batch-wide derivative error

    def test_every_row_at_every_node_is_checked(self):
        def one_row_drifts(x):
            r = self.rows(x)
            r[1, 0] += abs(x)  # only off the centre
            return r

        def centre_drifts(x):
            r = self.rows(x)
            r[1, 0] += 0.1 if x == 0.0 else 0.0
            return r

        with pytest.raises(NonNormalized):
            fisher_rows(one_row_drifts, 0.0)
        with pytest.raises(NonNormalized):
            fisher_rows(centre_drifts, 0.0)
        with pytest.raises(DimensionMismatch):  # a row goes missing off the centre
            fisher_rows(lambda x: self.rows(x)[: 3 if x == 0.0 else 2], 0.0)


class TestSld:
    def test_maximally_mixed_state(self):
        """rho = I/d gives L = d * drho."""
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = (z + z.conj().T) / 2
        A -= np.trace(A) / 3 * np.eye(3)
        L = sld(np.eye(3) / 3, A)
        assert np.allclose(L, 3 * A, atol=1e-10)

    def test_zero_derivative(self):
        assert np.allclose(sld(np.diag([0.4, 0.6]), np.zeros((2, 2))), 0.0)

    def test_pure_qubit_family_consistency(self):
        """tr(rho L^2) agrees with the pure-state formula on a rotating qubit."""
        h_of = lambda q: q * SX
        rho_of = pure_family(h_of, [1.0, 0.0])
        q0 = 0.35
        rho = rho_of(q0)
        drho, _ = derivative(rho_of, q0)
        drho = (drho + drho.conj().T) / 2
        L = sld(rho, drho)
        sld_value = np.trace(rho @ L @ L).real

        u = expm_unitary(h_of(q0), 1.0)
        psi = u @ np.array([1.0, 0.0], dtype=complex)
        dpsi, _ = derivative(lambda q: expm_unitary(h_of(q), 1.0) @ np.array([1.0, 0.0]), q0)
        assert sld_value == pytest.approx(qfi_pure(psi, dpsi), abs=1e-8)

    def test_traceless_precondition(self):
        with pytest.raises(NotTraceless):
            sld(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))

    def test_a_nan_trace_is_not_traceless(self):
        """Finite entries whose pairwise-summed trace is inf - inf = NaN."""
        diag = np.zeros(16)
        diag[[0, 8]], diag[[1, 9]] = 1e308, -1e308
        with pytest.raises(NotTraceless, match="nan"):
            sld(np.eye(16) / 16, np.diag(diag))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sld(np.eye(2) / 2, np.zeros((3, 3)))


class TestOutcomeDistribution:
    def test_labels_and_probabilities_must_agree_in_length(self):
        with pytest.raises(DimensionMismatch, match="length"):
            OutcomeDistribution(outcomes=(0, 1, 2), probs=np.array([0.5, 0.5]))

    def test_nan_probability_is_not_normalized(self):
        with pytest.raises(NonNormalized):
            OutcomeDistribution((0, 1), [math.nan, 1.0])

    def test_total_variation_needs_equal_outcome_counts(self):
        a = OutcomeDistribution(outcomes=(0, 1), probs=np.array([0.5, 0.5]))
        b = OutcomeDistribution(outcomes=(0, 1, 2), probs=np.full(3, 1.0 / 3.0))
        with pytest.raises(DimensionMismatch, match="outcome counts"):
            a.total_variation(b)


class TestQfi:
    def test_rank_change_across_the_stencil(self):
        """rho = diag(1 - q^2, q^2) has rank 1 at q = 0 and rank 2 at its stencil nodes."""
        with pytest.raises(RankChange, match="rank changes"):
            qfi(lambda q: np.diag([1.0 - q * q, q * q]).astype(complex), 0.0)

    def test_static_family(self):
        rho = np.diag([0.2, 0.8]).astype(complex)
        assert qfi(lambda q: rho, 0.7).value <= 1e-16

    def test_field_direction_matches_closed_form(self):
        """Ground-state preparation against the closed-form expression on a grid."""
        model = make_qubit_direction(1.0)
        ref = reference("direction_qfi")
        for theta in np.linspace(0.4, 2.7, 5):
            for t in np.linspace(0.3, 5.8, 5):
                rho_of = pure_family(model.h_of, [1.0, 0.0], t=t)
                value = qfi(rho_of, float(theta)).value
                expected = ref(theta=float(theta), omega=1.0, t=float(t))
                assert value == pytest.approx(expected, abs=2e-6)

    def test_domain_boundary(self):
        rho_of = pure_family(lambda q: q * SX, [1.0, 0.0])
        with pytest.raises(DomainBoundary):
            qfi(rho_of, 1e-7, theta_domain=(0.0, 1.0))

    def test_bosonic_mode_superposition(self):
        """Two-level field superposition: F_Q = 4 t^2 |a0|^2 |a1|^2, independent of omega."""
        n_max = 6
        levels = np.arange(n_max + 1) + 0.5
        a0, a1, t = math.sqrt(0.3), math.sqrt(0.7), 1.7
        psi0 = np.zeros(n_max + 1, dtype=complex)
        psi0[0], psi0[1] = a0, a1

        rho_of = pure_family(lambda w: np.diag(w * levels).astype(complex), psi0, t=t)
        value = qfi(rho_of, 1.3).value
        assert value == pytest.approx(4 * t * t * a0**2 * a1**2, rel=1e-7)


    def test_error_estimate_on_field_direction(self):
        """The first-order bound is finite, positive and covers the closed-form deviation."""
        model = make_qubit_direction(1.0)
        ref = reference("direction_qfi")
        for theta, t in ((0.6, 0.9), (1.4, 2.3), (2.5, 4.1)):
            rho_of = pure_family(model.h_of, [1.0, 0.0], t=t)
            report = qfi(rho_of, theta, theta_domain=model.theta_domain)
            assert 0.0 < report.error_estimate < 1e-6
            assert abs(report.value - ref(theta=theta, omega=1.0, t=t)) <= report.error_estimate


class TestQfiPure:
    def test_phase_motion_is_invisible(self):
        psi = np.array([0.6, 0.8j])
        assert qfi_pure(psi, 1j * 0.37 * psi) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_motion(self):
        assert qfi_pure([1.0, 0.0], [0.0, 1.0]) == pytest.approx(4.0)

    def test_variance_identity(self):
        """Equals 4 Var over the initial state of the pulled-back generator."""
        model = make_qubit_direction(1.0)
        theta, t = 0.9, 1.4
        psi0 = np.array([1.0, 0.0], dtype=complex)
        u_of = lambda q: expm_unitary(model.h_of(q), t)
        g = local_generator(u_of, theta)
        u = u_of(theta)
        pulled_back = u.conj().T @ g @ u

        psi = u @ psi0
        dpsi, _ = derivative(lambda q: u_of(q) @ psi0, theta)
        assert qfi_pure(psi, dpsi) == pytest.approx(
            4 * operator_variance(psi0, pulled_back), abs=1e-8
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            qfi_pure([1.0, 0.0], [0.0, 0.0, 1.0])

    def test_agrees_with_density_matrix_route_on_pure_families(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            G = (z + z.conj().T) / 2
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi0 = z / np.linalg.norm(z)
            q0 = float(rng.uniform(0.2, 1.4))
            rho_of = pure_family(lambda q: q * G, psi0)
            dense = qfi(rho_of, q0).value
            u_of = lambda q: expm_unitary(q * G, 1.0)
            psi = u_of(q0) @ psi0
            dpsi, _ = derivative(lambda q: u_of(q) @ psi0, q0)
            pure = qfi_pure(psi, dpsi)
            assert dense == pytest.approx(pure, rel=1e-6, abs=1e-9)


def full_rank_qubit_family(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    G = (z + z.conj().T) / 2
    w = rng.uniform(0.1, 0.4)
    rho0 = np.diag([0.5 + w, 0.5 - w]).astype(complex)
    basis = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    rho0 = basis @ rho0 @ basis.conj().T
    return lambda q: expm_unitary(G, q) @ rho0 @ expm_unitary(G, q).conj().T


class TestMonotoneMetric:
    def test_arithmetic_tag_reproduces_qfi(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho_of = full_rank_qubit_family(rng)
            q = float(rng.uniform(0.2, 1.4))
            assert monotone_metric("ari", rho_of, q).value == pytest.approx(
                qfi(rho_of, q).value, rel=1e-7, abs=1e-10
            )

    def test_commuting_family_all_metrics_coincide(self):
        """For diag(theta, 1-theta) every monotone metric is the classical 1/(p(1-p))."""
        rho_of = lambda q: np.diag([q, 1.0 - q]).astype(complex)
        q0 = 0.3
        expected = 1.0 / (q0 * (1.0 - q0))
        for tag in ("ari", "har", "log"):
            assert monotone_metric(tag, rho_of, q0).value == pytest.approx(expected, rel=1e-8)

    def test_known_ordering(self):
        """Harmonic >= logarithmic >= arithmetic on full-rank qubit families."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho_of = full_rank_qubit_family(rng)
            q = float(rng.uniform(0.2, 1.4))
            har = monotone_metric("har", rho_of, q).value
            log = monotone_metric("log", rho_of, q).value
            ari = monotone_metric("ari", rho_of, q).value
            assert har >= log - 1e-8 * (1 + har)
            assert log >= ari - 1e-8 * (1 + log)

    def test_error_estimate_on_field_direction(self):
        """Finite and positive for every tag; the 'ari' weights are the SLD QFI's."""
        model = make_qubit_direction(1.0)
        rho0 = np.diag([0.8, 0.2]).astype(complex)

        def rho_of(q):
            u = expm_unitary(model.h_of(q), 1.3)
            return u @ rho0 @ u.conj().T

        for tag in ("ari", "har", "log"):
            err = monotone_metric(tag, rho_of, 1.1).error_estimate
            assert 0.0 < err < 1e-6
        assert monotone_metric("ari", rho_of, 1.1).error_estimate == pytest.approx(
            qfi(rho_of, 1.1).error_estimate, rel=1e-9)

    @pytest.mark.parametrize("rho_of, error", [
        (pure_family(lambda q: q * SX, [1.0, 0.0]), RankDeficient),
        (lambda q: np.diag([0.5, q]).astype(complex), NotTraceless),  # tr(drho) = 1
    ], ids=["rank-deficient", "trace-moves"])
    def test_invalid_family_rejected(self, rho_of, error):
        with pytest.raises(error):
            monotone_metric("ari", rho_of, 0.4)

    def test_unknown_tag(self):
        rng = np.random.default_rng(5)
        with pytest.raises(UnknownMetricTag):
            monotone_metric("geo", full_rank_qubit_family(rng), 0.5)


class TestPovm:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch, match="mixed dimensions"):
            POVM(elements=(np.eye(2), np.eye(3)))

    def test_sum_to_identity_enforced(self):
        with pytest.raises(DimensionMismatch):
            POVM(elements=(np.eye(2) / 2, np.eye(2) / 3))

    def test_positivity_enforced(self):
        with pytest.raises(DimensionMismatch):
            POVM(elements=(np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    def test_a_nan_element_is_rejected(self):
        with pytest.raises(NonHermitianInput, match="NaN"):
            POVM(elements=(np.diag([1.0, math.nan]), np.diag([0.0, 1.0])))

    def test_trivial_povm_gives_zero_information(self):
        rng = np.random.default_rng(6)
        rho_of = full_rank_qubit_family(rng)
        povm = POVM(elements=(np.eye(2),))
        assert fisher_of_povm(rho_of, 0.8, povm).value <= 1e-18

    def test_sld_projectors_saturate_qfi(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho_of = full_rank_qubit_family(rng)
            q = float(rng.uniform(0.3, 1.2))
            target = qfi(rho_of, q).value
            achieved = fisher_of_povm(rho_of, q, sld_povm(rho_of, q)).value
            assert achieved == pytest.approx(target, rel=1e-5)

    def test_random_povms_never_beat_qfi(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho_of = full_rank_qubit_family(rng)
            q = float(rng.uniform(0.3, 1.2))
            raw = [
                (lambda z: z @ z.conj().T)(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                for _ in range(4)
            ]
            total = sum(raw)
            ev, V = np.linalg.eigh(total)
            isq = (V / np.sqrt(ev)) @ V.conj().T
            povm = POVM(elements=tuple(isq @ E @ isq for E in raw))
            assert fisher_of_povm(rho_of, q, povm).value <= qfi(rho_of, q).value + 1e-6

    def test_outcome_model_probabilities(self):
        rho_of = lambda q: np.diag([q, 1.0 - q]).astype(complex)
        povm = POVM(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        dist = povm_outcome_model(rho_of, povm).at(0.25)
        assert np.allclose(dist.probs, [0.25, 0.75])
