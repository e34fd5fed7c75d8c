"""Tests for the finite-difference machinery."""

import math

import numpy as np
import pytest

from qmet.cem import encoded_qfi, g_bound
from qmet.errors import DomainBoundary
from qmet.fisher import classical_fisher, fisher_rows, qfi
from qmet.models import jc_readout_model, make_qubit_direction, reference
from qmet.numdiff import DiffSpec, check_domain, derivative

from stencils import central5


class TestDerivative:
    def test_richardson_on_sine(self):
        value, err = derivative(math.sin, 0.7)
        assert value == pytest.approx(math.cos(0.7), abs=1e-11)
        assert err >= 0

    def test_one_level_on_sine(self):
        value, err = derivative(math.sin, 0.7, DiffSpec(levels=1))
        assert value == pytest.approx(math.cos(0.7), abs=1e-7)

    def test_error_estimate_brackets_true_error(self):
        for x in np.linspace(-2.5, 2.5, 11):
            value, err = derivative(np.exp, float(x))
            assert abs(value - math.exp(x)) <= 100 * err + 1e-13

    def test_vector_valued_function(self):
        f = lambda x: np.array([math.sin(x), math.cos(x), x * x])
        value, _ = derivative(f, 0.3)
        assert np.allclose(value, [math.cos(0.3), -math.sin(0.3), 0.6], atol=1e-10)

    def test_richardson_beats_plain_central(self):
        """Each ladder, one level included, beats the plain central difference at its
        finest step h/2."""
        f = lambda x: math.exp(2 * x)
        plain = (f(0.5 + 5e-4) - f(0.5 - 5e-4)) / 1e-3
        truth = 2 * math.exp(1.0)
        for spec in (DiffSpec(step=1e-3), DiffSpec(step=1e-3, levels=1)):
            rich, _ = derivative(f, 0.5, spec)
            assert abs(rich - truth) < abs(plain - truth)

    @pytest.mark.parametrize("method", ["richardson-fd", "central-fd", "analytic"])
    def test_method_is_not_a_setting(self, method):
        """One scheme: a spec takes only step and levels, and names richardson-fd."""
        with pytest.raises(TypeError):
            DiffSpec(method=method)
        assert DiffSpec(levels=1).method == DiffSpec().method == "richardson-fd"

    def test_one_level_visits_the_plain_central_nodes(self):
        """fisher_rows under levels=1 calls p_of at theta, theta +- h and theta +- h/2 only:
        the five points of a plain central difference with a step-halving estimate."""
        theta, spec, seen = 0.9, DiffSpec(levels=1), []

        def p_of(x):
            seen.append(x)
            return np.array([[math.cos(x) ** 2, math.sin(x) ** 2]])

        h = spec.base_step(theta)
        values, errs = fisher_rows(p_of, theta, spec)
        assert seen == [theta, theta + h, theta - h, theta + h / 2, theta - h / 2]
        assert abs(values[0] - 4.0) <= errs[0]


class TestOneLevelBoundsItsError:
    """On closed-form quantities the one-level estimate bounds the true error."""

    @pytest.mark.parametrize("theta, t", [(0.7, 1.3), (1.77, 2.5)])
    def test_direction_qfi(self, theta, t):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        report, _ = encoded_qfi(make_qubit_direction(1.0), theta, t, rho0, DiffSpec(levels=1))
        truth = reference("direction_qfi")(theta=theta, omega=1.0, t=t)
        assert report.method == "richardson-fd"
        assert abs(report.value - truth) <= report.error_estimate

    @pytest.mark.parametrize("omega, t", [(0.8, 1.0), (1.5, 2.0)])
    def test_jc_fc(self, omega, t):
        pm = jc_readout_model(0.5, t, math.sqrt(0.5), math.sqrt(0.5), 8)
        report = classical_fisher(pm, omega, DiffSpec(levels=1))
        truth = reference("jc_fc")(omega=omega, kappa=0.5, t=t, alpha1_sq=0.5)
        assert report.method == "richardson-fd"
        assert abs(report.value - truth) <= report.error_estimate


class TestDiffSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"step": 0.0}, {"step": -1e-3}, {"step": math.nan}, {"step": math.inf},
        {"levels": 0}, {"levels": -4}, {"levels": 2.5}, {"levels": True},
    ], ids=repr)
    def test_invalid_spec_rejected_when_made(self, kwargs):
        with pytest.raises(ValueError):
            DiffSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [{}, {"step": 1e-3}, {"levels": 1},
                                        {"levels": 5}], ids=repr)
    def test_valid_spec_accepted(self, kwargs):
        value, _ = derivative(math.sin, 0.7, DiffSpec(**kwargs))
        assert value == pytest.approx(math.cos(0.7), abs=1e-5)


class TestCentral5:
    def test_fourth_order_accuracy(self):
        value = central5(math.sin, 0.4, 1e-3)
        assert value == pytest.approx(math.cos(0.4), abs=1e-12)


class TestCheckDomain:
    @pytest.mark.parametrize("x,radius", [(math.nan, 0.0), (1.0, math.nan), (math.nan, 1e-4)])
    def test_nan_lies_in_no_domain(self, x, radius):
        with pytest.raises(DomainBoundary):
            check_domain(x, radius, (-math.inf, math.inf))

    def test_open_domain(self):
        check_domain(0.5, 0.1, (0.0, 1.0))
        for x in (0.1, 0.9, math.inf):
            with pytest.raises(DomainBoundary):
                check_domain(x, 0.1, (0.0, 1.0))

    def test_nan_point_raises_in_every_caller(self):
        model = make_qubit_direction(1.0)
        with pytest.raises(DomainBoundary):
            g_bound(model, math.nan, 1.0)
        with pytest.raises(DomainBoundary):
            qfi(lambda x: np.diag([math.cos(x) ** 2, math.sin(x) ** 2]), math.nan)
        pm = jc_readout_model(0.5, 1.0, math.sqrt(0.5), math.sqrt(0.5), 8)
        for diff in (None, DiffSpec()):
            with pytest.raises(DomainBoundary):
                classical_fisher(pm, math.nan, diff)
