"""Tests for the finite-difference machinery."""

import math

import numpy as np
import pytest

from qmet.cem import g_bound
from qmet.errors import DomainBoundary
from qmet.fisher import classical_fisher, qfi
from qmet.models import jc_readout_model, make_qubit_direction
from qmet.numdiff import CENTRAL, DiffSpec, check_domain, derivative

from stencils import central5


class TestDerivative:
    def test_richardson_on_sine(self):
        value, err = derivative(math.sin, 0.7)
        assert value == pytest.approx(math.cos(0.7), abs=1e-11)
        assert err >= 0

    def test_central_on_sine(self):
        value, err = derivative(math.sin, 0.7, DiffSpec(method=CENTRAL))
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
        f = lambda x: math.exp(2 * x)
        spec = DiffSpec(step=1e-3)
        rich, _ = derivative(f, 0.5, spec)
        plain, _ = derivative(f, 0.5, DiffSpec(method=CENTRAL, step=1e-3))
        truth = 2 * math.exp(1.0)
        assert abs(rich - truth) < abs(plain - truth)

    def test_analytic_method_rejected(self):
        with pytest.raises(ValueError):
            derivative(math.sin, 0.0, DiffSpec(method="analytic"))


class TestDiffSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"step": 0.0}, {"step": -1e-3}, {"step": math.nan}, {"step": math.inf},
        {"levels": 0}, {"levels": -4}, {"levels": 2.5}, {"levels": True},
        {"method": "bogus"},
    ], ids=repr)
    def test_invalid_spec_rejected_when_made(self, kwargs):
        with pytest.raises(ValueError):
            DiffSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [{}, {"step": 1e-3}, {"levels": 1},
                                        {"method": CENTRAL, "levels": 5}], ids=repr)
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
