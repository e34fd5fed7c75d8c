"""Property tests on random quadratic families H(theta) = H0 + theta H1 + theta^2 H2.

Every draw has an exact dh_of = H1 + 2 theta H2, d = 2..5, theta in (-1, 1),
t in (0.1, 3), a Haar control V and a random pure preparation psi.  The bound
must hold for every control and preparation, and be reached by its own optimum
where the moduli condition holds; sigma(g_dyn)^2 must bound the quantum Fisher
information of every preparation.  A draw may fail only with
DegenerateSpectrum.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qmet.cem import encoded_qfi, fisher_cem, g_bound  # noqa: E402
from qmet.errors import DegenerateSpectrum  # noqa: E402
from qmet.models import HamiltonianModel  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
REL = 1e-12
ATTAINED = 1e-10  # relative shortfall of the optimum where the condition holds


@st.composite
def draws(draw):
    """(model, theta, t, V, psi) of one random quadratic family."""
    d = draw(st.integers(2, 5))
    theta = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    t = draw(st.floats(0.1, 3.0, exclude_min=True, exclude_max=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    H0, H1, H2 = (z + z.conj().swapaxes(-1, -2)) / 2.0  # exactly Hermitian
    model = HamiltonianModel(name="quadratic", dim=d, h_of=lambda q: H0 + q * H1 + q * q * H2,
                             dh_of=lambda q: H1 + 2.0 * q * H2)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    V = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # Haar
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return model, theta, t, V, psi / np.linalg.norm(psi)


@SETTINGS
@given(draws())
def test_no_control_beats_the_bound(case):
    """A Haar control and the bound's own optimum stay below G; the optimum reaches it
    wherever the moduli condition holds."""
    model, theta, t, V, psi = case
    try:
        sol = g_bound(model, theta, t)
        report = fisher_cem(model, theta, t, V, np.outer(psi, psi.conj()))
        best = fisher_cem(model, theta, t, sol.V_opt, np.outer(sol.psi_opt, sol.psi_opt.conj()))
    except DegenerateSpectrum:
        return
    assert report.value <= sol.G_value * (1.0 + REL) + report.error_estimate
    assert best.value <= sol.G_value * (1.0 + REL) + best.error_estimate
    if sol.condition_holds:
        assert best.value >= sol.G_value * (1.0 - ATTAINED) - best.error_estimate


@SETTINGS
@given(draws())
def test_no_preparation_beats_the_dynamical_gap(case):
    model, theta, t, _, psi = case
    try:
        report, sigma_dyn = encoded_qfi(model, theta, t, np.outer(psi, psi.conj()))
    except DegenerateSpectrum:
        return
    assert report.value <= sigma_dyn**2 * (1.0 + REL)
