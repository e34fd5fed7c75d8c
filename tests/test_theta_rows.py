"""A theta half kept across a theta row gives the one-point values bit for bit.

The CLI probe commands decompose H(theta) and g_diag once per theta row
(cem._theta_half, cem._optimum_half) and build each point's t half from it.
Every value must equal the one-point library call at that point: g_bound,
the analytic encoded_qfi and cem._optimum.  At CLI level, each row of a 3 x 3
run must equal the 1 x 1 run at its point, byte for byte.
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qmet import cem, cli  # noqa: E402
from qmet.cem import encoded_qfi, g_bound  # noqa: E402
from qmet.models import make_nv_spin1, make_qubit_direction, make_qubit_xcomponent  # noqa: E402

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


@SETTINGS
@given(rows())
def test_a_kept_theta_half_gives_the_one_point_values(row):
    model, theta, ts = row
    rho0 = np.zeros((model.dim, model.dim), dtype=complex)
    rho0[0, 0] = 1.0
    kept = cem._optimum_half(model, theta)
    for t in ts:
        jet, sol = cem._optimum(model, theta, t, kept)
        one_jet, one_sol = cem._optimum(model, theta, t)
        assert all(np.array_equal(a, b) for a, b in zip(jet, one_jet))
        assert_same_solution(sol, one_sol)
        assert_same_solution(sol, g_bound(model, theta, t))
        report, sigma_dyn = cem._encoded_qfi(cem._t_half(kept[0], t), rho0)
        one_report, one_sigma = encoded_qfi(model, theta, t, rho0)
        assert (report, sigma_dyn) == (one_report, one_sigma)


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
