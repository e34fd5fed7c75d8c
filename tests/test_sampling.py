"""A sampling oracle: maximum-likelihood estimates from simulated counts reach 1/(N G).

At g_bound's optimum the controlled energy measurement's Fisher information is
G, so by Cramer (1946) the maximum-likelihood estimate from N shots has
variance 1/(N G) to leading order.  Each case draws M experiments of N shots
from the outcome model's distribution at theta, maximises each log-likelihood
over NODES nodes within +-WINDOW standard deviations of theta (refined by a
parabola through the best node and its neighbours), and compares N Var G with
1.  The check reads only the distributions (ProbabilityModel.at), no derivative
code.  Its tolerance is TOLERANCE standard errors of a variance from M
samples, sqrt(2/M) each, so it does not depend on a run that passed.
"""

import math

import numpy as np
import pytest

from qmet.cem import cem_outcome_model, g_bound
from qmet.models import make_nv_spin1, make_qubit_direction, make_qubit_xcomponent

M, N = 2000, 10_000  # experiments, shots per experiment
NODES, WINDOW = 801, 8.0
TOLERANCE = 4.0


def mle_estimates(model, theta, t, rng):
    """(M maximum-likelihood estimates of theta, G) at g_bound's optimum; asserts that the
    optimum reaches G and that no estimate lands on the window edge."""
    sol = g_bound(model, theta, t)
    assert sol.condition_holds
    outcomes = cem_outcome_model(model, t, sol.V_opt, np.outer(sol.psi_opt, sol.psi_opt.conj()))
    sigma = 1.0 / math.sqrt(N * sol.G_value)
    nodes = theta + sigma * np.linspace(-WINDOW, WINDOW, NODES)
    log_p = np.log(np.maximum([outcomes.at(x).probs for x in nodes], 1e-300))
    loglik = rng.multinomial(N, outcomes.at(theta).probs, size=M) @ log_p.T  # (M, NODES)
    best = np.argmax(loglik, axis=1)
    assert np.all((best > 0) & (best < NODES - 1))
    rows = np.arange(M)
    lo, mid, hi = loglik[rows, best - 1], loglik[rows, best], loglik[rows, best + 1]
    shift = 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)  # the parabola's vertex, in node spacings
    return nodes[best] + shift * (nodes[1] - nodes[0]), sol.G_value


@pytest.mark.parametrize("factory, theta, t", [
    (lambda: make_qubit_direction(1.0), 1.0, 0.3),
    (lambda: make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi), 0.7, 0.4),
    (lambda: make_qubit_xcomponent(1.0), 0.8, 1.1),
], ids=["qubit-direction", "nv-spin1", "qubit-xcomponent"])
def test_maximum_likelihood_variance_reaches_one_over_n_g(factory, theta, t):
    estimates, G = mle_estimates(factory(), theta, t, np.random.default_rng(0))
    assert abs(N * np.var(estimates) * G - 1.0) <= TOLERANCE * math.sqrt(2.0 / M)
