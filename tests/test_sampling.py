"""A sampling oracle: maximum-likelihood estimates from simulated counts reach 1/(N F).

A model's Fisher information F at theta predicts, by Cramer (1946), that the
maximum-likelihood estimate from N shots has variance 1/(N F) to leading
order.  Each case gives a distribution theta -> probabilities and its F: the
controlled energy measurement at g_bound's optimum, whose F is G; the
phase-estimation read-out of that measurement in both modes, whose F is
fisher_phase_readout's; and the Jaynes-Cummings atomic read-out, whose F is
classical_fisher's.  Each case draws M experiments of N shots from the
distribution at theta, maximises each log-likelihood over NODES nodes within
+-WINDOW standard deviations of theta (refined by a parabola through the best
node and its neighbours), and compares N Var F with 1.  The check reads only
the distributions, no derivative code.  Its tolerance is TOLERANCE standard
errors of a variance from M samples, sqrt(2/M) each, so it does not depend
on a run that passed.
"""

import math

import numpy as np
import pytest

from qmet.cem import cem_outcome_model, g_bound
from qmet.fisher import classical_fisher
from qmet.models import (
    jc_readout_model,
    make_nv_spin1,
    make_qubit_direction,
    make_qubit_xcomponent,
    reference,
)
from qmet.phasesim import (
    IDEAL,
    REALISTIC,
    PhaseSimConfig,
    fisher_phase_readout,
    ideal_distribution,
    realistic_distribution,
    tune_tau,
)

M, N = 2000, 10_000  # experiments, shots per experiment
NODES, WINDOW = 801, 8.0
TOLERANCE = 4.0
NV_PARAMS = (1.0, 1.44 * math.pi, 5e-5 * math.pi)
JC_KAPPA, JC_T, JC_ALPHA1_SQ, JC_OMEGA = 0.5, 3.0, 0.96, 0.6


def mle_estimates(probs_at, theta, fisher, rng):
    """M maximum-likelihood estimates of theta from N shots of probs_at(theta) each, over
    nodes within +-WINDOW standard deviations 1/sqrt(N fisher); asserts that no estimate
    lands on the window edge."""
    sigma = 1.0 / math.sqrt(N * fisher)
    nodes = theta + sigma * np.linspace(-WINDOW, WINDOW, NODES)
    log_p = np.log(np.maximum([probs_at(x) for x in nodes], 1e-300))
    loglik = rng.multinomial(N, probs_at(theta), size=M) @ log_p.T  # (M, NODES)
    best = np.argmax(loglik, axis=1)
    assert np.all((best > 0) & (best < NODES - 1))
    rows = np.arange(M)
    lo, mid, hi = loglik[rows, best - 1], loglik[rows, best], loglik[rows, best + 1]
    shift = 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)  # the parabola's vertex, in node spacings
    return nodes[best] + shift * (nodes[1] - nodes[0])


def scaled_variance(probs_at, theta, fisher):
    """N Var F of the estimates drawn from default_rng(0)."""
    estimates = mle_estimates(probs_at, theta, fisher, np.random.default_rng(0))
    return N * np.var(estimates) * fisher


def optimum(model, theta, t):
    """g_bound's optimum, asserted to reach G, and its preparation's projector."""
    sol = g_bound(model, theta, t)
    assert sol.condition_holds
    return sol, np.outer(sol.psi_opt, sol.psi_opt.conj())


def cem_case(model, theta, t):
    """(probabilities at x, theta, G) of the controlled energy measurement at the optimum."""
    sol, rho0 = optimum(model, theta, t)
    outcomes = cem_outcome_model(model, t, sol.V_opt, rho0)
    return (lambda x: outcomes.at(x).probs), theta, sol.G_value


def readout_case(model, theta, t, mode):
    """(probabilities at x, theta, F) of the n = 6, m = 3 read-out of the optimum, at the
    tau tune_tau picks for mode."""
    sol, rho0 = optimum(model, theta, t)
    cfg = PhaseSimConfig(n=6, m=3, t=t, V=sol.V_opt, rho0=rho0)
    cfg = cfg.with_tau(tune_tau(cfg, model, theta, mode))
    distribution = ideal_distribution if mode == IDEAL else realistic_distribution
    fisher = fisher_phase_readout(cfg, model, theta, mode=mode).value
    return (lambda x: distribution(cfg, model, x).probs), theta, fisher


def jc_case():
    """(probabilities at omega, omega, F) of the atomic read-out of the bosonic mode."""
    readout = jc_readout_model(JC_KAPPA, JC_T, math.sqrt(1.0 - JC_ALPHA1_SQ),
                               math.sqrt(JC_ALPHA1_SQ))
    fisher = classical_fisher(readout, JC_OMEGA).value
    return (lambda x: readout.at(x).probs), JC_OMEGA, fisher


@pytest.mark.parametrize("factory, theta, t", [
    (lambda: make_qubit_direction(1.0), 1.0, 0.3),
    (lambda: make_nv_spin1(*NV_PARAMS), 0.7, 0.4),
    (lambda: make_qubit_xcomponent(1.0), 0.8, 1.1),
], ids=["qubit-direction", "nv-spin1", "qubit-xcomponent"])
def test_maximum_likelihood_variance_reaches_one_over_n_g(factory, theta, t):
    assert abs(scaled_variance(*cem_case(factory(), theta, t)) - 1.0) <= (
        TOLERANCE * math.sqrt(2.0 / M))


@pytest.mark.parametrize("case", [
    lambda: readout_case(make_qubit_direction(1.0), 1.0, 0.3, IDEAL),
    lambda: readout_case(make_qubit_direction(1.0), 1.0, 0.3, REALISTIC),
    lambda: readout_case(make_nv_spin1(*NV_PARAMS), 0.7, 0.4, IDEAL),
    lambda: readout_case(make_nv_spin1(*NV_PARAMS), 0.7, 0.4, REALISTIC),
    jc_case,
], ids=["qubit-direction-ideal", "qubit-direction-realistic", "nv-spin1-ideal",
        "nv-spin1-realistic", "jc"])
def test_read_out_variance_reaches_one_over_n_f(case):
    """The read-outs' Fisher values predict their estimates' variance too.  The jc point
    avoids omega = 1, a turning point of the read-out probabilities at t = 3."""
    assert abs(scaled_variance(*case()) - 1.0) <= TOLERANCE * math.sqrt(2.0 / M)


def test_atomic_read_out_beats_the_best_regular_measurement():
    """The paper's claim in samples: at this jc point the read-out's F (2.97) exceeds the
    best regular measurement's F_Q (1.38), so N Var F_Q, about 0.45, lies below the
    quantum Cramer-Rao bound 1 by more than the sampling error."""
    probs_at, omega, fisher = jc_case()
    fq = reference("jc_qfi")(t=JC_T, alpha1_sq=JC_ALPHA1_SQ)
    below = scaled_variance(probs_at, omega, fisher) * fq / fisher
    assert below <= 1.0 - TOLERANCE * math.sqrt(2.0 / M)
