"""Randomized property suites doubling as the executable self-test.

Each suite returns (name, passed, detail).  The CLI 'selftest' subcommand
prints one line per suite; the pytest acceptance module asserts on the same
results, so the two entry points can never drift apart.
"""

from __future__ import annotations

import numpy as np

from .cem import max_gap_lemma_check
from .fisher import POVM, fisher_of_povm, monotone_metric, qfi, sld_povm
from .linalg import _eigh, expm_unitary, operator_variance, spectral_gap
from .numdiff import DiffSpec


def _random_hermitian(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2.0


def _random_state(rng, d: int) -> np.ndarray:
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return z / np.linalg.norm(z)


def _random_density(rng, d: int, min_eig: float = 0.05) -> np.ndarray:
    """Full-rank density matrix with eigenvalues bounded away from zero."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = z @ z.conj().T
    rho = rho / np.trace(rho).real
    eye = np.eye(d) / d
    return (1.0 - min_eig * d) * rho + min_eig * d * eye


def _random_povm(rng, d: int, n_elements: int) -> POVM:
    raw = []
    for _ in range(n_elements):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(z @ z.conj().T)
    total = sum(raw)
    ev, V = _eigh(total)
    inv_sqrt = (V / np.sqrt(ev)) @ V.conj().T
    return POVM(elements=tuple(inv_sqrt @ E @ inv_sqrt for E in raw))


def _unitary_family(rng, d: int):
    """A model rho(theta) = e^{-i theta G} rho0 e^{i theta G} with random pieces."""
    G = _random_hermitian(rng, d)
    rho0 = _random_density(rng, d)
    return lambda x: expm_unitary(G, x) @ rho0 @ expm_unitary(G, x).conj().T


def braunstein_caves_suite(trials: int = 100, seed: int = 11):
    """F_C of a random regular POVM never exceeds the QFI (+1e-6)."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for k in range(trials):
        d = int(rng.integers(2, 4))
        rho_of = _unitary_family(rng, d)
        theta = float(rng.uniform(0.2, 1.5))
        povm = _random_povm(rng, d, int(rng.integers(2, 5)))
        excess = fisher_of_povm(rho_of, theta, povm).value - qfi(rho_of, theta).value
        worst = max(worst, excess)
    return ("braunstein-caves", worst <= 1e-6, f"max F_C - F_Q = {worst:.3e} over {trials} POVMs")


def sld_saturation_suite(trials: int = 20, seed: int = 12):
    """Measuring the SLD eigenbasis recovers the QFI to 1e-5 relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        rho_of = _unitary_family(rng, d)
        theta = float(rng.uniform(0.2, 1.5))
        target = qfi(rho_of, theta).value
        if target < 1e-8:
            continue
        achieved = fisher_of_povm(rho_of, theta, sld_povm(rho_of, theta)).value
        worst = max(worst, abs(achieved - target) / target)
    return ("sld-saturation", worst <= 1e-5, f"max relative gap {worst:.3e} over {trials} models")


def popoviciu_suite(trials: int = 200, seed: int = 13):
    """Var over any pure state is at most (spectral gap)^2 / 4."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        d = int(rng.integers(2, 6))
        O = _random_hermitian(rng, d)
        psi = _random_state(rng, d)
        worst = max(worst, operator_variance(psi, O) - spectral_gap(O) ** 2 / 4.0)
    return ("popoviciu", worst <= 1e-10, f"max Var - gap^2/4 = {worst:.3e} over {trials} draws")


def max_gap_lemma_suite(pairs: int = 50, seed: int = 14):
    """Random conjugations stay below sigma(M1)+sigma(M2); the aligned pair attains it."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_overshoot = -np.inf
    worst_achiever = 0.0
    for k in range(pairs):
        d = int(rng.integers(2, 5))
        M1 = _random_hermitian(rng, d)
        M2 = _random_hermitian(rng, d)
        numeric, analytic = max_gap_lemma_check(M1, M2, trials=40, seed=seed + k)
        worst_overshoot = max(worst_overshoot, numeric - analytic)
        worst_achiever = max(worst_achiever, analytic - numeric)
        ok = ok and numeric <= analytic + 1e-9 and analytic - numeric <= 1e-9
    detail = (f"max overshoot {worst_overshoot:.3e}, "
              f"max achiever deficit {worst_achiever:.3e} over {pairs} pairs")
    return ("max-gap-lemma", ok, detail)


def extended_convexity_suite(trials: int = 50, seed: int = 15):
    """QFI of a parameter-independent mixture is at most the mixture of QFIs."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        G = _random_hermitian(rng, d)
        weights = rng.dirichlet(np.ones(3))
        branches = [_random_density(rng, d) for _ in range(3)]
        theta = float(rng.uniform(0.2, 1.5))

        def push(rho):
            return lambda x: expm_unitary(G, x) @ rho @ expm_unitary(G, x).conj().T

        mixture = sum(w * rho for w, rho in zip(weights, branches))
        lhs = qfi(push(mixture), theta).value
        rhs = sum(w * qfi(push(rho), theta).value for w, rho in zip(weights, branches))
        worst = max(worst, lhs - rhs)
    return ("extended-convexity", worst <= 1e-8,
            f"max F_Q(mix) - sum = {worst:.3e} over {trials} mixtures")


def metric_agreement_suite(trials: int = 20, seed: int = 16):
    """The arithmetic-mean monotone metric reproduces the SLD QFI to 1e-7."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        rho_of = _unitary_family(rng, d)
        theta = float(rng.uniform(0.2, 1.5))
        a = monotone_metric("ari", rho_of, theta).value
        b = qfi(rho_of, theta).value
        worst = max(worst, abs(a - b) / max(b, 1e-12))
    return ("metric-agreement", worst <= 1e-7, f"max |ari - qfi|/qfi = {worst:.3e}")


def metric_ordering_suite(trials: int = 50, seed: int = 17):
    """Harmonic >= logarithmic >= arithmetic metric on full-rank qubit families."""
    rng = np.random.default_rng(seed)
    ok = True
    worst = -np.inf
    diff = DiffSpec()
    for _ in range(trials):
        rho_of = _unitary_family(rng, 2)
        theta = float(rng.uniform(0.2, 1.5))
        har = monotone_metric("har", rho_of, theta, diff).value
        log = monotone_metric("log", rho_of, theta, diff).value
        ari = monotone_metric("ari", rho_of, theta, diff).value
        violation = max(log - har, ari - log)
        worst = max(worst, violation)
        ok = ok and violation <= 1e-8 * (1.0 + ari)
    return ("metric-ordering", ok, f"max ordering violation {worst:.3e} over {trials} families")


ALL_SUITES = (
    braunstein_caves_suite,
    sld_saturation_suite,
    popoviciu_suite,
    max_gap_lemma_suite,
    extended_convexity_suite,
    metric_agreement_suite,
    metric_ordering_suite,
)


def run_all():
    """Run every suite; returns a list of (name, passed, detail)."""
    return [suite() for suite in ALL_SUITES]
