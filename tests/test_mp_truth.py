"""Fisher values of controlled energy measurements, and the quantum Fisher information
they are compared with, against a 50-digit mpmath truth.

The truth takes the library's own float inputs at theta: H(theta') =
H(theta) + (theta' - theta) dH(theta) from the model's h_of and dh_of, the
control V and the pure preparation psi, whose rounded projector
rho0 = psi psi^dag the library validates and factors.  Energies and level
weights come from mp.eighe and their theta-derivatives from mp.diff, so
values and first derivatives at theta are exact to 50 digits.  Each case
puts a small weight p_0 on the ground level, down to just above
SUPPORT_THRESHOLD.  encoded_qfi's truth evolves rho0 by mp.expm of the same
linearised H(theta') and differentiates rho(theta') entrywise by mp.diff.  The
closed-form references are checked against a 60-digit truth at points where
their textbook forms cancel in floating point or reach a limit.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from qmet import cem
from qmet.cem import diagonalizer, encoded_qfi, fisher_cem
from qmet.fisher import SUPPORT_THRESHOLD
from qmet.linalg import require_density
from qmet.models import make_jaynes_cummings, make_nv_spin1, make_qubit_direction, reference
from qmet.phasesim import PhaseSimConfig, default_tau, fisher_phase_readout

DPS = 50
EPS = np.finfo(float).eps
THETA, T = 1.4, 0.6
MODELS = {
    "nv-spin1": lambda: make_nv_spin1(1.0, 1.44 * math.pi, 5e-5 * math.pi),
    "qubit-direction": lambda: make_qubit_direction(1.0),
}
P0S = (1e-4, 1e-6, 1e-8, 1e-11)


def weight_case(model, p0):
    """(V, psi): a Haar control from default_rng(4) and psi with weights (p0, 0.36, rest).

    A qubit gets (p0, 1 - p0).  The amplitudes take random phases, so the
    Fisher information does not vanish; the truth recomputes the weights
    from psi exactly, so the float construction only has to land near them.
    """
    rng = np.random.default_rng(4)
    d = model.dim
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    V = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    target = np.array([p0, 0.36, 0.64 - p0] if d == 3 else [p0, 1.0 - p0])
    a = np.sqrt(target) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d))
    psi = model.u_of(THETA, T).conj().T @ V.conj().T @ diagonalizer(model, THETA).conj().T @ a
    return V, psi / np.linalg.norm(psi)


def mp_matrix(a):
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])


def truth_node(model, V, psi, at=THETA, t=T):
    """theta' -> (ascending energies E_j, level weights p_j = |<xi_j|V U_t psi>|^2) at DPS digits."""
    H0, dH = mp_matrix(model.h_of(at)), mp_matrix(model.dh_of(at))
    Vm, psim = mp_matrix(V), mp_matrix(psi).T

    @functools.cache
    def node(x):
        E, Q = mp.eighe(H0 + (x - at) * dH)
        U = Q * mp.diag([mp.expj(-t * e) for e in E]) * Q.H
        amps = Q.H * (Vm * (U * psim))
        return list(E), [abs(amps[j]) ** 2 for j in range(len(E))]

    return node


def fisher_truth(probs_of, count: int):
    """sum over probabilities above SUPPORT_THRESHOLD of dp^2 / p, dp by mp.diff at THETA."""
    theta = mp.mpf(THETA)
    total = mp.mpf(0)
    for k in range(count):
        p = probs_of(theta)[k]
        if p > SUPPORT_THRESHOLD:
            total += mp.diff(lambda x, k=k: probs_of(x)[k], theta) ** 2 / p
    return float(total)


def readout_probs(node, tau: float, n: int, m: int, mode: str):
    """theta' -> the 2^n read-out probabilities from the 50-digit level weights.

    Pr(Q) = 2^-n sum_j p_j prod_l [1 + a^(w m) cos(w beta_jQ)], w = 2^(l-1),
    beta_jQ = tau xi_j + 2 pi Q / 2^n + m phi, with xi_j = E_j - E_0 and
    a e^{i phi} = mean_j exp(-i tau xi_j / m) (a = 1, phi = 0 when ideal).
    """
    N = 2**n

    @functools.cache
    def probs(x):
        E, p = node(x)
        xi = [e - E[0] for e in E]
        a, phi = mp.mpf(1), mp.mpf(0)
        if mode == "realistic":
            z = mp.fsum(mp.expj(-tau * v / m) for v in xi) / len(xi)
            a, phi = abs(z), mp.arg(z)
        damping = [a ** (2**l * m) for l in range(n)]
        out = []
        for Q in range(N):
            total = mp.mpf(0)
            for pj, v in zip(p, xi):
                z, product = mp.expj(tau * v + 2 * mp.pi * Q / N + m * phi), mp.mpf(1)
                for c in damping:  # z = exp(i w beta_jQ), squared from level to level
                    product *= 1 + c * z.real
                    z *= z
                total += pj * product
            out.append(total / N)
        return out

    return probs


@pytest.mark.parametrize("p0", P0S)
@pytest.mark.parametrize("name", list(MODELS))
def test_fisher_cem_within_its_estimate_of_the_truth(name, p0):
    """The level weights carry a relative error of order eps / sqrt(p_j), not eps / p_j."""
    model = MODELS[name]()
    V, psi = weight_case(model, p0)
    with mp.workdps(DPS):
        node = truth_node(model, V, psi)
        assert abs(float(node(mp.mpf(THETA))[1][0]) / p0 - 1.0) <= 1e-3
        truth = fisher_truth(lambda x: node(x)[1], model.dim)
    report = fisher_cem(model, THETA, T, V, np.outer(psi, psi.conj()))
    error = abs(report.value - truth)
    assert error <= report.error_estimate
    assert error <= 16.0 * EPS * (1.0 + 1.0 / math.sqrt(p0)) * truth


@pytest.mark.parametrize("mode", ["ideal", "realistic"])
@pytest.mark.parametrize("p0", P0S)
@pytest.mark.parametrize("name", list(MODELS))
def test_readout_within_its_estimate_of_the_truth(name, p0, mode):
    model = MODELS[name]()
    V, psi = weight_case(model, p0)
    cfg = PhaseSimConfig(n=6, m=3, tau=default_tau(model, THETA), t=T, V=V,
                         rho0=np.outer(psi, psi.conj()))
    with mp.workdps(DPS):
        probs = readout_probs(truth_node(model, V, psi), cfg.tau, cfg.n, cfg.m, mode)
        truth = fisher_truth(probs, 2**cfg.n)
    report = fisher_phase_readout(cfg, model, THETA, mode=mode)
    assert abs(report.value - truth) <= report.error_estimate


@pytest.mark.parametrize("make, theta, t", [
    (lambda: make_jaynes_cummings(0.5, 8), 0.9, 1.4),
    (lambda: make_jaynes_cummings(1.0, 8), 0.9, 1.4),
    (MODELS["nv-spin1"], 0.7, 3.0),
], ids=["jc-kappa-0.5", "jc-kappa-1", "nv-spin1"])
def test_level_jet_bounds_hold_level_by_level(make, theta, t):
    """cem's rounding model, level by level: each energy derivative within its dE_err, each
    level weight within its p_err, and each weight derivative within the one dp_err.  On
    jc at kappa 0.5 (d = 18) max|E| / gap_j runs from 8.9 to 514 over the levels (9.3 to
    152 at kappa 1), so each level's bound differs from the global one.  The truth takes
    the library's control and the factor it keeps of rho0."""
    model = make()
    d, rng = model.dim, np.random.default_rng(6)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    V = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    _, F = require_density(np.outer(z, z.conj()) / np.vdot(z, z).real)
    _, dE, dE_err, p, dp, dp_err, p_err = cem._point(model, theta).levels(t, V, F)[0]
    with mp.workdps(DPS):
        node, x = truth_node(model, V, F[:, 0], theta, t), mp.mpf(theta)
        for j in range(d):
            assert abs(mp.mpf(dE[j]) - mp.diff(lambda y: node(y)[0][j], x)) <= dE_err[j]
            assert abs(mp.mpf(p[j]) - node(x)[1][j]) <= p_err[j]
            assert abs(mp.mpf(dp[j]) - mp.diff(lambda y: node(y)[1][j], x)) <= dp_err


def preparation(d: int, kind: str) -> np.ndarray:
    """A pure rho0 = psi psi^dag or a full-rank rho0 with weights 0.5, 0.3[, 0.2], in a
    random basis from default_rng(5)."""
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    weights = np.array([1.0, 0.0, 0.0] if kind == "pure" else [0.5, 0.3, 0.2])[:d]
    weights /= weights.sum()
    return (basis * weights) @ basis.conj().T


def qfi_truth(model, rho0, at=THETA, t=T) -> float:
    """sum over p_k + p_l >= SUPPORT_THRESHOLD of 2 |D_kl|^2 / (p_k + p_l), with p and the
    eigenbasis of rho(at) from mp.eighe and D = drho / dtheta in that basis."""
    H0, dH, R0 = mp_matrix(model.h_of(at)), mp_matrix(model.dh_of(at)), mp_matrix(rho0)

    @functools.cache
    def rho(x):
        U = mp.expm(mp.mpc(0, -t) * (H0 + (x - at) * dH))
        return U * R0 * U.H

    d, theta = model.dim, mp.mpf(at)
    D = mp.matrix(d, d)
    for k in range(d):
        for l in range(d):
            D[k, l] = mp.diff(lambda x, k=k, l=l: rho(x)[k, l], theta)
    p, Q = mp.eighe(rho(theta))
    Dv = Q.H * D * Q
    return float(mp.fsum(2 * abs(Dv[k, l]) ** 2 / (p[k] + p[l])
                         for k in range(d) for l in range(d)
                         if p[k] + p[l] >= SUPPORT_THRESHOLD))


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("name", list(MODELS))
def test_encoded_qfi_within_its_estimate_of_the_truth(name, kind):
    """The analytic path only: the Richardson path's estimate is not yet a bound."""
    model = MODELS[name]()
    rho0 = preparation(model.dim, kind)
    with mp.workdps(DPS):
        truth = qfi_truth(model, rho0)
    report, _ = encoded_qfi(model, THETA, T, rho0)
    assert report.method == "analytic"
    assert abs(report.value - truth) <= report.error_estimate


@pytest.mark.parametrize("omega, theta, t", [
    (1e6, 2.8, 1.75),
    (1e10, 2.8, 1.75),
    (1e3, 1.4, 0.6),  # sinc(t w / 2 pi) near a zero: g_dyn small against t |dH|
])
def test_encoded_qfi_estimate_covers_large_phases(omega, theta, t):
    """At large omega t the phases t E_j of U_t carry errors of eps t max|E|, and g_dyn
    rounds relative to t |dH| rather than to itself; the estimate covers both.  The
    truth runs at 60 digits, as t E reaches 1.75e10."""
    model, rho0 = make_qubit_direction(omega), np.diag([1.0, 0.0]).astype(complex)
    with mp.workdps(60):
        truth = qfi_truth(model, rho0, theta, t)
    report, _ = encoded_qfi(model, theta, t, rho0)
    assert abs(report.value - truth) <= report.error_estimate


def nv_max_qfi(theta, mu, E, t):
    chi = mp.sqrt(theta**2 * mu**2 + 4 * E**2)
    return 8 * mu**2 * (2 * theta**2 * mu**2 * t**2 * chi**2 + E**2 - E**2 * mp.cos(4 * chi * t)) \
        / chi**4


def xcomponent_max_qfi(theta, omega, t):
    om2 = omega**2 + theta**2
    return 2 / om2**2 * (2 * om2 * t**2 * theta**2 + omega**2
                         - omega**2 * mp.cos(2 * mp.sqrt(om2) * t))


def direction_qfi(theta, omega, t):
    return 4 * mp.sin(omega * t) ** 2 - mp.sin(2 * omega * t) ** 2 * mp.sin(theta) ** 2


def jc_enhancement_threshold(omega, kappa, t):
    """(sqrt(1 + r^2 tan^2) - 1) / (2 tan^2), r = Omega / omega, written without tan, so that
    it also holds where tan(Omega t) is 0."""
    Om = kappa * mp.sqrt(omega)
    r, c, s = Om / omega, abs(mp.cos(Om * t)), mp.sin(Om * t)
    return r**2 * c / (2 * (mp.sqrt(c**2 + r**2 * s**2) + c))


def jc_fc(omega, kappa, t, alpha1_sq):
    """(Omega t / omega)^2 alpha (1 - s^2) / (1 - alpha s^2), written with c^2 for 1 - s^2."""
    Om = kappa * mp.sqrt(omega)
    c2, s2 = mp.cos(Om * t) ** 2, mp.sin(Om * t) ** 2
    return (Om * t / omega) ** 2 * alpha1_sq * c2 / (c2 + (1 - alpha1_sq) * s2)


@pytest.mark.parametrize("name, truth, params", [
    ("nv_max_qfi", nv_max_qfi, dict(theta=0.257, mu=0.0012, E=5e-5 * math.pi, t=0.0178)),
    ("xcomponent_max_qfi", xcomponent_max_qfi, dict(theta=0.118, omega=0.0243, t=0.0133)),
    ("direction_qfi", direction_qfi, dict(theta=math.pi / 2 - 1e-3, omega=1.0, t=0.01)),
    ("jc_enhancement_threshold", jc_enhancement_threshold, dict(omega=100.0, kappa=0.5, t=0.002)),
    ("jc_enhancement_threshold", jc_enhancement_threshold,
     dict(omega=1.0, kappa=0.5, t=2 * math.pi)),
    ("jc_enhancement_threshold", jc_enhancement_threshold, dict(omega=1.0, kappa=0.0, t=1.0)),
    ("jc_fc", jc_fc, dict(omega=1.0, kappa=0.5, t=math.pi, alpha1_sq=0.5)),
    ("jc_fc", jc_fc, dict(omega=1.0, kappa=0.5, t=3.0, alpha1_sq=0.5)),
], ids=["nv", "xcomponent", "direction", "jc-threshold", "jc-threshold-tan-zero",
        "jc-threshold-kappa-zero", "jc-fc-cos-zero", "jc-fc"])
def test_closed_forms_keep_their_digits_where_the_textbook_form_cancels(name, truth, params):
    """E^2 - E^2 cos(4 chi t), omega^2 - omega^2 cos(2 sqrt(om2) t), 4 s^2 - sin^2(2 omega t)
    sin^2(theta) and sqrt(1 + x) - 1 cancel at the first four points (relative errors 8.6e-8,
    8.0e-13, 1.2e-12 and 6.3e-10 in floating point); each reference stays within a few
    roundings.  The jc threshold's limit where tan(Omega t) is 0 (Omega t = pi, and
    kappa = 0) is finite, not the inf of a tan^2 cut-off, and jc_fc keeps its digits where
    1 - s^2 cancels (Omega t = pi / 2 rounds s^2 to 1; relative error 4.2e-15 at t = 3)."""
    with mp.workdps(60):
        exact = truth(**{k: mp.mpf(v) for k, v in params.items()})
        value = reference(name)(**params)
        assert abs(value - exact) <= 4 * EPS * abs(exact)
