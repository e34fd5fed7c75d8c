"""Phase-estimation read-out of controlled energy measurements.

An n-qubit phase-estimation register interrogates the encoding unitary and
turns a controlled energy measurement into a read-out over bin indices
Q in {0, ..., 2^n - 1}:

* ideal mode assumes controlled evolutions are available; each energy level
  contributes a squared Dirichlet (Fejer-type) kernel,
* realistic mode replaces every controlled evolution by m rounds of universal
  controllization (controlled-SWAP sandwiches against a maximally mixed
  ancilla), which damps the interference terms by a^(2^(l-1) m) and offsets
  the phases by m arg[tr(U_{tau/m})/d].

A brute-force state-vector circuit simulation and an explicit
controllization superoperator serve as independent oracles for both read-out
formulas.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numdiff
from .cem import _level_jet, _node
from .errors import AliasingRisk, OracleTooLarge
from .fisher import (
    FisherReport,
    OutcomeDistribution,
    _fisher_sum,
    _require_normalized,
    fisher_rows,
)
from .linalg import (
    eigh_nondegenerate,
    partial_trace,
    require_density,
    require_unitary,
    spectral_unitary,
    tensor,
)
from .models import HamiltonianModel
from .numdiff import DEFAULT_DIFF, DiffSpec

IDEAL = "ideal"
REALISTIC = "realistic"
# Tau rows times read-out bins per chunk; bounds the (rows, d, 2^n) scratch arrays,
# which the analytic path doubles (values and derivatives).
ROW_BUDGET = 2**10
# tune_tau: geometric candidates over (hi/300, hi], then a linear refinement.
TAU_COARSE = 32
TAU_REFINE = 16


@dataclass(frozen=True)
class PhaseSimConfig:
    """Read-out configuration.

    n control qubits, m controllization subdivisions, base time tau (None
    selects 0.9 * 2 pi / (spectral range + 1e-6) at the working point),
    energy_shift added to all eigenvalues (None shifts the node's own
    spectrum to start at zero), control V (None = identity), preparation
    rho0, and encoding time t.
    """

    n: int
    m: int
    rho0: np.ndarray
    t: float
    tau: Optional[float] = None
    energy_shift: Optional[float] = None
    V: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (1 <= self.n <= 12):
            raise ValueError(f"control-qubit count n must be in [1, 12], got {self.n}")
        if self.m < 1:
            raise ValueError(f"subdivision count m must be >= 1, got {self.m}")
        _check_tau(self.tau)
        object.__setattr__(self, "rho0", require_density(self.rho0))
        if self.V is not None:
            object.__setattr__(self, "V", require_unitary(self.V))

    def control(self, dim: int) -> np.ndarray:
        return np.eye(dim, dtype=complex) if self.V is None else self.V

    def with_tau(self, tau: float) -> "PhaseSimConfig":
        """This configuration at base time tau; only tau is checked again."""
        _check_tau(tau)
        new = copy.copy(self)  # skips __post_init__: the rest is already validated
        object.__setattr__(new, "tau", tau)
        return new


def _check_tau(tau: Optional[float]) -> None:
    if tau is not None and tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")


@dataclass(frozen=True)
class ControllizationFactors:
    """Damping a, phase offset phi, and accumulated error of universal controllization."""

    a: float
    phi: float
    eps_m: complex

    def __post_init__(self):
        if self.a > 1.0 + 1e-12:
            raise ValueError(f"damping factor a = {self.a} exceeds 1")


def controllization_factors(U, m: int) -> ControllizationFactors:
    """a e^{i phi} = tr(U)/d and eps_m = (tr(U)/d)^m - 1 for one subdivision unitary."""
    u = require_unitary(U)
    z = np.trace(u) / u.shape[0]
    a = abs(z)
    phi = float(np.angle(z)) if a >= 1e-14 else 0.0
    return ControllizationFactors(a=float(a), phi=phi, eps_m=z**m - 1.0)


def energy_probs(model: HamiltonianModel, theta: float, t: float, V, rho0) -> OutcomeDistribution:
    """Pr_theta(j) = <xi_j|V rho_theta V^dag|xi_j> over ascending energy index j."""
    ev, probs = _node(model, theta, t, require_unitary(V), require_density(rho0))
    return OutcomeDistribution(outcomes=tuple(range(ev.shape[0])), probs=probs)


def _default_tau(ev: np.ndarray) -> float:
    return 0.9 * 2.0 * math.pi / (float(ev[-1] - ev[0]) + 1e-6)


def default_tau(model: HamiltonianModel, theta: float) -> float:
    """0.9 * 2 pi / (spectral range + 1e-6) at the working point."""
    return _default_tau(eigh_nondegenerate(model.h_of(theta))[0])


def aligned_tau(model: HamiltonianModel, theta: float, n: int) -> float:
    """Largest tau placing the full spectral range on the 2^n-bin phase grid.

    tau * range = 2 pi (2^n - 1)/2^n, so every eigenvalue of a two-level
    spectrum sits exactly on a read-out bin while anti-aliasing still holds.
    """
    ev, _ = eigh_nondegenerate(model.h_of(theta))
    rng = float(ev[-1] - ev[0])
    if rng <= 0:
        raise AliasingRisk("spectrum has zero range; no informative read-out grid")
    return 2.0 * math.pi * (2**n - 1) / (2**n * rng)


def _aliases(tau, ev: np.ndarray):
    """tau * spectral range >= 2 pi: the bins no longer tell the levels apart."""
    return tau * float(ev[-1] - ev[0]) >= 2.0 * math.pi


def _require_injective(tau: float, ev: np.ndarray) -> None:
    if _aliases(tau, ev):
        raise AliasingRisk(f"tau * spectral range = {tau * float(ev[-1] - ev[0]):.6f} "
                           ">= 2 pi; bins are not injective")


def _shift(cfg: PhaseSimConfig, ev: np.ndarray) -> float:
    return -float(ev[0]) if cfg.energy_shift is None else float(cfg.energy_shift)


@functools.lru_cache(maxsize=None)
def _twiddles(n: int) -> tuple[np.ndarray, ...]:
    """Per level l, the read-only (3, 2^n / w) table [1; cos; -sin](2 pi w Q / 2^n), w = 2^(l-1).

    Q runs over one period of the level-l factor.
    """
    N = 2**n
    angle = 2.0 * math.pi * np.arange(N) / N
    full = np.stack([np.ones(N), np.cos(angle), -np.sin(angle)])
    tables = tuple(np.ascontiguousarray(full[:, :: 2**level]) for level in range(n))
    for table in tables:
        table.flags.writeable = False
    return tables


def _readout_probs(cfg: PhaseSimConfig, ev: np.ndarray, p: np.ndarray, taus: np.ndarray,
                   mode: str) -> np.ndarray:
    """(T, 2^n) read-out distributions at one node (energies ev, level weights p), one per tau.

    Pr(Q) = 2^-n sum_j p_j prod_l [1 + a^(w m) cos(w beta_jQ)], w = 2^(l-1),
    with beta_jQ = tau xi_j + 2 pi Q/2^n + m phi.  Realistic mode takes the
    controllization factors from the node's own spectrum:
    a e^{i phi} = tr(exp(-i (tau/m) H_shifted))/d = mean_j e^{-i tau xi_j/m}.
    Ideal mode is the same product with a = 1 and phi = 0, which telescopes
    to the squared Dirichlet kernel K_n(tau xi_j + 2 pi Q/2^n) of each level:
    2^-n prod_l (1 + cos(w alpha)) = prod_l cos^2(w alpha/2)
    = (sin(2^n alpha/2) / (2^n sin(alpha/2)))^2, without a division or a
    removable singularity.  The level-l factor has period 2^n/w in Q; with
    beta = beta_0 + 2 pi Q/2^n it is the angle addition
    1 + a^(w m) [cos(w beta_0) cos(2 pi w Q/2^n) - sin(w beta_0) sin(2 pi w Q/2^n)],
    one small matrix product per level over one period, so no bin takes a
    sine.  The product over levels is built from the top level down,
    doubling its period each level.
    """
    return np.concatenate([probs for _, probs, _ in _readout_chunks(cfg, ev, p, taus, mode)])


def _readout_chunks(cfg: PhaseSimConfig, ev: np.ndarray, p: np.ndarray, taus: np.ndarray,
                    mode: str, jet=None):
    """_readout_probs chunk by chunk: yields (slice of taus, probs, dprobs or None).

    A chunk holds at most ROW_BUDGET / 2^n taus, which bounds the
    (taus, d, 2^n) scratch arrays; the level coefficients of all taus are
    built once.  jet = (dxi, dp), the theta-derivatives of the shifted
    energies and of the level weights, also yields the exact derivative of
    every distribution, dPr = 2^-n sum_j (dp_j P_j + p_j dP_j): the product
    rule runs alongside the product (see _level_coefficients for dc).
    """
    phase = taus[:, None] * (ev + _shift(cfg, ev))[None, :]  # tau xi_j, (T, d)
    dphase = None if jet is None else taus[:, None] * jet[0][None, :]
    coef = _level_coefficients(cfg, phase, dphase, mode)
    chunk = max(ROW_BUDGET >> cfg.n, 1)
    for start in range(0, len(taus), chunk):
        sl = slice(start, start + chunk)
        kernels, dkernels = _level_products(coef[:, :, sl])
        probs = np.clip(np.matmul(p, kernels), 0.0, None)
        if jet is None:
            yield sl, probs, None
            continue
        dprobs = np.matmul(jet[1], kernels)
        dprobs += np.matmul(p, dkernels)
        yield sl, probs, dprobs


def _level_coefficients(cfg: PhaseSimConfig, phase: np.ndarray, dphase, mode: str):
    """(n, kinds, T, d, 3) rows [1, Re c, Im c] of every level factor, c = a^(w m) e^{i w beta_0}.

    One row per level, tau and energy level.  With dphase (tau dxi) a
    second kind holds the derivative rows [0, Re dc, Im dc]: with
    dz/z = mean_j (-i tau dxi_j/m) e^{-i tau xi_j/m} / z, da/a = Re(dz/z) and
    dphi = Im(dz/z) (both 0 where a < 1e-14, as phi is), so
    dc = c (w m da/a + i w (tau dxi + m dphi)); in ideal mode dc = c i w tau dxi.
    """
    w = 2 ** np.arange(cfg.n)[:, None, None]
    if mode == IDEAL:
        c = np.exp(1j * w * phase)
        dc = None if dphase is None else c * (1j * w * dphase)
    else:
        spins = np.exp(-1j * phase / cfg.m)
        z = spins.mean(axis=1)
        a = np.abs(z)
        if np.any(a > 1.0 + 1e-12):
            raise ValueError(f"damping factor a = {a.max()} exceeds 1")
        live = a >= 1e-14
        phi = np.where(live, np.angle(z), 0.0)
        beta0 = phase + cfg.m * phi[:, None]
        c = a[:, None] ** (w * cfg.m) * np.exp(1j * w * beta0)  # (level, T, d)
        if dphase is not None:
            dz = (spins * dphase).mean(axis=1) * (-1j / cfg.m)
            dlog = np.divide(dz, z, out=np.zeros_like(z), where=live)  # da/a + i dphi
            dc = c * (w * (cfg.m * dlog.real[:, None]
                           + 1j * (dphase + cfg.m * dlog.imag[:, None])))
    kinds = [np.stack([np.ones(c.shape), c.real, c.imag], axis=-1)]
    if dphase is not None:
        kinds.append(np.stack([np.zeros(c.shape), dc.real, dc.imag], axis=-1))
    return np.stack(kinds, axis=1)


def _level_products(coef: np.ndarray):
    """(P / 2^n, dP / 2^n or None), each (T, d, 2^n), from _level_coefficients rows.

    P is the product of the level factors over the bins; scaling by the
    power of two 2^-n up front is exact.  A derivative kind runs the product
    rule (P, dP) <- (f P, df P + f dP) alongside.
    """
    n, kinds, T, d, _ = coef.shape
    tables, rows = _twiddles(n), T * d
    coef = coef.reshape(n, kinds * rows, 3)
    prod, dprod = np.full((rows, 1), 2.0**-n), np.zeros((rows, 1))
    for level in reversed(range(n)):
        factor = (coef[level] @ tables[level]).reshape(kinds * rows, 2, -1)
        if kinds == 2:  # the derivative rows follow the factor rows
            factor, dfactor = factor[:rows], factor[rows:]
            dfactor *= prod[:, None, :]
            dfactor += factor * dprod[:, None, :]
            dprod = dfactor.reshape(rows, -1)
        factor *= prod[:, None, :]
        prod = factor.reshape(rows, -1)
    shape = (T, d, 2**n)
    return prod.reshape(shape), dprod.reshape(shape) if kinds == 2 else None


def _distribution(cfg: PhaseSimConfig, model: HamiltonianModel, theta: float,
                  mode: str) -> OutcomeDistribution:
    ev, p = _node(model, theta, cfg.t, cfg.control(model.dim), cfg.rho0)
    tau = cfg.tau if cfg.tau is not None else _default_tau(ev)
    _require_injective(tau, ev)
    probs = _readout_probs(cfg, ev, p, np.array([tau]), mode)[0]
    return OutcomeDistribution(outcomes=tuple(range(2**cfg.n)), probs=probs)


def ideal_distribution(cfg: PhaseSimConfig, model: HamiltonianModel,
                       theta: float) -> OutcomeDistribution:
    """Read-out distribution over Q assuming exact controlled evolutions.

    Pr(Q) = sum_j p_j K_n(tau xi_j + 2 pi Q / 2^n) with K_n the squared
    Dirichlet kernel.
    """
    return _distribution(cfg, model, theta, IDEAL)


def realistic_distribution(cfg: PhaseSimConfig, model: HamiltonianModel,
                           theta: float) -> OutcomeDistribution:
    """Read-out distribution over Q with universal controllization.

    Pr(Q) = 2^-n sum_j p_j prod_l [1 + a^(2^(l-1) m) cos(2^(l-1) beta_jQ)],
    beta_jQ = tau xi_j + 2 pi Q / 2^n + m phi, with (a, phi) taken from the
    subdivision unitary exp(-i (tau/m) H_shifted) at the same parameter value:
    a e^{i phi} = mean_j e^{-i tau xi_j / m} over the node's eigenvalues.
    """
    return _distribution(cfg, model, theta, REALISTIC)


def _scorer(cfg: PhaseSimConfig, model: HamiltonianModel, theta: float,
            diff: Optional[DiffSpec], mode: str):
    """(energies at theta, taus -> (values, errors), method, step) of the chosen path.

    diff=None with the model's dh_of selects the analytic path: _level_jet
    gives the energies, the level weights and their exact derivatives from
    one decomposition of H(theta), and _readout_chunks carries them through
    the kernel, so a tau costs no further decomposition.  The shifted
    energies move as dxi_j = dE_j - dE_0 when the shift follows the ground
    energy, and as dxi_j = dE_j under a fixed shift.  The error estimate
    propagates the rounding bounds on dp and dxi: each level's kernel lies
    in [0, 1], and as a polynomial of degree 2^n - 1 in unit-disc phase
    variables it moves by at most (2^n - 1) tau max|delta xi| under an
    energy error delta xi (Bernstein's inequality), so every dPr(Q) is off
    by at most d dp_err + (2^n - 1) tau dxi_err.

    An explicit DiffSpec, or a model without dh_of (Richardson then), runs
    the finite-difference oracle: fisher_rows differentiates the read-out
    (level weights, shifted energies and, in realistic mode, the
    controllization factors) over the stencil, one decomposition per node.
    A tau scores -inf where its bins alias: at theta on the analytic path,
    at any stencil node on the oracle.
    """
    if mode not in (IDEAL, REALISTIC):
        raise ValueError(f"mode must be 'ideal' or 'realistic', got {mode!r}")
    V = cfg.control(model.dim)
    if diff is None and model.dh_of is not None:
        E, dE, dE_err, p, dp, dp_err = _level_jet(model, theta, cfg.t, V, cfg.rho0)
        if cfg.energy_shift is None:
            dxi, dxi_err = dE - dE[0], 2.0 * dE_err
        else:
            dxi, dxi_err = dE, dE_err
        method, step = numdiff.ANALYTIC, 0.0

        def unmasked(taus: np.ndarray):
            values, errs = np.empty(taus.shape), np.empty(taus.shape)
            for sl, probs, dprobs in _readout_chunks(cfg, E, p, taus, mode, (dxi, dp)):
                _require_normalized(probs)
                dprobs_err = E.shape[0] * dp_err + (2**cfg.n - 1) * taus[sl] * dxi_err
                values[sl], errs[sl] = _fisher_sum(probs, dprobs, dprobs_err[:, None])
            return values, errs, _aliases(taus, E)
    else:
        fd = DEFAULT_DIFF if diff is None else diff
        method, step = fd.method, fd.base_step(theta)
        numdiff.check_domain(theta, step, model.theta_domain)
        node = functools.cache(lambda x: _node(model, x, cfg.t, V, cfg.rho0))
        E = node(theta)[0]

        def unmasked(taus: np.ndarray):
            aliased = np.zeros(taus.shape, dtype=bool)

            def probs_at(x: float) -> np.ndarray:
                ev, p = node(x)
                np.logical_or(aliased, _aliases(taus, ev), out=aliased)
                return _readout_probs(cfg, ev, p, taus, mode)

            values, errs = fisher_rows(probs_at, theta, fd)
            return values, errs, aliased

    def score(taus: np.ndarray):
        values, errs, aliased = unmasked(taus)
        return np.where(aliased, -np.inf, values), errs

    return E, score, method, step


def fisher_phase_readout(
    cfg: PhaseSimConfig,
    model: HamiltonianModel,
    theta: float,
    diff: Optional[DiffSpec] = None,
    mode: str = IDEAL,
) -> FisherReport:
    """Fisher information of the phase-estimation read-out distribution.

    tau is frozen at the working point (cfg.tau, or default_tau there), while
    the energy shift follows the spectrum (unless fixed), so its parameter
    dependence is part of the statistical model.  By default a model with
    dh_of is differentiated exactly at theta alone (method "analytic", step
    0, one decomposition; AliasingRisk when tau aliases at theta).  An
    explicit DiffSpec, or a model without dh_of (Richardson then), runs the
    finite-difference stencil instead, the oracle, which raises AliasingRisk
    when tau aliases at any stencil node.
    """
    E, score, method, step = _scorer(cfg, model, theta, diff, mode)
    tau = cfg.tau if cfg.tau is not None else _default_tau(E)
    values, errs = score(np.array([tau]))
    if values[0] == -np.inf:
        raise AliasingRisk(f"tau = {tau} gives tau * spectral range >= 2 pi at theta or a "
                           "stencil node; bins are not injective")
    return FisherReport(value=float(values[0]), method=method, step=step,
                        error_estimate=float(errs[0]))


def tune_tau(
    cfg: PhaseSimConfig,
    model: HamiltonianModel,
    theta: float,
    mode: str = REALISTIC,
    diff: Optional[DiffSpec] = None,
) -> float:
    """Deterministic scan for the tau maximizing the read-out Fisher information.

    Controllization damping favours small tau while bin resolution favours
    large tau, so the optimum is model-dependent; a coarse geometric scan of
    TAU_COARSE candidates is refined once, by TAU_REFINE linear ones, around
    the best candidate.  Each scan is scored as one batch over tau, on
    fisher_phase_readout's path: the analytic one costs one decomposition
    for the whole call and never chooses a candidate that aliases at theta;
    the finite-difference oracle costs one per stencil node and never
    chooses one that aliases at any node.
    """
    E, score, _, _ = _scorer(cfg, model, theta, diff, mode)
    hi = 0.98 * 2.0 * math.pi / (float(np.ptp(E)) + 1e-6)
    taus = np.geomspace(hi / 300.0, hi, TAU_COARSE)
    values, _ = score(taus)
    best = int(np.argmax(values))
    fine = np.linspace(taus[max(best - 1, 0)], taus[min(best + 1, len(taus) - 1)], TAU_REFINE)
    fine_values, _ = score(fine)
    candidates = np.concatenate([taus, fine])
    return float(candidates[int(np.argmax(np.concatenate([values, fine_values])))])


# --- brute-force oracles -------------------------------------------------------------


def circuit_oracle(cfg: PhaseSimConfig, model: HamiltonianModel,
                   theta: float) -> OutcomeDistribution:
    """State-vector simulation of the ideal protocol.

    Hadamards on n control qubits, controlled powers U_tau^(2^(l-1)) coupling
    qubit l, inverse Fourier transform, and a computational-basis read-out.
    Limited to n <= 6 and system dimension <= 4.  One decomposition of
    H(theta) gives U_tau and U_t.
    """
    d = model.dim
    if cfg.n > 6 or d > 4:
        raise OracleTooLarge(f"oracle limited to n <= 6 and d <= 4, got n={cfg.n}, d={d}")
    ev, W = eigh_nondegenerate(model.h_of(theta))
    tau = cfg.tau if cfg.tau is not None else _default_tau(ev)
    _require_injective(tau, ev)
    u_tau = spectral_unitary(ev, W, tau) * np.exp(-1j * tau * _shift(cfg, ev))
    u_t = spectral_unitary(ev, W, cfg.t)
    v = cfg.control(d)
    n_states = 2**cfg.n

    # Mixed preparations enter as ensembles over eigenvectors.
    evals, evecs = np.linalg.eigh(cfg.rho0)
    probs = np.zeros(n_states)
    for weight, k in zip(evals, range(d)):
        if weight < 1e-14:
            continue
        psi = v @ (u_t @ evecs[:, k])
        amp = np.tile(psi / math.sqrt(n_states), (n_states, 1))
        for level in range(1, cfg.n + 1):
            u_pow = np.linalg.matrix_power(u_tau, 2 ** (level - 1))
            sel = (np.arange(n_states) >> (level - 1)) & 1 == 1
            amp[sel] = amp[sel] @ u_pow.T
        amp = np.fft.fft(amp, axis=0) / math.sqrt(n_states)
        probs += weight * (np.abs(amp) ** 2).sum(axis=1)
    return OutcomeDistribution(outcomes=tuple(range(n_states)), probs=probs)


def _controlled_swap(d: int) -> np.ndarray:
    """Control qubit |0> swaps system and ancilla; |1> leaves them alone."""
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    out = np.zeros((2 * d * d, 2 * d * d))
    out[: d * d, : d * d] = swap
    out[d * d:, d * d:] = np.eye(d * d)
    return out


def controllization_oracle(U, x1: int, y1: int, rho_sys, m: int) -> np.ndarray:
    """Explicit m-step controllization of the control-system block |x1><y1| (x) rho.

    Each step sandwiches the uncontrolled U between controlled-SWAPs against
    a maximally mixed ancilla, traces the ancilla out, and resets it.  The
    result equals a^(|x1-y1| m) e^{i (y1-x1) m phi} C_{U^m}[|x1><y1| (x) rho],
    which is verified to 1e-10 before the block is returned.
    """
    u = require_unitary(U)
    d = u.shape[0]
    if d > 6:
        raise OracleTooLarge(f"controllization oracle limited to d <= 6, got {d}")
    if x1 not in (0, 1) or y1 not in (0, 1):
        raise ValueError("control indices must be 0 or 1")
    rho = np.asarray(rho_sys, dtype=complex)
    cswap = _controlled_swap(d)
    w = cswap @ tensor(np.eye(2), tensor(u, np.eye(d))) @ cswap

    ket = np.zeros(2)
    ket[x1] = 1.0
    bra = np.zeros(2)
    bra[y1] = 1.0
    branch = np.outer(ket, bra)
    block = tensor(branch, rho)
    for _ in range(m):
        full = w @ tensor(block, np.eye(d) / d) @ w.conj().T
        block = partial_trace(full, (2 * d, d), keep="first")

    factors = controllization_factors(u, m)
    u_m = np.linalg.matrix_power(u, m)
    left = u_m if x1 == 1 else np.eye(d)
    right = u_m.conj().T if y1 == 1 else np.eye(d)
    expected = (factors.a ** (abs(x1 - y1) * m)
                * np.exp(1j * (y1 - x1) * m * factors.phi)
                * tensor(branch, left @ rho @ right))
    if np.max(np.abs(block - expected)) > 1e-10:
        raise ArithmeticError("controllization closed form violated beyond 1e-10")
    return block
