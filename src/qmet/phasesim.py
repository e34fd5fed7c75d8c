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
from .cem import _node
from .errors import AliasingRisk, OracleTooLarge
from .fisher import FisherReport, OutcomeDistribution, fisher_rows
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
# Tau rows times read-out bins per kernel chunk; bounds the (rows, d, 2^n) scratch arrays.
ROW_BUDGET = 2**12
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


def _kernel(alpha: np.ndarray, n: int) -> np.ndarray:
    """Squared Dirichlet kernel (sin(2^n a/2) / (2^n sin(a/2)))^2 with its removable limit."""
    N = 2**n
    half = alpha / 2.0
    s = np.sin(half)
    singular = np.abs(s) < 1e-9
    safe = np.where(singular, 1.0, s)
    return np.where(singular, 1.0, (np.sin(N * half) / (N * safe)) ** 2)


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

    Ideal mode sums p_j times each energy level's squared Dirichlet kernel.
    Realistic mode takes the controllization factors from the node's own
    spectrum: a e^{i phi} = tr(exp(-i (tau/m) H_shifted))/d = mean_j e^{-i tau xi_j/m}.
    The level-l factor 1 + a^(w m) cos(w beta), w = 2^(l-1), has period 2^n/w
    in Q; with beta = beta_0 + 2 pi Q/2^n it is the angle addition
    1 + a^(w m) [cos(w beta_0) cos(2 pi w Q/2^n) - sin(w beta_0) sin(2 pi w Q/2^n)],
    one small matrix product per level over one period.  The product over
    levels is built from the top level down, doubling its period each level.
    """
    N = 2**cfg.n
    phase = taus[:, None] * (ev + _shift(cfg, ev))[None, :]  # tau xi_j, (T, d)
    if mode == IDEAL:
        alpha = phase[..., None] + 2.0 * math.pi * np.arange(N) / N
        return np.matmul(p, _kernel(alpha, cfg.n))
    z = np.exp(-1j * phase / cfg.m).mean(axis=1)
    a = np.abs(z)
    if np.any(a > 1.0 + 1e-12):
        raise ValueError(f"damping factor a = {a.max()} exceeds 1")
    phi = np.where(a >= 1e-14, np.angle(z), 0.0)
    beta0 = phase + cfg.m * phi[:, None]
    w = 2 ** np.arange(cfg.n)[:, None, None]
    c = a[:, None] ** (w * cfg.m) * np.exp(1j * w * beta0)  # a^(wm) e^{i w beta_0}, (level, T, d)
    coef = np.stack([np.ones(c.shape), c.real, c.imag], axis=-1).reshape(cfg.n, -1, 3)
    tables, rows = _twiddles(cfg.n), beta0.size
    prod = np.ones((rows, 1))
    for level in reversed(range(cfg.n)):
        factor = (coef[level] @ tables[level]).reshape(rows, 2, -1)
        factor *= prod[:, None, :]
        prod = factor.reshape(rows, -1)
    probs = np.matmul(p, prod.reshape(beta0.shape + (N,)))
    probs /= N
    return np.clip(probs, 0.0, None, out=probs)


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


def _node_cache(cfg: PhaseSimConfig, model: HamiltonianModel):
    """x -> (energies, level weights) with one decomposition per distinct node."""
    V = cfg.control(model.dim)
    return functools.lru_cache(maxsize=None)(lambda x: _node(model, x, cfg.t, V, cfg.rho0))


def _readout_fisher(cfg: PhaseSimConfig, model: HamiltonianModel, theta: float,
                    taus: np.ndarray, diff: DiffSpec, mode: str, node):
    """Read-out Fisher information and its error estimate at every tau in taus.

    The parameter enters the level weights, the (shifted) eigenvalues inside
    the kernel, and, in realistic mode, the controllization damping and phase.
    A tau whose bins alias at any stencil node scores -inf.  The taus are
    scored in chunks of at most ROW_BUDGET / 2^n rows; node(x) supplies each
    node's decomposition.
    """
    if mode not in (IDEAL, REALISTIC):
        raise ValueError(f"mode must be 'ideal' or 'realistic', got {mode!r}")
    numdiff.check_domain(theta, diff.base_step(theta), model.theta_domain)
    chunk = max(ROW_BUDGET >> cfg.n, 1)
    values, errs = [], []
    for start in range(0, len(taus), chunk):
        rows = taus[start:start + chunk]
        aliased = np.zeros(rows.shape, dtype=bool)

        def probs_at(x: float) -> np.ndarray:
            ev, p = node(x)
            np.logical_or(aliased, _aliases(rows, ev), out=aliased)
            return _readout_probs(cfg, ev, p, rows, mode)

        v, e = fisher_rows(probs_at, theta, probs_at(theta), diff)
        values.append(np.where(aliased, -np.inf, v))
        errs.append(e)
    return np.concatenate(values), np.concatenate(errs)


def fisher_phase_readout(
    cfg: PhaseSimConfig,
    model: HamiltonianModel,
    theta: float,
    diff: DiffSpec = DEFAULT_DIFF,
    mode: str = IDEAL,
) -> FisherReport:
    """Fisher information of the phase-estimation read-out distribution.

    tau is frozen at the working point (cfg.tau, or default_tau there), while
    the energy shift is re-derived from each node's own spectrum, so its
    parameter dependence is part of the statistical model.
    """
    node = _node_cache(cfg, model)
    tau = cfg.tau if cfg.tau is not None else _default_tau(node(theta)[0])
    values, errs = _readout_fisher(cfg, model, theta, np.array([tau]), diff, mode, node)
    if values[0] == -np.inf:
        raise AliasingRisk(f"tau = {tau} gives tau * spectral range >= 2 pi at a stencil "
                           "node; bins are not injective")
    return FisherReport(value=float(values[0]), method=diff.method,
                        step=diff.base_step(theta), error_estimate=float(errs[0]))


def tune_tau(
    cfg: PhaseSimConfig,
    model: HamiltonianModel,
    theta: float,
    mode: str = REALISTIC,
    diff: DiffSpec = DEFAULT_DIFF,
) -> float:
    """Deterministic scan for the tau maximizing the read-out Fisher information.

    Controllization damping favours small tau while bin resolution favours
    large tau, so the optimum is model-dependent; a coarse geometric scan of
    TAU_COARSE candidates is refined once, by TAU_REFINE linear ones, around
    the best candidate.  A candidate whose bins alias at any stencil node is
    never chosen.  Each scan is scored as one batch over tau, with one
    decomposition per stencil node for the whole call.
    """
    node = _node_cache(cfg, model)
    hi = 0.98 * 2.0 * math.pi / (float(np.ptp(node(theta)[0])) + 1e-6)
    taus = np.geomspace(hi / 300.0, hi, TAU_COARSE)
    values, _ = _readout_fisher(cfg, model, theta, taus, diff, mode, node)
    best = int(np.argmax(values))
    fine = np.linspace(taus[max(best - 1, 0)], taus[min(best + 1, len(taus) - 1)], TAU_REFINE)
    fine_values, _ = _readout_fisher(cfg, model, theta, fine, diff, mode, node)
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
