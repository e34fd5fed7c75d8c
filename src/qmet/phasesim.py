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
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numdiff
from .cem import _node, _point, _read_only, _require_dim, _spectrum
from .errors import AliasingRisk, OracleTooLarge
from .fisher import (
    FisherReport,
    OutcomeDistribution,
    _fisher_sum,
    _fisher_values,
    _require_normalized,
    fisher_rows,
)
from .linalg import (
    partial_trace,
    require_density,
    require_unitary,
    spectral_unitary,
    tensor,
)
from .models import HamiltonianModel
from .numdiff import DiffSpec

IDEAL = "ideal"
REALISTIC = "realistic"
# Bytes of a read-out chunk's largest scratch array, the (kinds, taus, d, 2^n) float64
# level factors of _level_products' last level; kinds is 2 on the analytic path (values
# and derivatives).  1 MiB holds 32 taus at n = 10 and d = 2, 21 at d = 3, 5 at n = 12.
# The factors live in a per-thread _workspace beside those of the level above and f dP:
# about 2 x SCRATCH_BYTES, or what one tau needs where one tau exceeds the bound (2.25 MiB
# at n = 12 and d = 18).  It grows to the largest chunk its thread has run and is never
# freed.  Measured in process with the workspace, perfbench's readout mix on a 2-CPU
# host, three alternating runs: 512 KiB took 1106-1280 us per point, 1 MiB 997-1158 us.
SCRATCH_BYTES = 1024 * 1024
# tune_tau: geometric candidates over (hi/300, hi], then a linear refinement.
TAU_COARSE = 32
TAU_REFINE = 16
_scratch = threading.local()  # _workspace's buffer, one per thread


@dataclass(frozen=True)
class PhaseSimConfig:
    """Read-out configuration.

    n control qubits, m controllization subdivisions, base time tau (None selects
    0.9 * 2 pi / (spectral range + 1e-6) at the working point), energy_shift added
    to all eigenvalues (None shifts the node's own spectrum to start at zero),
    control V (None = identity), preparation rho0, and encoding time t.  factor,
    derived and never passed, is require_density's F with F F^dag = rho0; rho0, V and factor
    are read-only copies, which no later change to the caller's arrays reaches.  A tau that
    is not positive and finite, or a non-finite t or energy_shift, raises ValueError.
    """

    n: int
    m: int
    rho0: np.ndarray
    t: float
    tau: Optional[float] = None
    energy_shift: Optional[float] = None
    V: Optional[np.ndarray] = None
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_bounds(self.n, self.m, self.tau)
        for name, value in (("t", self.t), ("energy_shift", self.energy_shift)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        rho0, factor = require_density(self.rho0)
        owned = {"rho0": rho0.copy(), "factor": factor}
        if self.V is not None:
            owned["V"] = require_unitary(self.V).copy()
        for name, value in zip(owned, _read_only(*owned.values())):
            object.__setattr__(self, name, value)

    def control(self, dim: int) -> np.ndarray:
        """V (identity if None) for a model of dimension dim; DimensionMismatch unless V and
        rho0 have that dimension."""
        V = np.eye(dim, dtype=complex) if self.V is None else self.V
        _require_dim(dim, V=V, rho0=self.rho0)
        return V

    def with_tau(self, tau: float) -> "PhaseSimConfig":
        """This configuration at base time tau; only tau is checked again."""
        _check_bounds(self.n, self.m, tau)
        new = copy.copy(self)  # skips __post_init__: the rest is already validated
        object.__setattr__(new, "tau", tau)
        return new


def _check_bounds(n: int, m: int = 1, tau: Optional[float] = None) -> None:
    """ValueError unless 1 <= n <= 12, m >= 1 and tau is None or positive and finite."""
    if not (1 <= n <= 12):
        raise ValueError(f"control-qubit count n must be in [1, 12], got {n}")
    if m < 1:
        raise ValueError(f"subdivision count m must be >= 1, got {m}")
    if tau is not None and not (0 < tau < math.inf):
        raise ValueError(f"tau must be {'finite' if tau > 0 else 'positive'}, got {tau}")


@dataclass(frozen=True)
class ControllizationFactors:
    """Damping a, phase offset phi, and accumulated error of universal controllization."""

    a: float
    phi: float
    eps_m: complex

    def __post_init__(self):
        _require_damping(self.a)


def _require_damping(a) -> None:
    """ValueError unless every damping factor in a is at most 1 + 1e-12 (a NaN fails)."""
    top = np.max(a)  # NaN if any is
    if not (top <= 1.0 + 1e-12):
        raise ValueError("damping factor a is NaN" if math.isnan(top) else
                         f"damping factor a = {top} exceeds 1")


def controllization_factors(U, m: int) -> ControllizationFactors:
    """a e^{i phi} = tr(U)/d and eps_m = (tr(U)/d)^m - 1 for one subdivision unitary."""
    u = require_unitary(U)
    z = np.trace(u) / u.shape[0]
    a = abs(z)
    phi = float(np.angle(z)) if a >= 1e-14 else 0.0
    return ControllizationFactors(a=float(a), phi=phi, eps_m=z**m - 1.0)


def _default_tau(ev: np.ndarray) -> float:
    return 0.9 * 2.0 * math.pi / (float(ev[-1] - ev[0]) + 1e-6)


def default_tau(model: HamiltonianModel, theta: float) -> float:
    """0.9 * 2 pi / (spectral range + 1e-6) at the working point (DomainBoundary outside)."""
    return _default_tau(_spectrum(model, theta)[0])


def aligned_tau(model: HamiltonianModel, theta: float, n: int) -> float:
    """Largest tau placing the full spectral range on the 2^n-bin phase grid.

    tau * range = 2 pi (2^n - 1)/2^n, so every eigenvalue of a two-level
    spectrum sits exactly on a read-out bin while anti-aliasing still holds.
    n is checked as PhaseSimConfig checks it (ValueError unless 1 <= n <= 12).
    """
    _check_bounds(n)
    ev, _ = _spectrum(model, theta)
    rng = float(ev[-1] - ev[0])
    if rng <= 0:
        raise AliasingRisk("spectrum has zero range; no informative read-out grid")
    return 2.0 * math.pi * (2**n - 1) / (2**n * rng)


def _aliases(tau, ev: np.ndarray):
    """tau * spectral range >= 2 pi: the bins no longer tell the levels apart."""
    return tau * float(ev[-1] - ev[0]) >= 2.0 * math.pi


def _frozen_tau(cfg: PhaseSimConfig, ev: np.ndarray) -> float:
    """cfg.tau, or default_tau of the energies ev; AliasingRisk where its bins alias."""
    tau = cfg.tau if cfg.tau is not None else _default_tau(ev)
    if _aliases(tau, ev):
        raise AliasingRisk(f"tau * spectral range = {tau * float(ev[-1] - ev[0]):.6f} "
                           ">= 2 pi; bins are not injective")
    return tau


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
    removable singularity.  With beta = beta_0 + 2 pi Q/2^n the level-l factor is
    1 + a^(w m) [cos(w beta_0) cos(2 pi w Q/2^n) - sin(w beta_0) sin(2 pi w Q/2^n)]:
    one small matrix product per level over its period 2^n/w, so no bin takes a sine,
    and the product runs from the top level down, doubling its period each level.
    """
    return np.concatenate([chunk[1] for chunk in _readout_chunks(cfg, ev, p, taus, mode)])


def _readout_chunks(cfg: PhaseSimConfig, ev: np.ndarray, p: np.ndarray, taus: np.ndarray,
                    mode: str, jet=None):
    """_readout_probs chunk by chunk: yields (slice of taus, probs, dprobs, kernels).

    The level coefficients of all taus are built once.  A chunk holds as many taus (at
    least one) as keep the last level's factors, the largest scratch array, within
    SCRATCH_BYTES, and runs the whole level product for them from the top.  Each
    tau's operations are the same however the taus are chunked, so are its values,
    bit for bit.  kernels are the (T, d, 2^n) level kernels P_j / 2^n, so
    p_err @ kernels bounds Pr for weight errors p_err.  jet = (dxi, dp), the
    derivatives of the shifted energies and level weights, also yields the exact
    dPr = 2^-n sum_j (dp_j P_j + p_j dP_j), with the product rule alongside the
    product (see _level_coefficients for dc); dprobs is None without it.  probs and
    dprobs are the chunk's own arrays, but kernels is a view of the thread's
    _workspace: it is valid only until the generator advances.
    """
    phase = taus[:, None] * (ev + _shift(cfg, ev))[None, :]  # tau xi_j, (T, d)
    dphase = None if jet is None else taus[:, None] * jet[0][None, :]
    coef = _level_coefficients(cfg, phase, dphase, mode)
    n, kinds, T, d, _ = coef.shape
    chunk = max(SCRATCH_BYTES // (kinds * d * coef.itemsize * 2**n), 1)
    for start in range(0, T, chunk):
        sl = slice(start, start + chunk)
        kernels, dkernels = _level_products(coef[:, :, sl])
        probs = np.matmul(p, kernels)
        np.maximum(probs, 0.0, out=probs)  # clipped at 0 in place
        if jet is None:
            yield sl, probs, None, kernels
            continue
        dprobs = np.matmul(jet[1], kernels)
        spare = _scratch.buf[-probs.size:].reshape(probs.shape)  # past the kernels: free
        dprobs += np.matmul(p, dkernels, out=spare)
        yield sl, probs, dprobs, kernels


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
    elif mode == REALISTIC:
        spins = np.exp(-1j * phase / cfg.m)
        z = spins.mean(axis=1)
        a = np.abs(z)
        _require_damping(a)
        live = a >= 1e-14
        phi = np.where(live, np.angle(z), 0.0)
        beta0 = phase + cfg.m * phi[:, None]
        c = a[:, None] ** (w * cfg.m) * np.exp(1j * w * beta0)  # (level, T, d)
        if dphase is not None:
            dz = (spins * dphase).mean(axis=1) * (-1j / cfg.m)
            dlog = np.divide(dz, z, out=np.zeros_like(z), where=live)  # da/a + i dphi
            dc = c * (w * (cfg.m * dlog.real[:, None]
                           + 1j * (dphase + cfg.m * dlog.imag[:, None])))
    else:
        raise ValueError(f"mode must be 'ideal' or 'realistic', got {mode!r}")
    coef = np.empty((cfg.n, 1 if dphase is None else 2, *phase.shape, 3))
    coef[:, 0, ..., 0] = 1.0
    coef[:, 0, ..., 1] = c.real
    coef[:, 0, ..., 2] = c.imag
    if dphase is not None:
        coef[:, 1, ..., 0] = 0.0
        coef[:, 1, ..., 1] = dc.real
        coef[:, 1, ..., 2] = dc.imag
    return coef


def _workspace(size: int) -> np.ndarray:
    """This thread's flat float64 scratch of at least size entries.  It grows to the largest
    chunk the thread has run and is never freed, so its pages stay mapped from one chunk to
    the next instead of being returned to the OS and faulted in again."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        buf = _scratch.buf = np.empty(size)
    return buf


def _level_products(coef: np.ndarray):
    """(P / 2^n, dP / 2^n or None), each (T, d, 2^n), from _level_coefficients rows.

    P is the product of the factors of levels n - 1 down to 0 over their bins;
    scaling by the power of two 2^-n up front is exact.  A derivative kind runs the
    product rule (P, dP) <- (f P, df P + f dP) alongside.  Every level writes in place
    into the thread's _workspace: the factors of even levels into one region, those of
    odd levels into a second of half its size (so a level reads the one above it while
    writing its own), and f dP into a third at its end.  The last level's factors,
    (kinds, T, d, 2^n) float64, fill the first region, and _readout_chunks bounds them by
    SCRATCH_BYTES.  The results are views of the first region, valid until the thread's
    next call; the rest of the workspace is free until then.
    """
    n, kinds, T, d, _ = coef.shape
    tables, rows = _twiddles(n), T * d
    coef = coef.reshape(n, kinds * rows, 3)
    full = kinds * rows << n
    work = _workspace(full + full // 2 + (rows << n if kinds == 2 else 0))
    regions, term = (work[:full], work[full:full + full // 2]), work[full + full // 2:]
    prod, dprod = np.full((rows, 1, 1), 2.0**-n), np.zeros((rows, 1, 1))
    for level in reversed(range(n)):
        half = 1 << (n - 1 - level)  # the period of the level above
        factor = regions[level & 1][:full >> level].reshape(kinds * rows, 2 * half)
        np.matmul(coef[level], tables[level], out=factor)
        factor = factor.reshape(kinds * rows, 2, half)
        if kinds == 2:  # the derivative rows follow the factor rows
            factor, dfactor = factor[:rows], factor[rows:]
            dfactor *= prod
            fdprod = term[:rows * 2 * half].reshape(rows, 2, half)
            np.multiply(factor, dprod, out=fdprod)
            dfactor += fdprod
            dprod = dfactor.reshape(rows, 1, 2 * half)
        factor *= prod
        prod = factor.reshape(rows, 1, 2 * half)
    shape = (T, d, 2**n)
    return prod.reshape(shape), dprod.reshape(shape) if kinds == 2 else None


def _distribution(cfg: PhaseSimConfig, model: HamiltonianModel, theta: float,
                  mode: str) -> OutcomeDistribution:
    ev, p = _node(model, theta, cfg.t, cfg.control(model.dim), cfg.factor)
    probs = _readout_probs(cfg, ev, p, np.array([_frozen_tau(cfg, ev)]), mode)[0]
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
            diff: Optional[DiffSpec]):
    """(energies at theta, (taus, mode, errors=True) -> (values, errors), method, step).

    diff=None selects the analytic path, which needs dh_of: _level_jet gives the
    energies, the level weights and their exact derivatives from the _Jet at
    (theta, cfg.t), read from cem's kept _point: its decomposition of H(theta) is
    shared with every analytic call at (model, theta), its U_t and g_dyn with
    g_bound's and every other call at cfg.t there, and its level jet (levels) with
    every analytic read-out at the same cfg.t, V and rho0; _readout_chunks
    carries them through the kernel, so a scan of taus in either mode costs a few
    kernel passes and no decomposition once the point has one.  The shifted energies
    move as dxi_j = dE_j - dE_0 when the shift follows the ground energy, and as
    dxi_j = dE_j under a fixed shift; dxi and its bound are kept beside the level jet,
    one pair per shift rule.  The error estimate propagates the rounding
    bounds on p, dp and dxi: each level's kernel lies in [0, 1], and as a
    polynomial of degree 2^n - 1 in unit-disc phase variables its theta-derivative
    is at most (2^n - 1) tau |dxi_j| and its move under an energy error delta xi at
    most (2^n - 1) tau |delta xi| (Bernstein's inequality), so every dPr(Q) is off
    by at most d dp_err + (2^n - 1) tau (dxi_err + sum_j p_err_j |dxi_j|).  A scan with
    errors=False reads values only: a chunk whose bins all exceed SUPPORT_THRESHOLD
    skips the bounds, which only _fisher_sum's support rule would read, and errors
    comes back None.

    An explicit DiffSpec runs the finite-difference oracle, which reads neither dh_of nor
    the jet: fisher_rows differentiates the read-out (weights, shifted energies and, in realistic
    mode, the controllization factors) over the stencil, one decomposition per node for all
    scans and modes, and always returns its errors.  A tau scores -inf where it aliases: at
    theta, or at any oracle node.
    """
    V = cfg.control(model.dim)
    if diff is None:
        levels, kept = _point(model, theta).levels(cfg.t, V, cfg.factor)
        E, dE, dE_err, p, dp, dp_err, p_err = levels
        follows = cfg.energy_shift is None  # the shift follows the ground energy
        if follows not in kept:
            dxi, dxi_err = (dE - dE[0], 2.0 * dE_err) if follows else (dE, dE_err)
            with np.errstate(over="ignore"):  # a bound beyond the float range is inf
                kept[follows] = _read_only(dxi, dxi_err + p_err @ np.abs(dxi))
        dxi, dxi_bound = kept[follows]
        method, step = numdiff.ANALYTIC, 0.0

        def score(taus: np.ndarray, mode: str, errors: bool = True):
            values, errs = np.empty(taus.shape), np.empty(taus.shape)
            for sl, probs, dprobs, kernels in _readout_chunks(cfg, E, p, taus, mode, (dxi, dp)):
                _require_normalized(probs)
                chunk = None if errors else _fisher_values(probs, dprobs)
                if chunk is None:
                    with np.errstate(over="ignore"):
                        dprobs_err = E.shape[0] * dp_err + (2**cfg.n - 1) * taus[sl] * dxi_bound
                    chunk, errs[sl] = _fisher_sum(probs, dprobs, dprobs_err[:, None],
                                                  p_err @ kernels)
                values[sl] = chunk
            return np.where(_aliases(taus, E), -np.inf, values), errs if errors else None
    else:
        method, step = diff.method, diff.base_step(theta)
        numdiff.check_domain(theta, step, model.theta_domain)
        node = functools.cache(lambda x: _node(model, x, cfg.t, V, cfg.factor))
        E = node(theta)[0]

        def score(taus: np.ndarray, mode: str, errors: bool = True):
            aliased = np.zeros(taus.shape, dtype=bool)

            def probs_at(x: float) -> np.ndarray:
                ev, p = node(x)
                np.logical_or(aliased, _aliases(taus, ev), out=aliased)
                return _readout_probs(cfg, ev, p, taus, mode)

            values, errs = fisher_rows(probs_at, theta, diff)
            return np.where(aliased, -np.inf, values), errs

    return E, score, method, step


def _readouts(cfg: PhaseSimConfig, model: HamiltonianModel, theta: float,
              diff: Optional[DiffSpec], modes) -> tuple[float, list[FisherReport]]:
    """(tau, a FisherReport per mode): _frozen_tau's tau, each mode scored at it by one
    _scorer; AliasingRisk where tau aliases at theta or a stencil node."""
    E, score, method, step = _scorer(cfg, model, theta, diff)
    tau = _frozen_tau(cfg, E)
    scores = [score(np.array([tau]), mode) for mode in modes]
    if any(values[0] == -np.inf for values, _ in scores):
        raise AliasingRisk(f"tau = {tau} gives tau * spectral range >= 2 pi at a stencil "
                           "node; bins are not injective")
    return tau, [FisherReport(value=float(values[0]), method=method, step=step,
                              error_estimate=float(errs[0])) for values, errs in scores]


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
    dependence is part of the statistical model.  By default the model's
    dh_of differentiates it exactly at theta alone (method "analytic", step
    0, from cem's kept point: one decomposition for every analytic call at one
    (model, theta), one U_t for those at one t too, and one level jet for those at
    one (t, V, rho0), as after tune_tau on cfg; AliasingRisk when tau aliases at
    theta).  An
    explicit DiffSpec runs the finite-difference stencil instead, the
    oracle, which raises AliasingRisk when tau aliases at any stencil node.
    """
    return _readouts(cfg, model, theta, diff, (mode,))[1][0]


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
    fisher_phase_readout's path, and reads values only: the analytic one costs
    one decomposition for the whole call, none after g_bound or another analytic
    call at (model, theta), whose point cem keeps, and builds one level jet, which
    the read-outs at its (t, V, rho0) then share; it never chooses a candidate that
    aliases at theta; the finite-difference oracle costs one per stencil node
    and never chooses one that aliases at any node.  The fine scan's two ends
    are coarse candidates; an analytic value does not depend on its batch, so
    that path scores only the TAU_REFINE - 2 interior taus, while the oracle,
    whose batch shares one derivative error bound, scores all of them.  Ties go
    to the earlier candidate.
    """
    E, score, _, _ = _scorer(cfg, model, theta, diff)
    hi = 0.98 * 2.0 * math.pi / (float(np.ptp(E)) + 1e-6)
    taus = np.geomspace(hi / 300.0, hi, TAU_COARSE)
    values, _ = score(taus, mode, errors=False)
    best = int(np.argmax(values))
    fine = np.linspace(taus[max(best - 1, 0)], taus[min(best + 1, len(taus) - 1)], TAU_REFINE)
    if diff is None:
        fine = fine[1:-1]
    fine_values, _ = score(fine, mode, errors=False)
    candidates = np.concatenate([taus, fine])
    return float(candidates[int(np.argmax(np.concatenate([values, fine_values])))])


# --- brute-force oracles -------------------------------------------------------------


def circuit_oracle(cfg: PhaseSimConfig, model: HamiltonianModel,
                   theta: float) -> OutcomeDistribution:
    """State-vector simulation of the ideal protocol.

    Hadamards on n control qubits, controlled powers U_tau^(2^(l-1)) coupling
    qubit l, inverse Fourier transform, and a computational-basis read-out.
    Limited to n <= 6 and system dimension <= 4.  One decomposition of
    H(theta) gives U_tau and U_t; theta must lie inside the open domain.  rho0
    enters through cfg's validated factor F (F F^dag = rho0), not decomposed again.
    """
    d = model.dim
    if cfg.n > 6 or d > 4:
        raise OracleTooLarge(f"oracle limited to n <= 6 and d <= 4, got n={cfg.n}, d={d}")
    v = cfg.control(d)
    ev, W = _spectrum(model, theta)
    tau = _frozen_tau(cfg, ev)
    u_tau = spectral_unitary(ev, W, tau) * np.exp(-1j * tau * _shift(cfg, ev))
    u_t = spectral_unitary(ev, W, cfg.t)
    n_states = 2**cfg.n

    # A mixed rho0 enters as the ensemble of its factor's columns f, of weight |f|^2.
    probs = np.zeros(n_states)
    for f in cfg.factor.T:
        psi = v @ (u_t @ f)
        amp = np.tile(psi / math.sqrt(n_states), (n_states, 1))
        for level in range(1, cfg.n + 1):
            u_pow = np.linalg.matrix_power(u_tau, 2 ** (level - 1))
            sel = (np.arange(n_states) >> (level - 1)) & 1 == 1
            amp[sel] = amp[sel] @ u_pow.T
        amp = np.fft.fft(amp, axis=0) / math.sqrt(n_states)
        probs += (np.abs(amp) ** 2).sum(axis=1)
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
    if not (np.max(np.abs(block - expected)) <= 1e-10):
        raise ArithmeticError("controllization closed form violated beyond 1e-10")
    return block
