"""Fisher information of parametrized outcome distributions and quantum states.

Covers the classical Fisher information of a discrete probability model, the
symmetric logarithmic derivative and the SLD quantum Fisher information, the
pure-state (Fubini-Study) formula, the family of monotone metrics indexed by
an operator-monotone function, and the Fisher information induced by a fixed
POVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .errors import (
    DimensionMismatch,
    NonNormalized,
    NotTraceless,
    RankChange,
    RankDeficient,
    UnknownMetricTag,
)
from .linalg import require_hermitian, require_state
from .numdiff import DEFAULT_DIFF, DiffSpec

SUPPORT_THRESHOLD = 1e-12
RANK_THRESHOLD = 1e-10


def _require_normalized(p: np.ndarray) -> None:
    """Raise NonNormalized unless every distribution along the last axis sums to 1."""
    total = p.sum(axis=-1)
    bad = np.abs(total - 1.0) > 1e-10
    if np.any(bad):
        raise NonNormalized(f"probabilities sum to {total[bad].flat[0]!r}")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Finite probability distribution over labeled measurement outcomes."""

    outcomes: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if len(self.outcomes) != p.shape[0]:
            raise DimensionMismatch("outcome labels and probabilities disagree in length")
        _require_normalized(p)

    @property
    def support(self) -> np.ndarray:
        """Indices of outcomes with probability above SUPPORT_THRESHOLD."""
        return np.flatnonzero(self.probs > SUPPORT_THRESHOLD)

    def total_variation(self, other: "OutcomeDistribution") -> float:
        if self.probs.shape != other.probs.shape:
            raise DimensionMismatch("distributions have different outcome counts")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


@dataclass(frozen=True)
class ProbabilityModel:
    """theta -> OutcomeDistribution with a fixed, parameter-independent sample space.

    jet, when given, maps theta to (p, dp, dp_err): the probabilities, their
    exact theta-derivative and a first-order rounding bound on each dp entry,
    all from one evaluation at theta.  classical_fisher uses it by default.
    """

    at: Callable[[float], OutcomeDistribution]
    theta_domain: tuple[float, float] = (-np.inf, np.inf)
    jet: Optional[Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]] = None


@dataclass(frozen=True)
class POVM:
    """A positive-operator valued measure: PSD elements summing to the identity."""

    elements: tuple

    def __post_init__(self):
        mats = tuple(require_hermitian(E) for E in self.elements)
        object.__setattr__(self, "elements", mats)
        d = mats[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for E in mats:
            if E.shape[0] != d:
                raise DimensionMismatch("POVM elements have mixed dimensions")
            if np.linalg.eigvalsh(E).min() < -1e-10:
                raise DimensionMismatch("POVM element is not positive semi-definite")
            total += E
        if np.max(np.abs(total - np.eye(d))) > 1e-9:
            raise DimensionMismatch("POVM elements do not sum to the identity")


@dataclass(frozen=True)
class FisherReport:
    """A Fisher-information value, how it was differentiated, and its error estimate."""

    value: float
    method: str
    step: float
    error_estimate: float

    def __post_init__(self):
        if self.value < 0:
            raise ArithmeticError(f"negative Fisher information {self.value!r}")


def _fisher_sum(p: np.ndarray, dp, dp_err) -> tuple[np.ndarray, np.ndarray]:
    """sum_{p_x > SUPPORT_THRESHOLD} dp_x^2 / p_x over the last axis, with its error bound.

    A derivative error dp_err moves each term by at most (2 |dp_x| + dp_err) dp_err / p_x.
    """
    support = p > SUPPORT_THRESHOLD
    safe = np.where(support, p, 1.0)
    values = np.where(support, dp**2 / safe, 0.0).sum(axis=-1)
    errs = np.where(support, (2.0 * np.abs(dp) + dp_err) * dp_err / safe, 0.0).sum(axis=-1)
    return np.maximum(values, 0.0), errs


def fisher_rows(p_of, theta: float,
                diff: DiffSpec = DEFAULT_DIFF) -> tuple[np.ndarray, np.ndarray]:
    """Classical Fisher information of each row of a batch of distributions.

    p_of(x) returns the (T, K) batch at x, theta or any other stencil node;
    every row must stay normalised over the same K outcomes.
    Row r gets F_r = sum_{p_rx > SUPPORT_THRESHOLD} (d p_rx / d theta)^2 / p_rx
    and the first-order error bound of _fisher_sum, with dp_err the
    derivative error of the whole batch (exact for T = 1, conservative
    otherwise).  Returns (values, error estimates), each (T,).  The caller
    checks the stencil against the parameter domain.
    """
    p = np.asarray(p_of(theta), dtype=float)
    _require_normalized(p)

    def checked(x: float) -> np.ndarray:
        q = np.asarray(p_of(x), dtype=float)
        if q.shape != p.shape:
            raise DimensionMismatch("outcome count changed across evaluation points")
        _require_normalized(q)
        return q

    dp, dp_err = numdiff.derivative(checked, theta, diff)
    return _fisher_sum(p, dp, dp_err)


def classical_fisher(
    model: ProbabilityModel, theta: float, diff: DiffSpec | None = None
) -> FisherReport:
    """Classical Fisher information sum over the support of the distribution.

    F(theta) = sum_{x in support} (d p_x / d theta)^2 / p_x, with outcomes
    whose probability falls below the support threshold excluded from the
    sum.  By default a model with a jet is differentiated exactly at theta
    alone (method "analytic", step 0, theta only has to lie inside the open
    domain); an explicit DiffSpec, or a model without a jet (Richardson
    then), takes the finite-difference stencil instead, which is the oracle.
    """
    if diff is None and model.jet is not None:
        numdiff.check_domain(theta, 0.0, model.theta_domain)
        p, dp, dp_err = (np.asarray(a, dtype=float) for a in model.jet(theta))
        _require_normalized(p)
        if abs(dp.sum()) > 1e-10:
            raise NonNormalized(f"probability derivatives sum to {dp.sum()!r}")
        value, err = _fisher_sum(p, dp, dp_err)
        return FisherReport(value=float(value), method=numdiff.ANALYTIC, step=0.0,
                            error_estimate=float(err))
    fd = DEFAULT_DIFF if diff is None else diff
    numdiff.check_domain(theta, fd.base_step(theta), model.theta_domain)
    values, errs = fisher_rows(lambda x: model.at(x).probs[None, :], theta, fd)
    return FisherReport(value=float(values[0]), method=fd.method,
                        step=fd.base_step(theta), error_estimate=float(errs[0]))


def sld(rho, drho) -> np.ndarray:
    """Symmetric logarithmic derivative L solving drho = (rho L + L rho)/2.

    In the eigenbasis of rho, L_kl = 2 (drho)_kl / (p_k + p_l); matrix elements
    with p_k + p_l below SUPPORT_THRESHOLD are set to zero (the operator is
    arbitrary outside the support of rho).
    """
    return _sld_parts(rho, drho)[0]


def _sld_parts(rho, drho):
    """(L, Dv, p_k + p_l, support mask) with Dv = drho in the eigenbasis of rho."""
    R = require_hermitian(rho)
    D = require_hermitian(drho)
    if R.shape != D.shape:
        raise DimensionMismatch(f"rho {R.shape} vs drho {D.shape}")
    tr = np.trace(D)
    if abs(tr) > 1e-9:
        raise NotTraceless(f"tr(drho) = {tr}")
    p, V = np.linalg.eigh(R)
    Dv = V.conj().T @ D @ V
    denom = p[:, None] + p[None, :]
    support = denom >= SUPPORT_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        Lv = np.where(support, 2.0 * Dv / denom, 0.0)
    return V @ Lv @ V.conj().T, Dv, denom, support


def _rank_profile(rho: np.ndarray) -> int:
    return int(np.sum(np.linalg.eigvalsh(rho) > RANK_THRESHOLD))


def _state_derivative(rho_of, theta: float, diff: DiffSpec,
                      theta_domain: tuple[float, float]):
    """Central machinery shared by qfi and monotone_metric.

    Returns (rho, drho, drho_err) after verifying that the rank classification
    of the state does not change across the differentiation stencil.
    """
    rho = require_hermitian(rho_of(theta))
    radius = diff.base_step(theta)
    numdiff.check_domain(theta, radius, theta_domain)
    rank0 = _rank_profile(rho)
    for x in (theta - radius, theta + radius):
        if _rank_profile(require_hermitian(rho_of(x))) != rank0:
            raise RankChange(f"state rank changes between theta and {x}")
    drho, err = numdiff.derivative(lambda x: np.asarray(rho_of(x), dtype=complex), theta, diff)
    drho = (drho + drho.conj().T) / 2.0
    return rho, drho, err


def qfi(rho_of, theta: float, diff: DiffSpec = DEFAULT_DIFF,
        theta_domain: tuple[float, float] = (-np.inf, np.inf)) -> FisherReport:
    """SLD quantum Fisher information tr(rho L^2) of a state family.

    In the eigenbasis of rho the value is sum 2 |D_kl|^2 / (p_k + p_l), so a
    derivative error eps of drho moves it by at most the error estimate
    sum (4 |D_kl| + 2 eps) eps / (p_k + p_l), both over the support pairs.
    """
    rho, drho, err = _state_derivative(rho_of, theta, diff, theta_domain)
    return _qfi_report(rho, drho, err, diff.method, diff.base_step(theta))


def _qfi_report(rho, drho, drho_err: float, method: str, step: float) -> FisherReport:
    """qfi's value and first-order error estimate from rho, drho and the error of drho."""
    L, Dv, denom, support = _sld_parts(rho, drho)
    value = float(np.trace(rho @ L @ L).real)
    error = float(np.sum((4.0 * np.abs(Dv[support]) + 2.0 * drho_err) * drho_err
                         / denom[support]))
    return FisherReport(value=max(value, 0.0), method=method, step=step, error_estimate=error)


def qfi_pure(psi, dpsi) -> float:
    """Pure-state quantum Fisher information from the state and its derivative.

    4 Re[<dpsi|dpsi> + <psi|dpsi><psi|dpsi>]; invariant under a common phase
    rotation of (psi, dpsi), and zero when dpsi is a pure phase motion.
    """
    v = require_state(psi)
    dv = np.asarray(dpsi, dtype=complex).reshape(-1)
    if dv.shape != v.shape:
        raise DimensionMismatch(f"psi dim {v.shape[0]} != dpsi dim {dv.shape[0]}")
    overlap = np.vdot(v, dv)
    value = 4.0 * (np.vdot(dv, dv) + overlap * overlap).real
    return max(value, 0.0)


_MONOTONE_F = {
    "ari": lambda x: (1.0 + x) / 2.0,
    "har": lambda x: 2.0 * x / (1.0 + x),
    # (x-1)/log x with the removable singularity at x = 1 filled in.
    "log": lambda x: 1.0 if abs(x - 1.0) < 1e-12 else (x - 1.0) / np.log(x),
}


def monotone_metric(
    f: str, rho_of, theta: float, diff: DiffSpec = DEFAULT_DIFF,
    theta_domain: tuple[float, float] = (-np.inf, np.inf),
) -> FisherReport:
    """Monotone Riemannian metric for the operator-monotone tag f (single parameter).

    Uses the eigenbasis closed form: with rho = sum_k p_k |k><k| and
    d = drho expressed in that basis,

        F^(f) = sum_k d_kk^2 / p_k + sum_{l != k} |d_kl|^2 / (p_l f(p_k/p_l)).

    Requires a full-rank family; f='ari' reproduces the SLD quantum Fisher
    information.  With F^(f) = sum c_kl |d_kl|^2, the derivative error eps of
    drho moves it by at most the error estimate sum c_kl (2 |d_kl| + eps) eps.
    """
    if f not in _MONOTONE_F:
        raise UnknownMetricTag(f"f must be one of {sorted(_MONOTONE_F)}, got {f!r}")
    fn = _MONOTONE_F[f]
    rho, drho, err = _state_derivative(rho_of, theta, diff, theta_domain)
    p, V = np.linalg.eigh(rho)
    if p.min() <= RANK_THRESHOLD:
        raise RankDeficient(f"smallest eigenvalue {p.min():.3e} <= {RANK_THRESHOLD:.1e}")
    Dv = V.conj().T @ drho @ V
    d = p.shape[0]
    diag = np.diag(Dv).real
    value = float(np.sum(diag ** 2 / p))
    error = float(np.sum((2.0 * np.abs(diag) + err) * err / p))
    for k in range(d):
        for l in range(d):
            if k == l:
                continue
            denom = p[l] * fn(p[k] / p[l])
            value += abs(Dv[k, l]) ** 2 / denom
            error += (2.0 * abs(Dv[k, l]) + err) * err / denom
    return FisherReport(value=max(value, 0.0), method=diff.method,
                        step=diff.base_step(theta), error_estimate=error)


def povm_outcome_model(rho_of, povm: POVM,
                       theta_domain: tuple[float, float] = (-np.inf, np.inf)) -> ProbabilityModel:
    """The classical model Pr_theta(x) = tr(rho_theta Pi_x) induced by a fixed POVM."""

    def at(x: float) -> OutcomeDistribution:
        rho = np.asarray(rho_of(x), dtype=complex)
        probs = np.array([np.trace(rho @ E).real for E in povm.elements])
        return OutcomeDistribution(outcomes=tuple(range(len(povm.elements))),
                                   probs=np.clip(probs, 0.0, None))

    return ProbabilityModel(at=at, theta_domain=theta_domain)


def fisher_of_povm(
    rho_of, theta: float, povm: POVM, diff: DiffSpec = DEFAULT_DIFF
) -> FisherReport:
    """Fisher information of the outcome distribution of a parameter-independent POVM."""
    return classical_fisher(povm_outcome_model(rho_of, povm), theta, diff)


def sld_povm(rho_of, theta: float, diff: DiffSpec = DEFAULT_DIFF) -> POVM:
    """The projective measurement onto the SLD eigenbasis at theta.

    This is the measurement whose Fisher information saturates the quantum
    Fisher information at the true parameter value.
    """
    rho, drho, _ = _state_derivative(rho_of, theta, diff, (-np.inf, np.inf))
    L = sld(rho, drho)
    _, V = np.linalg.eigh(L)
    return POVM(elements=tuple(np.outer(V[:, k], V[:, k].conj()) for k in range(V.shape[1])))
