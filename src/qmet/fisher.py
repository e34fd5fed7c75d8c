"""Fisher information of parametrized outcome distributions and quantum states.

Covers the classical Fisher information of a discrete probability model, the
symmetric logarithmic derivative and the SLD quantum Fisher information, the
pure-state (Fubini-Study) formula, the family of monotone metrics indexed by
an operator-monotone function, and the Fisher information induced by a fixed
POVM.
"""

from __future__ import annotations

import functools
import math
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
from .linalg import _eigh, _require_density_spectrum, as_matrix, require_hermitian, require_state
from .numdiff import DEFAULT_DIFF, DiffSpec

SUPPORT_THRESHOLD = 1e-12
# An outcome at or below SUPPORT_THRESHOLD counts when the bound on its term is at most this
# fraction of the term: above the Richardson path's rounding floor (about 2e-5 of the term
# at a jc point with p = 3.4e-13), far below the ratio near 1 of a term made by rounding.
SUB_THRESHOLD_RATIO = 1e-4
RANK_THRESHOLD = 1e-10


def _require_normalized(p: np.ndarray) -> None:
    """Raise NonNormalized unless every distribution along the last axis sums to 1 (a NaN
    sum fails the check)."""
    total = p.sum(axis=-1)
    good = np.abs(total - 1.0) <= 1e-10
    if not good.all():
        raise NonNormalized(f"probabilities sum to {total[~good].flat[0]!r}")


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

    def total_variation(self, other: "OutcomeDistribution") -> float:
        if self.probs.shape != other.probs.shape:
            raise DimensionMismatch("distributions have different outcome counts")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


@dataclass(frozen=True)
class ProbabilityModel:
    """theta -> OutcomeDistribution with a fixed, parameter-independent sample space.

    jet, when given, maps theta to (p, dp, dp_err[, p_err]): the probabilities,
    their exact theta-derivative and first-order rounding bounds, dp_err one number
    for every dp entry and p_err for each p entry (0 if left out), all from one
    evaluation at theta.
    """

    at: Callable[[float], OutcomeDistribution]
    theta_domain: tuple[float, float] = (-np.inf, np.inf)
    jet: Optional[Callable[[float], tuple]] = None


@dataclass(frozen=True)
class POVM:
    """A positive-operator valued measure: PSD elements summing to the identity."""

    elements: tuple

    def __post_init__(self):
        mats = tuple(as_matrix(E) for E in self.elements)
        object.__setattr__(self, "elements", mats)
        d = mats[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for E in mats:
            if E.shape[0] != d:
                raise DimensionMismatch("POVM elements have mixed dimensions")
            if not (_eigh(E)[0][0] >= -1e-10):  # _eigh also checks E's Hermiticity
                raise DimensionMismatch("POVM element is not positive semi-definite")
            total += E
        if not (np.max(np.abs(total - np.eye(d))) <= 1e-9):
            raise DimensionMismatch("POVM elements do not sum to the identity")


@dataclass(frozen=True)
class FisherReport:
    """A Fisher-information value, how it was differentiated, and its error estimate."""

    value: float
    method: str
    step: float
    error_estimate: float

    def __post_init__(self):
        if not (self.value >= 0):
            raise ArithmeticError("Fisher information is NaN" if math.isnan(self.value) else
                                  f"negative Fisher information {self.value!r}")


def _term_bound(p: np.ndarray, dp, dp_err, p_err):
    """First-order bound on each term dp_x^2 / p_x: a derivative error dp_err moves it by
    at most (2 |dp_x| + dp_err) dp_err / p_x, and a probability error p_err by
    dp_x^2 p_err / p_x^2."""
    return ((2.0 * np.abs(dp) + dp_err) * dp_err + dp**2 * p_err / p) / p


def _fisher_sum(p: np.ndarray, dp, dp_err, p_err=0.0) -> tuple[np.ndarray, np.ndarray]:
    """sum over the support of dp_x^2 / p_x along the last axis, with its _term_bound sum.

    The support is p_x > SUPPORT_THRESHOLD, plus every 0 < p_x <= SUPPORT_THRESHOLD
    whose bound is at most SUB_THRESHOLD_RATIO of its term: such an outcome is rare,
    but its term can still be large and exact.
    """
    support = p > SUPPORT_THRESHOLD
    if not support.all():
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            low = np.where(p > 0.0, p, np.nan)
            terms = dp**2 / low
            support |= np.isfinite(terms) & (
                _term_bound(low, dp, dp_err, p_err) <= SUB_THRESHOLD_RATIO * terms)
    safe = np.where(support, p, 1.0)
    values = np.where(support, dp**2 / safe, 0.0).sum(axis=-1)
    with np.errstate(over="ignore"):  # a bound beyond the float range is inf
        errs = np.where(support, _term_bound(safe, dp, dp_err, p_err), 0.0).sum(axis=-1)
    return np.maximum(values, 0.0), errs


def _fisher_values(p: np.ndarray, dp: np.ndarray) -> Optional[np.ndarray]:
    """_fisher_sum's values bit for bit, without its bounds, where every p_x exceeds
    SUPPORT_THRESHOLD; None otherwise, as only then does its support rule read the bounds.
    The terms dp_x^2 / p_x overwrite dp, so the caller must not read dp again unless None
    is returned."""
    if not (p > SUPPORT_THRESHOLD).all():
        return None
    np.square(dp, out=dp)
    dp /= p
    return dp.sum(axis=-1)


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
    The jet's derivatives must sum to 0 within 1e-10 plus their own rounding bound,
    len(dp) dp_err (NonNormalized otherwise, and for a NaN sum or bound).
    """
    if diff is None and model.jet is not None:
        numdiff.check_domain(theta, 0.0, model.theta_domain)
        p, dp, *errs = (np.asarray(a, dtype=float) for a in model.jet(theta))
        _require_normalized(p)
        total = float(dp.sum())
        if not (abs(total) <= 1e-10 + len(dp) * float(errs[0])):
            raise NonNormalized(f"probability derivatives sum to {total!r}")
        value, err = _fisher_sum(p, dp, *errs)
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
    p, V, Dv = _sld_parts(rho, drho)
    return V @ (_sld_weights(p) * Dv) @ V.conj().T


def _sld_parts(rho, drho):
    """(p, V, Dv): the ascending eigenvalues p and eigenvectors V of rho, and Dv = drho in
    that eigenbasis; rho and drho must be Hermitian of one shape and drho traceless (a
    NaN trace fails)."""
    p, V = _eigh(rho)
    D = require_hermitian(drho)
    if V.shape != D.shape:
        raise DimensionMismatch(f"rho {V.shape} vs drho {D.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # finite entries may sum to inf - inf
        tr = D.trace()
    if not (abs(tr) <= 1e-9):
        raise NotTraceless(f"tr(drho) = {tr}")
    return p, V, V.conj().T @ D @ V


def _sld_weights(p: np.ndarray) -> np.ndarray:
    """c_kl = 2 / (p_k + p_l) on the support pairs, p_k + p_l >= SUPPORT_THRESHOLD, else 0."""
    denom = p[:, None] + p[None, :]
    return np.divide(2.0, denom, out=np.zeros_like(denom), where=denom >= SUPPORT_THRESHOLD)


def _weighted_sum(c: np.ndarray, Dv, drho_err: float) -> tuple[float, float]:
    """(sum c_kl |Dv_kl|^2, sum c_kl (2 |Dv_kl| + eps) eps): a metric with weights c >= 0
    and the first-order bound on how far a derivative error eps of each Dv entry moves it,
    inf where the bound leaves the float range."""
    a = np.abs(Dv)
    value = float(np.sum(c * a * a))
    with np.errstate(over="ignore"):
        return value, float(np.sum(c * (2.0 * a + drho_err) * drho_err))


def _state_derivative(rho_of, theta: float, diff: DiffSpec,
                      theta_domain: tuple[float, float]):
    """(p, V, Dv, drho_err): _sld_parts of rho and its symmetrised derivative at theta, after
    checking that the state has the same rank at theta +- radius, the stencil's outer nodes;
    each node is evaluated once."""
    radius = diff.base_step(theta)
    numdiff.check_domain(theta, radius, theta_domain)
    node = functools.cache(lambda x: np.asarray(rho_of(x), dtype=complex))
    drho, err = numdiff.derivative(node, theta, diff)
    p, V, Dv = _sld_parts(node(theta), (drho + drho.conj().T) / 2.0)
    rank = np.sum(p > RANK_THRESHOLD)
    for x in (theta - radius, theta + radius):
        if np.sum(_eigh(node(x))[0] > RANK_THRESHOLD) != rank:
            raise RankChange(f"state rank changes between theta and {x}")
    return p, V, Dv, err


def qfi(rho_of, theta: float, diff: DiffSpec = DEFAULT_DIFF,
        theta_domain: tuple[float, float] = (-np.inf, np.inf)) -> FisherReport:
    """SLD quantum Fisher information tr(rho L^2) of a state family.

    In the eigenbasis of rho the value is sum 2 |D_kl|^2 / (p_k + p_l), so a
    derivative error eps of drho moves it by at most the error estimate
    sum (4 |D_kl| + 2 eps) eps / (p_k + p_l), both over the support pairs.
    rho at theta must be a density matrix (DimensionMismatch otherwise).
    """
    p, _, Dv, err = _state_derivative(rho_of, theta, diff, theta_domain)
    return _qfi_report(p, Dv, err, diff.method, diff.base_step(theta))


def _qfi_report(p, Dv, drho_err: float, method: str, step: float) -> FisherReport:
    """qfi's value and error estimate, the _weighted_sum of the SLD weights, from rho's
    eigenvalues p, drho in rho's eigenbasis (Dv) and the error of drho.  DimensionMismatch,
    as from require_density, unless p is a density spectrum."""
    _require_density_spectrum(p, float(p.sum()))
    value, error = _weighted_sum(_sld_weights(p), Dv, drho_err)
    return FisherReport(value=value, method=method, step=step, error_estimate=error)


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


# Each operator-monotone f, elementwise; f(1) = 1 for all three.
_MONOTONE_F = {
    "ari": lambda x: (1.0 + x) / 2.0,
    "har": lambda x: 2.0 * x / (1.0 + x),
    # (x-1)/log x with the removable singularity at x = 1 filled in.
    "log": lambda x: np.divide(x - 1.0, np.log(x), out=np.ones_like(x),
                               where=np.abs(x - 1.0) >= 1e-12),
}


def monotone_metric(
    f: str, rho_of, theta: float, diff: DiffSpec = DEFAULT_DIFF,
    theta_domain: tuple[float, float] = (-np.inf, np.inf),
) -> FisherReport:
    """Monotone Riemannian metric for the operator-monotone tag f (single parameter).

    Uses the eigenbasis closed form: with rho = sum_k p_k |k><k| and
    d = drho expressed in that basis,

        F^(f) = sum_kl c_kl |d_kl|^2,  c_kl = 1 / (p_l f(p_k/p_l)),

    whose diagonal terms are d_kk^2 / p_k as f(1) = 1.  Requires a full-rank
    family; f='ari' reproduces the SLD quantum Fisher information.  The
    derivative error eps of drho moves it by at most the error estimate
    sum c_kl (2 |d_kl| + eps) eps.
    """
    if f not in _MONOTONE_F:
        raise UnknownMetricTag(f"f must be one of {sorted(_MONOTONE_F)}, got {f!r}")
    p, _, Dv, err = _state_derivative(rho_of, theta, diff, theta_domain)
    if p.min() <= RANK_THRESHOLD:
        raise RankDeficient(f"smallest eigenvalue {p.min():.3e} <= {RANK_THRESHOLD:.1e}")
    c = 1.0 / (p[None, :] * _MONOTONE_F[f](p[:, None] / p[None, :]))
    value, error = _weighted_sum(c, Dv, err)
    return FisherReport(value=value, method=diff.method,
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
    p, V, Dv, _ = _state_derivative(rho_of, theta, diff, (-np.inf, np.inf))
    _, W = _eigh(_sld_weights(p) * Dv)  # the SLD's eigenvectors in rho's eigenbasis
    return POVM(elements=tuple(np.outer(v, v.conj()) for v in (V @ W).T))
