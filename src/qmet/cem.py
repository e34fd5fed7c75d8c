"""Controlled energy measurements: generators, the precision bound, and optimizers.

A controlled energy measurement applies a parameter-independent unitary
control V and then measures the (parameter-dependent) energy eigenbasis.
Under a moduli-matching condition on the extremal eigenvectors of the
diagonalizer's local generator, the maximum extractable Fisher information
has the closed form

    G(theta) = [sigma(g_dyn) + sigma(g_diag)]^2,

where g_dyn and g_diag are the local generators i dU U^dag of the encoding
unitary and of the (gauge-continuous) diagonalizer family, and sigma is the
spectral gap.  The bound comes with an explicit optimal control and optimal
preparation; a derivative-free optimizer searches for the same maximum from that optimum
and from random starts.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import DimensionMismatch, InvalidParameter, NonSmoothFamily
from .fisher import (
    SUPPORT_THRESHOLD,
    FisherReport,
    OutcomeDistribution,
    ProbabilityModel,
    _qfi_report,
    _sld_parts,
    classical_fisher,
    qfi,
)
from .linalg import (
    _eigh,
    eig_hermitian,
    eigh_nondegenerate,
    fix_phases,
    require_density,
    require_hermitian,
    require_state,
    require_unitary,
    spectral_gap,
    spectral_unitary,
)
from .models import HamiltonianModel
from .numdiff import DEFAULT_DIFF, DiffSpec

GENERATOR_HERMITICITY_TOL = 1e-8
CONDITION_TOL = 1e-8
TURN_TOL = 5e-9  # relative error of G that _turn_limit allows U_t's phase turn to cause
# Relative phase of the extremal g_diag eigenvectors in the optimal preparation.
PREPARATION_PHASE = math.pi / 2.0
# optimize_cem's line search: COARSE_NODES even nodes across [-radius, radius], spacing
# 2 radius / 64, then FINE_NODES across two coarse spacings: the final spacing, at most
# 4 radius / (64 * 32) = 2 radius / 1024, is finer than a 14-step golden section's final
# bracket 2 radius phi^-14 ~ 2 radius / 843.
COARSE_NODES = 65
FINE_NODES = 33
_COARSE = np.linspace(0.0, 1.0, COARSE_NODES)  # node fractions of a stage's bracket
_FINE = np.linspace(0.0, 1.0, FINE_NODES)


@dataclass(frozen=True)
class GeneratorPair:
    """Local generators of the encoding unitary and of the diagonalizer family.

    method is "analytic" when both come from the model's dh_of, otherwise the
    finite-difference method (a DiffSpec method) that differentiated them.
    """

    g_dyn: np.ndarray
    g_diag: np.ndarray
    gaps: tuple[float, float]
    method: str


@dataclass(frozen=True)
class CemSolution:
    """The closed-form bound with its optimal control and preparation.

    When ``condition_holds`` is false the bound is still returned but is only
    an upper bound; it is achievable whenever the extremal-eigenvector
    moduli-matching condition is satisfied.  ``gaps`` are
    (sigma(g_dyn), sigma(g_diag)) and ``method`` says how the generators were
    computed, as in GeneratorPair.
    """

    G_value: float
    condition_holds: bool
    V_opt: np.ndarray
    psi_opt: np.ndarray
    gaps: tuple[float, float]
    method: str


def _spectrum(model: HamiltonianModel, x: float):
    """(ascending energies E, phase-fixed eigenvector columns W) of H(x), the one
    decomposition of H and the one eigenbasis gauge of every consumer.

    Raises DomainBoundary unless x lies inside the open domain, NonHermitianInput for a
    non-Hermitian H(x) or one with a NaN or infinite entry, DegenerateSpectrum for
    (near-)degenerate H(x) and InvalidParameter when its spectral range overflows the
    float range.  h_of runs with NumPy's floating-point warnings off: an entry that
    overflows is the typed NonHermitianInput, not a warning.
    """
    numdiff.check_domain(x, 0.0, model.theta_domain)
    with np.errstate(all="ignore"):
        E, W = eigh_nondegenerate(model.h_of(x))
    if not math.isfinite(float(E[-1]) - float(E[0])):  # Python floats overflow silently
        raise InvalidParameter(f"spectral range of H({x}) overflows: energies {E[0]:.6g} "
                               f"to {E[-1]:.6g}; rescale the model's parameters")
    return E, fix_phases(W)


def _read_only(*arrays):
    """arrays, each made read-only in place: the caller's own, never a model's."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _require_dim(dim: int, **operands) -> None:
    """DimensionMismatch unless every named operand is a (dim, dim) matrix, as H(theta) is."""
    for name, A in operands.items():
        if np.shape(A) != (dim, dim):
            raise DimensionMismatch(f"{name} has shape {np.shape(A)}; the model's dimension "
                                    f"is {dim}")


def diagonalizer(model: HamiltonianModel, theta: float) -> np.ndarray:
    """Unitary S whose rows are the energy eigenbra's, ground state first.

    S H(theta) S^dag = diag(xi_0 <= ... <= xi_{d-1}); rows use _spectrum's phase-fixed
    gauge.  Raises DomainBoundary and DegenerateSpectrum as _spectrum does.
    """
    return _spectrum(model, theta)[1].conj().T


def _transported(anchor: np.ndarray, V: np.ndarray) -> np.ndarray:
    """S whose rows are V's eigenvector columns, matched and rephased against the anchor's."""
    cols, used = np.empty_like(anchor), np.zeros(anchor.shape[0], dtype=bool)
    for k in range(len(used)):
        overlaps = np.abs(anchor[:, k].conj() @ V)
        overlaps[used] = -1.0
        j = int(np.argmax(overlaps))
        used[j] = True
        s = np.vdot(anchor[:, k], V[:, j])
        cols[:, k] = V[:, j] * (s.conjugate() / abs(s)) if abs(s) > 0 else V[:, j]
    return cols.conj().T


def local_generator(family, theta: float, diff: DiffSpec = DEFAULT_DIFF) -> np.ndarray:
    """Local generator i (dU/dtheta) U^dag of a smooth unitary family theta -> U, or of each
    family of a (..., d, d) stack, differentiated as one array.  Raises NonSmoothFamily
    where a numerical generator fails Hermiticity, which signals a gauge discontinuity or a
    kink in its family, or holds a NaN."""
    u0 = np.asarray(family(theta), dtype=complex)
    du, _ = numdiff.derivative(lambda x: np.asarray(family(x), dtype=complex), theta, diff)
    g = 1j * du @ u0.conj().swapaxes(-2, -1)
    gh = g.conj().swapaxes(-2, -1)
    defect = np.max(np.abs(g - gh), axis=(-2, -1))
    if not np.all(defect <= GENERATOR_HERMITICITY_TOL * (1.0 + np.max(np.abs(g), axis=(-2, -1)))):
        raise NonSmoothFamily(f"generator Hermiticity defect {np.max(defect):.3e}")
    return (g + gh) / 2.0


class _Jet(namedtuple("_Jet", "E W U dH D g_dyn g_diag t vec_err U_err g_dyn_err")):
    """_Point.jet(t), read-only: the point's E, W, dH, D, g_diag and vec_err, U = exp(-i t H),
    g_dyn, t, U_err and g_dyn_err; and dyn, g_dyn's _eigh (ascending eigenvalues, eigenvector
    columns), built on first use: g_dyn's one decomposition, for its gap and g_bound's R2."""

    @property
    def dyn(self):
        kept = self.__dict__  # not functools.cached_property, which locks per new jet
        if "dyn" not in kept:
            kept["dyn"] = _read_only(*_eigh(self.g_dyn))
        return kept["dyn"]


class _Point:
    """Everything cem derives from H at one working point (model, theta), read-only: H's
    ascending energies E and phase-fixed eigenvector columns W (every consumer's one gauge),
    dH, dH_norm, D = W^dag dH W (its diagonal holds the dE_j), w_jk = E_j - E_k, g_diag and the
    rounding bounds below, from one checked _spectrum (DomainBoundary outside the open
    domain) and one dh_of read (InvalidParameter without it); diag, g_diag's _diag_system,
    on first use; jet(t) and levels(t, V, F), the _level_jet at that jet, each kept for the
    last arguments asked.  dh_of, its check and D run with NumPy's warnings off: a D that
    overflows is InvalidParameter.

    The one rounding model of every analytic estimate (Frobenius norms).  The symmetric
    eigensolver is backward stable: E and W are, to first order, exact for some H + delta H,
    |delta H| <= E_err = eps max|E|, and a product of d-vectors adds eps_d = eps d (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002).  So E_err bounds each energy's
    error (Weyl) and vec_err_j = eps_d + E_err / gap_j column W_j's, gap_j being level j's
    distance to its nearest neighbour (Davis-Kahan; Bhatia, Matrix Analysis, 1997); jet(t)
    adds U_err = eps_d + |t| E_err on U_t, as |exp(-i t A) - exp(-i t B)| <= |t| |A - B|,
    and g_dyn_err = |t dH| U_err on g_dyn = int_0^t exp(-i s H) dH exp(i s H) ds.  Then:
    * dE_j = <W_j| dH |W_j> moves by dE_err_j = 2 vec_err_j |dH|, and the read-out's dxi_j
      by dE_err_j, plus dE_err_0 where its shift follows the ground energy;
    * row j of _level_weights' A moves by e_j = vec_err_j + U_err, so p_j = |A_j|^2 by
      p_err_j = e_j (2 sqrt(p_j) + e_j), at most 1;
    * a row of dA by dA_err = e G + 2 max_j vec_err_j |g_diag| + g_dyn_err, e = max_j e_j
      and G = |g_diag| + |g_dyn| >= |dA_j| (g_diag, the eigenvectors' derivative, carries
      twice their error), so each dp_j by dp_err = 2 (e G + dA_err);
    * rho = U_t rho0 U_t^dag by 2 U_err, so encoded_qfi's drho = -i [g_dyn, rho] by
      drho_err = 2 (g_dyn_err + 2 U_err |g_dyn|).  Each bound is finite, or inf (no warning).
    """

    def __init__(self, model: HamiltonianModel, theta: float):
        E, W = _spectrum(model, theta)
        if model.dh_of is None:
            raise InvalidParameter(f"model {model.name!r} has no dh_of; the analytic path "
                                   "needs it, and an explicit DiffSpec selects the "
                                   "finite-difference oracle")
        with np.errstate(all="ignore"):
            dH = require_hermitian(model.dh_of(theta)).view()  # dh_of may return its own array
            D = W.conj().T @ dH @ W
            D = (D + D.conj().T) / 2.0
            self.dH_norm = float(np.linalg.norm(dH))  # inf beyond the float range
        if not np.isfinite(D).all():
            raise InvalidParameter(f"dH/dtheta at theta = {theta} overflows the float range "
                                   "in the eigenbasis of H; rescale the model's parameters")
        w = E[:, None] - E[None, :]
        # First-order perturbation theory in the parallel-transport gauge of the columns W.
        g_diag = np.divide(1j * D, w, out=np.zeros_like(D), where=w != 0.0)
        eps, gap = float(np.finfo(float).eps), np.where(w != 0.0, np.abs(w), np.inf).min(axis=1)
        # E ascends, so its ends hold max|E|; _spectrum keeps every gap above 1e-8 (1 + range).
        self.eps_d, self.E_err = eps * len(E), eps * float(max(abs(E[0]), abs(E[-1])))
        self.E, self.W, self.dH, self.D, self.w, self.g_diag, self.vec_err = _read_only(
            E, W, dH, D, w, g_diag, self.eps_d + self.E_err / gap)
        self._jet = self._levels = None

    @functools.cached_property
    def diag(self):
        es, condition = _diag_system(self.g_diag)
        _read_only(es.eigenvalues, es.eigenvectors)
        return es, condition

    def jet(self, t: float) -> _Jet:
        if self._jet is None or self._jet.t != t:
            E, W, D, w = self.E, self.W, self.D, self.w
            U = spectral_unitary(E, W, t)  # first: it rejects a non-finite t or phase t w
            # W^dag g_dyn W = D * i (exp(-i t w) - 1) / w (Wilcox 1967; Daleckii-Krein).
            g_dyn = W @ (D * (t * np.exp(-0.5j * t * w) * np.sinc(t * w / (2.0 * math.pi)))) \
                @ W.conj().T
            U, g_dyn = _read_only(U, (g_dyn + g_dyn.conj().T) / 2.0)
            U_err = self.eps_d + abs(float(t)) * self.E_err  # t E is finite: spectral_unitary
            g_dyn_err = abs(float(t)) * self.dH_norm * U_err if t else 0.0  # inf, no warning
            self._jet = _Jet(E, W, U, self.dH, D, g_dyn, self.g_diag, t, self.vec_err, U_err,
                             g_dyn_err)
        return self._jet

    def levels(self, t: float, V: np.ndarray, F: np.ndarray):
        """(_level_jet of jet(t) at the validated V and F, read-only; a dict in which its
        consumers keep what they derive from it).  The entry is keyed on t and the contents
        and shapes of V and F, never on their identity: a caller may change its array in
        place."""
        key = (t, V.shape, V.tobytes(), F.shape, F.tobytes())
        if self._levels is None or self._levels[0] != key:
            self._levels = key, _read_only(*_level_jet(self.jet(t), V, F)), {}
        return self._levels[1:]


_kept = []  # [weak reference to the model, theta, _Point]: the last point _point built


def _point(model: HamiltonianModel, theta: float) -> _Point:
    """The _Point at (model, theta), kept: a call at the model object and theta of the last
    point built gets it again.  A raising construction keeps nothing new, and the kept point
    goes with its model (a replaced weak reference dies first, so it never calls back)."""
    if _kept and _kept[0]() is model and _kept[1] == theta:
        return _kept[2]
    point = _Point(model, theta)
    _kept[:] = weakref.ref(model, lambda _: _kept.clear()), theta, point
    return point


def _generators(model: HamiltonianModel, theta: float, t: float, diff: DiffSpec | None):
    """(W, U_t, g_dyn, g_diag, dyn, diag, method): W phase-fixed eigenvectors of H, U_t =
    exp(-i t H), the local generators, g_dyn's _eigh and g_diag's _diag_system; analytic
    from the kept _point and its jet(t), or from diff's finite differences (the oracle) of
    one stack of both families, U_t(x) and S(x) transported against W, per _spectrum."""
    if diff is None:
        point = _point(model, theta)
        jet = point.jet(t)
        return jet.W, jet.U, jet.g_dyn, jet.g_diag, jet.dyn, point.diag, numdiff.ANALYTIC
    numdiff.check_domain(theta, diff.base_step(theta), model.theta_domain)
    E, W = _spectrum(model, theta)
    limit = _turn_limit(diff.levels)

    def families(x: float) -> np.ndarray:  # U_t(x) and S(x) from one decomposition of H(x)
        Ex, Wx = (E, W) if x == theta else _spectrum(model, x)
        u = spectral_unitary(Ex, Wx, t)  # first: it rejects a non-finite t
        turn = abs(t) * max(abs(a - b) for a, b in zip(Ex.tolist(), E.tolist()))
        if not turn <= limit:  # before the Hermiticity check, which a wrong G can pass
            raise InvalidParameter(f"t = {t} turns U_t's eigenphases by {turn:.6g} rad from "
                                   f"theta = {theta} to a stencil node, beyond the {limit:.3g} "
                                   f"rad that {diff.levels} Richardson level(s) follow; use a "
                                   "shorter t, a smaller step or more levels")
        return np.stack((u, _transported(W, Wx)))

    g_dyn, g_diag = local_generator(families, theta, diff)
    return (W, spectral_unitary(E, W, t), g_dyn, g_diag, _eigh(g_dyn), _diag_system(g_diag),
            diff.method)


def _turn_limit(levels: int) -> float:
    """The largest turn t max_j |E_j(x) - E_j(theta)| of U_t's eigenphases from theta to a
    stencil node x that the generator oracle accepts with `levels` Richardson levels.

    A phase e^{-i w x} (w = t dE_j) differentiated by central differences at steps h / 2^k
    gives w sin(f_k) / f_k at the turns f_k = w h / 2^k, whose series sum_m a_m f_k^(2m),
    a_m = (-1)^m / (2m + 1)!, the ladder of L levels cancels through m = L: level j maps a
    term's multiplier 4^-(m k) to (4^(j - m) - 1) / (4^j - 1) times it.  What is left is an
    error c_L h^(2L + 2) w^(2L + 3), c_L = |a_(L+1)| prod_(j=1..L) (1 - 4^(j - L - 1)) /
    (4^j - 1) = 1/480, 3.10e-6 and 6.73e-10 for L = 1, 2, 3: relative c_L f^(2L + 2) for one
    phase at its outer turn f, and, by the mean value theorem on w^(2L + 3), at most
    (2L + 3) c_L f^(2L + 2) relative on a difference of two phases' rates, as on a gap
    between levels that move nearly together.  G, a square, doubles it.  The limit is the f
    at which 2 (2L + 3) c_L f^(2L + 2) = TURN_TOL: 0.0221, 0.221, 0.895 and 2.50 rad for
    L = 1..4, capped at pi, beyond which U_t's differences alias; from L = 5 it is pi.
    Measured at theta 0.8: on nv-spin1 and qubit-xcomponent (t log-uniform in 10..1e4)
    G's error was within 2% of 2 c_L f^(2L + 2) wherever it exceeded rounding (about
    1e-11), and on two levels moving at rates 1 and 1.01 it reached 0.74-0.99 TURN_TOL
    within 1% of the limit.
    """
    L = min(levels, 5)
    c = (2 * L + 3) / math.factorial(2 * L + 3)
    for j in range(1, L + 1):
        c *= (1.0 - 4.0 ** (j - L - 1)) / (4.0**j - 1.0)
    return min((TURN_TOL / (2.0 * c)) ** (1.0 / (2 * L + 2)), math.pi)


def _gap(ev) -> float:
    """lambda_max - lambda_min of a spectrum sorted either way: spectral_gap's bits."""
    return abs(float(ev[-1] - ev[0]))


def generator_pair(
    model: HamiltonianModel, theta: float, t: float, diff: DiffSpec | None = None,
) -> GeneratorPair:
    """Generators of the encoding unitary exp(-i t H) and of the diagonalizer.

    By default both are analytic in the eigenbasis of H(theta), from the model's dh_of
    (InvalidParameter without it), and theta only has to lie inside the open domain; the
    gaps read the kept point's decompositions of g_dyn and g_diag, so a call after g_bound
    at the same (model, theta, t) decomposes nothing.  An explicit DiffSpec differentiates
    both unitary families numerically instead, from one H per node, and never reads dh_of;
    that path is the cross-check oracle, needs its whole stencil inside the domain, is the
    only one that can raise NonSmoothFamily, and names t (InvalidParameter) where U_t's phases
    turn to a node by more than _turn_limit allows for diff's levels.
    """
    _, _, g_dyn, g_diag, dyn, diag, method = _generators(model, theta, t, diff)
    return GeneratorPair(g_dyn=g_dyn.copy(), g_diag=g_diag.copy(),  # not the kept point's
                         gaps=(_gap(dyn[0]), _gap(diag[0].eigenvalues)), method=method)


def _diag_system(g_diag):
    """(g_diag's eig_hermitian eigensystem, check_condition's verdict on it)."""
    es = eig_hermitian(g_diag)
    v_top, v_bot = es.eigenvectors[:, 0], es.eigenvectors[:, -1]
    return es, all(abs(abs(a) - abs(b)) <= CONDITION_TOL for a, b in zip(v_top, v_bot))


def check_condition(g_diag) -> bool:
    """Moduli-matching condition on the extremal eigenvectors of g_diag: True iff
    |<j|v_max>| = |<j|v_min>| within CONDITION_TOL for every component j (two vanishing
    moduli satisfy it trivially)."""
    return _diag_system(g_diag)[1]


def g_bound(
    model: HamiltonianModel,
    theta: float,
    t: float,
    diff: DiffSpec | None = None,
) -> CemSolution:
    """Closed-form bound G = (sigma(g_dyn) + sigma(g_diag))^2 with its optimizers.

    The optimal control is V = S^dag R1^dag R2 with R1, R2 the
    descending-ordered diagonalizers of g_diag and g_dyn; the optimal
    preparation is the balanced superposition of the extremal eigenvectors of
    g_diag pulled back through S V U_t, with relative phase PREPARATION_PHASE.
    The generators come from generator_pair's paths (diff as there); one
    decomposition of H(theta) gives S and U_t, and one of each generator gives
    its gap, R1 or R2 and the condition, so the analytic path costs three, and calls
    at one (model, theta) share the first two, at one (model, theta, t) all three.
    """
    W, u_t, _, _, dyn, diag, method = _generators(model, theta, t, diff)
    return _solution(W, u_t, dyn, diag, method)


def _solution(W, u_t, dyn, diag, method: str) -> CemSolution:
    """g_bound's CemSolution from _generators' W, U_t and decompositions: g_dyn's _eigh
    and g_diag's _diag_system; InvalidParameter, from _square, when G overflows."""
    (es_diag, condition), V_dyn = diag, dyn[1]
    sigma_dyn, sigma_diag = _gap(dyn[0]), _gap(es_diag.eigenvalues)
    r2 = fix_phases(V_dyn[:, ::-1]).conj().T  # descending and phase-fixed, as eig_hermitian's
    v_opt = W @ es_diag.eigenvectors @ r2  # S^dag R1^dag R2 with S = W^dag, R1 = es_diag^dag

    u_tilde = W.conj().T @ v_opt @ u_t
    v_top, v_bot = es_diag.eigenvectors[:, 0], es_diag.eigenvectors[:, -1]
    psi_opt = u_tilde.conj().T @ ((v_top + np.exp(1j * PREPARATION_PHASE) * v_bot)
                                  / math.sqrt(2.0))

    return CemSolution(
        G_value=_square(sigma_dyn + sigma_diag, "G = (sigma(g_dyn) + sigma(g_diag))^2",
                        "gaps {:.6g} and {:.6g}", sigma_dyn, sigma_diag),
        condition_holds=condition,
        V_opt=v_opt,
        psi_opt=psi_opt,
        gaps=(sigma_dyn, sigma_diag),
        method=method,
    )


def _square(x: float, name: str, detail: str, *values: float) -> float:
    """x ** 2; InvalidParameter naming name (and what x is made of: detail formatted with
    values, only then) where it is not finite, as where it overflows the float range and
    Python's ** raises an untyped OverflowError."""
    try:
        square = x**2
    except OverflowError:
        square = math.inf
    if not math.isfinite(square):
        raise InvalidParameter(f"{name} overflows: {detail.format(*values)}; rescale the "
                               "model's parameters")
    return square


def cem_outcome_model(
    model: HamiltonianModel, t: float, V, rho0
) -> ProbabilityModel:
    """Outcome model Pr_theta(j) = <xi_j,theta| V rho_theta V^dag |xi_j,theta>.

    Outcomes are identified across parameter values by their spectral index j
    (ascending energy order), never by the eigenvalue itself.  The outcome
    model also carries the analytic jet of _level_jet, which needs the
    model's dh_of.  V and rho0 must have the model's dimension (DimensionMismatch); the
    model keeps read-only copies of V and of rho0's factor.
    """
    rho, factor = require_density(rho0)
    v, factor = _read_only(require_unitary(V).copy(), factor)
    _require_dim(model.dim, V=v, rho0=rho)

    def at(x: float) -> OutcomeDistribution:
        ev, probs = _node(model, x, t, v, factor)
        return OutcomeDistribution(outcomes=tuple(range(ev.shape[0])), probs=probs)

    def jet(x: float):
        return _point(model, x).levels(t, v, factor)[0][3:]

    return ProbabilityModel(at=at, theta_domain=model.theta_domain, jet=jet)


def _level_weights(W, V, u_t, F, g_dyn=None, g_diag=None):
    """(p, dp or None) from the amplitude rows A = W^dag V U_t F, with F F^dag = rho0.

    p_j = sum_k |A_jk|^2 needs no clip and keeps a small weight's relative
    accuracy.  With the generators, d(W^dag) = -i g_diag W^dag and dU_t = -i g_dyn U_t
    give dA = -i (g_diag A + W^dag V g_dyn U_t F) and dp_j = 2 Re sum_k conj(A_jk) dA_jk.
    """
    B, C = W.conj().T @ V, u_t @ F  # the control followed by the measured eigenbasis
    A = B @ C
    p = np.sum(A.real**2 + A.imag**2, axis=1)
    if g_dyn is None:
        return p, None
    X = g_diag @ A + B @ (g_dyn @ C)  # i dA; Re(conj(A) dA) = Im(conj(A) X)
    return p, 2.0 * np.sum(A.real * X.imag - A.imag * X.real, axis=1)


def _node(model: HamiltonianModel, x: float, t: float, V: np.ndarray, F: np.ndarray):
    """(ascending energies xi_j, _level_weights p_j) at x, _level_jet's p bit for bit.

    One eigendecomposition of H(x) gives both the measured eigenbasis and the
    encoding unitary U_t = exp(-i t H(x)); dh_of is never read.  V and F must
    already be validated.  Raises DomainBoundary unless x lies inside the open
    domain and DegenerateSpectrum for (near-)degenerate H(x), as _spectrum does.
    """
    ev, W = _spectrum(model, x)
    return ev, _level_weights(W, V, spectral_unitary(ev, W, t), F)[0]


def _level_jet(jet: _Jet, V: np.ndarray, F: np.ndarray):
    """(E, dE, dE_err, p, dp, dp_err, p_err) at a _Jet's point: the ascending energies and
    their derivatives D_jj, the _level_weights and theirs, and _Point's bounds on them.  V and
    F must be validated.  Callers read it through the kept _Point.levels, so the calls at one
    (model, theta, t, V, F), as tune_tau's and both read-outs' at a point, build it once."""
    E, (p, dp) = jet.E, _level_weights(jet.W, V, jet.U, F, jet.g_dyn, jet.g_diag)
    e = jet.vec_err + jet.U_err
    with np.errstate(over="ignore"):  # a bound beyond the float range is inf
        norm_dH, norm_diag, norm_dyn = map(np.linalg.norm, (jet.dH, jet.g_diag, jet.g_dyn))
        dE_err = 2.0 * jet.vec_err * norm_dH
        eG = e.max() * (norm_diag + norm_dyn)
        dA_err = eG + 2.0 * jet.vec_err.max() * norm_diag + jet.g_dyn_err
        dp_err = 2.0 * (eG + dA_err)
        p_err = np.minimum(e * (2.0 * np.sqrt(p) + e), 1.0)  # p and its truth lie in [0, 1]
    return E, jet.D.diagonal().real, dE_err, p, dp, dp_err, p_err


def fisher_cem(
    model: HamiltonianModel,
    theta: float,
    t: float,
    V,
    rho0,
    diff: DiffSpec | None = None,
) -> FisherReport:
    """Fisher information of a controlled energy measurement.

    The parameter moves both the state rho_theta and the measured eigenbasis, so this is a
    non-regular statistical model; the energy measurement V = I yields a t-independent
    value.  diff is classical_fisher's: by default dh_of differentiates it through the
    kept _point's level jet (two decompositions: rho0's check, which also factors it, and
    H(theta), shared with every analytic call at theta), its estimate from _Point's bounds
    on the weights and their derivatives; a DiffSpec runs the oracle's stencil instead.
    """
    return classical_fisher(cem_outcome_model(model, t, V, rho0), theta, diff)


def encoded_qfi(
    model: HamiltonianModel,
    theta: float,
    t: float,
    rho0: np.ndarray,
    diff: DiffSpec | None = None,
) -> tuple[FisherReport, float]:
    """(SLD quantum Fisher information of rho_theta = U_t rho0 U_t^dag, sigma(g_dyn)).

    sigma(g_dyn)^2 is the quantum Fisher information of the best preparation (InvalidParameter
    where it overflows), read on both paths from the kept jet's decomposition of g_dyn.  By
    default one decomposition of H(theta) gives U_t and g_dyn, and the state moves as
    drho = -i [g_dyn, rho] (method "analytic", step 0, estimate from _Point's drho_err;
    theta only has to lie inside the open domain).  An explicit DiffSpec runs fisher.qfi's
    stencil over model.u_of instead, the oracle, which also checks the rank of rho across
    the stencil.  g_dyn is analytic on both paths, so both need dh_of.  rho0 must be a
    density matrix of the model's dimension (DimensionMismatch otherwise, with
    require_density's messages), which the SLD's decomposition of rho checks.
    """
    _require_dim(model.dim, rho0=rho0)
    if diff is not None:  # the stencil first: its DomainBoundary names the stencil
        def rho_of(x: float) -> np.ndarray:
            u = model.u_of(x, t)
            return u @ rho0 @ u.conj().T

        report = qfi(rho_of, theta, diff, model.theta_domain)
    jet = _point(model, theta).jet(t)
    sigma = _gap(jet.dyn[0])  # checked before _sld_parts' trace check, which overflow fails
    _square(sigma, "sigma(g_dyn)^2", "sigma(g_dyn) = {:.6g}", sigma)
    if diff is None:
        rho = jet.U @ rho0 @ jet.U.conj().T
        drho = -1j * (jet.g_dyn @ rho - rho @ jet.g_dyn)
        with np.errstate(over="ignore"):  # a bound beyond the float range is inf
            drho_err = 2.0 * (jet.g_dyn_err + 2.0 * jet.U_err * np.linalg.norm(jet.g_dyn))
        p, _, Dv = _sld_parts(rho, (drho + drho.conj().T) / 2.0)
        report = _qfi_report(p, Dv, drho_err, numdiff.ANALYTIC, 0.0)
    return report, sigma


# --- independent derivative-free maximization ---------------------------------------


def _fisher(coef: np.ndarray, table: np.ndarray) -> np.ndarray:
    """fisher_cem's (R, N) values from real coefficients (R, 4d, n) and node weights ([R,] n, N).

    coef's row blocks [Re a; Im a; Re 2da; Im 2da] (amplitudes a_j = <xi_j|V U_t|psi>)
    give p_j = |a_j|^2 and dp_j = Re(a_j^* 2 da_j) as slices; sums over p_j > SUPPORT_THRESHOLD.
    """
    z = (coef @ table).reshape(len(coef), 2, 2, -1, table.shape[-1])  # (R, a/2da, re/im, d, N)
    pd = z[:, :1] * z
    p, dp = pd[:, 0, 0] + pd[:, 0, 1], pd[:, 1, 0] + pd[:, 1, 1]
    terms = np.divide(dp * dp, p, out=np.zeros(p.shape), where=p > SUPPORT_THRESHOLD)
    return np.add.reduce(terms, axis=1)


def _line(K, y, psi, Yt, T=None, control: bool = True) -> np.ndarray:
    """_fisher's coef at the rows' point (T None) or along the move of T = _move_terms(d)[c].

    Z = [z0_k; z1_k] is y, or the rows (T_k y_m)^T of a control move or (Y_m T_k psi)^T of a
    preparation move, and column k gets a = K0 z0_k and 2 da = K1 z0_k + K0 z1_k.
    """
    R, d = psi.shape
    if T is None:
        Z = y
    elif control:
        Z = (y @ T.reshape(d, 3 * d)).reshape(R, 6, d)
    else:
        Z = (psi @ T.reshape(d, 3 * d)).reshape(R, 3, d) @ Yt
        Z = Z.reshape(R, 3, 2, d).swapaxes(1, 2).reshape(R, 6, d)
    out, n = K @ Z.swapaxes(1, 2), Z.shape[1] // 2
    a, da = out[:, :d, :n], out[:, d:, :n] + out[:, :d, n:]
    return np.concatenate((a.real, a.imag, da.real, da.imag), axis=1)


def _move_terms(d: int) -> np.ndarray:
    """(d^2 + 2d - 2, d, 3, d) terms T = (I - B^2, B^2, -i B) of optimize_cem's generators B.

    Entry [c, j, k, i] is T_k's (i, j) entry, so z^T terms[c].reshape(d, 3 d) is
    [(T_0 z)^T, (T_1 z)^T, (T_2 z)^T].  The d^2 control generators come first: the
    diagonal phases |j><j|, then per pair i < j an X-type |i><j| + |j><i| and a Y-type
    i|i><j| - i|j><i|.  The 2d-2 preparation generators follow: the Y-types of the pairs
    (0, j), which are real rotations, then the phases |j><j|, for j = 1..d-1.  Every B has
    B^3 = B, so exp(-i delta B) = T_0 + cos(delta) T_1 + sin(delta) T_2: a phase on one
    component or a cos/sin mix of two.
    """
    n_v = d * d
    B = np.zeros((n_v + 2 * d - 2, d, d), dtype=complex)
    B[range(d), range(d), range(d)] = 1.0
    i, j = np.triu_indices(d, 1)
    k = d + 2 * np.arange(i.size)
    B[k, i, j] = B[k, j, i] = 1.0
    B[k + 1, i, j], B[k + 1, j, i] = 1j, -1j
    j = np.arange(1, d)
    B[n_v + j - 1, 0, j], B[n_v + j - 1, j, 0] = 1j, -1j
    B[n_v + d - 2 + j, j, j] = 1.0
    B2 = B @ B
    return np.stack([np.eye(d) - B2, B2, -1j * B], axis=1).transpose(0, 3, 1, 2).copy()


def _grid_max_rows(f, lo: float, hi: float):
    """Two-stage grid maximization of every row over [lo, hi]; returns (x, f(x)), each (R,).

    The coarse stage calls f once on the (COARSE_NODES,) even nodes of [lo, hi] that all
    rows share, for (R, COARSE_NODES) values; the fine stage calls it once on each row's
    FINE_NODES even nodes across one coarse spacing either side of its best coarse node,
    clipped to [lo, hi], for (R, FINE_NODES).  The result is the best node evaluated (the
    first maximum of a stage, the fine one only if strictly better); the midpoint of
    [lo, hi] is a coarse node (0 for [-r, r]).
    """
    x = lo + (hi - lo) * _COARSE
    fx = f(x)
    k, rows = fx.argmax(axis=1), np.arange(len(fx))  # first maximum: ties go to the lowest node
    best_x, best_f = x[k], fx[rows, k]
    step = (hi - lo) / (COARSE_NODES - 1)
    a, b = np.maximum(lo, best_x - step), np.minimum(hi, best_x + step)
    x = a[:, None] + (b - a)[:, None] * _FINE
    fx = f(x)
    k = fx.argmax(axis=1)
    fk = fx[rows, k]
    up = fk > best_f
    return np.where(up, x[rows, k], best_x), np.where(up, fk, best_f)


def optimize_cem(
    model: HamiltonianModel,
    theta: float,
    t: float,
    budget: tuple[int, int] = (8, 400),
    seed: int = 0,
):
    """Derivative-free maximization of the CEM Fisher information.

    Coordinate-wise grid line searches in cyclic passes over d^2 + 2d - 2
    elementary rotation moves, multistarted: V -> V exp(-i delta B) for a
    generator B of the Hermitian basis (a diagonal phase, or an X- or Y-type
    generator of a pair of levels), or psi -> exp(-i delta B) psi (a real
    rotation between components 0 and j, or a phase on component j >= 1), with
    delta in [-radius, radius], radius 0.6 shrinking by 0.8 per pass down to
    1e-3.  A restart takes its best probe only if that improves on its value.
    One analytic _generators feeds the objective and the seed's _solution: three
    eigendecompositions (H(theta), g_diag, g_dyn) whatever the budget, none after g_bound
    at the same (model, theta, t), and theta only has to lie inside the open domain.

    Each restart carries K = [W^dag V; -2i g_diag W^dag V] and y = [U_t psi;
    -2i g_dyn U_t psi], so a = W^dag V U_t psi = K0 y0 and 2 da = K1 y0 + K0 y1;
    an accepted move updates K, or psi and y.  Along a line a is linear in
    (1, cos delta, sin delta) (_move_terms, _line), and each of _grid_max_rows' two
    stages is one _fisher call over all R rows: COARSE_NODES steps shared by every
    restart, then FINE_NODES per restart around its best.  Restart 0 starts at the
    analytic optimum, so the result never falls below its Fisher information, and only
    the others test the closed form independently; they start from a
    Haar control and a complex normal preparation each, drawn up front from
    default_rng(seed) in restart order.  budget = (restarts, line searches per
    restart).  Returns (best Fisher information, best V, best psi); ties
    between restarts go to the earliest.
    """
    return _optimize(model, theta, t, budget, seed)[1]


def _optimize(model: HamiltonianModel, theta: float, t: float, budget, seed: int):
    """(g_bound's CemSolution, optimize_cem's result) from one analytic _generators."""
    restarts, iterations = budget
    if restarts < 1 or iterations < 1:
        raise ValueError("budget entries must be positive")
    d, rng = model.dim, np.random.default_rng(seed)
    W, u_t, g_dyn, g_diag, dyn, diag, method = _generators(model, theta, t, None)
    sol = _solution(W, u_t, dyn, diag, method)
    terms, Wh = _move_terms(d), W.conj().T
    Yt = np.concatenate((u_t, -2j * g_dyn @ u_t)).T  # y = (psi @ Yt) as (2, d)

    V, psi = [sol.V_opt], [sol.psi_opt]
    for _ in range(restarts - 1):
        q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        V.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi.append(z / np.linalg.norm(z))
    K, psi = np.concatenate((Wh, -2j * g_diag @ Wh)) @ np.stack(V), np.stack(psi)
    y = (psi @ Yt).reshape(restarts, 2, d)

    current = _fisher(_line(K, y, psi, Yt), np.ones((1, 1)))[:, 0]
    coarse = {}  # radius -> [1; cos; sin] of the coarse nodes, which all rows share
    radius, table = 0.6, np.ones((restarts, 3, FINE_NODES))  # the fine stage refills cos, sin
    for it in range(iterations):
        coord = it % terms.shape[0]
        if coord == 0 and it > 0:
            radius = max(radius * 0.8, 1e-3)
        T, on_control = terms[coord], coord < d * d
        coef = _line(K, y, psi, Yt, T, on_control)

        def along(x: np.ndarray) -> np.ndarray:
            if x.ndim == 2:
                np.cos(x, out=table[:, 1])
                np.sin(x, out=table[:, 2])
                return _fisher(coef, table)
            if radius not in coarse:
                coarse[radius] = np.stack((np.ones_like(x), np.cos(x), np.sin(x)))
            return _fisher(coef, coarse[radius])

        delta, fc = _grid_max_rows(along, -radius, radius)
        better = fc > current
        delta = np.where(better, delta, 0.0)[:, None, None]  # rejected rows turn by I
        rot_t = T[:, 0] + np.cos(delta) * T[:, 1] + np.sin(delta) * T[:, 2]  # exp(-i delta B)^T
        if on_control:
            K = K @ rot_t.swapaxes(1, 2)
        else:
            psi = (psi[:, None, :] @ rot_t)[:, 0]
            y = (psi @ Yt).reshape(restarts, 2, d)
        current = np.where(better, fc, current)

    r = int(np.argmax(current))  # first maximum: ties go to the earliest restart
    return sol, (float(current[r]), require_unitary(W @ K[r, :d]), require_state(psi[r]))


def max_gap_lemma_check(M1, M2, trials: int = 100, seed: int = 0):
    """Probe max_{U1,U2} sigma(U1 M1 U1^dag + U2 M2 U2^dag) = sigma(M1) + sigma(M2).

    Returns (numeric maximum, analytic value).  The numeric maximum runs over
    random unitary conjugation pairs plus the explicitly constructed aligning
    pair (simultaneous descending diagonalization), which achieves the
    analytic value exactly.
    """
    A = require_hermitian(M1)
    B = require_hermitian(M2)
    if A.shape != B.shape:
        raise ValueError("matrices must have equal dimension")
    if trials < 1:
        raise ValueError("trials must be positive")
    # Aligning pair: conjugate both matrices to descending diagonal form.
    e1, e2 = eig_hermitian(A).eigenvalues, eig_hermitian(B).eigenvalues
    analytic = _gap(e1) + _gap(e2)  # one decomposition of each matrix
    numeric = _gap(e1 + e2)
    rng = np.random.default_rng(seed)
    d = A.shape[0]

    for _ in range(trials):
        z1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        z2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u1, _ = np.linalg.qr(z1)
        u2, _ = np.linalg.qr(z2)
        numeric = max(numeric, spectral_gap(u1 @ A @ u1.conj().T + u2 @ B @ u2.conj().T))
    return numeric, analytic
