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
preparation; an independent derivative-free optimizer cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .errors import NonSmoothFamily
from .fisher import (
    SUPPORT_THRESHOLD,
    FisherReport,
    OutcomeDistribution,
    ProbabilityModel,
    _qfi_report,
    classical_fisher,
    qfi,
)
from .linalg import (
    eig_hermitian,
    eigh_nondegenerate,
    expm_unitary,
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
# Relative phase of the extremal g_diag eigenvectors in the optimal preparation.
PREPARATION_PHASE = math.pi / 2.0
GOLDEN_STEPS = 14  # golden-section steps per line search of optimize_cem


@dataclass(frozen=True)
class GeneratorPair:
    """Local generators of the encoding unitary and of the diagonalizer family.

    method is "analytic" when both come from the model's dh_of, otherwise the
    finite-difference method (a DiffSpec method) that differentiated them.
    """

    g_dyn: np.ndarray
    g_diag: np.ndarray
    gaps: tuple[float, float]
    theta: float
    t: float
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


def _eigenbasis(model: HamiltonianModel, theta: float):
    """(ascending energies E, eigenvector columns W) of H(theta) in the phase-fixed gauge.

    Raises DegenerateSpectrum for (near-)degenerate H(theta).
    """
    E, W = eigh_nondegenerate(model.h_of(theta))
    return E, fix_phases(W)


def diagonalizer(model: HamiltonianModel, theta: float) -> np.ndarray:
    """Unitary S whose rows are the energy eigenbra's, ground state first.

    S H(theta) S^dag = diag(xi_0 <= ... <= xi_{d-1}); rows use the phase-fixed
    gauge.  Raises DegenerateSpectrum for (near-)degenerate Hamiltonians.
    """
    return _eigenbasis(model, theta)[1].conj().T


def diagonalizer_family(model: HamiltonianModel, theta: float):
    """theta' -> S(theta'), gauge-continuous around the anchor point theta.

    At the anchor the rows are phase-fixed eigenbra's in ascending energy
    order.  At nearby theta' every eigenvector is matched to the anchor
    eigenvector of maximal overlap modulus and rephased so that the overlap
    with the anchor vector is real and positive.
    """
    return _transported_family(model, _eigenbasis(model, theta)[1])


def _transported_family(model: HamiltonianModel, anchor: np.ndarray):
    """theta' -> S(theta') with eigenvectors matched and rephased against the anchor columns."""
    d = anchor.shape[0]

    def s_of(x: float) -> np.ndarray:
        _, V = eigh_nondegenerate(model.h_of(x))
        cols = np.empty_like(anchor)
        used = np.zeros(d, dtype=bool)
        for k in range(d):
            overlaps = np.abs(anchor[:, k].conj() @ V)
            overlaps[used] = -1.0
            j = int(np.argmax(overlaps))
            used[j] = True
            s = np.vdot(anchor[:, k], V[:, j])
            cols[:, k] = V[:, j] * (s.conjugate() / abs(s)) if abs(s) > 0 else V[:, j]
        return cols.conj().T

    return s_of


def local_generator(u_of, theta: float, diff: DiffSpec = DEFAULT_DIFF) -> np.ndarray:
    """Local generator i (dU/dtheta) U^dag of a smooth unitary family.

    Raises NonSmoothFamily when the numerical generator fails Hermiticity,
    which signals a gauge discontinuity or a kink in the family.
    """
    u0 = np.asarray(u_of(theta), dtype=complex)
    du, _ = numdiff.derivative(lambda x: np.asarray(u_of(x), dtype=complex), theta, diff)
    g = 1j * du @ u0.conj().T
    defect = np.max(np.abs(g - g.conj().T))
    if defect > GENERATOR_HERMITICITY_TOL * (1.0 + np.max(np.abs(g))):
        raise NonSmoothFamily(f"generator Hermiticity defect {defect:.3e}")
    return (g + g.conj().T) / 2.0


def _analytic_generators(E: np.ndarray, W: np.ndarray, dH: np.ndarray, t: float):
    """(g_dyn, g_diag, D) from H = W diag(E) W^dag and dH/dtheta, E nondegenerate.

    With D = W^dag dH W (whose diagonal holds the energy derivatives dE_j)
    and w_jk = E_j - E_k, first-order perturbation theory in the
    parallel-transport gauge of the columns W gives the diagonalizer
    generator g_diag_jk = i D_jk / w_jk with a zero diagonal.  The derivative
    of exp(-i t H) (Wilcox 1967; Daleckii-Krein) gives
    W^dag g_dyn W = D * i (exp(-i t w) - 1) / w = D * t exp(-i t w / 2) sinc(t w / 2 pi),
    whose diagonal is t D_jj.
    """
    D = W.conj().T @ dH @ W
    D = (D + D.conj().T) / 2.0
    w = E[:, None] - E[None, :]
    g_diag = np.divide(1j * D, w, out=np.zeros_like(D), where=w != 0.0)
    g_dyn = W @ (D * (t * np.exp(-0.5j * t * w) * np.sinc(t * w / (2.0 * math.pi)))) @ W.conj().T
    return (g_dyn + g_dyn.conj().T) / 2.0, g_diag, D


def _generators(model: HamiltonianModel, theta: float, t: float, diff: DiffSpec | None):
    """(E, W, g_dyn, g_diag, method), with (E, W) the _eigenbasis of H(theta)."""
    # fd is the finite-difference spec of the oracle path; None selects the analytic one.
    fd = DEFAULT_DIFF if diff is None and model.dh_of is None else diff
    radius = 0.0 if fd is None else fd.base_step(theta)
    numdiff.check_domain(theta, radius, model.theta_domain)
    E, W = _eigenbasis(model, theta)
    if fd is None:
        g_dyn, g_diag, _ = _analytic_generators(E, W, require_hermitian(model.dh_of(theta)), t)
        return E, W, g_dyn, g_diag, numdiff.ANALYTIC
    g_dyn = local_generator(lambda x: model.u_of(x, t), theta, fd)
    g_diag = local_generator(_transported_family(model, W), theta, fd)
    return E, W, g_dyn, g_diag, fd.method


def generator_pair(
    model: HamiltonianModel, theta: float, t: float, diff: DiffSpec | None = None,
) -> GeneratorPair:
    """Generators of the encoding unitary exp(-i t H) and of the diagonalizer.

    By default both are analytic in the eigenbasis of H(theta), from the
    model's dh_of: one eigendecomposition, and theta only has to lie inside
    the open domain.  A finite-difference diff, or a model without dh_of
    (Richardson then), differentiates both unitary families numerically
    instead; that path is the cross-check oracle, needs its whole stencil
    inside the domain, and is the only one that can raise NonSmoothFamily.
    """
    _, _, g_dyn, g_diag, method = _generators(model, theta, t, diff)
    return GeneratorPair(
        g_dyn=g_dyn,
        g_diag=g_diag,
        gaps=(spectral_gap(g_dyn), spectral_gap(g_diag)),
        theta=theta,
        t=t,
        method=method,
    )


def _moduli_match(es) -> bool:
    """check_condition on the eigensystem of g_diag."""
    v_top, v_bot = es.eigenvectors[:, 0], es.eigenvectors[:, -1]
    return all(abs(abs(a) - abs(b)) <= CONDITION_TOL for a, b in zip(v_top, v_bot))


def check_condition(g_diag) -> bool:
    """Moduli-matching condition on the extremal eigenvectors of g_diag.

    True iff |<j|v_max>| = |<j|v_min>| within CONDITION_TOL for every
    component j.  Components where both moduli vanish satisfy the condition
    trivially.
    """
    return _moduli_match(eig_hermitian(g_diag))


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
    its gap, R1 or R2 and the condition, so the analytic path costs three.
    """
    E, W, g_dyn, g_diag, method = _generators(model, theta, t, diff)
    es_diag = eig_hermitian(g_diag)  # descending, phase-fixed
    es_dyn = eig_hermitian(g_dyn)
    sigma_dyn = float(es_dyn.eigenvalues[0] - es_dyn.eigenvalues[-1])
    sigma_diag = float(es_diag.eigenvalues[0] - es_diag.eigenvalues[-1])
    r1 = es_diag.eigenvectors.conj().T
    r2 = es_dyn.eigenvectors.conj().T
    s = W.conj().T
    v_opt = s.conj().T @ r1.conj().T @ r2

    u_tilde = s @ v_opt @ spectral_unitary(E, W, t)
    v_top, v_bot = es_diag.eigenvectors[:, 0], es_diag.eigenvectors[:, -1]
    psi_opt = u_tilde.conj().T @ ((v_top + np.exp(1j * PREPARATION_PHASE) * v_bot)
                                  / math.sqrt(2.0))

    return CemSolution(
        G_value=(sigma_dyn + sigma_diag) ** 2,
        condition_holds=_moduli_match(es_diag),
        V_opt=v_opt,
        psi_opt=psi_opt,
        gaps=(sigma_dyn, sigma_diag),
        method=method,
    )


def cem_outcome_model(
    model: HamiltonianModel, t: float, V, rho0
) -> ProbabilityModel:
    """Outcome model Pr_theta(j) = <xi_j,theta| V rho_theta V^dag |xi_j,theta>.

    Outcomes are identified across parameter values by their spectral index j
    (ascending energy order), never by the eigenvalue itself.  With the
    model's dh_of the outcome model also carries the analytic jet of
    _level_jet.
    """
    v = require_unitary(V)
    rho = require_density(rho0)

    def at(x: float) -> OutcomeDistribution:
        ev, probs = _node(model, x, t, v, rho)
        return OutcomeDistribution(outcomes=tuple(range(ev.shape[0])), probs=probs)

    def jet(x: float):
        return _level_jet(model, x, t, v, rho)[3:]

    return ProbabilityModel(at=at, theta_domain=model.theta_domain,
                            jet=None if model.dh_of is None else jet)


def _node(model: HamiltonianModel, x: float, t: float, V: np.ndarray, rho0: np.ndarray):
    """(ascending energies xi_j, level weights <xi_j|V U_t rho0 U_t^dag V^dag|xi_j>) at x.

    One eigendecomposition of H(x) gives both the measured eigenbasis and the
    encoding unitary U_t = exp(-i t H(x)).  V and rho0 must already be
    validated.  Raises DegenerateSpectrum for (near-)degenerate H(x).
    """
    ev, W = eigh_nondegenerate(model.h_of(x))
    u_t = spectral_unitary(ev, W, t)
    M = V @ (u_t @ rho0 @ u_t.conj().T) @ V.conj().T
    probs = np.einsum("ij,jk,ki->i", W.conj().T, M, W).real
    return ev, np.clip(probs, 0.0, None)


def _rounding_bound(E: np.ndarray, scale: float) -> float:
    """First-order rounding bound eps (d + max|E| / min spacing) scale.

    The eigenvectors of H = W diag(E) W^dag, and so every derivative built
    from them, carry relative rounding errors of the order of the condition
    number max|E| / min spacing (plus d from the matrix products); scale is
    the size of the derivative.
    """
    spacing = float(np.min(np.diff(E)))
    return np.finfo(float).eps * (E.shape[0] + float(np.max(np.abs(E))) / spacing) * scale


def _level_jet(model: HamiltonianModel, x: float, t: float, V: np.ndarray,
               rho0: np.ndarray):
    """(E, dE, dE_err, p, dp, dp_err) at x from one decomposition of H(x).

    E and dE are the ascending energies and their derivatives dE_j = D_jj, p
    and dp the level weights and theirs, and dE_err, dp_err first-order
    rounding bounds on each dE and dp entry.  With sigma = U_t rho0 U_t^dag,
    M = V sigma V^dag and the measured eigenvectors xi_j = W e_j, the
    analytic generators give dxi = W (i g_diag) and
    dsigma = -i [g_dyn, sigma], so
    dp_j = 2 Re <dxi_j|M|xi_j> + <xi_j|V dsigma V^dag|xi_j>.  Both are
    gauge invariant, so W keeps NumPy's gauge.  V and rho0 must already be
    validated; x only has to lie inside the open domain.
    """
    numdiff.check_domain(x, 0.0, model.theta_domain)
    E, W = eigh_nondegenerate(model.h_of(x))
    dH = require_hermitian(model.dh_of(x))
    g_dyn, g_diag, D = _analytic_generators(E, W, dH, t)
    u_t = spectral_unitary(E, W, t)
    sigma = u_t @ rho0 @ u_t.conj().T
    dsigma = -1j * (g_dyn @ sigma - sigma @ g_dyn)
    B = W.conj().T @ V  # the control followed by the measured eigenbasis
    Bh = B.conj().T
    A = B @ sigma @ Bh  # W^dag M W
    # <dxi_j|M|xi_j> = -i (g_diag A)_jj, so its doubled real part is 2 Im (g_diag A)_jj.
    dp = (2.0 * np.einsum("jk,kj->j", g_diag, A).imag
          + np.einsum("jk,kl,lj->j", B, dsigma, Bh).real)
    scale = 2.0 * (np.linalg.norm(g_diag) + 2.0 * np.linalg.norm(g_dyn))
    p = np.clip(np.diagonal(A).real, 0.0, None)
    # dE_j = <xi_j|dH|xi_j> moves by at most 2 |dxi_j| |dH| under an eigenvector error dxi_j.
    dE_err = _rounding_bound(E, 2.0 * np.linalg.norm(dH))
    return E, D.diagonal().real, dE_err, p, dp, _rounding_bound(E, scale)


def fisher_cem(
    model: HamiltonianModel,
    theta: float,
    t: float,
    V,
    rho0,
    diff: DiffSpec | None = None,
) -> FisherReport:
    """Fisher information of a controlled energy measurement.

    The parameter moves both the state rho_theta and the measured eigenbasis,
    so this is a non-regular statistical model; the energy measurement V = I
    yields a t-independent value.  diff is classical_fisher's: by default a
    model with dh_of is differentiated analytically through _level_jet (two
    decompositions: rho0's check and H(theta)); an explicit finite-difference
    DiffSpec, or a model without dh_of (Richardson then), runs the stencil
    over cem_outcome_model's distributions as the oracle.
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

    sigma(g_dyn)^2 is the quantum Fisher information of the best preparation.
    By default one decomposition of H(theta) gives U_t and g_dyn, and the
    state moves as drho = -i [g_dyn, rho] (method "analytic", step 0; theta
    only has to lie inside the open domain).  An explicit finite-difference
    diff, or a model without dh_of (Richardson then), runs fisher.qfi's
    stencil over model.u_of instead; that path is the oracle and also checks
    the rank of rho across the stencil.  g_dyn follows generator_pair's
    default on both paths.  rho0 must be Hermitian with unit trace.
    """
    if diff is not None or model.dh_of is None:
        def rho_of(x: float) -> np.ndarray:
            u = model.u_of(x, t)
            return u @ rho0 @ u.conj().T

        report = qfi(rho_of, theta, DEFAULT_DIFF if diff is None else diff,
                     model.theta_domain)
        return report, spectral_gap(_generators(model, theta, t, None)[2])
    E, W, g_dyn, _, _ = _generators(model, theta, t, None)
    u_t = spectral_unitary(E, W, t)
    rho = u_t @ rho0 @ u_t.conj().T
    drho = -1j * (g_dyn @ rho - rho @ g_dyn)
    drho_err = _rounding_bound(E, 4.0 * np.linalg.norm(g_dyn))
    report = _qfi_report(rho, (drho + drho.conj().T) / 2.0, drho_err, numdiff.ANALYTIC, 0.0)
    return report, spectral_gap(g_dyn)


# --- independent derivative-free maximization ---------------------------------------


def _fast_objective(model: HamiltonianModel, theta: float, t: float, step: float):
    """CEM Fisher information as a cheap batched objective (V, psi) -> value.

    One eigendecomposition per stencil node serves both the encoding unitary
    and the measured eigenbasis; a plain central difference replaces the full
    reporting machinery.  V is (..., d, d), psi is (..., d), and the value has
    their broadcast leading shape.  Agrees with fisher_cem to the stencil's
    accuracy.
    """
    nodes = (theta - step, theta + step, theta)
    E, W = eigh_nondegenerate(np.stack([model.h_of(x) for x in nodes]))
    Wh = W.conj().swapaxes(-2, -1)
    U = spectral_unitary(E, W, t)  # encoding unitary at each node

    def value(V: np.ndarray, psi: np.ndarray) -> np.ndarray:
        amps = Wh @ (V[..., None, :, :] @ (U @ psi[..., None, :, None]))
        probs = np.abs(amps[..., 0]) ** 2  # (..., node, outcome)
        dp = (probs[..., 1, :] - probs[..., 0, :]) / (2.0 * step)
        p0 = probs[..., 2, :]
        terms = np.divide(dp**2, p0, out=np.zeros_like(p0), where=p0 > SUPPORT_THRESHOLD)
        return terms.sum(axis=-1)

    return value


def _hermitian_basis(d: int) -> np.ndarray:
    """(d^2, d*d) map from real parameters (diagonal first, then pairs) to Hermitian A.

    A = (x @ basis).reshape(..., d, d) for x of shape (..., d^2).
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[range(d), range(d), range(d)] = 1.0
    i, j = np.triu_indices(d, 1)
    k = d + 2 * np.arange(i.size)
    basis[k, i, j] = basis[k, j, i] = 1.0
    basis[k + 1, i, j], basis[k + 1, j, i] = 1j, -1j
    return basis.reshape(d * d, d * d)


def _state_from_angles(x: np.ndarray, d: int) -> np.ndarray:
    """Hyperspherical chart: (..., 2d-2) = d-1 mixing angles plus d-1 relative phases."""
    mix = x[..., :d - 1]
    tails = np.cumprod(np.sin(mix), axis=-1)
    amps = np.concatenate(
        [np.cos(mix[..., :1]), tails[..., :-1] * np.cos(mix[..., 1:]), tails[..., -1:]], axis=-1)
    psi = amps.astype(complex)
    psi[..., 1:] *= np.exp(1j * x[..., d - 1:])
    return psi


def _angles_from_state(psi: np.ndarray) -> np.ndarray:
    """Best-effort inverse of the hyperspherical chart (exact away from chart edges)."""
    d = psi.shape[0]
    v = psi * (psi[0].conjugate() / abs(psi[0])) if abs(psi[0]) > 1e-14 else psi.copy()
    r = np.abs(v)
    angles = np.zeros(2 * d - 2)
    tail = 1.0
    for i in range(d - 1):
        angles[i] = math.acos(min(max(r[i] / tail, 0.0), 1.0)) if tail > 1e-14 else 0.0
        tail *= math.sin(angles[i])
    angles[d - 1:] = np.angle(v[1:])
    return angles


def _golden_max_rows(f, lo: np.ndarray, hi: np.ndarray):
    """Golden-section maximization of every row on its own [lo, hi]; returns (x, f(x)).

    f maps an (..., R) array of abscissae to values of the same shape.  The two
    interior nodes are evaluated in one (2, R) call, then each step evaluates
    one new node per row; np.where picks each row's bracket.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(np.stack([c, e]))
    for _ in range(GOLDEN_STEPS):
        left = fc >= fe  # keep [a, e] and probe a new c; otherwise keep [c, b], new e
        a, b = np.where(left, a, c), np.where(left, e, b)
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fp = f(probe)
        c, e = np.where(left, probe, e), np.where(left, c, probe)
        fc, fe = np.where(left, fp, fe), np.where(left, fc, fp)
    left = fc >= fe
    return np.where(left, c, e), np.where(left, fc, fe)


def optimize_cem(
    model: HamiltonianModel,
    theta: float,
    t: float,
    budget: tuple[int, int] = (8, 400),
    seed: int = 0,
):
    """Derivative-free maximization of the CEM Fisher information.

    Coordinate-wise golden-section line search with cyclic passes over the
    d^2 control parameters (V = V_seed exp(-iA)) and the 2d-2 preparation
    parameters, multistarted.  All restarts share the coordinate schedule,
    the radius decay and the 14-step golden section, so they advance in
    lockstep as one (R, d, d) batch: each golden step is one objective call
    over the R rows, and each row's bracket and accept/reject is an np.where.
    One restart is seeded at the analytic optimum (V_opt, psi_opt), whose
    Fisher information is also evaluated directly, so the returned value
    never falls below it.  The remaining restarts start from Haar-random
    controls and random pure preparations, drawn up front from
    default_rng(seed) in restart order: a Haar control, then a complex normal
    preparation, per restart.  budget = (restarts, line searches per
    restart).  The internal objective takes a central difference with step
    1e-5 (1 + |theta|).

    Returns (best Fisher information, best V, best psi); ties between
    restarts go to the earliest.
    """
    restarts, iterations = budget
    if restarts < 1 or iterations < 1:
        raise ValueError("budget entries must be positive")
    step = 1e-5 * (1.0 + abs(theta))
    numdiff.check_domain(theta, step, model.theta_domain)
    d = model.dim
    n_v = d * d
    n_p = 2 * d - 2
    rng = np.random.default_rng(seed)
    objective = _fast_objective(model, theta, t, step)

    sol = g_bound(model, theta, t)
    best_fi = float(objective(sol.V_opt, sol.psi_opt))
    best_v, best_psi = sol.V_opt, sol.psi_opt

    v_seeds, preps = [sol.V_opt], [sol.psi_opt]
    for _ in range(restarts - 1):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        v_seeds.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        preps.append(z / np.linalg.norm(z))
    v_seeds = np.stack(v_seeds)
    x = np.stack([np.concatenate([np.zeros(n_v), _angles_from_state(p)]) for p in preps])

    basis = _hermitian_basis(d)

    def controls(params: np.ndarray, seeds: np.ndarray = v_seeds) -> np.ndarray:
        A = (params[..., :n_v] @ basis).reshape(params.shape[:-1] + (d, d))
        return seeds @ expm_unitary(A, 1.0)

    current = objective(controls(x), _state_from_angles(x[:, n_v:], d))
    radius = 0.6
    for it in range(iterations):
        coord = it % (n_v + n_p)
        if coord == 0 and it > 0:
            radius = max(radius * 0.8, 1e-3)
        # Only one of V and psi moves along a coordinate; the other is fixed.
        on_control = coord < n_v
        V = None if on_control else controls(x)
        psi = _state_from_angles(x[:, n_v:], d) if on_control else None

        def along(vals: np.ndarray) -> np.ndarray:
            y = np.broadcast_to(x, vals.shape + x.shape[1:]).copy()
            y[..., coord] = vals
            if on_control:
                return objective(controls(y), psi)
            return objective(V, _state_from_angles(y[..., n_v:], d))

        xc, fc = _golden_max_rows(along, x[:, coord] - radius, x[:, coord] + radius)
        better = fc > current
        x[better, coord] = xc[better]
        current = np.where(better, fc, current)

    r = int(np.argmax(current))  # first maximum: ties go to the earliest restart
    if current[r] > best_fi:
        best_fi = float(current[r])
        best_v = controls(x[r], v_seeds[r])
        best_psi = _state_from_angles(x[r, n_v:], d)

    return best_fi, best_v, require_state(best_psi)


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
    analytic = spectral_gap(A) + spectral_gap(B)
    rng = np.random.default_rng(seed)
    d = A.shape[0]

    # Aligning pair: conjugate both matrices to descending diagonal form.
    e1 = eig_hermitian(A)
    e2 = eig_hermitian(B)
    numeric = spectral_gap(np.diag(e1.eigenvalues + e2.eigenvalues))

    for _ in range(trials):
        z1 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        z2 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u1, _ = np.linalg.qr(z1)
        u2, _ = np.linalg.qr(z2)
        numeric = max(numeric, spectral_gap(u1 @ A @ u1.conj().T + u2 @ B @ u2.conj().T))
    return numeric, analytic
