"""Dense complex linear algebra on small Hilbert spaces.

Every Hermitian matrix in qmet is decomposed by _eigh: one Hermiticity check, then one
numpy.linalg.eigh.  So a matrix has one spectrum, and a generator one gap, whichever
caller asks.  eigh_nondegenerate, the one checked decomposition of a model Hamiltonian,
returns ascending energies (ground state first).  eig_hermitian, for
generators and other operators, returns a phase-fixed Eigensystem ordered
non-increasingly (lambda_1 >= ... >= lambda_d).  All functions are pure and
operate on plain complex ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, InvalidParameter, NonHermitianInput

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
DEGENERACY_TOL = 1e-8
STATE_NORM_TOL = 1e-12


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex matrix or a (..., d, d) stack of them."""
    A = np.asarray(M, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def require_hermitian(M) -> np.ndarray:
    """Return M as an ndarray, raising NonHermitianInput if M != M^dag.

    The tolerance is relative, per matrix of a stack:
    max|M - M^dag| < HERMITICITY_TOL * (1 + max|M|), which a matrix with a NaN or
    infinite entry fails: its defect is NaN, or infinite as its scale is.
    """
    A = as_matrix(M)
    # ufunc reductions skip np.max's dispatch: this check guards every decomposition.
    scale = 1.0 + np.maximum.reduce(np.abs(A), axis=(-2, -1))
    defect = np.maximum.reduce(np.abs(A - A.conj().swapaxes(-2, -1)), axis=(-2, -1))
    if not np.logical_and.reduce(defect < HERMITICITY_TOL * scale, axis=None):
        if not np.isfinite(A).all():
            raise NonHermitianInput("matrix has a NaN or infinite entry")
        raise NonHermitianInput(
            f"Hermiticity defect {np.max(defect):.3e} exceeds {HERMITICITY_TOL:.1e}*(1+|M|)")
    return A


def _eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, eigenvector columns) of a Hermitian M or (..., d, d) stack.

    require_hermitian, then one numpy.linalg.eigh (one call for a whole stack): the only
    decomposition in qmet.  Each matrix thus has one spectrum whoever asks; an
    eigenvalue-only driver would round it differently, so a gap would depend on its caller.
    """
    return np.linalg.eigh(require_hermitian(M))


def require_unitary(U) -> np.ndarray:
    """Return U as an ndarray, raising if U U^dag deviates from the identity or is NaN."""
    A = as_matrix(U)
    defect = np.max(np.abs(A @ A.conj().swapaxes(-2, -1) - np.eye(A.shape[-1])))
    if not (defect <= UNITARITY_TOL):
        why = "is NaN" if math.isnan(defect) else f"{defect:.3e} exceeds {UNITARITY_TOL:.1e}"
        raise DimensionMismatch(f"unitarity defect {why}")
    return A


def require_density(rho) -> tuple[np.ndarray, np.ndarray]:
    """(rho, F): one eigh validates rho (Hermitian, positive, unit trace within
    HERMITICITY_TOL) and gives F = v sqrt(lambda) over the eigenvalues above d eps,
    so F F^dag = rho up to rounding and a pure state keeps one column."""
    A = as_matrix(rho)
    ev, v = _eigh(A)
    _require_density_spectrum(ev, np.trace(A).real)
    keep = ev > A.shape[0] * np.finfo(float).eps
    return A, v[:, keep] * np.sqrt(ev[keep])


def _require_density_spectrum(ev: np.ndarray, trace: float) -> None:
    """DimensionMismatch unless a Hermitian matrix with ascending eigenvalues ev and this
    trace is a density matrix: ev[0] >= -HERMITICITY_TOL and trace 1 within it (a NaN
    fails)."""
    if not (ev[0] >= -HERMITICITY_TOL):
        low = "a NaN" if math.isnan(ev[0]) else f"negative eigenvalue {ev[0]:.3e}"
        raise DimensionMismatch(f"density matrix has {low}")
    if not (abs(trace - 1.0) <= HERMITICITY_TOL):
        raise DimensionMismatch(f"density matrix trace {trace} != 1")


def require_state(psi) -> np.ndarray:
    """Validate a pure-state amplitude vector (unit Euclidean norm; a NaN norm fails)."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(v)
    if not (abs(nrm - 1.0) <= STATE_NORM_TOL):
        raise DimensionMismatch(f"state norm {nrm} != 1 within {STATE_NORM_TOL:.1e}")
    return v


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition with non-increasing eigenvalues.

    ``eigenvalues[k]`` belongs to column ``eigenvectors[:, k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def fix_phases(V: np.ndarray) -> np.ndarray:
    """Make each column's largest-modulus entry real and nonnegative.

    V is one matrix or a (..., d, d) stack.  Ties on the modulus (within
    1e-12 relative) are broken by the lowest index; zero columns are left
    alone.
    """
    W = np.array(V, dtype=complex, copy=True)
    mags = np.abs(W)
    first = np.argmax(mags > mags.max(axis=-2, keepdims=True) * (1.0 - 1e-12), axis=-2)
    # Column k's entry in row first[k], read through the transpose in column order.
    entry = W.swapaxes(-1, -2)[first[..., None] == np.arange(W.shape[-1])].reshape(first.shape)
    size = np.hypot(entry.real, entry.imag)  # bit for bit the modulus of a complex scalar
    nonzero = size > 0
    phase = entry.conj() / np.where(nonzero, size, 1.0)
    return np.multiply(W, phase[..., None, :], out=W, where=nonzero[..., None, :])


def eig_hermitian(M) -> Eigensystem:
    """Eigendecompose a Hermitian matrix, eigenvalues sorted non-increasingly.

    Each eigenvector's largest-modulus entry is made real and nonnegative
    (phase-fixed gauge), giving a deterministic output for non-degenerate
    spectra.
    """
    ev, V = _eigh(M)
    ev, V = ev[::-1], V[:, ::-1]
    return Eigensystem(eigenvalues=ev, eigenvectors=fix_phases(V))


def require_nondegenerate(eigenvalues: np.ndarray) -> None:
    """Raise DegenerateSpectrum if consecutive eigenvalues are too close.

    eigenvalues is one spectrum or a (..., d) stack of them.  Two eigenvalues
    of a spectrum count as degenerate when they differ by less than
    DEGENERACY_TOL * (1 + its spectral gap); each spectrum of a stack has its
    own gap.  The test runs on halved eigenvalues, which decides it exactly as the
    full ones would and keeps a gap beyond the float range from overflowing.
    """
    half = np.sort(np.asarray(eigenvalues, dtype=float), axis=-1)
    half *= 0.5  # sort made a copy
    if half.shape[-1] < 2:
        return
    diffs = np.diff(half, axis=-1)
    if np.any(diffs < DEGENERACY_TOL * (0.5 + (half[..., -1:] - half[..., :1]))):
        raise DegenerateSpectrum(f"minimum eigenvalue spacing {2.0 * diffs.min():.3e} below "
                                 f"{DEGENERACY_TOL:.1e}*(1+gap)")


def eigh_nondegenerate(H) -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues E, eigenvector columns W) of a non-degenerate Hermitian H.

    H is one matrix or a (..., d, d) stack; one eigendecomposition covers the
    stack.  Raises NonHermitianInput, or DegenerateSpectrum when any matrix
    has (near-)equal eigenvalues.  The columns carry NumPy's gauge.
    """
    ev, W = _eigh(H)
    require_nondegenerate(ev)
    return ev, W


def spectral_unitary(ev: np.ndarray, W: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) from H = W diag(ev) W^dag, for one matrix or a (..., d, d) stack.

    InvalidParameter unless t is finite: cem's entry points and model.u_of build every
    exp(-i t H) here, so they reject a NaN or infinite t before any arithmetic on it.
    """
    if not math.isfinite(t):
        raise InvalidParameter(f"t must be finite, got {t}")
    return (W * np.exp(-1j * t * ev)[..., None, :]) @ W.conj().swapaxes(-2, -1)


def expm_unitary(H, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H or a (..., d, d) stack, via one eigendecomposition."""
    ev, V = _eigh(H)
    return spectral_unitary(ev, V, t)


def spectral_gap(M) -> float:
    """lambda_1(M) - lambda_d(M) >= 0 for Hermitian M."""
    ev = _eigh(M)[0]
    return float(ev[-1] - ev[0])


def tensor(A, B) -> np.ndarray:
    """Kronecker product."""
    return np.kron(as_matrix(A), as_matrix(B))


def partial_trace(M, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on C^dA (x) C^dB.

    keep='first' returns tr_B(M), keep='second' returns tr_A(M).
    """
    dA, dB = dims
    A = as_matrix(M)
    if A.shape[0] != dA * dB:
        raise DimensionMismatch(f"matrix dim {A.shape[0]} != {dA}*{dB}")
    T = A.reshape(dA, dB, dA, dB)
    if keep == "first":
        return np.einsum("ijkj->ik", T)
    if keep == "second":
        return np.einsum("ijik->jk", T)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def operator_variance(psi, O) -> float:
    """Variance <psi|O^2|psi> - <psi|O|psi>^2, clamped to be nonnegative.

    Rounding can take the difference below 0 by about eps <psi|O^2|psi>, so it raises
    ArithmeticError only below -1e-12 (1 + <psi|O^2|psi>), or where it is NaN or infinite.
    """
    v = require_state(psi)
    A = require_hermitian(O)
    if A.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"state dim {v.shape[0]} != operator dim {A.shape[0]}")
    Av = A @ v
    mean = float(np.vdot(v, Av).real)  # Python floats overflow to inf without a warning
    second = float(np.vdot(Av, Av).real)
    var = second - mean * mean
    floor = -1e-12 * (1.0 + second)
    if not (var >= floor):
        raise ArithmeticError("variance is NaN" if math.isnan(var) else
                              f"variance {var:.3e} below {floor:.3e}")
    if var == math.inf:
        raise ArithmeticError(f"<psi|O^2|psi> = {second} overflows the float range")
    return max(var, 0.0)
