"""Parametrized Hamiltonian families and their closed-form reference functions.

Each factory returns a ``HamiltonianModel`` exposing H(theta), an analytic
theta-derivative where available, and the open parameter domain.  The
``reference`` registry collects the closed-form Fisher-information
expressions used as oracles for the numeric machinery:

* qubit in a field of known magnitude, unknown direction theta,
* qubit with unknown x-component theta of the field,
* spin-1 (NV-center style) probe of a weak axial field,
* bosonic mode of unknown frequency read out through a two-level atom,
* mechanical oscillator in a uniform gravitational field (closed forms only).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numdiff
from .errors import InvalidParameter, UnknownReference
from .fisher import OutcomeDistribution, ProbabilityModel
from .linalg import _eigh, expm_unitary

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Spin-1 matrices with the normalization used by the NV closed forms below
# (sqrt(2) prefactor on S_x, S_y and 2 on S_z; twice the conventional spin-1).
SPIN1_X = math.sqrt(2) * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
SPIN1_Y = math.sqrt(2) * 1j * np.array([[0, -1, 0], [1, 0, -1], [0, 1, 0]], dtype=complex)
SPIN1_Z = 2.0 * np.diag([1.0, 0.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class HamiltonianModel:
    """A named family theta -> H(theta) with its analytic derivative dh_of.

    Every default (analytic) Fisher and generator path needs dh_of and
    raises InvalidParameter without it; a model without dh_of runs only on
    the finite-difference oracle, selected by an explicit DiffSpec.  h_of and
    dh_of must be pure functions of theta: cem keeps what it derives from them
    at the last (model, theta) as one point (cem._point) for the next call there.
    """

    name: str
    dim: int
    h_of: Callable[[float], np.ndarray]
    dh_of: Optional[Callable[[float], np.ndarray]] = None
    theta_domain: tuple[float, float] = (-np.inf, np.inf)

    def u_of(self, theta: float, t: float) -> np.ndarray:
        """Time-evolution unitary exp(-i t H(theta)); NumPy's warnings off, as in _spectrum."""
        with np.errstate(all="ignore"):
            return expm_unitary(self.h_of(theta), t)


def _require_finite(name: str, value: float, positive: bool = True) -> None:
    """InvalidParameter naming the parameter and its value unless 0 < value < inf (0 <=
    value < inf where not positive); a NaN fails."""
    low = "positive" if positive else ">= 0"
    if not ((value > 0.0 if positive else value >= 0.0) and value < math.inf):
        raise InvalidParameter(f"{name} must be {low} and finite, got {value}")


def make_qubit_direction(omega: float) -> HamiltonianModel:
    """H(theta) = omega (cos(theta) sigma_z + sin(theta) sigma_x), theta in (0, pi)."""
    _require_finite("omega", omega)
    return HamiltonianModel(
        name="qubit-direction",
        dim=2,
        h_of=lambda q: omega * (math.cos(q) * SIGMA_Z + math.sin(q) * SIGMA_X),
        dh_of=lambda q: omega * (-math.sin(q) * SIGMA_Z + math.cos(q) * SIGMA_X),
        theta_domain=(0.0, math.pi),
    )


def make_qubit_xcomponent(omega: float) -> HamiltonianModel:
    """H(theta) = -omega sigma_z + theta sigma_x, eigenvalues +-sqrt(omega^2+theta^2)."""
    _require_finite("omega", omega)
    return HamiltonianModel(
        name="qubit-xcomponent",
        dim=2,
        h_of=lambda q: -omega * SIGMA_Z + q * SIGMA_X,
        dh_of=lambda q: SIGMA_X.copy(),
        theta_domain=(-np.inf, np.inf),
    )


def make_nv_spin1(mu: float, D: float, E: float) -> HamiltonianModel:
    """H(theta) = mu theta S_z + D S_z^2 + E (S_x^2 - S_y^2) on the spin-1 triplet."""
    _require_finite("mu", mu)
    _require_finite("D", D, positive=False)
    _require_finite("E", E, positive=False)
    zz = SPIN1_Z @ SPIN1_Z
    xy = SPIN1_X @ SPIN1_X - SPIN1_Y @ SPIN1_Y
    return HamiltonianModel(
        name="nv-spin1",
        dim=3,
        h_of=lambda q: mu * q * SPIN1_Z + D * zz + E * xy,
        dh_of=lambda q: mu * SPIN1_Z,
        theta_domain=(0.0, np.inf),
    )


# Largest Fock truncation of the Jaynes-Cummings models: d = 2 (n_max + 1) = 1002 rows,
# 16 MiB per complex matrix and about a second per dense eigh on one core; a larger value
# is rejected before anything is allocated.
JC_N_MAX = 500


def _ladder(n_max: int) -> np.ndarray:
    """Annihilation operator truncated at Fock level n_max."""
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


@functools.lru_cache(maxsize=None)
def _jc_hopping(n_max: int) -> np.ndarray:
    """Read-only a^dag sigma_- + a sigma_+, atom factor first (|g>, |e>), field factor second."""
    a = _ladder(n_max)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
    K = np.kron(sm, a.conj().T) + np.kron(sm.conj().T, a)
    K.flags.writeable = False
    return K


def _check_jc(kappa: float, n_max: int) -> None:  # both Jaynes-Cummings factories
    _require_finite("kappa", kappa, positive=False)
    if not 2 <= n_max <= JC_N_MAX:
        raise InvalidParameter(f"n_max must be >= 2 and <= {JC_N_MAX}, got {n_max}")


def make_jaynes_cummings(kappa: float, n_max: int = 8) -> HamiltonianModel:
    """Free field plus atom-field coupling on the truncated atom (x) field space.

    H(omega) = I_2 (x) omega (a^dag a + 1/2) + kappa sqrt(omega) (a^dag sigma_- + a sigma_+);
    the estimated frequency omega enters both the field energy and the
    coupling.  The factory takes no frequency: omega is the point each
    h_of/dh_of call is evaluated at.
    """
    _check_jc(kappa, n_max)
    a = _ladder(n_max)
    # The theta-independent operators, built once and scaled per call.
    free = np.kron(np.eye(2, dtype=complex), a.conj().T @ a + 0.5 * np.eye(n_max + 1))
    hopping = _jc_hopping(n_max)

    def h_of(w: float) -> np.ndarray:
        return w * free + kappa * math.sqrt(w) * hopping

    def dh_of(w: float) -> np.ndarray:
        return free + kappa / (2.0 * math.sqrt(w)) * hopping

    return HamiltonianModel(
        name="jaynes-cummings",
        dim=2 * (n_max + 1),
        h_of=h_of,
        dh_of=dh_of,
        theta_domain=(0.0, np.inf),
    )


def jc_field_state(omega: float, t: float, alpha0: complex, alpha1: complex,
                   n_max: int) -> np.ndarray:
    """Field state alpha0 e^{-i w t/2}|0> + alpha1 e^{-3i w t/2}|1>, zero-padded to n_max;
    InvalidParameter unless omega, t and the phase 1.5 omega t are finite."""
    phase = 1.5 * float(omega) * float(t)  # Python floats overflow to inf silently
    for name, x in ("omega", omega), ("t", t), ("phase 1.5 omega t", phase):
        if not math.isfinite(x):
            raise InvalidParameter(f"{name} must be finite, got {x}")
    v = np.zeros(n_max + 1, dtype=complex)
    v[0] = alpha0 * np.exp(-0.5j * omega * t)
    v[1] = alpha1 * np.exp(-1.5j * omega * t)
    nrm = np.linalg.norm(v)
    if not (abs(nrm - 1.0) <= 1e-12):  # NaN amplitudes fail too
        raise InvalidParameter("field amplitudes must be normalized")
    return v


@functools.lru_cache(maxsize=None)
def _hopping_eigensystem(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (lambda, V) with _jc_hopping(n_max) = V diag(lambda) V^dag.

    The hopping does not depend on the frequency, so one decomposition per
    truncation serves every read-out point.  Its spectrum is degenerate (the
    zero level), which exp(-i s K) = V diag(exp(-i s lambda)) V^dag does not mind.
    """
    lam, V = _eigh(_jc_hopping(n_max))
    lam.flags.writeable = V.flags.writeable = False
    return lam, V


def _jc_output_jet(kappa: float, t: float, alpha0: complex, alpha1: complex, n_max: int,
                   w: float) -> tuple[np.ndarray, np.ndarray]:
    """The joint output state of jc_readout_model at frequency w and its w-derivative.

    The field amplitudes carry the free phases exp(-i w t (n + 1/2)), whose
    derivative is -i t (n + 1/2) times the amplitude.  The coupling
    exp(-i s K) with s = t kappa sqrt(w) is diagonal in the eigenbasis of K,
    where d/dw multiplies each phase exp(-i s lambda) by -i (s / 2w) lambda.  Each rate
    and phase at the top level (lambda_max = max|lambda|: K's spectrum is symmetric) is
    checked as jc_field_state checks its own.
    """
    numdiff.check_domain(w, 0.0, (0.0, math.inf))
    lam, V = _hopping_eigensystem(n_max)
    psi_f = jc_field_state(w, t, alpha0, alpha1, n_max)
    s, top = float(t) * float(kappa) * math.sqrt(w), float(lam[-1])  # Python floats: no warning
    for name, x in (("free phase rate t (n_max + 1/2)", float(t) * (n_max + 0.5)),
                    ("coupling phase s lambda_max", s * top),
                    ("coupling phase rate s lambda_max / 2 omega", s / (2 * float(w)) * top)):
        if not math.isfinite(x):
            raise InvalidParameter(f"{name} must be finite, got {x}")
    dpsi_f = -1j * t * (np.arange(n_max + 1) + 0.5) * psi_f
    to_eigen = V[: n_max + 1].conj().T  # the atom starts in |g>, the first block
    c, dc = to_eigen @ psi_f, to_eigen @ dpsi_f
    phase = np.exp(-1j * s * lam)
    return V @ (phase * c), V @ (phase * (dc - 1j * (s / (2.0 * w)) * lam * c))


def jc_readout_model(kappa: float, t: float, alpha0: complex, alpha1: complex,
                     n_max: int = 8) -> ProbabilityModel:
    """Atom ground/excited read-out probabilities as a function of the field frequency.

    The field is prepared in the two-level superposition, freely evolved for
    time t, coupled to an atom in its ground state through the truncated
    interaction for the same time t, and the atom is then measured.  Both the
    free phases and the coupling carry the frequency dependence; the atomic
    outcome probabilities depend on it only through the coupling.  The jet
    differentiates the output state of _jc_output_jet exactly, with no
    decomposition per point: dp = 2 Re <out|dout> on each atomic block (its rounding bound
    inf beyond the float range), and at(w) is its p, so the finite-difference oracle
    decomposes nothing per node either.  InvalidParameter unless t is finite.
    """
    _check_jc(kappa, n_max)
    if not math.isfinite(t):
        raise InvalidParameter(f"t must be finite, got {t}")

    def jet(w: float):
        out, dout = _jc_output_jet(kappa, t, alpha0, alpha1, n_max, w)
        atom = out.reshape(2, -1)  # rows: atom |g>, |e>
        p = np.einsum("ij,ij->i", atom.conj(), atom).real
        dp = 2.0 * np.einsum("ij,ij->i", atom.conj(), dout.reshape(2, -1)).real
        # Each product of the jet rounds at the relative level d eps.
        with np.errstate(over="ignore"):
            dp_err = 4.0 * out.shape[0] * np.finfo(float).eps * (1.0 + np.linalg.norm(dout))
        return p, dp, dp_err

    def at(w: float) -> OutcomeDistribution:
        return OutcomeDistribution(outcomes=("ground", "excited"), probs=jet(w)[0])

    return ProbabilityModel(at=at, theta_domain=(0.0, np.inf), jet=jet)


# --- closed-form reference functions ------------------------------------------------


def _angle(x: float) -> float:
    """x if finite, else OverflowError, where math.sin, cos or tan raise a ValueError."""
    if not math.isfinite(x):
        raise OverflowError(f"trigonometric argument {x} is not finite")
    return x


def _direction_qfi(theta: float, omega: float, t: float) -> float:
    s2 = math.sin(_angle(omega * t)) ** 2  # 4 s^2 - sin^2(2 omega t) sin^2(theta), uncancelled
    return 4.0 * s2 * (math.cos(theta) ** 2 + s2 * math.sin(theta) ** 2)


def _direction_max_qfi(omega: float, t: float) -> float:
    return 4.0 * math.sin(_angle(omega * t)) ** 2


def _direction_g(omega: float, t: float) -> float:
    return (2.0 * abs(math.sin(_angle(omega * t))) + 1.0) ** 2


def _xcomponent_max_qfi(theta: float, omega: float, t: float) -> float:
    om2 = omega * omega + theta * theta
    return 2.0 / om2**2 * (
        2.0 * om2 * t * t * theta * theta
        + 2.0 * omega * omega * math.sin(_angle(math.sqrt(om2) * t)) ** 2
    )


def _xcomponent_g(theta: float, omega: float, t: float) -> float:
    om2 = omega * omega + theta * theta
    return (omega / om2 + math.sqrt(_xcomponent_max_qfi(theta, omega, t))) ** 2


def _nv_chi(theta: float, mu: float, E: float) -> float:
    return math.sqrt(theta * theta * mu * mu + 4.0 * E * E)


def _nv_max_qfi(theta: float, mu: float, E: float, t: float) -> float:
    chi = _nv_chi(theta, mu, E)
    return 8.0 * mu * mu * (
        2.0 * theta * theta * mu * mu * t * t * chi * chi
        + 2.0 * E * E * math.sin(_angle(2.0 * chi * t)) ** 2
    ) / chi**4


def _nv_g(theta: float, mu: float, E: float, t: float) -> float:
    chi = _nv_chi(theta, mu, E)
    return (2.0 * E * mu / chi**2 + math.sqrt(_nv_max_qfi(theta, mu, E, t))) ** 2


def _jc_qfi(t: float, alpha1_sq: float) -> float:
    return 4.0 * t * t * alpha1_sq * (1.0 - alpha1_sq)


def _jc_fc(omega: float, kappa: float, t: float, alpha1_sq: float) -> float:
    """(Omega t / omega)^2 alpha c^2 / (c^2 + (1 - alpha) s^2), with c, s = cos, sin(Omega t):
    alpha (1 - s^2) / (1 - alpha s^2) without its cancellation where s^2 is near 1."""
    Om = kappa * math.sqrt(omega)
    c2, s2 = math.cos(_angle(Om * t)) ** 2, math.sin(Om * t) ** 2
    return (Om * t / omega) ** 2 * (alpha1_sq * c2 / (c2 + (1.0 - alpha1_sq) * s2))


def _jc_enhancement_threshold(omega: float, kappa: float, t: float) -> float:
    """Largest |alpha0|^2 for which the atomic read-out beats the best regular measurement,
    (sqrt(1 + r^2 tan^2) - 1) / (2 tan^2) with r = Omega / omega, written without tan."""
    Om = kappa * math.sqrt(omega)
    r, c = Om / omega, abs(math.cos(_angle(Om * t)))
    return r ** 2 * c / (2.0 * (math.hypot(c, r * math.sin(Om * t)) + c))


def _oscillator_qfi(m: float, omega: float, t: float) -> float:
    return 8.0 * m / omega**3 * math.sin(_angle(omega * t / 2.0)) ** 2


def _oscillator_fc(m: float, omega: float) -> float:
    return 2.0 * m / omega**3


def _oscillator_gamma(omega: float, t: float) -> float:
    s2 = math.sin(_angle(omega * t / 2.0)) ** 2
    if s2 < 1e-30:
        return math.inf
    return 1.0 / (4.0 * s2)


@dataclass(frozen=True)
class ClosedFormReference:
    """A named closed-form expression callable with keyword arguments."""

    name: str
    formula: Callable[..., float]
    provenance: str

    def __call__(self, **kwargs) -> float:
        return self.formula(**kwargs)


_REFERENCES = {
    r.name: r
    for r in (
        ClosedFormReference("direction_qfi", _direction_qfi,
                            "field-direction qubit, ground-state preparation"),
        ClosedFormReference("direction_max_qfi", _direction_max_qfi,
                            "field-direction qubit, best preparation"),
        ClosedFormReference("direction_g", _direction_g,
                            "field-direction qubit, controlled-energy-measurement bound"),
        ClosedFormReference("xcomponent_max_qfi", _xcomponent_max_qfi,
                            "field x-component qubit, best preparation"),
        ClosedFormReference("xcomponent_g", _xcomponent_g,
                            "field x-component qubit, controlled-energy-measurement bound"),
        ClosedFormReference("nv_max_qfi", _nv_max_qfi,
                            "spin-1 axial-field probe, best preparation"),
        ClosedFormReference("nv_g", _nv_g,
                            "spin-1 axial-field probe, controlled-energy-measurement bound"),
        ClosedFormReference("jc_qfi", _jc_qfi,
                            "bosonic-mode frequency, best regular measurement"),
        ClosedFormReference("jc_fc", _jc_fc,
                            "bosonic-mode frequency, atomic read-out"),
        ClosedFormReference("jc_enhancement_threshold", _jc_enhancement_threshold,
                            "bosonic-mode frequency, read-out enhancement region"),
        ClosedFormReference("oscillator_qfi", _oscillator_qfi,
                            "oscillator in field g coupling as m g x, best regular measurement"),
        ClosedFormReference("oscillator_fc", _oscillator_fc,
                            "oscillator in field g coupling as m g x, energy measurement"),
        ClosedFormReference("oscillator_gamma", _oscillator_gamma,
                            "oscillator in uniform field, energy-measurement advantage"),
    )
}


def reference(name: str) -> ClosedFormReference:
    """Look up a registered closed-form reference by name."""
    try:
        return _REFERENCES[name]
    except KeyError:
        raise UnknownReference(
            f"{name!r}; known references: {', '.join(sorted(_REFERENCES))}"
        ) from None


def reference_names() -> tuple:
    return tuple(sorted(_REFERENCES))
