"""Numerical differentiation with Richardson extrapolation.

The one scheme is a central difference refined by a Richardson ladder, two levels
by default, with base step h = 1e-4 * (1 + |x|); the error estimate is the size of
the last extrapolation correction.  Functions may return scalars or ndarrays
(differentiation is elementwise).  check_domain and require_count are the package's one
domain rule and one count rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainBoundary

ANALYTIC = "analytic"
RICHARDSON = "richardson-fd"


@dataclass(frozen=True)
class DiffSpec:
    """How to differentiate with respect to the parameter.

    step=None selects the default base step 1e-4 * (1 + |x|); the count levels >= 1 is the
    number of Richardson extrapolation levels, one being the cheapest: the plain central
    difference's nodes x +- h and x +- h/2.  Other settings raise ValueError.
    """

    method = RICHARDSON  # the scheme every spec names in its reports; not a field
    step: float | None = None
    levels: int = 2

    def __post_init__(self):
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and > 0, got {self.step!r}")
        require_count("levels", self.levels)

    def base_step(self, x: float) -> float:
        """The base step at x, also the largest offset from x that derivative() evaluates."""
        return self.step if self.step is not None else 1e-4 * (1.0 + abs(x))


def require_count(name: str, value, lo: int = 1, hi: float = math.inf, error=ValueError):
    """The one count rule: error naming name unless value is an integer and not a bool
    (NumPy's integers pass) with lo <= value <= hi."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and lo <= value <= hi):
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")


DEFAULT_DIFF = DiffSpec()


def _absmax(v) -> float:
    return float(np.max(np.abs(v)))


def derivative(f, x: float, spec: DiffSpec = DEFAULT_DIFF):
    """d f / d x at x, returning (value, error_estimate): the central differences at
    h, h/2, ..., h/2^levels run up the Richardson ladder (f is never called at x)."""
    h = spec.base_step(x)
    steps = [h / 2.0**k for k in range(spec.levels + 1)]
    # Each sample pair is reduced to its difference quotient at once, so a
    # batched f never holds more than one pair.
    scales, quotients = [], []
    for hk in steps:
        fp, fm = f(x + hk), f(x - hk)
        scales.append(_absmax(fp) + _absmax(fm))
        quotients.append((fp - fm) / (2.0 * hk))
    # Cancellation of nearly equal function values floors the achievable accuracy.
    rounding_floor = np.finfo(float).eps * max(scales) / steps[-1]

    rows = [quotients]
    while len(rows[-1]) > 1:
        fac = 4.0 ** len(rows)
        prev = rows[-1]
        rows.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    best = rows[-1][0]
    err = max(_absmax(np.asarray(best) - np.asarray(rows[-2][-1])), rounding_floor)
    return best, err


def check_domain(x: float, radius: float, domain: tuple[float, float]) -> None:
    """Raise DomainBoundary unless [x - radius, x + radius] lies inside the open domain.

    A NaN x or radius lies inside no domain.  With radius 0 (an analytic
    path, which has no stencil) the message names the point alone, as a
    parameter value, since the caller's parameter may be theta or a frequency.
    """
    lo, hi = domain
    if not (lo < x - radius and x + radius < hi):
        where = (f"stencil [{x - radius}, {x + radius}] leaves" if radius
                 else f"parameter value {x} is outside")
        raise DomainBoundary(f"{where} the open domain ({lo}, {hi})")
