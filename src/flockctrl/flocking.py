"""Sufficient flocking-region tests.

Three certificates that an initial configuration flocks without control:

* barycentric radii test: V0 < int_{X0}^inf phi(2x) dx, with the asymptotic
  spatial bound X_M solving V0 = int_{X0}^{X_M} phi(2x) dx;
* covering-box variant: 2*V_tilde <= int_{2*X_tilde}^inf phi(2x) dx, valid
  for any covering balls, not necessarily centered at the barycenters;
* second-moment test: Lambda < int_Gamma^inf phi(x) dx with weighted second
  moments Gamma, Lambda.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import Ensemble, flocking_metrics
from .kernels import Kernel

_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class FlockingVerdict:
    in_region: bool
    threshold: float  # the tail integral on the right-hand side (may be inf)
    margin: float  # threshold minus the tested velocity quantity
    X_M: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _solve_xm(kernel: Kernel, X0: float, V0: float) -> float:
    """Smallest X_M >= X0 with int_{X0}^{X_M} phi(2x) dx = V0, by bisection.

    +inf when X_M lies beyond X0 + 1e12, as it can for gamma near 1/2."""
    if V0 <= 0.0:
        return X0

    base = kernel.tail_integral(X0)

    def consumed(xm: float) -> float:
        return base - kernel.tail_integral(xm)

    hi = X0 + 1.0
    while consumed(hi) <= V0:
        hi = X0 + 2.0 * (hi - X0)
        if hi > X0 + 1e12:
            return math.inf
    lo = X0
    # from 2^19 on, adjacent doubles lie more than _BISECT_TOL apart
    while hi - lo > _BISECT_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        if consumed(mid) <= V0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theorem3_test(kernel: Kernel, e: Ensemble) -> FlockingVerdict:
    """Strict barycentric-radii certificate with asymptotic spatial bound."""
    m = flocking_metrics(e)
    threshold = kernel.tail_integral(m.X)
    margin = threshold - m.V
    in_region = m.V < threshold
    xm = None
    if in_region:
        xm = m.X if math.isinf(threshold) and m.V == 0.0 else _solve_xm(kernel, m.X, m.V)
    return FlockingVerdict(in_region=in_region, threshold=threshold, margin=margin, X_M=xm)


def corollary2_test(kernel: Kernel, X_tilde: float, V_tilde: float) -> FlockingVerdict:
    """Non-strict covering-box certificate: 2*V_tilde <= tail(2*X_tilde)."""
    if X_tilde < 0 or V_tilde < 0:
        raise ValueError("covering radii must be nonnegative")
    threshold = kernel.tail_integral(2.0 * X_tilde)
    margin = threshold - 2.0 * V_tilde
    return FlockingVerdict(in_region=2.0 * V_tilde <= threshold, threshold=threshold, margin=margin)


def covering_box_test(kernel: Kernel, box) -> tuple[FlockingVerdict, float]:
    """(corollary2_test on a support box's covering radii |Y|/2 and |W|/2, |W|/2)."""
    v_tilde = 0.5 * float(np.linalg.norm(box.w))
    return corollary2_test(kernel, 0.5 * float(np.linalg.norm(box.y)), v_tilde), v_tilde


def finite_dim_test(kernel: Kernel, e: Ensemble) -> FlockingVerdict:
    """Second-moment certificate: Lambda < int_Gamma^inf phi(x) dx.

    The right-hand side uses phi(x), not phi(2x): with the change of variable
    x = 2s it equals 2 * tail_integral(Gamma / 2).
    """
    m = flocking_metrics(e)
    gamma = float(e.w @ np.einsum("ij,ij->i", e.x - m.xbar, e.x - m.xbar))
    threshold = 2.0 * kernel.tail_integral(gamma / 2.0)
    margin = threshold - m.Lambda
    return FlockingVerdict(in_region=m.Lambda < threshold, threshold=threshold, margin=margin)
