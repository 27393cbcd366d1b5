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

from dataclasses import asdict, dataclass

import numpy as np

from .ensemble import Ensemble, _norm, flocking_metrics
from .kernels import Kernel


@dataclass(frozen=True)
class FlockingVerdict:
    in_region: bool
    threshold: float  # the tail integral on the right-hand side (may be inf)
    margin: float  # threshold minus the tested velocity quantity
    X_M: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def theorem3_test(kernel: Kernel, e: Ensemble) -> FlockingVerdict:
    """Strict barycentric-radii certificate with asymptotic spatial bound.

    X_M is max(X0, a) for the a whose tail is threshold - V0, in closed form by
    the kernel's ``tail_inverse``: +inf (not resolved) for a nonintegrable tail."""
    m = flocking_metrics(e)
    threshold = kernel.tail_integral(m.X)
    margin = threshold - m.V
    in_region = m.V < threshold
    xm = None
    if in_region:
        xm = m.X if m.V == 0.0 else max(m.X, kernel.tail_inverse(threshold - m.V))
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
    v_tilde = 0.5 * _norm(box.w)
    return corollary2_test(kernel, 0.5 * _norm(box.y), v_tilde), v_tilde


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
