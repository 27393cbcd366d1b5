"""Volume-budget sparse control synthesis (one-dimensional).

Instead of bounding the measure carried by the control set, this variant
bounds its Lebesgue area: one rectangular band hugging the top edge of the
velocity support, area at most c, with a unit force pushing band velocities
down.  Each step lasts exactly its widening parameter eps (the same number
measures a distance and a time here) and shrinks the velocity extent by at
least eps.  ``complete_strategy_space`` runs these steps through the shared
loop of ``control_mass`` until the extent reaches the flocking threshold
eta, using total control time at most W0 and spreading the spatial support
by at most W0^2.  The band's force, membership and area are
``dynamics.SpaceBand``.
"""

from __future__ import annotations

import math

import numpy as np

from .control_mass import (
    _BOX_SLACK,
    AlreadyFlockedSignal,
    ContractionError,
    DegenerateMeasureError,
    StepParams,
    StrategyResult,
    _band_offsets,
    _fly_step,
    _synthesize,
)
from .dynamics import ControlPiece, SpaceBand
from .ensemble import Ensemble, normalized, support_box
from .kernels import Kernel


def space_step_params(kernel: Kernel, e: Ensemble, c: float) -> StepParams:
    """Band geometry for a normalized 1D ensemble under area budget c: one
    column, [0, Y0], swept for T0 = eps0, with the distance bound Y0 + W0.

    eps0 is the stated closed form min(beta0/2, (sqrt(Y0^2 + 2c(W0+1)) -
    Y0) / (2(W0+2))); if the resulting band area still exceeds c (the two
    formulas are not mutually consistent for every input), eps0 is shrunk by
    bisection until the area audit passes.
    """
    if c <= 0.0:
        raise ValueError("volume budget c must be positive")
    if e.d != 1:
        raise ValueError("volume-budget synthesis is one-dimensional")
    Y0 = float(e.x[:, 0].max())
    W0 = float(e.v[:, 0].max())
    if W0 <= 0.0:
        raise AlreadyFlockedSignal("velocity support is a point")
    vbar0 = float(e.w @ e.v[:, 0])
    alpha0, beta0 = _band_offsets(kernel, Y0 + W0, W0 - vbar0)

    def band_area(eps):
        return SpaceBand.area({"eps": eps, "y0": Y0, "w0": W0})

    eps0 = min(
        beta0 / 2.0,
        (math.sqrt(Y0 * Y0 + 2.0 * c * (W0 + 1.0)) - Y0) / (2.0 * (W0 + 2.0)),
    )
    if band_area(eps0) > c:
        lo, hi = 0.0, eps0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if band_area(mid) <= c:
                lo = mid
            else:
                hi = mid
        eps0 = lo
    if eps0 <= 0.0:
        raise DegenerateMeasureError("no positive band width fits the area budget")

    return StepParams(axis=0, c=c, Y0=Y0, W0=W0, diam=Y0 + W0, vbar0=vbar0, alpha0=alpha0,
                      beta0=beta0, n=1, cuts=np.array([0.0, Y0]), eps0=eps0, T0=eps0)


def fundamental_step_space(
    kernel: Kernel,
    e: Ensemble,
    c: float,
    dt_max: float | None = None,
    t_start: float = 0.0,
):
    """Execute one volume-budget step: a single band piece of duration eps0.

    ``control_mass._fly_step`` flies it and enforces W_after <= W0 - T0/n = W0 - eps0
    and invariance of the velocity box; this step audits the band area <= c
    at every sample and Y_after <= Y0 + eps0*W0.

    Returns (ensemble after the step, StepRecord, plan fragment, Trajectory).
    """
    box = support_box(e)
    params = space_step_params(kernel, normalized(e, box), c)
    dt = dt_max if dt_max is not None else params.T0 / 4.0
    piece = ControlPiece(
        t_start=t_start,
        t_end=t_start + params.T0,
        kind="space_band",
        axis=0,
        t_ref=t_start,
        x_shift=float(box.x_shift[0]),
        v_shift=float(box.v_shift[0]),
        params={"eps": params.eps0, "y0": params.Y0, "w0": params.W0},
        dt=dt,
    )
    final, record, frag, traj = _fly_step(kernel, e, box, params, [piece], dt)
    if record.max_omega_area > c:
        raise ContractionError("band area exceeded the budget during step")
    if record.Y_after[0] > params.Y0 + params.eps0 * params.W0 + _BOX_SLACK:
        raise ContractionError("spatial spread exceeded the per-step bound")
    return final, record, frag, traj


def theorem6_threshold(kernel: Kernel, Y0: float, W0: float) -> float:
    """Velocity-extent threshold certifying the flocking region after the loop."""
    return 0.5 * kernel.tail_integral(2.0 * (Y0 + W0 * W0))


def complete_strategy_space(
    kernel: Kernel,
    e0: Ensemble,
    c: float,
    eta: float | None = None,
    dt_max: float | None = None,
    step_budget: int = 100_000,
) -> StrategyResult:
    """Iterate volume-budget steps until the velocity extent reaches eta.

    With eta omitted it is the threshold of ``theorem6_threshold``; the loop
    then provably uses total control time at most W0 and spreads the spatial
    support by at most W0^2.
    """
    if e0.d != 1:
        raise ValueError("complete_strategy_space requires a one-dimensional ensemble")
    box0 = support_box(e0)
    Y0, W0 = float(box0.y[0]), float(box0.w[0])
    if eta is None:
        eta = theorem6_threshold(kernel, Y0, W0)
    return _synthesize(
        kernel, e0,
        lambda e, axis, t: fundamental_step_space(kernel, e, c, dt_max=dt_max, t_start=t),
        (0,), eta, step_budget, time_bound=W0, spread_bound=Y0 + W0 * W0,
    )
