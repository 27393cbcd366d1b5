"""Volume-budget sparse control synthesis (one-dimensional).

Instead of bounding the measure carried by the control set, this variant
bounds its Lebesgue area: one rectangular band along the edge of the
velocity support farther from the barycenter, area at most c, with a unit
force pushing band velocities toward the barycenter.  The paper's band sits
on the top edge; a bottom-edge band is that band on the cloud reflected by
(x, v) -> (-x, -v), which the flow maps to itself since phi depends only on
|x - y|.  Each step lasts exactly its widening parameter eps (the same
number measures a distance and a time here) and shrinks the velocity extent
by at least eps.  ``VolumeBudget`` runs these steps through the shared step
and loop of ``control_mass`` until the extent reaches the flocking threshold
eta, using total control time at most W0 and spreading the spatial support
by at most W0^2.  The band's geometry, force and area are
``dynamics.SpaceBand``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import control_mass
from .control_mass import (
    _BOX_SLACK,
    ContractionError,
    DegenerateMeasureError,
    MassBudget,
    StepParams,
    StepRecord,
    StrategyBudgetError,
    _band_offsets,
    _check_extent,
    _step_frame,
)
from .dynamics import ControlPiece, SpaceBand
from .ensemble import Ensemble, SupportBox, support_box
from .kernels import Kernel


def space_step_params(kernel: Kernel, e: Ensemble, c: float) -> StepParams:
    """Band geometry for a normalized 1D ensemble under area budget c: one
    column, [0, Y0], swept for T0 = eps0, with the distance bound Y0 + W0.
    The band's velocity spread is the barycenter's distance to the farther
    edge, max(W0 - vbar0, vbar0), as for the mass band.

    eps0 is beta0/2 when that band's area is at most c, and otherwise the
    largest double whose band area 4(W0+2) eps^2 + 4 Y0 eps is at most c:
    the positive root of area = c, computed without cancellation as
    c / (2(sqrt(Y0^2 + c(W0+2)) + Y0)), moved by single ulps.  The area is
    nondecreasing in eps in floating point, so the few ulp steps end there.
    The root bounds each step: eps0 <= sqrt(c/(W0+2))/2 <= sqrt(2c)/4.
    """
    if e.d != 1:
        raise ValueError("volume-budget synthesis is one-dimensional")
    Y0, W0, diam, vbar0 = _step_frame(e, 0, c, "VolumeBudget")
    alpha0, beta0 = _band_offsets(kernel, diam, max(W0 - vbar0, vbar0))

    def band_area(eps):
        return SpaceBand.area({"eps": eps, "y0": Y0, "w0": W0})

    eps0 = beta0 / 2.0
    if band_area(eps0) > c:
        # hypot and the split root keep Y0^2 and c(W0+2) from overflowing
        eps0 = c / (2.0 * (math.hypot(Y0, math.sqrt(c) * math.sqrt(W0 + 2.0)) + Y0))
        while band_area(eps0) > c:
            eps0 = math.nextafter(eps0, 0.0)
        while band_area(math.nextafter(eps0, math.inf)) <= c:
            eps0 = math.nextafter(eps0, math.inf)
    if eps0 <= 0.0:
        raise DegenerateMeasureError("no positive band width fits the area budget")

    return StepParams(axis=0, Y0=Y0, W0=W0, vbar0=vbar0, alpha0=alpha0, beta0=beta0, n=1,
                      cuts=np.array([0.0, Y0]), eps0=eps0, T0=eps0)


def theorem6_threshold(kernel: Kernel, Y0: float, W0: float) -> float:
    """Velocity-extent threshold certifying the flocking region after the loop."""
    _check_extent("theorem 6's 2(Y0 + W0^2)", arg := 2.0 * (Y0 + W0 * W0))
    return 0.5 * kernel.tail_integral(arg)


def min_space_steps(kernel: Kernel, W0: float, eta: float, c: float) -> float:
    """A lower bound on the volume-budget steps that take the velocity extent W0 to eta.

    Along the flow dW/dt >= -(2 phi0 W + 1): the field moves a velocity by at
    most phi0 W, and the band force, on either edge, by at most 1.  So W
    reaches eta no sooner than t = ln((2 phi0 W0 + 1) / (2 phi0 eta + 1)) /
    (2 phi0), and a step lasts eps0 <= sqrt(c/(W0+2))/2 <= sqrt(2c)/4: the band area
    4(W0+2) eps0^2 + 4 Y0 eps0 is at most c, and W0 >= 0.
    """
    if W0 <= eta:
        return 0.0
    phi0 = kernel.phi0
    t = (math.log1p(2.0 * phi0 * W0) - math.log1p(2.0 * phi0 * eta)) / (2.0 * phi0)
    return t / (math.sqrt(2.0 * c) / 4.0)


@dataclass(frozen=True)
class VolumeBudget:
    """At most area c in the control set at every instant, in one dimension:
    steps of one band piece of four RK4 steps, ended at theorem 6's eta.  The
    band of each step sits on the velocity edge farther from the barycenter:
    a bottom-edge piece has sign -1, and its frame is the lower corner of the
    reflected cloud.  A budget c so small that even half of
    ``min_space_steps`` exceeds the step budget is rejected before the first
    step."""

    c: float
    rk4_per_piece: ClassVar[int] = 4
    # the StepRecord fields whose worst value over the steps a summary reports
    worst_audits: ClassVar[tuple] = ("max_omega_area", "max_u_sup")

    __post_init__ = MassBudget.__post_init__

    def params(self, kernel: Kernel, e: Ensemble, axis: int) -> StepParams:
        return space_step_params(kernel, e, self.c)

    def pieces(self, params: StepParams, t_start: float, box: SupportBox, dt: float):
        x_shift, v_shift, sign = float(box.x_shift[0]), float(box.v_shift[0]), 1.0
        # the bottom edge when the barycenter is farther from it; a tie keeps
        # the top edge.  The shifts are then the reflected cloud's lower corner.
        if params.vbar0 > params.W0 - params.vbar0:
            x_shift, v_shift, sign = -(x_shift + params.Y0), -(v_shift + params.W0), -1.0
        return [ControlPiece(
            t_start, t_start + params.T0, "space_band", axis=0, t_ref=t_start,
            x_shift=x_shift, v_shift=v_shift,
            params={"eps": params.eps0, "y0": params.Y0, "w0": params.W0}, dt=dt, sign=sign,
        )]

    def audit(self, rec: StepRecord, e: Ensemble) -> None:
        p = rec.params
        if rec.max_omega_area > self.c:
            raise ContractionError("band area exceeded the budget during step")
        if rec.Y_after[0] > p.Y0 + p.eps0 * p.W0 + _BOX_SLACK:
            raise ContractionError("spatial spread exceeded the per-step bound")

    def bounds(self, kernel: Kernel, e0: Ensemble, eta, step_budget: int):
        """(axes, eta, total control time bound, spatial spread bound) of a synthesis from e0;
        eta None is the theorem's."""
        if e0.d != 1:
            raise ValueError("the volume budget requires a one-dimensional ensemble")
        box0 = support_box(e0)
        Y0, W0 = float(box0.y[0]), float(box0.w[0])
        if eta is None:
            eta = theorem6_threshold(kernel, Y0, W0)
        steps = min_space_steps(kernel, W0, eta, self.c)
        if steps / 2.0 > step_budget:
            raise StrategyBudgetError(
                f"the volume budget c = {self.c:g} needs at least {steps:.3g} steps to take W "
                f"from {W0:.6g} to eta = {eta:.6g}, more than twice the step budget {step_budget}"
            )
        return (0,), eta, W0, Y0 + W0 * W0


def fundamental_step_space(kernel: Kernel, e: Ensemble, c: float,
                           dt_max: float | None = None, t_start: float = 0.0):
    """One volume-budget step; kept while the benchmark's tracer names it (ROADMAP item 1)."""
    return control_mass.fundamental_step(kernel, e, VolumeBudget(c), dt_max, 0, t_start)
