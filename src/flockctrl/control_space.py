"""Volume-budget sparse control synthesis (one-dimensional).

Instead of bounding the measure carried by the control set, this variant
bounds its Lebesgue area: one rectangular band hugging the top edge of the
velocity support, area at most c, with a unit force pushing band velocities
down.  Each step lasts exactly its widening parameter eps (the same number
measures a distance and a time here) and shrinks the velocity extent by at
least eps; the strategy iterates until the extent reaches the flocking
threshold eta, using total control time at most W0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_mass import (
    AlreadyFlockedSignal,
    ContractionError,
    DegenerateMeasureError,
    StrategyBudgetError,
    StrategyResult,
)
from .dynamics import ControlPiece, ControlPlan, Trajectory, append_samples, integrate
from .ensemble import Ensemble, SupportBox, normalized, support_box
from .flocking import corollary2_test
from .kernels import Kernel

_SLACK = 1e-6


@dataclass(frozen=True)
class SpaceStepParams:
    """Geometry of one volume-budget step, in the normalized frame."""

    c: float
    Y0: float
    W0: float
    vbar0: float
    alpha0: float
    beta0: float
    eps0: float
    T0: float  # equal to eps0 by construction
    omega_area: float

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "Y0": self.Y0,
            "W0": self.W0,
            "vbar0": self.vbar0,
            "alpha0": self.alpha0,
            "beta0": self.beta0,
            "eps0": self.eps0,
            "T0": self.T0,
            "omega_area": self.omega_area,
        }


def _band_area(Y0: float, W0: float, eps: float) -> float:
    """Area of [-eps, Y0 + eps*W0 + eps] x [W0 - 2 eps, W0 + 2 eps]."""
    return (Y0 + eps * W0 + 2.0 * eps) * 4.0 * eps


def space_step_params(kernel: Kernel, e: Ensemble, c: float) -> SpaceStepParams:
    """Band geometry for a normalized 1D ensemble under area budget c.

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
    phi0 = kernel.phi0
    phid = float(kernel.phi(Y0 + W0))
    alpha0 = phi0 / (phi0 + phid) * (W0 - vbar0)
    beta0 = phid / (phi0 + phid) / 3.0 * (W0 - vbar0)
    if beta0 <= 0.0:
        raise DegenerateMeasureError("velocity barycenter sits on the support edge")

    eps0 = min(
        beta0 / 2.0,
        (math.sqrt(Y0 * Y0 + 2.0 * c * (W0 + 1.0)) - Y0) / (2.0 * (W0 + 2.0)),
    )
    if _band_area(Y0, W0, eps0) > c:
        lo, hi = 0.0, eps0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _band_area(Y0, W0, mid) <= c:
                lo = mid
            else:
                hi = mid
        eps0 = lo
    if eps0 <= 0.0:
        raise DegenerateMeasureError("no positive band width fits the area budget")

    return SpaceStepParams(
        c=c,
        Y0=Y0,
        W0=W0,
        vbar0=vbar0,
        alpha0=alpha0,
        beta0=beta0,
        eps0=eps0,
        T0=eps0,
        omega_area=_band_area(Y0, W0, eps0),
    )


def space_force(params: SpaceStepParams, x, v):
    """Control force at normalized coordinates: psi(x) * zeta(v).

    psi ramps 0 -> 1 over [-eps, 0], holds 1 on the plateau [0, Y0 + eps*W0],
    ramps back down over the trailing eps; zeta is -1 on the band core
    [W0 - eps, W0 + eps] with eps-wide ramps to 0 on either side.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    eps, y0, w0 = params.eps0, params.Y0, params.W0
    x_hi = y0 + eps * w0 + eps
    psi = np.clip(np.minimum((x + eps) / eps, (x_hi - x) / eps), 0.0, 1.0)
    zeta = -np.clip(
        np.minimum(v - (w0 - 2.0 * eps), (w0 + 2.0 * eps) - v) / eps, 0.0, 1.0
    )
    out = psi * zeta
    return float(out) if out.ndim == 0 else out


def build_space_piece(
    params: SpaceStepParams, t_start: float, box: SupportBox, dt: float | None = None
) -> ControlPiece:
    return ControlPiece(
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


def fundamental_step_space(
    kernel: Kernel,
    e: Ensemble,
    c: float,
    dt_max: float | None = None,
    t_start: float = 0.0,
):
    """Execute one volume-budget step: a single band piece of duration eps0.

    Audits band area <= c (exact arithmetic on the rectangle), |u| <= 1, and
    the guaranteed bounds W_after <= W0 - eps0 and Y_after <= Y0 + eps0*W0.

    Returns (ensemble after the step, audit dict, plan fragment, Trajectory).
    """
    box = support_box(e)
    en = normalized(e, box)
    params = space_step_params(kernel, en, c)
    dt = dt_max if dt_max is not None else params.T0 / 4.0
    piece = build_space_piece(params, t_start, box, dt=dt)
    frag = ControlPlan(pieces=(piece,))
    traj = integrate(kernel, e, frag, horizon=params.T0, dt_max=dt, t0=t_start)

    if params.omega_area > c:
        raise ContractionError("band area exceeds the budget after shrink")
    max_u = max(s.u_sup for s in traj.samples)
    box_after = support_box(traj.final)
    if box_after.w[0] > params.W0 - params.eps0 + _SLACK:
        raise ContractionError(
            f"step contracted W to {box_after.w[0]:.9f}, above the guaranteed "
            f"{params.W0 - params.eps0:.9f}"
        )
    if box_after.y[0] > params.Y0 + params.eps0 * params.W0 + _SLACK:
        raise ContractionError("spatial spread exceeded the per-step bound")
    v_lo = float(box.v_shift[0])
    for s in traj.samples:
        if float(s.box.v_shift[0]) < v_lo - _SLACK:
            raise ContractionError("lower velocity edge dropped during step")

    record = {
        "params": params.to_dict(),
        "t_start": t_start,
        "t_end": frag.t_end,
        "W_before": params.W0,
        "W_after": float(box_after.w[0]),
        "Y_before": params.Y0,
        "Y_after": float(box_after.y[0]),
        "omega_area": params.omega_area,
        "max_u_sup": max_u,
    }
    return traj.final, record, frag, traj


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
    """Iterate volume-budget steps until the velocity extent reaches eta."""
    if e0.d != 1:
        raise ValueError("complete_strategy_space requires a one-dimensional ensemble")
    box0 = support_box(e0)
    Y0, W0 = float(box0.y[0]), float(box0.w[0])
    if eta is None:
        eta = theorem6_threshold(kernel, Y0, W0)
    if eta <= 0.0:
        raise ValueError("eta must be positive")

    records: list[dict] = []
    pieces: list[ControlPiece] = []
    samples = integrate(kernel, e0, ControlPlan(), 0.0, dt_max=0.01).samples
    e, t_end = e0, 0.0
    while support_box(e).w[0] > eta:
        if len(records) >= step_budget:
            raise StrategyBudgetError(
                f"exceeded {step_budget} steps before W <= eta", records=records
            )
        e, rec, frag, step_traj = fundamental_step_space(
            kernel, e, c, dt_max=dt_max, t_start=t_end
        )
        records.append(rec)
        pieces.extend(frag.pieces)
        append_samples(samples, step_traj.samples)
        t_end = rec["t_end"]
    plan = ControlPlan(pieces=tuple(pieces))
    traj = Trajectory(samples=samples, final=e)

    total_time = plan.total_control_time()
    if total_time > W0 + 1e-9:
        raise ContractionError("total control time exceeded the guaranteed bound")
    box_f = support_box(e)
    if box_f.y[0] > Y0 + W0 * W0 + _SLACK:
        raise ContractionError("spatial spread exceeded the guaranteed bound")

    return StrategyResult(
        plan=plan,
        trajectory=traj,
        records=records,
        eta=eta,
        final=e,
        total_control_time=total_time,
        terminal_verdict=corollary2_test(
            kernel, 0.5 * float(box_f.y[0]), 0.5 * float(box_f.w[0])
        ),
        phase_axes=(0,),
    )
