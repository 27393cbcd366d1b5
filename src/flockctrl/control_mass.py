"""Mass-budget sparse control synthesis.

One fundamental step shrinks the velocity support on a chosen axis by a
guaranteed amount while the control acts, at every instant, only on a
two-band region carrying measure at most c.  The step: split the spatial
support into n = ceil(2/c) columns of mass <= c/2 each, widen them so the
widened columns still carry mass <= c, and sweep the columns one at a time
with a unit-bounded force pushing band velocities toward the barycenter.
The complete strategy iterates steps until the velocity extent falls below
a threshold eta that certifies membership in the flocking region; the
multi-axis strategy runs the loop per coordinate in order, and previously
completed axes provably stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ControlPiece, ControlPlan, Trajectory, append_samples, integrate
from .ensemble import (
    Ensemble,
    SupportBox,
    mass_quantile_cuts,
    normalized,
    support_box,
)
from .flocking import FlockingVerdict, corollary2_test
from .kernels import Kernel

_MASS_TOL = 1e-12
_CONTRACTION_SLACK = 1e-6
_BOX_SLACK = 1e-6


class AlreadyFlockedSignal(Exception):
    """The velocity support on the requested axis is already a point."""


class DegenerateMeasureError(ValueError):
    """An atom is too heavy for the budget: no positive widening exists."""


class StrategyBudgetError(RuntimeError):
    """Step budget exhausted; carries the audit history gathered so far."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = list(records or [])


class ContractionError(RuntimeError):
    """Integrated step failed the guaranteed support-contraction bound."""


@dataclass(frozen=True)
class StepParams:
    """Geometry of one fundamental step on one axis, in the normalized frame."""

    axis: int
    c: float
    Y0: float  # spatial extent on the axis
    W0: float  # velocity extent on the axis
    diam: float  # spatial-diameter surrogate fed to the kernel ratio
    vbar0: float  # velocity barycenter on the axis (normalized frame)
    alpha0: float
    beta0: float
    n: int
    cuts: np.ndarray  # n+1 column boundaries
    slice_masses: np.ndarray
    eps0: float
    T0: float
    atom_flagged: bool  # some column overshot c/2 by more than one max weight

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "c": self.c,
            "Y0": self.Y0,
            "W0": self.W0,
            "diam": self.diam,
            "vbar0": self.vbar0,
            "alpha0": self.alpha0,
            "beta0": self.beta0,
            "n": self.n,
            "cuts": [float(x) for x in self.cuts],
            "slice_masses": [float(m) for m in self.slice_masses],
            "eps0": self.eps0,
            "T0": self.T0,
            "atom_flagged": self.atom_flagged,
        }


@dataclass(frozen=True)
class StepRecord:
    """Audit of one executed fundamental step."""

    params: StepParams
    t_start: float
    t_end: float
    W_before: np.ndarray
    W_after: np.ndarray
    Y_before: np.ndarray
    Y_after: np.ndarray
    max_mass_in_omega: float
    max_u_sup: float
    max_vbar_drift: float
    div_v_bound: float  # analytic sup of |d u / d v| + 1 for the built ramp

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "t_start": self.t_start,
            "t_end": self.t_end,
            "W_before": [float(x) for x in self.W_before],
            "W_after": [float(x) for x in self.W_after],
            "Y_before": [float(x) for x in self.Y_before],
            "Y_after": [float(x) for x in self.Y_after],
            "max_mass_in_omega": self.max_mass_in_omega,
            "max_u_sup": self.max_u_sup,
            "max_vbar_drift": self.max_vbar_drift,
            "div_v_bound": self.div_v_bound,
        }


@dataclass
class StrategyResult:
    plan: ControlPlan
    trajectory: Trajectory
    records: list
    eta: float
    final: Ensemble
    total_control_time: float
    terminal_verdict: FlockingVerdict
    phase_axes: tuple = (0,)


def _extended_slab_masses(coords, w, cuts, eps):
    """Mass of every widened column [cuts[i-1]-3eps, cuts[i]+3eps] (closed)."""
    lo = cuts[:-1] - 3.0 * eps
    hi = cuts[1:] + 3.0 * eps
    inside = (coords[None, :] >= lo[:, None]) & (coords[None, :] <= hi[:, None])
    return inside @ w


def _largest_widening(coords, w, cuts, c):
    """Supremum of eps with every widened column mass <= c, on atomic data.

    The slab masses are right-continuous nondecreasing step functions of eps
    whose jumps happen when a particle enters a widened column; the feasible
    set is [0, b) for the first violating breakpoint b.  Returns the midpoint
    of the last feasible gap (a strictly feasible, deterministic choice), or
    +inf when no widening ever violates the budget, or 0.0 when the budget is
    violated already at eps = 0.
    """
    n = cuts.size - 1
    b_viol = math.inf
    entries_all = [np.array([0.0])]
    for i in range(n):
        lo, hi = cuts[i], cuts[i + 1]
        below = coords < lo
        above = coords > hi
        entry = np.zeros_like(coords)
        entry[below] = (lo - coords[below]) / 3.0
        entry[above] = (coords[above] - hi) / 3.0
        order = np.argsort(entry, kind="stable")
        cum = np.cumsum(w[order])
        over = np.nonzero(cum > c + _MASS_TOL)[0]
        if over.size:
            b_viol = min(b_viol, float(entry[order][over[0]]))
        entries_all.append(entry)
    if math.isinf(b_viol):
        return math.inf
    if b_viol <= 0.0:
        return 0.0
    entries = np.concatenate(entries_all)
    prev = float(entries[entries < b_viol].max())
    return 0.5 * (prev + b_viol)


def axis_step_params(kernel: Kernel, e: Ensemble, axis: int, c: float) -> StepParams:
    """Step geometry for one axis of a normalized ensemble.

    Expects the ensemble translated so x_j in [0, Y_j] and v_j in [0, W_j].
    The kernel ratio uses the box-diagonal bound on pairwise distances,
    which reduces to Y + W in one dimension.
    """
    if not 0.0 < c:
        raise ValueError("mass budget c must be positive")
    Y = e.x.max(axis=0)
    W = e.v.max(axis=0)
    Y0, W0 = float(Y[axis]), float(W[axis])
    if W0 <= 0.0:
        raise AlreadyFlockedSignal(f"velocity support on axis {axis} is a point")

    diam = float(np.linalg.norm(Y + W))
    vbar0 = float(e.w @ e.v[:, axis])
    phi0 = kernel.phi0
    phid = float(kernel.phi(diam))
    ratio_a = phi0 / (phi0 + phid)
    ratio_b = phid / (phi0 + phid) / 3.0
    alpha0 = ratio_a * max(W0 - vbar0, vbar0)
    beta0 = ratio_b * max(W0 - vbar0, vbar0)
    if beta0 <= 0.0:
        raise DegenerateMeasureError("velocity barycenter sits on the support edge")

    n = math.ceil(2.0 / c)
    cuts, slice_masses = mass_quantile_cuts(e, axis, c / 2.0, n, return_masses=True)
    atom_flagged = bool(np.any(slice_masses > c / 2.0 + e.w.max() + _MASS_TOL))

    coords = e.x[:, axis]
    eps0 = _largest_widening(coords, e.w, cuts, c)
    gaps = np.diff(cuts)
    pos = gaps[gaps > 0]
    eps_floor = 0.5e-3 * float(pos.min()) if pos.size else 1e-12
    if math.isinf(eps0):
        eps0 = max(1.0, Y0)
    elif eps0 < eps_floor:
        eps0 = eps_floor
        masses = _extended_slab_masses(coords, e.w, cuts, eps0)
        if np.any(masses > c + _MASS_TOL):
            raise DegenerateMeasureError(
                "no positive column widening keeps the budget: an atom cluster "
                f"exceeds c = {c} already at eps = {eps0:.3e}"
            )

    T0 = min(eps0 / W0, beta0 / (2.0 * c), 1.0)
    return StepParams(
        axis=axis,
        c=c,
        Y0=Y0,
        W0=W0,
        diam=diam,
        vbar0=vbar0,
        alpha0=alpha0,
        beta0=beta0,
        n=n,
        cuts=cuts,
        slice_masses=slice_masses,
        eps0=eps0,
        T0=T0,
        atom_flagged=atom_flagged,
    )


def step_params_1d(kernel: Kernel, e: Ensemble, c: float) -> StepParams:
    """One-dimensional step geometry (axis 0)."""
    if e.d != 1:
        raise ValueError("step_params_1d requires a one-dimensional ensemble")
    return axis_step_params(kernel, e, 0, c)


def build_control_piece(
    params: StepParams, i: int, t_start: float, box: SupportBox, dt: float | None = None
) -> ControlPiece:
    """Piece i of n: sweep column i over the i-th time slot of the step.

    The column is [cuts[i-1] - 2 eps, cuts[i] + 2 eps] in the normalized
    frame; the two velocity bands sit at offsets [alpha + beta, alpha + 4 beta]
    on either side of the barycenter, with unit plateau inset by (eps, beta).
    """
    if not 1 <= i <= params.n:
        raise ValueError("slice index out of range")
    slot = params.T0 / params.n
    return ControlPiece(
        t_start=t_start + (i - 1) * slot,
        t_end=t_start + i * slot,
        kind="mass_band",
        axis=params.axis,
        t_ref=t_start,
        x_shift=float(box.x_shift[params.axis]),
        v_shift=float(box.v_shift[params.axis]),
        params={
            "x_lo": float(params.cuts[i - 1]) - 2.0 * params.eps0,
            "x_hi": float(params.cuts[i]) + 2.0 * params.eps0,
            "vbar": params.vbar0,
            "alpha": params.alpha0,
            "beta": params.beta0,
            "eps": params.eps0,
        },
        dt=dt,
    )


def build_control_piece_1d(params: StepParams, i: int, t_start: float) -> ControlPiece:
    """1D convenience wrapper with an identity frame."""
    box = SupportBox(
        y=np.array([params.Y0]),
        a=np.zeros(1),
        w=np.array([params.W0]),
        x_shift=np.zeros(1),
        v_shift=np.zeros(1),
    )
    return build_control_piece(params, i, t_start, box)


def fundamental_step(
    kernel: Kernel,
    e: Ensemble,
    c: float,
    dt_max: float | None = None,
    axis: int = 0,
    t_start: float = 0.0,
):
    """Execute one fundamental step on the given axis.

    Renormalizes the support box, builds the n-piece sweep, integrates over
    [t_start, t_start + T0], audits the constraints at every sample, and
    enforces the guaranteed contraction W_after <= W_before - T0/n (+slack)
    together with invariance of the velocity box on the controlled axis.

    Returns (ensemble after the step, StepRecord, plan fragment, Trajectory).
    By default each piece is integrated with two RK4 steps: the per-piece
    duration is at most beta0/(2 c n), small against the 1/beta0 force
    stiffness, and the contraction audit below rejects the step if
    discretization ever eats the analytic margin.
    """
    box = support_box(e)
    en = normalized(e, box)
    params = axis_step_params(kernel, en, axis, c)
    dt = dt_max if dt_max is not None else params.T0 / (2 * params.n)
    pieces = [
        build_control_piece(params, i, t_start, box, dt=dt)
        for i in range(1, params.n + 1)
    ]
    frag = ControlPlan(pieces=tuple(pieces))
    traj = integrate(kernel, e, frag, horizon=params.T0, dt_max=dt, t0=t_start)

    vbar_ref = float(box.v_shift[axis]) + params.vbar0
    max_mass = max(s.mass_in_omega for s in traj.samples)
    max_u = max(s.u_sup for s in traj.samples)
    max_drift = max(abs(float(s.metrics.vbar[axis]) - vbar_ref) for s in traj.samples)
    box_after = support_box(traj.final)

    target = params.W0 - params.T0 / params.n
    if box_after.w[axis] > target + _CONTRACTION_SLACK:
        raise ContractionError(
            f"step on axis {axis} contracted W to {box_after.w[axis]:.9f}, "
            f"above the guaranteed {target:.9f}"
        )
    v_lo = float(box.v_shift[axis])
    for s in traj.samples:
        lo = float(s.box.v_shift[axis])
        hi = lo + float(s.box.w[axis])
        if lo < v_lo - _BOX_SLACK or hi > v_lo + params.W0 + _BOX_SLACK:
            raise ContractionError("velocity box invariance violated during step")
    if max_drift > params.beta0 / 2.0 + _BOX_SLACK:
        raise ContractionError("barycenter drifted beyond beta0/2 during step")

    record = StepRecord(
        params=params,
        t_start=t_start,
        t_end=frag.t_end,
        W_before=box.w.copy(),
        W_after=box_after.w.copy(),
        Y_before=box.y.copy(),
        Y_after=box_after.y.copy(),
        max_mass_in_omega=max_mass,
        max_u_sup=max_u,
        max_vbar_drift=max_drift,
        div_v_bound=1.0 / params.beta0 + 1.0,
    )
    return traj.final, record, frag, traj


def fundamental_step_1d(kernel: Kernel, e: Ensemble, c: float, dt_max: float | None = None):
    """One-dimensional fundamental step starting at time 0."""
    if e.d != 1:
        raise ValueError("fundamental_step_1d requires a one-dimensional ensemble")
    return fundamental_step(kernel, e, c, dt_max=dt_max, axis=0, t_start=0.0)


def theorem4_threshold(kernel: Kernel, Y0: float, W0: float, c: float) -> float:
    """Velocity-extent threshold certifying the flocking region after the 1D loop."""
    n = math.ceil(2.0 / c)
    return 0.5 * kernel.tail_integral(2.0 * (Y0 + n * W0 * W0))


def theorem5_threshold(kernel: Kernel, Y0: np.ndarray, W0: np.ndarray, c: float):
    """(eta, W_star, W_tilde) for the axis-by-axis strategy in dimension d."""
    Y0 = np.asarray(Y0, dtype=float)
    W0 = np.asarray(W0, dtype=float)
    d = Y0.size
    n = math.ceil(2.0 / c)
    w_star = n * float(W0.sum())
    w_tilde = float(np.linalg.norm(Y0 + W0 * w_star))
    eta = kernel.tail_integral(w_tilde) / (2.0 * math.sqrt(d))
    return eta, w_star, w_tilde


def _run_axis_loop(
    kernel, e, c, axis, eta, dt_max, t_start, step_budget, records, pieces, samples
):
    """Iterate fundamental steps on one axis until its W drops to eta.

    Appends each step's record, plan pieces and trajectory samples to the
    running lists, so the loop stays linear in the number of steps.
    """
    while support_box(e).w[axis] > eta:
        if len(records) >= step_budget:
            raise StrategyBudgetError(
                f"exceeded {step_budget} fundamental steps before W <= eta",
                records=records,
            )
        e, rec, frag, step_traj = fundamental_step(
            kernel, e, c, dt_max=dt_max, axis=axis, t_start=t_start
        )
        records.append(rec)
        pieces.extend(frag.pieces)
        append_samples(samples, step_traj.samples)
        t_start = rec.t_end
    return e, t_start


def _terminal_verdict(kernel, e):
    box = support_box(e)
    return corollary2_test(
        kernel, 0.5 * float(np.linalg.norm(box.y)), 0.5 * float(np.linalg.norm(box.w))
    )


def complete_strategy_1d(
    kernel: Kernel,
    e0: Ensemble,
    c: float,
    eta: float | None = None,
    dt_max: float | None = None,
    step_budget: int = 100_000,
) -> StrategyResult:
    """Iterate the 1D fundamental step until the velocity extent reaches eta.

    With eta omitted it is computed from the initial box so that the terminal
    configuration is certified inside the flocking region; the loop then
    provably uses total control time at most W0 * ceil(2/c) and spreads the
    spatial support by at most ceil(2/c) * W0^2.
    """
    if e0.d != 1:
        raise ValueError("complete_strategy_1d requires a one-dimensional ensemble")
    box0 = support_box(e0)
    Y0, W0 = float(box0.y[0]), float(box0.w[0])
    if eta is None:
        eta = theorem4_threshold(kernel, Y0, W0, c)
    if eta <= 0.0:
        raise ValueError("eta must be positive")

    records: list[StepRecord] = []
    pieces: list[ControlPiece] = []
    samples = integrate(kernel, e0, ControlPlan(), 0.0, dt_max=0.01).samples
    e, t_end = _run_axis_loop(
        kernel, e0, c, 0, eta, dt_max, 0.0, step_budget, records, pieces, samples
    )
    plan = ControlPlan(pieces=tuple(pieces))
    traj = Trajectory(samples=samples, final=e)

    total_time = plan.total_control_time()
    n = math.ceil(2.0 / c)
    if total_time > W0 * n + 1e-9:
        raise ContractionError("total control time exceeded the guaranteed bound")
    if support_box(e).y[0] > Y0 + n * W0 * W0 + _BOX_SLACK:
        raise ContractionError("spatial spread exceeded the guaranteed bound")

    return StrategyResult(
        plan=plan,
        trajectory=traj,
        records=records,
        eta=eta,
        final=e,
        total_control_time=total_time,
        terminal_verdict=_terminal_verdict(kernel, e),
        phase_axes=(0,),
    )


def multi_d_params(kernel: Kernel, e: Ensemble, axis: int, c: float) -> StepParams:
    """Step geometry on one coordinate of a normalized d-dimensional ensemble."""
    return axis_step_params(kernel, e, axis, c)


def complete_strategy_multi_d(
    kernel: Kernel,
    e0: Ensemble,
    c: float,
    eta: float | None = None,
    dt_max: float | None = None,
    step_budget: int = 100_000,
) -> StrategyResult:
    """Run the axis loop for every coordinate in order, each down to eta.

    After an axis finishes, its velocity extent stays below eta (plus
    integrator slack) through all later phases; this is re-audited on the
    recorded samples.  Total control time is bounded by ceil(2/c) * sum_j W_j0.
    """
    box0 = support_box(e0)
    d = e0.d
    eta5, w_star, _ = theorem5_threshold(kernel, box0.y, box0.w, c)
    if eta is None:
        eta = eta5
    if eta <= 0.0:
        raise ValueError("eta must be positive")

    records: list[StepRecord] = []
    pieces: list[ControlPiece] = []
    samples = integrate(kernel, e0, ControlPlan(), 0.0, dt_max=0.01).samples
    e, t_end = e0, 0.0
    phase_end_times = []
    for axis in range(d):
        e, t_end = _run_axis_loop(
            kernel, e, c, axis, eta, dt_max, t_end, step_budget, records, pieces, samples
        )
        phase_end_times.append(t_end)
    plan = ControlPlan(pieces=tuple(pieces))
    traj = Trajectory(samples=samples, final=e)

    for axis, t_done in enumerate(phase_end_times):
        for s in traj.samples:
            if s.t >= t_done - 1e-12 and s.box.w[axis] > eta + _BOX_SLACK:
                raise ContractionError(
                    f"axis {axis} velocity extent regrew above eta after its phase"
                )
    if plan.total_control_time() > w_star + 1e-9:
        raise ContractionError("total control time exceeded the guaranteed bound")

    return StrategyResult(
        plan=plan,
        trajectory=traj,
        records=records,
        eta=eta,
        final=e,
        total_control_time=plan.total_control_time(),
        terminal_verdict=_terminal_verdict(kernel, e),
        phase_axes=tuple(range(d)),
    )
