"""Mass-budget sparse control synthesis, and the step and loop both budgets share.

One fundamental step shrinks the velocity support on a chosen axis by a
guaranteed amount while the control acts, at every instant, only on a
two-band region carrying measure at most c.  The step: split the spatial
support into n = ceil(2/c) columns of mass <= c/2 each, widen them so the
widened columns still carry mass <= c, and sweep the columns one at a time
with a unit-bounded force pushing band velocities toward the barycenter.
The complete strategy iterates steps until the velocity extent falls below
a threshold eta that certifies membership in the flocking region, axis by
axis in order; previously completed axes provably stay small.  A budget
object, ``MassBudget`` here or ``control_space.VolumeBudget``, holds all a
budget does differently; ``fundamental_step`` and ``complete_strategy``
run either.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dynamics import (
    _JOIN_TOL, _SAMPLE_TOL, ControlPiece, ControlPlan, Trajectory, integrate,
)
from .ensemble import Ensemble, SupportBox, _norm, mass_quantile_cuts, normalized, support_box
from .flocking import FlockingVerdict, covering_box_test
from .kernels import Kernel

_MASS_TOL = 1e-12
_CONTRACTION_SLACK = 1e-6
_BOX_SLACK = 1e-6
_PROGRESS_PERIOD = 1.0  # least seconds between two progress lines of a synthesis


class AlreadyFlockedSignal(Exception):
    """The velocity support on the requested axis is already a point."""


class DegenerateMeasureError(ValueError):
    """No synthesis applies: an atom is too heavy for the budget, so no positive
    widening exists, or no positive eta is certified, as when the threshold of a
    wide support underflows to 0 or its extent overflows, or a step's pieces
    would be too short for a plan to tell apart, as when two atoms nearly coincide."""


class StrategyBudgetError(RuntimeError):
    """Step budget exhausted; carries the audit history gathered so far."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = list(records or [])


class ContractionError(RuntimeError):
    """Integrated step failed the guaranteed support-contraction bound."""


@dataclass(frozen=True)
class StepParams:
    """Geometry of one fundamental step on one axis, in the normalized frame.

    The step sweeps n columns, cut at ``cuts``, in slots of T0/n and
    contracts W on the axis by at least T0/n.  A volume-budget step is one
    column, [0, Y0], with T0 = eps0.
    """

    axis: int
    Y0: float  # spatial extent on the axis
    W0: float  # velocity extent on the axis
    vbar0: float  # velocity barycenter on the axis (normalized frame)
    alpha0: float
    beta0: float
    n: int
    cuts: np.ndarray  # n+1 column boundaries
    eps0: float
    T0: float


@dataclass(frozen=True)
class StepRecord:
    """Audit of one executed fundamental step, of either budget.

    The ``max_*`` fields are the worst values over the step's samples; the
    drift is that of the velocity barycenter on the step's axis.
    """

    params: StepParams
    t_start: float
    t_end: float
    W_before: np.ndarray
    W_after: np.ndarray
    Y_before: np.ndarray
    Y_after: np.ndarray
    max_u_sup: float
    max_mass_in_omega: float
    max_omega_area: float
    max_vbar_drift: float


@dataclass
class StrategyResult:
    plan: ControlPlan
    trajectory: Trajectory
    records: list
    eta: float
    final: Ensemble
    total_control_time: float
    terminal_verdict: FlockingVerdict


def _largest_widening(coords, w, cuts, c):
    """(eps, b): a widening with every widened column mass <= c, on atomic
    data, and the first widening b that breaks the budget.

    The slab masses are right-continuous nondecreasing step functions of eps
    whose jumps happen when a particle enters a widened column; the feasible
    set is [0, b) for the first violating breakpoint b.  eps is the midpoint
    of the last feasible gap (a strictly feasible, deterministic choice), or
    +inf when no widening ever violates the budget (b = +inf), or 0.0 when
    the budget is violated already at eps = b = 0.
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
    if math.isinf(b_viol) or b_viol <= 0.0:
        return b_viol, b_viol
    entries = np.concatenate(entries_all)
    prev = float(entries[entries < b_viol].max())
    return 0.5 * (prev + b_viol), b_viol


def _band_offsets(kernel: Kernel, diam: float, spread: float):
    """(alpha0, beta0): the band offsets from the barycenter, for a step whose
    spatial-diameter surrogate is ``diam`` and whose velocity spread about the
    barycenter is ``spread``."""
    phi0 = kernel.phi0
    phid = float(kernel.phi(diam))
    alpha0 = phi0 / (phi0 + phid) * spread
    beta0 = phid / (phi0 + phid) / 3.0 * spread
    if beta0 <= 0.0:
        raise DegenerateMeasureError("velocity barycenter sits on the support edge")
    return alpha0, beta0


def _check_budget(owner: str, c) -> None:
    if not 0.0 < c < math.inf:
        raise ValueError(f"{owner} c must be a positive finite number, not {c!r}")


def _step_frame(e: Ensemble, axis: int, c: float, owner: str):
    """(Y0, W0, diam, vbar0) on the axis of an ensemble translated so x_j in
    [0, Y_j] and v_j in [0, W_j], once c passes ``owner``'s check; diam, the
    box-diagonal bound on pairwise distances, feeds the kernel ratio."""
    _check_budget(owner, c)
    Y = e.x.max(axis=0)
    W = e.v.max(axis=0)
    Y0, W0 = float(Y[axis]), float(W[axis])
    if W0 <= 0.0:
        raise AlreadyFlockedSignal(f"velocity support on axis {axis} is a point")
    return Y0, W0, _norm(Y, W), float(e.w @ e.v[:, axis])


def axis_step_params(kernel: Kernel, e: Ensemble, axis: int, c: float) -> StepParams:
    """Step geometry for one axis of a normalized ensemble under mass budget c.

    The columns widen by the midpoint of the last feasible gap, raised to a
    floor of 1/2000 of the narrowest column; the floor is refused when it
    reaches the sweep's first violating breakpoint.
    """
    Y0, W0, diam, vbar0 = _step_frame(e, axis, c, "MassBudget")
    alpha0, beta0 = _band_offsets(kernel, diam, max(W0 - vbar0, vbar0))

    w_max = float(e.w.max())
    if w_max > c + _MASS_TOL:
        # it lies in some column at every widening; this also bounds ceil(2/c) by 2N
        raise DegenerateMeasureError(f"an atom of mass {w_max} exceeds the mass budget c = {c}")
    n = math.ceil(2.0 / c)
    cuts = mass_quantile_cuts(e, axis, c / 2.0, n)[0]

    eps0, b = _largest_widening(e.x[:, axis], e.w, cuts, c)
    gaps = np.diff(cuts)
    pos = gaps[gaps > 0]
    eps_floor = 0.5e-3 * float(pos.min()) if pos.size else 1e-12
    if math.isinf(eps0):
        eps0 = max(1.0, Y0)
    elif eps0 < eps_floor:
        if eps_floor >= b:
            raise DegenerateMeasureError(
                "no positive column widening keeps the budget: an atom cluster "
                f"exceeds c = {c} already at eps = {eps_floor:.3e}"
            )
        eps0 = eps_floor

    T0 = min(eps0 / W0, beta0 / (2.0 * c), 1.0)
    return StepParams(
        axis=axis,
        Y0=Y0,
        W0=W0,
        vbar0=vbar0,
        alpha0=alpha0,
        beta0=beta0,
        n=n,
        cuts=cuts,
        eps0=eps0,
        T0=T0,
    )


def build_control_piece(
    params: StepParams, i: int, t_start: float, box: SupportBox, dt: float | None = None
) -> ControlPiece:
    """Piece i of n: sweep column i over the i-th time slot of the step.

    The column is [cuts[i-1] - 2 eps, cuts[i] + 2 eps] in the normalized
    frame; the two velocity bands sit at offsets [alpha + beta, alpha + 4 beta]
    on either side of the barycenter, with unit plateau inset by (eps, beta).
    Piece n ends at t_start + T0, where the step's flight does, even where
    n slots round to another time.
    """
    if not 1 <= i <= params.n:
        raise ValueError("slice index out of range")
    slot = params.T0 / params.n
    return ControlPiece(
        t_start=t_start + (i - 1) * slot,
        t_end=t_start + (params.T0 if i == params.n else i * slot),
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


def _check_extent(name: str, value: float) -> None:
    """Refuse a certified threshold whose extent ``name`` is past the largest double."""
    if not math.isfinite(value):
        raise DegenerateMeasureError(
            f"{name} = {value} is past the largest double: no eta is certified")


def theorem4_threshold(kernel: Kernel, Y0: float, W0: float, c: float) -> float:
    """Velocity-extent threshold certifying the flocking region after the 1D loop."""
    n = math.ceil(2.0 / c)
    _check_extent("theorem 4's 2(Y0 + n W0^2)", arg := 2.0 * (Y0 + n * W0 * W0))
    return 0.5 * kernel.tail_integral(arg)


def theorem5_threshold(kernel: Kernel, Y0: np.ndarray, W0: np.ndarray, c: float):
    """(eta, W_star, W_tilde) for the axis-by-axis strategy in dimension d."""
    Y0 = np.asarray(Y0, dtype=float)
    W0 = np.asarray(W0, dtype=float)
    d = Y0.size
    n = math.ceil(2.0 / c)
    with np.errstate(over="ignore", invalid="ignore"):  # extents past the largest double
        w_star = n * float(W0.sum())
        w_tilde = _norm(Y0, W0, w_star)
    eta = kernel.tail_integral(w_tilde) / (2.0 * math.sqrt(d))
    return eta, w_star, w_tilde


@dataclass(frozen=True)
class MassBudget:
    """At most mass c in the control set at every instant: steps of n = ceil(2/c)
    column pieces of one RK4 step each, ended at theorem 4's eta in one
    dimension and theorem 5's in more."""

    c: float
    rk4_per_piece: ClassVar[int] = 1
    # the StepRecord fields whose worst value over the steps a summary reports
    worst_audits: ClassVar[tuple] = ("max_mass_in_omega", "max_u_sup", "max_vbar_drift")

    def __post_init__(self):
        _check_budget(type(self).__name__, self.c)

    def params(self, kernel: Kernel, e: Ensemble, axis: int) -> StepParams:
        return axis_step_params(kernel, e, axis, self.c)

    def pieces(self, params: StepParams, t_start: float, box: SupportBox, dt: float):
        return [build_control_piece(params, i, t_start, box, dt=dt) for i in range(1, params.n + 1)]

    def audit(self, rec: StepRecord, e: Ensemble) -> None:
        if rec.max_vbar_drift > rec.params.beta0 / 2.0 + _BOX_SLACK:
            raise ContractionError("barycenter drifted beyond beta0/2 during step")
        if rec.max_mass_in_omega > self.c + 2.0 * float(e.w.max()) + _MASS_TOL:
            raise ContractionError("control set carried mass beyond c + 2 max(w) during step")

    def bounds(self, kernel: Kernel, e0: Ensemble, eta, step_budget: int):
        """(axes, eta, total control time bound, spatial spread bound) of a synthesis from e0;
        eta None is the theorem's."""
        box0 = support_box(e0)
        if e0.d == 1:
            Y0, W0 = float(box0.y[0]), float(box0.w[0])
            n = math.ceil(2.0 / self.c)
            eta = theorem4_threshold(kernel, Y0, W0, self.c) if eta is None else eta
            return (0,), eta, W0 * n, Y0 + n * W0 * W0
        eta5, w_star, w_tilde = theorem5_threshold(kernel, box0.y, box0.w, self.c)
        if eta is None:
            _check_extent("theorem 5's W*", w_star)
            _check_extent("theorem 5's W~", w_tilde)
        return tuple(range(e0.d)), eta5 if eta is None else eta, w_star, math.inf


def fundamental_step(kernel: Kernel, e: Ensemble, budget, dt_max: float | None = None,
                     axis: int = 0, t_start: float = 0.0):
    """Execute one fundamental step of ``budget`` on the given axis.

    Renormalizes the support box and flies the budget's n pieces, slots of
    T0/n, which must contract W on the axis to W_before - T0/n (+slack) and
    keep the velocity interval on the axis inside [v_lo, v_lo + W0] and |u|
    at most 1 at every sample; then the budget runs its own audits.  Returns
    (ensemble after the step, StepRecord, plan fragment, Trajectory).  By
    default each piece takes ``budget.rk4_per_piece`` RK4 steps, one for a
    mass piece: it lasts at most beta0/(2 c n) while the force ramps over
    beta0, so dt/beta0 <= 1/(2 c n) <= 1/4, as c ceil(2/c) >= 2; and the
    contraction audit rejects the step if discretization ever eats the
    analytic margin.
    """
    box = support_box(e)
    params = budget.params(kernel, normalized(e, box), axis)
    slot = params.T0 / params.n
    if not slot > _JOIN_TOL:
        raise DegenerateMeasureError(
            f"step pieces of {slot:.3e} fall in a plan's {_JOIN_TOL:g} tolerance")
    dt = dt_max if dt_max is not None else slot / budget.rk4_per_piece
    frag = ControlPlan(pieces=tuple(budget.pieces(params, t_start, box, dt)))
    traj = integrate(kernel, e, frag, horizon=params.T0, dt_max=dt, t0=t_start)
    cols = traj.columns
    # the last sample is the final state
    W_after, Y_after = cols.W[-1].copy(), cols.Y[-1].copy()
    W_target = params.W0 - slot
    if W_after[axis] > W_target + _CONTRACTION_SLACK:
        raise ContractionError(
            f"step on axis {axis} contracted W to {W_after[axis]:.9f}, "
            f"above the guaranteed {W_target:.9f}"
        )
    v_lo = float(box.v_shift[axis])
    lo = cols.v_shift[:, axis]
    if np.any(lo < v_lo - _BOX_SLACK):
        raise ContractionError("lower velocity edge dropped during step")
    if np.any(lo + cols.W[:, axis] > v_lo + params.W0 + _BOX_SLACK):
        raise ContractionError("upper velocity edge rose during step")
    max_u_sup = float(cols.u_sup.max())
    if not max_u_sup <= 1.0:
        raise ContractionError(f"control force reached |u| = {max_u_sup!r} during step, above 1")
    record = StepRecord(
        params=params,
        t_start=t_start,
        t_end=frag.t_end,
        W_before=box.w.copy(),
        W_after=W_after,
        Y_before=box.y.copy(),
        Y_after=Y_after,
        max_u_sup=max_u_sup,
        max_mass_in_omega=float(cols.mass.max()),
        max_omega_area=float(cols.area.max()),
        max_vbar_drift=float(np.abs(cols.vbar[:, axis] - (v_lo + params.vbar0)).max()),
    )
    budget.audit(record, e)
    return traj.final, record, frag, traj


def _flockctrl_log():
    """The ``flockctrl`` logger, or None in a process that has not imported
    logging: such a process has no handler to show a line, and the import
    adds ~0.4 MB to the peak RSS, so logging is looked up, not imported."""
    logging = sys.modules.get("logging")
    return None if logging is None else logging.getLogger("flockctrl")


def _log_progress(log, rec: StepRecord, eta: float, steps: int) -> None:
    p = rec.params
    log.info(
        "synthesis step %d on axis %d: W %.9g -> %.9g, guaranteed %.9g, eta %.9g",
        steps, p.axis, p.W0, rec.W_after[p.axis], p.W0 - p.T0 / p.n, eta,
    )


def complete_strategy(kernel: Kernel, e0: Ensemble, budget, eta: float | None = None,
                      dt_max: float | None = None, step_budget: int = 100_000) -> StrategyResult:
    """Run fundamental steps of ``budget`` on each of its axes in turn until
    the axis's velocity extent reaches eta.

    With eta omitted the budget computes it from the initial box so that the
    terminal configuration is certified inside the flocking region.  Pieces
    go on a running list and samples into one Trajectory log, so the loop is
    linear in the steps.  Then it audits the budget's guarantees: no
    finished axis regrows above eta, the total control time and the spatial
    extent on axis 0 stay within the budget's bounds.  Progress goes to the
    ``flockctrl`` logger as an INFO line at most once a second and one
    after the last step.
    """
    axes, eta, time_bound, spread_bound = budget.bounds(kernel, e0, eta, step_budget)
    if not eta > 0.0:
        raise DegenerateMeasureError(f"eta must be positive, not {eta}")
    records: list[StepRecord] = []
    pieces: list[ControlPiece] = []
    traj = Trajectory.empty(e0)
    e, t_end, W = e0, 0.0, support_box(e0).w
    phase_end_times = []
    log, logged, next_line = _flockctrl_log(), 0, time.monotonic() + _PROGRESS_PERIOD
    for axis in axes:
        while W[axis] > eta:
            if len(records) >= step_budget:
                raise StrategyBudgetError(
                    f"exceeded {step_budget} fundamental steps before W <= eta",
                    records=records,
                )
            # through the module attribute, which a caller may wrap, once per step
            e, rec, frag, step_traj = fundamental_step(
                kernel, e, budget, dt_max=dt_max, axis=axis, t_start=t_end
            )
            records.append(rec)
            # the step numbers its pieces from 0; the plan, from len(pieces)
            traj.append(step_traj, piece_offset=len(pieces))
            pieces.extend(frag.pieces)
            t_end, W = rec.t_end, rec.W_after
            if log is not None and time.monotonic() >= next_line:
                _log_progress(log, rec, eta, len(records))
                logged, next_line = len(records), time.monotonic() + _PROGRESS_PERIOD
        phase_end_times.append(t_end)
    if log is not None and len(records) > logged:
        _log_progress(log, records[-1], eta, len(records))
    if not records:  # no step: the initial state, against no piece
        traj.record(0.0, e0.x, e0.v, e0.w, None, -1)
    plan = ControlPlan(pieces=tuple(pieces))

    cols = traj.columns
    for axis, t_done in zip(axes, phase_end_times):
        if np.any(cols.W[cols.t >= t_done - _SAMPLE_TOL, axis] > eta + _BOX_SLACK):
            raise ContractionError(
                f"axis {axis} velocity extent regrew above eta after its phase"
            )
    total_time = plan.total_control_time()
    if total_time > time_bound + 1e-9:
        raise ContractionError("total control time exceeded the guaranteed bound")
    if support_box(e).y[0] > spread_bound + _BOX_SLACK:
        raise ContractionError("spatial spread exceeded the guaranteed bound")

    return StrategyResult(
        plan=plan,
        trajectory=traj,
        records=records,
        eta=eta,
        final=e,
        total_control_time=total_time,
        terminal_verdict=covering_box_test(kernel, support_box(e))[0],
    )
