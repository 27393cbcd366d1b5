"""Time integration of the controlled characteristics.

The particle system

    dx_i/dt = v_i
    dv_i/dt = xi[mu](x_i, v_i) + chi_omega(x_i, v_i) u(t, x_i, v_i)

is advanced with classical fixed-step RK4, with steps aligned so every
control-piece boundary is hit exactly.  A control piece carries a band-shaped
control set and a continuous piecewise-linear force, expressed in the
normalized frame of the step that built it; the frame co-moves with the
velocity offset recorded at the step start, so the construction matches the
translated coordinates in which the bands were designed.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import (
    Ensemble,
    FlockingMetrics,
    SupportBox,
    flocking_metrics,
    support_box,
)
from .kernels import Kernel, interaction_field


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite; carries a diagnostic snapshot."""

    def __init__(self, message, t=None, x=None, v=None):
        super().__init__(message)
        self.t = t
        self.x = x
        self.v = v


@dataclass(frozen=True)
class ControlPiece:
    """One time slice of the control schedule.

    ``kind`` selects the force construction:

    * ``"mass_band"`` -- two velocity bands over a widened spatial column,
      force -psi(x,v) * sign(v_j - vbar_j), used by the mass-budget strategy.
    * ``"space_band"`` -- single upper band psi(x)*zeta(v), used by the
      volume-budget strategy.

    Geometry parameters are stored in the normalized frame of the step that
    built the piece: subtract (x_shift + (t - t_ref) * v_shift) from the
    spatial coordinate and v_shift from the velocity coordinate of ``axis``.
    """

    t_start: float
    t_end: float
    kind: str
    axis: int
    t_ref: float
    x_shift: float
    v_shift: float
    params: dict = field(default_factory=dict)
    dt: float | None = None  # step size the piece was synthesized with

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("piece must have positive duration")
        if self.kind not in ("mass_band", "space_band"):
            raise ValueError(f"unknown control piece kind: {self.kind!r}")

    def _frame_coords(self, x: np.ndarray, v: np.ndarray, t: float):
        xs = x[:, self.axis] - self.x_shift - (t - self.t_ref) * self.v_shift
        vs = v[:, self.axis] - self.v_shift
        return xs, vs

    def force_axis(self, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        """Force on the controlled velocity component, per particle."""
        xs, vs = self._frame_coords(x, v, t)
        p = self.params
        if self.kind == "mass_band":
            eps, beta = p["eps"], p["beta"]
            s = vs - p["vbar"]
            band_inner = p["alpha"] + beta
            band_outer = p["alpha"] + 4.0 * beta
            psi_x = np.minimum((xs - p["x_lo"]) / eps, (p["x_hi"] - xs) / eps)
            psi_v = np.minimum(np.abs(s) - band_inner, band_outer - np.abs(s)) / beta
            psi = np.clip(np.minimum(psi_x, psi_v), 0.0, 1.0)
            return -psi * np.sign(s)
        # space_band
        eps, y0, w0 = p["eps"], p["y0"], p["w0"]
        x_hi = y0 + eps * w0 + eps
        psi = np.clip(np.minimum((xs + eps) / eps, (x_hi - xs) / eps), 0.0, 1.0)
        zeta = -np.clip(
            np.minimum(vs - (w0 - 2.0 * eps), (w0 + 2.0 * eps) - vs) / eps, 0.0, 1.0
        )
        return psi * zeta

    def force(self, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(v)
        out[:, self.axis] = self.force_axis(x, v, t)
        return out

    def in_omega(self, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        """Closed-box membership of each particle in the control set."""
        xs, vs = self._frame_coords(x, v, t)
        p = self.params
        if self.kind == "mass_band":
            s = np.abs(vs - p["vbar"])
            in_x = (xs >= p["x_lo"]) & (xs <= p["x_hi"])
            in_v = (s >= p["alpha"] + p["beta"]) & (s <= p["alpha"] + 4.0 * p["beta"])
            return in_x & in_v
        eps, y0, w0 = p["eps"], p["y0"], p["w0"]
        in_x = (xs >= -eps) & (xs <= y0 + eps * w0 + eps)
        in_v = (vs >= w0 - 2.0 * eps) & (vs <= w0 + 2.0 * eps)
        return in_x & in_v

    def omega_volume(self) -> float:
        """Lebesgue area of the control set in the (x_axis, v_axis) plane."""
        p = self.params
        if self.kind == "mass_band":
            return (p["x_hi"] - p["x_lo"]) * 6.0 * p["beta"]
        eps = p["eps"]
        return (p["y0"] + eps * p["w0"] + 2.0 * eps) * 4.0 * eps

    def to_dict(self) -> dict:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "kind": self.kind,
            "axis": self.axis,
            "t_ref": self.t_ref,
            "x_shift": self.x_shift,
            "v_shift": self.v_shift,
            "params": dict(self.params),
            "dt": self.dt,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ControlPiece":
        return cls(
            t_start=float(d["t_start"]),
            t_end=float(d["t_end"]),
            kind=str(d["kind"]),
            axis=int(d["axis"]),
            t_ref=float(d["t_ref"]),
            x_shift=float(d["x_shift"]),
            v_shift=float(d["v_shift"]),
            params={k: float(val) for k, val in d["params"].items()},
            dt=None if d.get("dt") is None else float(d["dt"]),
        )


@dataclass(frozen=True)
class ControlPlan:
    """Contiguous, non-overlapping schedule of control pieces; zero afterwards."""

    pieces: tuple = ()

    def __post_init__(self):
        pieces = tuple(self.pieces)
        for a, b in zip(pieces, pieces[1:]):
            if b.t_start < a.t_end - 1e-9:
                raise ValueError("control pieces overlap in time")
            if b.t_start > a.t_end + 1e-9:
                raise ValueError("control pieces leave a gap in time")
        object.__setattr__(self, "pieces", pieces)

    @property
    def t_end(self) -> float:
        return self.pieces[-1].t_end if self.pieces else 0.0

    def total_control_time(self) -> float:
        return sum(p.t_end - p.t_start for p in self.pieces)

    def piece_index_at(self, t: float) -> int:
        """Index of the piece active at t, or -1 (pieces own [t_start, t_end))."""
        starts = [p.t_start for p in self.pieces]
        i = bisect.bisect_right(starts, t) - 1
        if i >= 0 and t < self.pieces[i].t_end - 1e-12:
            return i
        return -1

    def concat(self, other: "ControlPlan") -> "ControlPlan":
        return ControlPlan(pieces=self.pieces + tuple(other.pieces))

    def to_dict(self) -> dict:
        return {"pieces": [p.to_dict() for p in self.pieces]}

    @classmethod
    def from_dict(cls, d: dict) -> "ControlPlan":
        return cls(pieces=tuple(ControlPiece.from_dict(p) for p in d["pieces"]))


@dataclass
class TrajectorySample:
    t: float
    metrics: FlockingMetrics
    box: SupportBox
    mass_in_omega: float
    omega_volume: float
    u_sup: float
    piece_index: int
    ensemble: Ensemble | None = None


@dataclass
class Trajectory:
    samples: list
    final: Ensemble

    def __post_init__(self):
        times = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def velocity_radii(self) -> np.ndarray:
        return np.array([s.metrics.V for s in self.samples])

    def spatial_radii(self) -> np.ndarray:
        return np.array([s.metrics.X for s in self.samples])

    def extend(self, other: "Trajectory") -> "Trajectory":
        """Concatenate a later trajectory, dropping its duplicated first sample."""
        samples = list(self.samples)
        append_samples(samples, other.samples)
        return Trajectory(samples=samples, final=other.final)

    def to_csv(self, path) -> None:
        d = self.final.d
        header = ["t"]
        header += [f"Y_{j}" for j in range(d)]
        header += [f"a_{j}" for j in range(d)]
        header += [f"W_{j}" for j in range(d)]
        header += ["X", "V", "Lambda"]
        header += [f"vbar_{j}" for j in range(d)]
        header += ["mass_in_omega", "omega_volume", "u_sup", "piece_index"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for s in self.samples:
                row = [repr(s.t)]
                row += [repr(float(y)) for y in s.box.y]
                row += [repr(float(av)) for av in s.box.v_shift]
                row += [repr(float(wv)) for wv in s.box.w]
                row += [repr(s.metrics.X), repr(s.metrics.V), repr(s.metrics.Lambda)]
                row += [repr(float(vb)) for vb in s.metrics.vbar]
                row += [
                    repr(s.mass_in_omega),
                    repr(s.omega_volume),
                    repr(s.u_sup),
                    str(s.piece_index),
                ]
                writer.writerow(row)


def append_samples(samples: list, tail: list) -> None:
    """Append a later run's samples in place, dropping a first one that repeats the last."""
    if tail and samples and tail[0].t <= samples[-1].t + 1e-12:
        tail = tail[1:]
    samples.extend(tail)


def step_rhs(kernel: Kernel, e: Ensemble, piece: ControlPiece | None, t: float):
    """Right-hand side of the controlled characteristics at time t.

    Returns (dx, dv) arrays of shape (N, d).  The control force is continuous
    and vanishes on the complement of the control set, so no explicit
    indicator multiplication is needed.
    """
    dv = interaction_field(kernel, e.x, e.v, e.w)
    if piece is not None:
        dv = dv + piece.force(e.x, e.v, t)
    return e.v.copy(), dv


def _rk4_segment(kernel, x, v, w, piece, t0, t1, nsteps):
    """Advance (x, v) from t0 to t1 in nsteps equal RK4 steps."""
    dt = (t1 - t0) / nsteps
    for k in range(nsteps):
        t = t0 + k * dt

        def rhs(tt, xx, vv):
            dv = interaction_field(kernel, xx, vv, w)
            if piece is not None:
                dv = dv + piece.force(xx, vv, tt)
            return vv, dv

        k1x, k1v = rhs(t, x, v)
        k2x, k2v = rhs(t + 0.5 * dt, x + 0.5 * dt * k1x, v + 0.5 * dt * k1v)
        k3x, k3v = rhs(t + 0.5 * dt, x + 0.5 * dt * k2x, v + 0.5 * dt * k2v)
        k4x, k4v = rhs(t + dt, x + dt * k3x, v + dt * k3v)
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise IntegrationError("state became non-finite", t=t + dt, x=x, v=v)
    return x, v


def _default_dt_max(plan: ControlPlan) -> float:
    if not plan.pieces:
        return 0.01
    shortest = min(p.t_end - p.t_start for p in plan.pieces)
    return min(0.01, shortest / 20.0)


def _audit(e_arrays, plan, piece_idx, t):
    x, v, w = e_arrays
    if piece_idx < 0:
        return 0.0, 0.0, 0.0
    piece = plan.pieces[piece_idx]
    mask = piece.in_omega(x, v, t)
    mass = float(w[mask].sum())
    u_sup = float(np.abs(piece.force_axis(x, v, t)).max()) if x.shape[0] else 0.0
    return mass, piece.omega_volume(), u_sup


def integrate(
    kernel: Kernel,
    e0: Ensemble,
    plan: ControlPlan,
    horizon: float,
    dt_max: float | None = None,
    t0: float = 0.0,
    sample_stride: int = 1,
    record_ensembles: bool = False,
) -> Trajectory:
    """Advance the ensemble over [t0, t0 + horizon] under the control plan.

    RK4 steps never straddle a piece boundary.  Samples are recorded at t0,
    at every piece boundary, at the end, and at every `sample_stride`-th
    interior step.  Constraint audits (mass in omega, omega area, sup |u|)
    are evaluated at every recorded sample against the active piece.

    When dt_max is omitted, a piece carrying its synthesis-time step hint is
    integrated with exactly that step, which makes plan replay reproduce the
    synthesis run bit for bit; an explicit dt_max caps every segment.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    explicit_dt = dt_max
    if dt_max is None:
        dt_max = _default_dt_max(plan)
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")

    t_final = t0 + horizon
    bounds = sorted(
        {t0, t_final}
        | {p.t_start for p in plan.pieces if t0 < p.t_start < t_final}
        | {p.t_end for p in plan.pieces if t0 < p.t_end < t_final}
    )

    x, v, w = e0.x.copy(), e0.v.copy(), e0.w
    samples: list[TrajectorySample] = []

    def record(t, piece_idx):
        e = Ensemble(x=x.copy(), v=v.copy(), w=w)
        mass, vol, u_sup = _audit((x, v, w), plan, piece_idx, t)
        samples.append(
            TrajectorySample(
                t=t,
                metrics=flocking_metrics(e),
                box=support_box(e),
                mass_in_omega=mass,
                omega_volume=vol,
                u_sup=u_sup,
                piece_index=piece_idx,
                ensemble=e if record_ensembles else None,
            )
        )

    record(t0, plan.piece_index_at(t0))

    for seg_start, seg_end in zip(bounds, bounds[1:]):
        piece_idx = plan.piece_index_at(seg_start)
        piece = plan.pieces[piece_idx] if piece_idx >= 0 else None
        seg_dt = dt_max
        if piece is not None and piece.dt is not None:
            seg_dt = piece.dt if explicit_dt is None else min(explicit_dt, piece.dt)
        nsteps = max(1, math.ceil((seg_end - seg_start) / seg_dt - 1e-9))
        dt = (seg_end - seg_start) / nsteps
        for k in range(nsteps):
            x, v = _rk4_segment(
                kernel, x, v, w, piece, seg_start + k * dt, seg_start + (k + 1) * dt, 1
            )
            t_now = seg_end if k == nsteps - 1 else seg_start + (k + 1) * dt
            if k == nsteps - 1 or (k + 1) % sample_stride == 0:
                # audit against the piece governing the step just taken
                record(t_now, piece_idx)

    final = Ensemble(x=x, v=v, w=w)
    return Trajectory(samples=samples, final=final)


def finite_dim_integrate(
    kernel: Kernel,
    x0: np.ndarray,
    v0: np.ndarray,
    plan: ControlPlan,
    horizon: float,
    dt_max: float | None = None,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate the N-agent ODE system with uniform coupling weights 1/N.

    The empirical measure of the result coincides with the measure pathway:
    both routes share the pairwise summation, so agreement is exact.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if np.asarray(x0).shape[0] == 1 and np.asarray(v0).ndim == 1:
        x0 = x0.T
    v0 = np.asarray(v0, dtype=float).reshape(x0.shape)
    n = x0.shape[0]
    e0 = Ensemble(x=x0, v=v0, w=np.full(n, 1.0 / n))
    return integrate(kernel, e0, plan, horizon, dt_max=dt_max, t0=t0)


def decay_rate_estimate(traj: Trajectory, t_from: float = 0.0) -> float:
    """Fitted exponential decay rate of the velocity radius V(t).

    Least-squares slope of log V(t) over samples with t >= t_from; returns 0
    when V has already collapsed below 1e-14 at the start of the window.
    """
    ts, vs = [], []
    for s in traj.samples:
        if s.t >= t_from - 1e-12:
            ts.append(s.t)
            vs.append(s.metrics.V)
    if not ts:
        raise ValueError("no samples at or after t_from")
    if vs[0] < 1e-14:
        return 0.0
    pts = [(t, v) for t, v in zip(ts, vs) if v > 1e-14]
    if len(pts) < 3:
        raise ValueError("need at least 3 samples with positive V after t_from")
    tt = np.array([p[0] for p in pts])
    logv = np.log(np.array([p[1] for p in pts]))
    slope = np.polyfit(tt, logv, 1)[0]
    return float(-slope)
