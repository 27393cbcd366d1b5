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
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .ensemble import Ensemble, FlockingMetrics, SupportBox, flocking_metrics_of, support_box_of
from .kernels import Kernel, _is_integer, _is_number, interaction_field


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite; carries a diagnostic snapshot."""

    def __init__(self, message, t=None, x=None, v=None):
        super().__init__(message)
        self.t = t
        self.x = x
        self.v = v


def _clip_unit(a: np.ndarray) -> np.ndarray:
    """np.clip(a, 0, 1) in place on a fresh array, without np.clip's dispatch cost."""
    np.maximum(a, 0.0, out=a)
    return np.minimum(a, 1.0, out=a)


class MassBand:
    """Mass budget: x in [x_lo, x_hi], alpha + beta <= |v - vbar| <= alpha + 4 beta.

    The force -psi(x, v) sign(v - vbar) ramps psi to 1 over eps in x and beta in v.
    """

    params = ("x_lo", "x_hi", "vbar", "alpha", "beta", "eps")
    positive = ("beta", "eps")  # the force divides by these

    @staticmethod
    def reach(p, xs, vs):
        """(rx, rv): signed distances into the band along x and |v - vbar|, both >= 0 on it."""
        s = np.abs(vs - p["vbar"])
        rx = np.minimum(xs - p["x_lo"], p["x_hi"] - xs)
        rv = np.minimum(s - (p["alpha"] + p["beta"]), (p["alpha"] + 4.0 * p["beta"]) - s)
        return rx, rv

    @staticmethod
    def force(p, vs, rx, rv):
        """The force at frame velocities vs, whose reach into the band is (rx, rv)."""
        psi = _clip_unit(np.minimum(rx / p["eps"], rv / p["beta"]))
        return -psi * np.sign(vs - p["vbar"])

    @staticmethod
    def area(p):
        return (p["x_hi"] - p["x_lo"]) * 6.0 * p["beta"]


class SpaceBand:
    """Volume budget: [-eps, y0 + eps w0 + eps] x [w0 - 2 eps, w0 + 2 eps].

    The force psi(x) zeta(v) has eps-wide ramps; zeta is -1 on [w0 - eps, w0 + eps].
    """

    params = ("eps", "y0", "w0")
    positive = ("eps",)  # the force divides by it

    @staticmethod
    def reach(p, xs, vs):
        """(rx, rv): signed distances into the band along x and v, both >= 0 on it."""
        eps, w0 = p["eps"], p["w0"]
        rx = np.minimum(xs + eps, (p["y0"] + eps * w0 + eps) - xs)
        rv = np.minimum(vs - (w0 - 2.0 * eps), (w0 + 2.0 * eps) - vs)
        return rx, rv

    @staticmethod
    def force(p, vs, rx, rv):
        """The force at frame velocities vs, whose reach into the band is (rx, rv)."""
        return -_clip_unit(rx / p["eps"]) * _clip_unit(rv / p["eps"])

    @staticmethod
    def area(p):
        eps = p["eps"]
        return (p["y0"] + eps * p["w0"] + 2.0 * eps) * 4.0 * eps


BANDS = {"mass_band": MassBand, "space_band": SpaceBand}


# the keys a plan document's piece entry needs, and those of them that are numbers
_PIECE_NUMBERS = ("t_start", "t_end", "t_ref", "x_shift", "v_shift")
_PIECE_KEYS = {*_PIECE_NUMBERS, "kind", "axis", "params"}


@dataclass(frozen=True)
class ControlPiece:
    """One time slice of the control schedule.

    ``kind`` names the control set and force law in ``BANDS``: ``"mass_band"``
    (:class:`MassBand`) or ``"space_band"`` (:class:`SpaceBand`).

    Geometry parameters are stored in the normalized frame of the step that
    built the piece: subtract (x_shift + (t - t_ref) * v_shift) from the
    spatial coordinate and v_shift from the velocity coordinate of ``axis``.
    With ``sign`` -1 the frame and the force are those of the cloud reflected
    by (x, v) -> (-x, -v), which the flow maps to itself: the coordinates are
    negated before the shifts are subtracted, and the force is negated.
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
    sign: float = 1.0

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("piece must have positive duration")
        if self.dt is not None and not self.dt > 0.0:  # flight_segments divides by it
            raise ValueError(f"dt must be positive, not {self.dt!r}")
        if not (isinstance(self.kind, str) and self.kind in BANDS):
            raise ValueError(f"kind must be one of {sorted(BANDS)}, not {self.kind!r}")
        if self.sign not in (1.0, -1.0):
            raise ValueError(f"sign must be 1 or -1, not {self.sign!r}")
        # resolved once here, so the per-call methods pay no lookup by kind
        object.__setattr__(self, "_band", BANDS[self.kind])

    def _frame_coords(self, x: np.ndarray, v: np.ndarray, t: float):
        x, v = x[:, self.axis], v[:, self.axis]
        if self.sign < 0.0:
            x, v = -x, -v
        xs = x - self.x_shift - (t - self.t_ref) * self.v_shift
        vs = v - self.v_shift
        return xs, vs

    def _force_of_reach(self, vs, rx, rv) -> np.ndarray:
        u = self._band.force(self.params, vs, rx, rv)
        return np.negative(u, out=u) if self.sign < 0.0 else u

    def force_axis(self, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        """Force on the controlled velocity component, per particle."""
        xs, vs = self._frame_coords(x, v, t)
        return self._force_of_reach(vs, *self._band.reach(self.params, xs, vs))

    def force(self, x: np.ndarray, v: np.ndarray, t: float, add_to=None) -> np.ndarray:
        """Force on every velocity component, per particle.

        With ``add_to`` (an (N, d) array) the force is added into it in place
        and ``add_to`` is returned; otherwise a new array is returned.
        """
        if add_to is None:
            add_to = np.zeros_like(v)
        add_to[:, self.axis] += self.force_axis(x, v, t)
        return add_to

    def in_omega(self, x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        """Closed-box membership of each particle in the control set."""
        rx, rv = self._band.reach(self.params, *self._frame_coords(x, v, t))
        return np.minimum(rx, rv) >= 0.0

    def force_and_membership(self, x: np.ndarray, v: np.ndarray, t: float):
        """(``force_axis``, ``in_omega``) at (x, v, t), from one frame transform and reach."""
        xs, vs = self._frame_coords(x, v, t)
        rx, rv = self._band.reach(self.params, xs, vs)
        return self._force_of_reach(vs, rx, rv), np.minimum(rx, rv) >= 0.0

    def omega_volume(self) -> float:
        """Lebesgue area of the control set in the (x_axis, v_axis) plane."""
        return self._band.area(self.params)

    def to_dict(self) -> dict:
        # not dataclasses.asdict, whose deep copies take 35 us a piece, not 5
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["params"] = dict(self.params)
        if self.sign > 0.0:  # written only where it is -1; a missing sign reads as 1
            del doc["sign"]
        return doc

    @classmethod
    def from_dict(cls, d, dimension: int) -> "ControlPiece":
        """The piece a plan document's entry ``d`` describes, on a measure of
        ``dimension`` axes; ValueError at its first flaw.

        ``d`` needs finite numbers for its times and frame, a duration longer
        than a plan's join tolerance, an integer axis below ``dimension``, and
        exactly its kind's parameters as finite numbers, positive where the
        kind says so; ``dt`` may be null.  Only a ``space_band`` entry may
        carry ``sign`` (missing means 1, as in plans written before mirrored
        pieces).  The rules of every piece, however built, are
        ``__post_init__``'s: they are checked after the axis, and before the
        parameters, which the kind names.
        """
        if not isinstance(d, dict) or not _PIECE_KEYS <= set(d):
            raise ValueError(f"must be an object with keys {sorted(_PIECE_KEYS)}")
        if not all(_is_number(d[k]) for k in _PIECE_NUMBERS):
            raise ValueError(f"{', '.join(_PIECE_NUMBERS)} must be finite numbers")
        if not d["t_end"] - d["t_start"] > _JOIN_TOL:
            raise ValueError(f"must last longer than a plan's {_JOIN_TOL:g} join tolerance")
        dt, sign = d.get("dt"), d.get("sign", 1.0)
        if not (dt is None or _is_number(dt)):
            raise ValueError("dt must be null or a positive finite number")
        if not (_is_integer(d["axis"]) and 0 <= d["axis"] < dimension):
            raise ValueError(f"axis must be an integer in [0, {dimension})")
        piece = cls(**{k: float(d[k]) for k in _PIECE_NUMBERS}, kind=d["kind"], axis=d["axis"],
                    dt=dt if dt is None else float(dt), sign=sign)
        # __post_init__ takes True for 1: a sign's JSON type is checked here, with its kind
        if "sign" in d and not (piece.kind == "space_band" and _is_number(sign)):
            raise ValueError("sign must be 1 or -1, and only a space_band piece carries one")
        band, params = piece._band, d["params"]
        if not (isinstance(params, dict) and set(params) == set(band.params)
                and all(map(_is_number, params.values()))):
            raise ValueError(f"params must be finite numbers named {sorted(band.params)}")
        if not all(params[k] > 0 for k in band.positive):
            raise ValueError(f"params {', '.join(band.positive)} must be positive")
        return replace(piece, params={k: float(x) for k, x in params.items()}, sign=float(sign))


# how far apart a plan's consecutive pieces may start and end: a plan cannot
# tell apart a piece no longer than this
_JOIN_TOL = 1e-9
# how far apart two times may be and still be the same sample instant
_SAMPLE_TOL = 1e-12


@dataclass(frozen=True)
class ControlPlan:
    """Contiguous, non-overlapping schedule of control pieces; zero afterwards."""

    pieces: tuple = ()

    def __post_init__(self):
        pieces = tuple(self.pieces)
        for a, b in zip(pieces, pieces[1:]):
            if b.t_start < a.t_end - _JOIN_TOL:
                raise ValueError("control pieces overlap in time")
            if b.t_start > a.t_end + _JOIN_TOL:
                raise ValueError("control pieces leave a gap in time")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_starts", [p.t_start for p in pieces])

    @property
    def t_end(self) -> float:
        return self.pieces[-1].t_end if self.pieces else 0.0

    def total_control_time(self) -> float:
        return sum(p.t_end - p.t_start for p in self.pieces)

    def piece_index_at(self, t: float) -> int:
        """Index of the piece active at t, or -1 (pieces own [t_start, t_end))."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0 and t < self.pieces[i].t_end - _SAMPLE_TOL:
            return i
        return -1

    def concat(self, other: "ControlPlan") -> "ControlPlan":
        return ControlPlan(pieces=self.pieces + tuple(other.pieces))

    def to_dict(self) -> dict:
        return {"pieces": [p.to_dict() for p in self.pieces]}

    @classmethod
    def from_dict(cls, d, dimension: int) -> "ControlPlan":
        """The plan of a plan document's ``{"pieces": [...]}`` object, on a
        measure of ``dimension`` axes, read by :meth:`ControlPiece.from_dict`;
        ValueError("plan piece i: ...") at the first flawed piece."""
        pieces = []
        for i, p in enumerate(d["pieces"]):
            try:
                pieces.append(ControlPiece.from_dict(p, dimension))
            except ValueError as exc:
                raise ValueError(f"plan piece {i}: {exc}") from None
        return cls(pieces=tuple(pieces))


@dataclass
class TrajectorySample:
    """One row of a trajectory's samples, built on access from its columns."""

    t: float
    metrics: FlockingMetrics
    box: SupportBox
    mass_in_omega: float
    omega_volume: float
    u_sup: float
    piece_index: int


class SampleColumns(NamedTuple):
    """Recorded samples, one array per quantity and one row per sample.

    The box and metric columns come from ``ensemble.support_box_of`` and
    ``ensemble.flocking_metrics_of``, which ``support_box`` and
    ``flocking_metrics`` call too.  ``mass``, ``area`` and ``u_sup`` audit the
    control piece active at the sample (plan index ``piece``; -1 and zeros
    when none acts).
    """

    t: np.ndarray  # (S,) sample times
    Y: np.ndarray  # (S, d) spatial extents of the support box
    W: np.ndarray  # (S, d) velocity extents
    x_shift: np.ndarray  # (S, d) lower corner of the box in x
    v_shift: np.ndarray  # (S, d) lower corner of the box in v
    xbar: np.ndarray  # (S, d)
    vbar: np.ndarray  # (S, d)
    X: np.ndarray  # (S,) spatial radius around xbar
    V: np.ndarray  # (S,) velocity radius around vbar
    Lambda: np.ndarray  # (S,) velocity variance around vbar
    mass: np.ndarray  # (S,) mass in the control set
    area: np.ndarray  # (S,) area of the control set
    u_sup: np.ndarray  # (S,) sup |u| over the particles
    piece: np.ndarray  # (S,) int


_VECTOR_COLUMNS = frozenset({"Y", "W", "x_shift", "v_shift", "xbar", "vbar"})


def _empty_columns(d: int, rows: int) -> SampleColumns:
    return SampleColumns(*(
        np.empty(rows, dtype=int) if name == "piece"
        else np.empty((rows, d) if name in _VECTOR_COLUMNS else rows)
        for name in SampleColumns._fields
    ))


class Audit(NamedTuple):
    """A state's audit against the control piece it is flown under: the
    ``mass``, ``area`` and ``u_sup`` of its sample row, and the force."""

    u: np.ndarray | None  # the piece's force_axis at the state; None without a piece
    mass: float
    area: float
    u_sup: float


def _audit(x, v, w, t, piece) -> Audit:
    if piece is None:
        return Audit(None, 0.0, 0.0, 0.0)
    u, inside = piece.force_and_membership(x, v, t)
    return Audit(u, float(w[inside].sum()), piece.omega_volume(), float(np.abs(u).max()))


class SampleRows(Sequence):
    """Read-only sequence over SampleColumns; item i is row i as a TrajectorySample."""

    def __init__(self, columns: SampleColumns):
        self._c = columns

    def __len__(self) -> int:
        return self._c.t.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # IndexError past either end
        c = self._c
        return TrajectorySample(
            t=float(c.t[i]),
            metrics=FlockingMetrics(
                xbar=c.xbar[i], vbar=c.vbar[i],
                Lambda=float(c.Lambda[i]), X=float(c.X[i]), V=float(c.V[i]),
            ),
            box=SupportBox(y=c.Y[i], w=c.W[i], x_shift=c.x_shift[i], v_shift=c.v_shift[i]),
            mass_in_omega=float(c.mass[i]),
            omega_volume=float(c.area[i]),
            u_sup=float(c.u_sup[i]),
            piece_index=int(c.piece[i]),
        )


_CSV_CHUNK = 1024  # trajectory.csv rows converted to text at a time


class Trajectory:
    """The append-only log of a run's samples, and the state it ends in.

    Rows enter only through ``record``, which appends a raw state's sample,
    into arrays that double when full; every flight of a run records into
    the run's one log (see :func:`integrate`), so no run copies its rows.
    Rows once written never change, and each comes after the last.
    ``columns`` (:class:`SampleColumns`), read-only views of the rows so far,
    is what the audits and the CSV read.  ``samples`` shows the same values
    as a read-only sequence of :class:`TrajectorySample` rows, built on access.
    """

    # on the rows of a flight that continued its log (see integrate): the
    # audit of its first state, whose row the log held already
    opening: Audit | None = None

    def __init__(self, columns: SampleColumns, final: Ensemble):
        if np.any(columns.t[1:] <= columns.t[:-1]):
            raise ValueError("sample times must be strictly increasing")
        self._cols, self._n, self.final = columns, columns.t.shape[0], final

    @classmethod
    def empty(cls, start: Ensemble) -> "Trajectory":
        """A log of no rows yet that ends in ``start``."""
        return cls(_empty_columns(start.d, 0), start)

    @property
    def columns(self) -> SampleColumns:
        views = []
        for col in self._cols:
            view = col[: self._n]
            view.flags.writeable = False
            views.append(view)
        return SampleColumns(*views)

    @property
    def samples(self) -> SampleRows:
        return SampleRows(self.columns)

    def _reserve(self) -> SampleColumns:
        """The columns, with room for one more row."""
        cap = self._cols.t.shape[0]
        if self._n == cap:
            grown = _empty_columns(self._cols.Y.shape[1], max(2 * cap, 1))
            for new, old in zip(grown, self._cols):
                new[: self._n] = old[: self._n]
            self._cols = grown
        return self._cols

    def record(self, t, x, v, w, piece, piece_idx):
        """Append the sample of state (x, v, w) at time t, audited against ``piece``.

        Returns ``piece.force_axis(x, v, t)`` (None without a piece): an RK4
        step of the same piece that starts from this state uses it as its
        first stage.
        """
        if self._n and not t > self._cols.t[self._n - 1]:
            raise ValueError("sample times must be strictly increasing")
        c = self._reserve()
        i = self._n
        c.t[i] = t
        c.Y[i], c.W[i], c.x_shift[i], c.v_shift[i] = support_box_of(x, v)
        c.xbar[i], c.vbar[i], c.Lambda[i], c.X[i], c.V[i] = flocking_metrics_of(x, v, w)
        c.piece[i] = piece_idx
        audit = _audit(x, v, w, t, piece)
        c.mass[i], c.area[i], c.u_sup[i] = audit.mass, audit.area, audit.u_sup
        self._n = i + 1
        return audit.u

    def continues(self, t: float, start: Ensemble) -> bool:
        """Whether the last row is at time t: a flight from ``start`` at t
        starts from its state.  Raises ValueError when the log ends there in
        another state: not ``start`` itself, nor bit-equal to it in x and v."""
        if not (self._n > 0 and abs(self._cols.t[self._n - 1] - t) <= _SAMPLE_TOL):
            return False
        e = self.final
        if start is not e and any(p.shape != q.shape or p.tobytes() != q.tobytes()
                                  for p, q in ((start.x, e.x), (start.v, e.v))):
            raise ValueError(f"the log ends at t = {t!r} in another state than the flight's")
        return True

    def _since(self, row: int) -> "Trajectory":
        """Rows ``row`` on, as a trajectory of views that ends where this one does."""
        return Trajectory(SampleColumns(*(col[row : self._n] for col in self._cols)), self.final)

    def extend(self, other: "Trajectory") -> "Trajectory":
        """Concatenate ``other``, a later flight from this one's final state,
        dropping its first sample when it repeats the last.

        The joined columns are allocated at exactly the joined row count.
        """
        later = other.columns
        skip = int(later.t.size > 0 and self.continues(later.t[0], self.final))
        columns = (np.concatenate([a, b[skip:]]) for a, b in zip(self.columns, later))
        return Trajectory(SampleColumns(*columns), other.final)

    def to_csv(self, path) -> None:
        c = self.columns
        d = self.final.d
        header = ["t"]
        header += [f"Y_{j}" for j in range(d)]
        header += [f"a_{j}" for j in range(d)]
        header += [f"W_{j}" for j in range(d)]
        header += ["X", "V", "Lambda"]
        header += [f"vbar_{j}" for j in range(d)]
        header += ["mass_in_omega", "omega_volume", "u_sup", "piece_index"]
        # a transposed (S, d) column unpacks into its d per-axis columns
        cols = [c.t, *c.Y.T, *c.v_shift.T, *c.W.T, c.X, c.V, c.Lambda, *c.vbar.T,
                c.mass, c.area, c.u_sup]
        # the csv module's default dialect: no field holds a comma, quote or
        # line break, so none is quoted.  The rows go out _CSV_CHUNK at a time:
        # the text of all of them at once takes ~650 B a row.
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, c.t.shape[0], _CSV_CHUNK):
                rows = slice(lo, lo + _CSV_CHUNK)
                text = [map(repr, col[rows].tolist()) for col in cols]
                text.append(map(str, c.piece[rows].tolist()))
                fh.writelines([",".join(row) + "\r\n" for row in zip(*text)])


def _rhs(kernel, x, v, w, piece, t, u=None):
    """(dx, dv) of the controlled characteristics; dx is v itself, not a copy.

    ``u``, when given, is ``piece.force_axis(x, v, t)`` already evaluated.
    """
    # the field returns a fresh array, so the force goes in in place
    dv = interaction_field(kernel, x, v, w)
    if u is not None:
        dv[:, piece.axis] += u
    elif piece is not None:
        piece.force(x, v, t, add_to=dv)
    return v, dv


def _rk4_segment(kernel, x, v, w, piece, t0, t1, u0=None):
    """Advance (x, v) from t0 to t1 in one RK4 step.

    ``u0``, when given, is the first stage's force ``piece.force_axis(x, v, t0)``.
    """
    dt = t1 - t0
    k1x, k1v = _rhs(kernel, x, v, w, piece, t0, u0)
    k2x, k2v = _rhs(kernel, x + 0.5 * dt * k1x, v + 0.5 * dt * k1v, w, piece, t0 + 0.5 * dt)
    k3x, k3v = _rhs(kernel, x + 0.5 * dt * k2x, v + 0.5 * dt * k2v, w, piece, t0 + 0.5 * dt)
    k4x, k4v = _rhs(kernel, x + dt * k3x, v + dt * k3v, w, piece, t0 + dt)
    x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise IntegrationError("state became non-finite", t=t0 + dt, x=x, v=v)
    return x, v


# The most RK4 steps one flight may take.  A flight records at most one
# sample per step (a free flight, one per 10), so this also bounds its
# sample log.  The longest flight of the test suite takes 10,000 steps, and
# a replay of the benchmark's volume_1d plan (seed 3) 912 under control and
# 100 after it.
MAX_FLIGHT_STEPS = 1_000_000


class FlightTooLongError(ValueError):
    """A flight needs more than MAX_FLIGHT_STEPS RK4 steps; raised before the first."""

    def __init__(self, steps):
        self.steps = steps
        super().__init__(
            f"the flight needs {steps:.15g} RK4 steps, more than the "
            f"{MAX_FLIGHT_STEPS} one flight may take"
        )


def flight_segments(plan: ControlPlan, horizon: float, dt_max: float | None = None,
                    t0: float = 0.0) -> list:
    """(start, end, plan index of the piece, RK4 steps) of each stretch of
    [t0, t0 + horizon] between piece boundaries, by the step rule of
    :func:`integrate`, counted without taking a step.  Raises
    FlightTooLongError when the steps add up to more than MAX_FLIGHT_STEPS.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if dt_max is not None and dt_max <= 0:
        raise ValueError("dt_max must be positive")
    free_dt = 0.01 if dt_max is None else dt_max

    t_final = t0 + horizon
    bounds = sorted(
        {t0, t_final}
        | {p.t_start for p in plan.pieces if t0 < p.t_start < t_final}
        | {p.t_end for p in plan.pieces if t0 < p.t_end < t_final}
    )
    segments, total = [], 0
    for seg_start, seg_end in zip(bounds, bounds[1:]):
        idx = plan.piece_index_at(seg_start)
        piece = plan.pieces[idx] if idx >= 0 else None
        if piece is None:
            seg_dt = free_dt
        elif piece.dt is None:
            seg_dt = min(free_dt, (piece.t_end - piece.t_start) / 20.0)
        else:
            seg_dt = piece.dt if dt_max is None else min(dt_max, piece.dt)
        steps = (seg_end - seg_start) / seg_dt - 1e-9
        # past the cap a count stays a float (inf when it overflows one)
        nsteps = max(1, math.ceil(steps)) if steps <= MAX_FLIGHT_STEPS else steps
        total += nsteps
        segments.append((seg_start, seg_end, idx, nsteps))
    if total > MAX_FLIGHT_STEPS:
        raise FlightTooLongError(total)
    return segments


def _row_piece(piece_idx: int, piece_offset: int) -> int:
    return piece_idx + piece_offset if piece_idx >= 0 else -1


def integrate(
    kernel: Kernel,
    e0: Ensemble,
    plan: ControlPlan,
    horizon: float,
    dt_max: float | None = None,
    t0: float = 0.0,
    sample_stride: int = 1,
    log: Trajectory | None = None,
    piece_offset: int = 0,
) -> Trajectory:
    """Advance the ensemble over [t0, t0 + horizon] under the control plan.

    RK4 steps never straddle a piece boundary.  Samples are recorded at t0,
    at every piece boundary, at the end, and at every `sample_stride`-th
    interior step.  Each sample's metrics, support box and constraint audits
    (mass in omega, omega area, sup |u| against the active piece) go straight
    from the raw (x, v) arrays into the columns of ``log`` (see
    :meth:`Trajectory.record`), a new one when omitted, which then ends in
    the flight's final state.  Each row's piece is its plan index plus
    ``piece_offset`` (-1 under no piece): the pieces of ``plan`` come after
    that many others in the run's plan.  A log whose last row is at t0 holds
    e0's sample already, and must end in e0 (ValueError otherwise): the
    flight does not record it again, and audits that state against the
    piece it starts under only.  The audit's force at a sample is the first
    stage of the next RK4 step when that step stays in the same piece, so it
    is evaluated once.

    Returns the rows the flight recorded, as a trajectory of views into
    ``log`` that ends in the final state.  When the flight continued the
    log, its ``opening`` is the :class:`Audit` of e0 against the piece at t0.

    Each segment between piece boundaries is cut into equal steps no longer
    than: the piece's synthesis-time ``dt``, capped by an explicit dt_max (so
    with dt_max omitted a replay reproduces the synthesis bit for bit); for a
    piece without ``dt``, 1/20 of its length or dt_max (0.01 when omitted),
    whichever is shorter; under no piece, dt_max, or 0.01 when omitted.
    A flight of more than MAX_FLIGHT_STEPS steps raises FlightTooLongError
    before the first.
    """
    segments = flight_segments(plan, horizon, dt_max, t0)
    x, v, w = e0.x.copy(), e0.v.copy(), e0.w
    log = Trajectory.empty(e0) if log is None else log
    first = log._n
    piece_idx = plan.piece_index_at(t0)
    piece = plan.pieces[piece_idx] if piece_idx >= 0 else None
    # u is the force of piece piece_idx at the current state, when an audit has it
    if log.continues(t0, e0):  # e0's row is the log's: audit e0 against this flight only
        opening = _audit(x, v, w, t0, piece)
        u = opening.u
    else:
        opening, u = None, log.record(t0, x, v, w, piece, _row_piece(piece_idx, piece_offset))

    # a state that overflows raises IntegrationError, so numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for seg_start, seg_end, idx, nsteps in segments:
            if idx != piece_idx:
                piece_idx, u = idx, None  # the last audit was of another piece
            piece = plan.pieces[piece_idx] if piece_idx >= 0 else None
            row_piece = _row_piece(piece_idx, piece_offset)
            dt = (seg_end - seg_start) / nsteps
            for k in range(nsteps):
                x, v = _rk4_segment(
                    kernel, x, v, w, piece, seg_start + k * dt, seg_start + (k + 1) * dt, u
                )
                u = None
                if k == nsteps - 1 or (k + 1) % sample_stride == 0:
                    t_now = seg_end if k == nsteps - 1 else seg_start + (k + 1) * dt
                    # audit against the piece governing the step just taken
                    u = log.record(t_now, x, v, w, piece, row_piece)

    log.final = Ensemble._trusted(x, v, w)
    flight = log._since(first)
    flight.opening = opening
    return flight


def decay_rate_estimate(traj: Trajectory, t_from: float = 0.0) -> float:
    """Fitted exponential decay rate of the velocity radius V(t).

    Least-squares slope of log V(t) over samples with t >= t_from; returns 0
    when V has already collapsed below 1e-14 at the start of the window.
    """
    c = traj.columns
    window = c.t >= t_from - _SAMPLE_TOL
    ts, vs = c.t[window], c.V[window]
    if not ts.size:
        raise ValueError("no samples at or after t_from")
    if vs[0] < 1e-14:
        return 0.0
    positive = vs > 1e-14
    if np.count_nonzero(positive) < 3:
        raise ValueError("need at least 3 samples with positive V after t_from")
    slope = np.polyfit(ts[positive], np.log(vs[positive]), 1)[0]
    return float(-slope)
