"""Weighted particle clouds: the empirical-measure state of the simulator.

An :class:`Ensemble` is an immutable snapshot of N particles (x_i, v_i, w_i)
in dimension d whose weights form a probability measure.  All state queries
used by the control strategies live here: support boxes with their
normalizing translation, flocking metrics (barycenters among them) and the
mass-quantile cuts that split the support into equal-mass columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Ensemble:
    """Weighted particle cloud representing a compactly supported measure."""

    x: np.ndarray  # positions, shape (N, d)
    v: np.ndarray  # velocities, shape (N, d)
    w: np.ndarray  # weights, shape (N,), strictly positive, sum to 1

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        v = np.atleast_2d(np.asarray(self.v, dtype=float))
        w = np.asarray(self.w, dtype=float).ravel()
        if x.shape != v.shape:
            raise ValueError("position and velocity arrays must have equal shape")
        if x.shape[0] == 0:
            raise ValueError("ensemble must be nonempty")
        if w.shape[0] != x.shape[0]:
            raise ValueError("one weight per particle required")
        if not np.all(w > 0):  # NaN fails too
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL * max(1, w.size):
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @classmethod
    def _trusted(cls, x: np.ndarray, v: np.ndarray, w: np.ndarray) -> "Ensemble":
        """An ensemble of float arrays x, v (N, d) and weights w that an
        ensemble already holds, built without the checks of ``__post_init__``."""
        e = object.__new__(cls)
        object.__setattr__(e, "x", x)
        object.__setattr__(e, "v", v)
        object.__setattr__(e, "w", w)
        return e

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_points(cls, x, v, w=None) -> "Ensemble":
        """Build from coordinate arrays; 1-d inputs are N particles in d=1."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] == 0:
            raise ValueError("positions must be a nonempty list of points")
        if x.ndim == 1:
            x = x[:, None]
        v = np.asarray(v, dtype=float).reshape(x.shape)
        if w is None:
            w = np.full(x.shape[0], 1.0 / x.shape[0])
        return cls(x=x, v=v, w=np.asarray(w, dtype=float))


@dataclass(frozen=True)
class SupportBox:
    """Tightest axis-aligned box around the support, with normalizing frame.

    After subtracting the frame (x_shift, v_shift), positions lie in
    [0, Y_j] and velocities in [0, W_j] per axis.
    """

    y: np.ndarray  # spatial extents per axis
    w: np.ndarray  # velocity extents per axis
    x_shift: np.ndarray  # original x minus x_shift lands in [0, Y_j]
    v_shift: np.ndarray  # original v minus v_shift lands in [0, W_j]


@dataclass(frozen=True)
class FlockingMetrics:
    xbar: np.ndarray
    vbar: np.ndarray
    Lambda: float  # weighted velocity variance around vbar
    X: float  # spatial support radius around xbar
    V: float  # velocity support radius around vbar


def support_box_of(x: np.ndarray, v: np.ndarray):
    """(y, w, x_shift, v_shift) of the support of raw (N, d) arrays x and v."""
    x_lo = x.min(axis=0)
    v_lo = v.min(axis=0)
    return x.max(axis=0) - x_lo, v.max(axis=0) - v_lo, x_lo, v_lo


def support_box(e: Ensemble) -> SupportBox:
    return SupportBox(*support_box_of(e.x, e.v))


def _norm(a, b=0.0, s=1.0) -> float:
    """|a + s b| of box extents a and b: inf, without numpy's warning, past ~1e154."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(a + s * b))


def normalized(e: Ensemble, box: SupportBox | None = None) -> Ensemble:
    """Copy of the ensemble translated into the support box frame."""
    if box is None:
        box = support_box(e)
    return Ensemble._trusted(e.x - box.x_shift[None, :], e.v - box.v_shift[None, :], e.w)


def flocking_metrics_of(x: np.ndarray, v: np.ndarray, w: np.ndarray):
    """(xbar, vbar, Lambda, X, V) of raw (N, d) arrays x, v and weights w."""
    xbar = w @ x
    vbar = w @ v
    dx = x - xbar[None, :]
    dv = v - vbar[None, :]
    dv2 = np.einsum("ij,ij->i", dv, dv)
    X = np.sqrt(np.einsum("ij,ij->i", dx, dx)).max()
    return xbar, vbar, w @ dv2, X, np.sqrt(dv2).max()


def flocking_metrics(e: Ensemble) -> FlockingMetrics:
    xbar, vbar, lam, X, V = flocking_metrics_of(e.x, e.v, e.w)
    return FlockingMetrics(xbar=xbar, vbar=vbar, Lambda=float(lam), X=float(X), V=float(V))


def mass_quantile_cuts(e: Ensemble, axis: int, target_mass: float, n: int):
    """Cut positions x_[0..n] splitting axis `axis` into near-target-mass slices.

    Returns (cuts, masses), masses[i] the weight slice i took.  x_[0] = 0
    and x_[n] = Y (extent on the axis); interior cuts are the smallest
    particle coordinates at which the cumulative mass since the
    previous cut reaches >= target_mass.  Coordinates are taken as given,
    so callers should pass an ensemble already in the normalized frame.
    Ties in coordinates are broken by particle index (stable sort).
    """
    if target_mass <= 0:
        raise ValueError("target_mass must be positive")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if target_mass > 1.0 + _WEIGHT_TOL:
        raise ValueError("target_mass exceeds the total mass")
    if n * target_mass < 1.0 - 1e-12:
        raise ValueError("n * target_mass must cover the total mass")

    coords = e.x[:, axis]
    extent = float(coords.max())
    order = np.argsort(coords, kind="stable")
    sorted_c = coords[order]
    sorted_w = e.w[order]

    cuts = np.empty(n + 1)
    cuts[0] = 0.0
    cuts[n] = extent
    masses = np.zeros(n)

    idx = 0
    for i in range(1, n):
        acc = 0.0
        while idx < sorted_c.size and acc < target_mass - _WEIGHT_TOL:
            acc += sorted_w[idx]
            idx += 1
        cuts[i] = sorted_c[idx - 1] if acc >= target_mass - _WEIGHT_TOL else extent
        masses[i - 1] = acc
    masses[n - 1] = float(sorted_w[idx:].sum())

    if np.any(np.diff(cuts) < 0):
        # only possible when every remaining cut collapsed onto the extent
        cuts = np.maximum.accumulate(cuts)
    return cuts, masses


def wasserstein1_1d(e1: Ensemble, e2: Ensemble, coord: str = "x", axis: int = 0) -> float:
    """Exact 1-Wasserstein distance along one coordinate (diagnostic only)."""
    if coord not in ("x", "v"):
        raise ValueError("coord must be 'x' or 'v'")
    if axis >= e1.d or axis >= e2.d:
        raise ValueError("axis out of range for the ensembles")
    a = (e1.x if coord == "x" else e1.v)[:, axis]
    b = (e2.x if coord == "x" else e2.v)[:, axis]
    # W1 = int |F_1(t) - F_2(t)| dt; both CDFs are constant between the
    # pooled sorted points, so the integral is a sum over their gaps
    grid = np.sort(np.concatenate([a, b]))
    return float(np.abs(_cdf(a, e1.w, grid[:-1]) - _cdf(b, e2.w, grid[:-1])) @ np.diff(grid))


def _cdf(values: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Weighted empirical CDF of values at the points t (right-continuous)."""
    order = np.argsort(values)
    cum = np.concatenate(([0.0], np.cumsum(weights[order])))
    return cum[np.searchsorted(values[order], t, side="right")] / cum[-1]


def _bounds(*bounds) -> list[np.ndarray]:
    """Each box bound as a float array of at least one dimension."""
    return [np.atleast_1d(np.asarray(b, dtype=float)) for b in bounds]


def uniform_box_ensemble(
    n: int,
    x_low,
    x_high,
    v_low,
    v_high,
    seed: int = 0,
) -> Ensemble:
    """Equal-weight sample of n particles uniform on a position x velocity box."""
    x_low, x_high, v_low, v_high = _bounds(x_low, x_high, v_low, v_high)
    if not all(np.all(np.isfinite(b)) for b in (x_low, x_high, v_low, v_high)):
        raise ValueError("box bounds must be finite")
    rng = np.random.default_rng(seed)
    d = x_low.size
    x = rng.uniform(x_low, x_high, size=(n, d))
    v = rng.uniform(v_low, v_high, size=(n, d))
    return Ensemble.from_points(x, v)


def grid_ensemble(x_low, x_high, v_low, v_high, counts_x, counts_v) -> Ensemble:
    """Equal-weight cell-center grid on a product of position/velocity intervals.

    counts_x and counts_v each give one count for every axis, or one per axis.
    """
    x_low, x_high, v_low, v_high = _bounds(x_low, x_high, v_low, v_high)
    counts = []
    for m, bounds in ((counts_x, x_low), (counts_v, v_low)):
        m = np.asarray(m, dtype=int)
        if m.ndim and m.shape != bounds.shape:
            raise ValueError("grid counts need one entry per axis of their bounds")
        counts.append(np.broadcast_to(m, bounds.shape))
    axes = []
    for lo, hi, m in zip(np.concatenate([x_low, v_low]),
                         np.concatenate([x_high, v_high]),
                         np.concatenate(counts)):
        if m < 1:
            raise ValueError("grid counts must be positive")
        step = (hi - lo) / m
        axes.append(lo + step * (np.arange(m) + 0.5))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    d = x_low.size
    return Ensemble.from_points(pts[:, :d], pts[:, d:])
