"""Influence kernels and the nonlocal alignment field they generate.

A kernel is a positive, nonincreasing influence function ``phi(r)`` of the
distance between two agents.  The alignment field of a weighted particle
cloud is the phi-weighted average of velocity differences; its tail integral
``int_a^inf phi(2x) dx`` is the quantity that separates configurations that
flock on their own from those that need to be controlled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# rows per block of the alignment field; with one OpenBLAS thread on x86-64,
# 64 beat 32, 128 and 256 by 5-30% at N = 400, 900 and 2000
_FIELD_BLOCK = 64
# longest stretch of lam * x summed against one reference point in the
# exponential field on the line: exp(350) ~ 1e152 stays finite in doubles
_EXP_SEGMENT = 350.0
# the order _sorted_line last returned; any permutation of range(n) will do
_SORT_HINT = np.empty(0, dtype=np.intp)


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("kernel argument must be nonnegative")
    return r


class Kernel:
    """Base class: positive nonincreasing influence function."""

    def phi(self, r):
        """Evaluate phi(r); accepts scalars or arrays, r >= 0.

        phi is ``phi_sq_inplace`` of a fresh r * r array (0-d for a scalar,
        which gives back a float).
        """
        r = _check_radius(r)
        out = self.phi_sq_inplace(np.multiply(r, r, out=np.empty(r.shape)))
        return float(out) if out.ndim == 0 else out

    @functools.cached_property
    def phi0(self) -> float:
        return float(self.phi(0.0))

    def phi_sq_inplace(self, r2: np.ndarray) -> np.ndarray:
        """phi at sqrt(r2), the hot path of pairwise fields; may overwrite r2."""
        raise NotImplementedError

    @property
    def tail_diverges(self) -> bool:
        """True when int_a^inf phi(2x) dx = +inf for every a."""
        return False

    def tail_integral(self, a: float) -> float:
        """int_a^inf phi(2x) dx, or +inf for nonintegrable tails."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawKernel(Kernel):
    """phi(r) = K / (1 + r^2)^gamma, the classical Cucker-Smale rate."""

    K: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.K) and self.K > 0):
            raise ValueError("K must be a positive finite number")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be a nonnegative finite number")

    def phi_sq_inplace(self, r2: np.ndarray) -> np.ndarray:
        r2 += 1.0
        if self.gamma != 1.0:
            np.power(r2, self.gamma, out=r2)
        np.divide(self.K, r2, out=r2)
        return r2

    @property
    def tail_diverges(self) -> bool:
        # phi(2x) ~ x^(-2*gamma) at infinity: integrable iff gamma > 1/2.
        return self.gamma <= 0.5

    def tail_integral(self, a: float) -> float:
        if a < 0:
            raise ValueError("lower limit must be nonnegative")
        if self.tail_diverges:
            return math.inf
        if self.gamma == 1.0:
            return 0.5 * self.K * (math.pi / 2.0 - math.atan(2.0 * a))
        # s = 1 / (1 + 4x^2) turns the tail into (K/4) B(t; gamma - 1/2, 1/2),
        # t = 1 / (1 + 4a^2): the incomplete beta function, which is the
        # complete one B times scipy's regularized betainc
        from scipy.special import beta, betainc

        p = self.gamma - 0.5
        return float(0.25 * self.K * beta(p, 0.5) * betainc(p, 0.5, 1.0 / (1.0 + 4.0 * a * a)))

    def to_dict(self) -> dict:
        return {"family": "power_law", "K": self.K, "gamma": self.gamma}


@dataclass(frozen=True)
class ExponentialKernel(Kernel):
    """phi(r) = K * exp(-lam * r)."""

    K: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.K) and self.K > 0):
            raise ValueError("K must be a positive finite number")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be a positive finite number")

    def tail_integral(self, a: float) -> float:
        if a < 0:
            raise ValueError("lower limit must be nonnegative")
        return self.K / (2.0 * self.lam) * math.exp(-2.0 * self.lam * a)

    def phi_sq_inplace(self, r2: np.ndarray) -> np.ndarray:
        np.sqrt(r2, out=r2)
        r2 *= -self.lam
        np.exp(r2, out=r2)
        r2 *= self.K
        return r2

    def to_dict(self) -> dict:
        return {"family": "exponential", "K": self.K, "lam": self.lam}


@dataclass(frozen=True)
class TabulatedKernel(Kernel):
    """Nonincreasing positive samples with linear interpolation.

    Beyond the last sample the value is held constant, so the tail integral
    never converges and the flocking threshold is reported as +inf rather
    than understated.
    """

    radii: tuple = field(default=())
    values: tuple = field(default=())

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise ValueError("need matching 1-d sample arrays with >= 2 points")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("samples must be finite")
        if np.any(np.diff(r) <= 0):
            raise ValueError("sample radii must be strictly increasing")
        if np.any(v <= 0):
            raise ValueError("samples must be strictly positive")
        if np.any(np.diff(v) > 0):
            raise ValueError("samples must be nonincreasing")
        object.__setattr__(self, "radii", tuple(float(x) for x in r))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def phi(self, r):
        r = _check_radius(r)
        out = np.interp(r, self.radii, self.values)
        return float(out) if out.ndim == 0 else out

    def phi_sq_inplace(self, r2: np.ndarray) -> np.ndarray:
        # interpolation in r: sqrt(r * r) is not r once r * r overflows
        return np.asarray(self.phi(np.sqrt(r2)))

    @property
    def tail_diverges(self) -> bool:
        return True

    def tail_integral(self, a: float) -> float:
        if a < 0:
            raise ValueError("lower limit must be nonnegative")
        return math.inf

    def to_dict(self) -> dict:
        return {
            "family": "custom",
            "radii": list(self.radii),
            "values": list(self.values),
        }


def kernel_from_dict(spec: dict) -> Kernel:
    family = spec.get("family")
    if family == "power_law":
        return PowerLawKernel(K=float(spec["K"]), gamma=float(spec["gamma"]))
    if family == "exponential":
        return ExponentialKernel(K=float(spec["K"]), lam=float(spec["lam"]))
    if family == "custom":
        return TabulatedKernel(radii=tuple(spec["radii"]), values=tuple(spec["values"]))
    raise ValueError(f"unknown kernel family: {family!r}")


def xi_eval(kernel: Kernel, ensemble, x, v) -> np.ndarray:
    """Alignment field of the ensemble at a single query point (x, v).

    Returns sum_j w_j phi(||x - x_j||) (v_j - v), a vector in velocity space.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    r = np.linalg.norm(ensemble.x - x[None, :], axis=1)
    coef = ensemble.w * kernel.phi(r)
    return coef @ (ensemble.v - v[None, :])


def interaction_field(kernel: Kernel, x: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Alignment field evaluated at every particle of the cloud, (N, d).

    Computes sum_j w_j phi_ij v_j - (sum_j w_j phi_ij) v_i with one product
    against rhs = [w v | w].  Rows go in blocks of _FIELD_BLOCK: block [s, e)
    evaluates phi_ij only for columns j >= s, and as phi_ij = phi_ji its
    columns j >= e also give rows j their terms from i in [s, e).  Each pair
    thus costs one kernel evaluation, and no N x N array is built.  The
    weighted sum over particles cancels by antisymmetry up to round-off.

    A block's differences x_ik - x_jk are one rank-2 matrix product per
    coordinate, [x_ik, -1] . [1, x_jk], read from the columns of
    _lifted(x): a GEMM runs at the speed of an in-place multiply, where
    numpy's outer difference does not vectorise its stride-0 operand.  Both
    products x_ik * 1 and -1 * x_jk are exact, so the sum rounds once, to
    the correctly rounded x_ik - x_jk, in any summation order, with or
    without FMA, in BLAS or in numpy's own loop; inf stays inf and
    inf - inf is NaN.  Only the sign of an exact zero can differ (the
    accumulator starts at +0), and the square erases it.
    """
    n, d = x.shape
    if d == 1 and isinstance(kernel, ExponentialKernel):
        return _exponential_field_1d(kernel, x, v, w)
    rhs = np.empty((n, d + 1))
    np.multiply(w[:, None], v, out=rhs[:, :d])
    rhs[:, d] = w
    acc = np.empty((n, d + 1))
    lifted = _lifted(x)
    # kernel values and one coordinate's differences; every block reuses it
    buf = np.empty(2 * min(_FIELD_BLOCK, n) * n)
    # last block first: a block's own product then sets its rows, and the
    # blocks above add their transposed shares to them afterwards
    for s in reversed(range(0, n, _FIELD_BLOCK)):
        e = min(s + _FIELD_BLOCK, n)
        size = (e - s) * (n - s)
        r2 = buf[:size].reshape(e - s, n - s)
        np.matmul(lifted[0, s:e, 1:], lifted[0, s:, :2].T, out=r2)
        np.multiply(r2, r2, out=r2)
        if d > 1:
            dk = buf[size : 2 * size].reshape(e - s, n - s)
            for k in range(1, d):
                np.matmul(lifted[k, s:e, 1:], lifted[k, s:, :2].T, out=dk)
                np.multiply(dk, dk, out=dk)
                r2 += dk
        p = kernel.phi_sq_inplace(r2)
        np.matmul(p, rhs[s:], out=acc[s:e])
        if e < n:
            acc[e:] += p[:, e - s :].T @ rhs[s:e]
    return acc[:, :d] - acc[:, d:] * v


def _lifted(x: np.ndarray) -> np.ndarray:
    """C[k] = [1 | x_k | -1] for each coordinate k of x (N, d), shape (d, N, 3).

    C[k, s:e, 1:] @ C[k, s:, :2].T is the block of differences x_ik - x_jk,
    i in [s, e), j >= s; both operands are strided views that BLAS takes.
    """
    lifted = np.empty((x.shape[1], x.shape[0], 3))
    lifted[..., 0] = 1.0
    lifted[..., 1] = x.T
    lifted[..., 2] = -1.0
    return lifted


def _exponential_field_1d(kernel: ExponentialKernel, x, v, w) -> np.ndarray:
    """interaction_field for phi(r) = K exp(-lam r) on the line, exact, O(N log N).

    With the particles sorted by position, row i needs the left sum
    sum_{j <= i} e^{-lam (x_i - x_j)} rhs_j and the right sum
    sum_{j > i} e^{-lam (x_j - x_i)} rhs_j, rhs = [w v ; w].  Scaled by
    e^{+-lam (x_j - r)} against a reference point r, each is one cumulative
    sum along a row.  The sorted line is cut into segments of lam-scaled span
    at most _EXP_SEGMENT, each with its own r, so no exponential overflows; a
    segment's total passes to the next one times e^{-lam gap} <= 1.  The
    exponents are taken from differences x_j - r, which keeps them as exact
    as the dense path's far from the origin.  The pair j = i and tied
    positions fall on one side only, so every pair counts once.
    """
    n = x.shape[0]
    lam = kernel.lam
    order, xs = _sorted_line(x[:, 0])
    vs = v[:, 0][order]
    rhs = np.empty((2, n))
    rhs[1] = w[order]
    np.multiply(rhs[1], vs, out=rhs[0])
    # segment edges; a NaN sorts last, where searchsorted returns n
    edges = [0]
    while edges[-1] < n:
        reach = xs[edges[-1]] + _EXP_SEGMENT / lam
        edges.append(int(np.searchsorted(xs, reach, side="right")))
    segments = list(zip(edges, edges[1:]))

    acc = np.empty((2, n))
    buf = np.empty((2, n))
    # left sums, reference at each segment's first point
    carry = np.zeros((2, 1))
    for s, e in segments:
        r = xs[s]
        if s:
            carry *= np.exp(-lam * (r - r_prev))
        scale = np.exp(lam * (xs[s:e] - r))
        part = acc[:, s:e]
        np.multiply(rhs[:, s:e], scale, out=buf[:, s:e])
        np.cumsum(buf[:, s:e], axis=1, out=part)
        part += carry
        carry = part[:, -1:].copy()
        part /= scale
        r_prev = r
    # right sums, reference at each segment's last point
    carry = np.zeros((2, 1))
    for s, e in reversed(segments):
        r = xs[e - 1]
        if e < n:
            carry *= np.exp(-lam * (r_next - r))
        scale = np.exp(lam * (r - xs[s:e]))
        right = buf[:, s:e]
        np.multiply(rhs[:, s:e], scale, out=right)
        np.cumsum(right[:, ::-1], axis=1, out=right[:, ::-1])
        total = right[:, :1].copy()
        # row i takes the terms j > i: the entry after it, plus the carry
        right[:, :-1] = right[:, 1:]
        right[:, -1] = 0.0
        right += carry
        carry += total
        right /= scale
        acc[:, s:e] += right
        r_next = r
    out = np.empty(n)
    out[order] = kernel.K * (acc[0] - acc[1] * vs)
    return out[:, None]


def _sorted_line(x0: np.ndarray):
    """(order, x0[order]) for order = np.argsort(x0, kind="stable").

    Positions barely move between calls, so x0 taken in the order the last
    call returned (_SORT_HINT) is nearly sorted, and its stable sort is
    cheap.  That order is only a hint: the re-sorted one is taken only when
    tied positions (and NaNs, which sort last) come out in increasing index
    order, which makes it the stable argsort itself; else x0 is sorted from
    scratch.  A hint of another size, or a stale one, costs time and never
    changes the result.
    """
    global _SORT_HINT
    hint = _SORT_HINT
    if hint.shape == x0.shape:
        order = hint[np.argsort(x0[hint], kind="stable")]
        xs = x0[order]
        if ((xs[1:] > xs[:-1]) | (order[1:] > order[:-1])).all():
            _SORT_HINT = order
            return order, xs
    order = np.argsort(x0, kind="stable")
    _SORT_HINT = order
    return order, x0[order]


def inward_radii(kernel: Kernel, X: float, a_k: float, W_k: float, vbar_k: float):
    """Velocity offsets beyond which the field strictly pushes back to the mean.

    For a cloud with spatial radius bound X and k-th velocity support
    [a_k, a_k + W_k] containing the barycenter vbar_k, returns (r_plus,
    r_minus): the field's k-th component is strictly restoring at any query
    with v_k - vbar_k > r_plus or < -r_minus.
    """
    if X < 0:
        raise ValueError("X must be nonnegative")
    if W_k < 0:
        raise ValueError("W_k must be nonnegative")
    tol = 1e-12 * max(1.0, abs(vbar_k), W_k)
    if vbar_k < a_k - tol or vbar_k > a_k + W_k + tol:
        raise ValueError("velocity barycenter outside the support slab")
    factor = kernel.phi0 / (kernel.phi0 + kernel.phi(2.0 * X))
    r_plus = factor * (W_k + a_k - vbar_k)
    r_minus = factor * (vbar_k - a_k)
    return max(r_plus, 0.0), max(r_minus, 0.0)
