"""Influence kernels and the nonlocal alignment field they generate.

A kernel is a positive, nonincreasing influence function ``phi(r)`` of the
distance between two agents.  The alignment field of a weighted particle
cloud is the phi-weighted average of velocity differences; its tail integral
``int_a^inf phi(2x) dx`` is the quantity that separates configurations that
flock on their own from those that need to be controlled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# rows per block of the alignment field; with one OpenBLAS thread on x86-64,
# 64 beat 32, 128 and 256 by 5-30% at N = 400, 900 and 2000
_FIELD_BLOCK = 64


def _check_radius(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("kernel argument must be nonnegative")
    return r


class Kernel:
    """Base class: positive nonincreasing influence function."""

    def phi(self, r):
        """Evaluate phi(r); accepts scalars or arrays, r >= 0."""
        raise NotImplementedError

    @property
    def phi0(self) -> float:
        return float(self.phi(0.0))

    def phi_sq(self, r2):
        """phi evaluated at sqrt(r2); hot path for pairwise fields."""
        return self.phi(np.sqrt(r2))

    def phi_sq_inplace(self, r2: np.ndarray) -> np.ndarray:
        """Like phi_sq but may overwrite the squared-distance buffer."""
        return np.asarray(self.phi_sq(r2))

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
        if self.K <= 0:
            raise ValueError("K must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    def phi(self, r):
        r = _check_radius(r)
        base = 1.0 + r * r
        # integer exponents avoid the generic pow, the dominant cost in
        # pairwise field evaluation
        if self.gamma == 1.0:
            out = self.K / base
        elif self.gamma == float(int(self.gamma)):
            out = self.K / base ** int(self.gamma)
        else:
            out = self.K / base**self.gamma
        return float(out) if out.ndim == 0 else out

    def phi_sq(self, r2):
        # squared distances feed straight into the rational form
        base = 1.0 + r2
        if self.gamma == 1.0:
            return self.K / base
        if self.gamma == float(int(self.gamma)):
            return self.K / base ** int(self.gamma)
        return self.K / base**self.gamma

    def phi_sq_inplace(self, r2: np.ndarray) -> np.ndarray:
        r2 += 1.0
        if self.gamma != 1.0:
            exp = int(self.gamma) if self.gamma == float(int(self.gamma)) else self.gamma
            np.power(r2, exp, out=r2)
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
        from scipy.integrate import quad

        val, _ = quad(
            lambda x: self.K / (1.0 + 4.0 * x * x) ** self.gamma,
            a,
            math.inf,
            epsrel=1e-10,
            epsabs=1e-14,
            limit=200,
        )
        return val

    def to_dict(self) -> dict:
        return {"family": "power_law", "K": self.K, "gamma": self.gamma}


@dataclass(frozen=True)
class ExponentialKernel(Kernel):
    """phi(r) = K * exp(-lam * r)."""

    K: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError("K must be positive")
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def phi(self, r):
        r = _check_radius(r)
        out = self.K * np.exp(-self.lam * r)
        return float(out) if out.ndim == 0 else out

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


def phi_eval(kernel: Kernel, r):
    """Influence strength at distance r (scalar or array)."""
    return kernel.phi(r)


def tail_integral(kernel: Kernel, a: float) -> float:
    """int_a^inf phi(2x) dx; +inf when the kernel tail is nonintegrable."""
    return kernel.tail_integral(a)


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
    """
    n, d = x.shape
    rhs = np.empty((n, d + 1))
    np.multiply(w[:, None], v, out=rhs[:, :d])
    rhs[:, d] = w
    acc = np.empty((n, d + 1))
    # kernel values and one coordinate's differences; every block reuses it
    buf = np.empty(2 * min(_FIELD_BLOCK, n) * n)
    # last block first: a block's own product then sets its rows, and the
    # blocks above add their transposed shares to them afterwards
    for s in reversed(range(0, n, _FIELD_BLOCK)):
        e = min(s + _FIELD_BLOCK, n)
        size = (e - s) * (n - s)
        r2 = buf[:size].reshape(e - s, n - s)
        np.subtract.outer(x[s:e, 0], x[s:, 0], out=r2)
        np.multiply(r2, r2, out=r2)
        if d > 1:
            dk = buf[size : 2 * size].reshape(e - s, n - s)
            for k in range(1, d):
                np.subtract.outer(x[s:e, k], x[s:, k], out=dk)
                np.multiply(dk, dk, out=dk)
                r2 += dk
        p = kernel.phi_sq_inplace(r2)
        np.matmul(p, rhs[s:], out=acc[s:e])
        if e < n:
            acc[e:] += p[:, e - s :].T @ rhs[s:e]
    return acc[:, :d] - acc[:, d:] * v


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
