"""Sufficient flocking-region certificates."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockctrl import (
    Ensemble,
    ExponentialKernel,
    PowerLawKernel,
    TabulatedKernel,
    corollary2_test,
    finite_dim_test,
    flocking_metrics,
    theorem3_test,
    uniform_box_ensemble,
)


_GRID_KERNELS = [
    ExponentialKernel(1.0, 1.0), ExponentialKernel(1000.0, 0.001), ExponentialKernel(0.1, 30.0),
    *(PowerLawKernel(1.0, g) for g in (0.51, 0.75, 1.0, 1.5, 3.0, 7.3)),
]


def _exact_tail_inverse(mpmath, kernel, T):
    """The a >= 0 with int_a^inf phi(2x) dx = T, at mpmath's working precision."""
    T = mpmath.mpf(T)
    zero = mpmath.mpf(0)
    if isinstance(kernel, ExponentialKernel):
        K, lam = mpmath.mpf(kernel.K), mpmath.mpf(kernel.lam)
        return max(zero, mpmath.log(K / (2 * lam * T)) / (2 * lam))
    K, g = mpmath.mpf(kernel.K), mpmath.mpf(kernel.gamma)
    if g == 1:
        return max(zero, 1 / (2 * mpmath.tan(2 * T / K)))
    half = mpmath.mpf(1) / 2

    def tail(a):
        return K / 4 * mpmath.betainc(g - half, half, 0, 1 / (1 + 4 * a * a))

    if T >= tail(zero):
        return zero
    # start below the root (phi <= K) or above it (the tail's power-law bound);
    # then Newton on log tail(e^s) - log T, which is near linear in s
    if T > tail(mpmath.mpf(1)):
        a = (tail(zero) - T) / K
    else:
        a = (T * (2 * g - 1) * 4**g / K) ** (1 / (1 - 2 * g))
    s = mpmath.log(a)
    for _ in range(100):
        a = mpmath.exp(s)
        step = (mpmath.log(tail(a)) - mpmath.log(T)) * tail(a) / (-K * a / (1 + 4 * a * a) ** g)
        s -= step
        if abs(step) < mpmath.mpf(10) ** -40:
            return mpmath.exp(s)
    raise AssertionError("the reference root did not converge")


class TestTheorem3:
    def test_zero_velocity_spread_always_in_region(self):
        e = uniform_box_ensemble(10, 0.0, 5.0, 0.2, 0.2, seed=0)
        for k in (PowerLawKernel(1.0, 2.0), ExponentialKernel(0.1, 3.0)):
            v = theorem3_test(k, e)
            assert v.in_region
            assert v.margin > 0

    def test_exponential_closed_form_root(self):
        # X0 = 0, V0 = 0.4, threshold 0.5; X_M solves 0.4 = (1 - e^{-2X})/2
        e = Ensemble.from_points([0.0, 0.0], [-0.4, 0.4])
        v = theorem3_test(ExponentialKernel(1.0, 1.0), e)
        assert v.threshold == pytest.approx(0.5)
        assert v.in_region
        assert v.X_M == pytest.approx(-0.5 * math.log(0.2), abs=1e-9)

    def test_xm_far_from_the_origin(self):
        # spatial radius 1e6, where doubles are 1.2e-10 apart; at gamma = 1 the
        # tail there cancels to ~1e-10 relative, which bounds the residual
        e = Ensemble.from_points([-1e6, 1e6], [-1e-8, 1e-8])
        k = PowerLawKernel(1.0, 1.0)
        v = theorem3_test(k, e)
        assert v.in_region
        assert 1e6 < v.X_M < math.inf
        consumed = k.tail_integral(1e6) - k.tail_integral(v.X_M)
        assert consumed == pytest.approx(1e-8, rel=1e-6, abs=0)

    def test_xm_for_gamma_near_one_half_is_far_but_finite(self):
        # gamma near 1/2: V0 = 22 < tail(0.5) = 24.9, yet tail(1e12) = 14.2, so
        # the tail spends V0 only near 2.7e46
        e = Ensemble.from_points([0.0, 1.0], [0.0, 44.0])
        k = PowerLawKernel(1.0, 0.51)
        v = theorem3_test(k, e)
        assert v.in_region
        assert v.X_M == pytest.approx(2.733877423136e46, rel=1e-12)
        consumed = k.tail_integral(0.5) - k.tail_integral(v.X_M)
        assert consumed == pytest.approx(22.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kernel", _GRID_KERNELS, ids=repr)
    def test_xm_is_the_exact_inverse_of_the_computed_tail(self, kernel):
        # two-point clouds with X = X0 and V = frac * tail(X0): X_M is
        # max(X0, a) for the a whose tail is the computed T = threshold - V,
        # here to 80 digits.  Within 1e-12 max(1, X_M) of it, never below it,
        # and +inf only where the exact root is past the doubles, or for
        # gamma != 1 where t = 1 / (1 + 4 a^2) is not a normal double.
        mpmath = pytest.importorskip("mpmath")
        checked = 0
        for X0 in (0.0, 1e-3, 0.5, 1.0, 10.0, 1e3, 1e6, 1e12, 1e50, 1e100, 1e150,
                   1e153, 1e154, 1e200):
            for frac in (1e-300, 1e-100, 1e-12, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12):
                V0 = frac * kernel.tail_integral(X0)
                e = Ensemble.from_points([-X0, X0], [-V0, V0])
                v = theorem3_test(kernel, e)
                if not v.in_region or flocking_metrics(e).V == 0.0:
                    continue
                checked += 1
                with mpmath.workdps(80):
                    exact = max(mpmath.mpf(X0), _exact_tail_inverse(mpmath, kernel, v.margin))
                    if math.isinf(v.X_M):
                        t = 1 / (1 + 4 * exact**2)
                        assert exact > sys.float_info.max or (
                            isinstance(kernel, PowerLawKernel) and kernel.gamma != 1.0
                            and t <= sys.float_info.min * (1 + 1e-10)
                        ), (X0, frac)
                    else:
                        err = float((v.X_M - exact) / max(1.0, v.X_M))
                        assert abs(err) <= 1e-12, (X0, frac, v.X_M, float(exact))
        assert checked >= 30

    @pytest.mark.parametrize(
        "kernel, root",
        [
            (TabulatedKernel(radii=(0.0, 1.0), values=(1.0, 0.5)), 2.0),
            (PowerLawKernel(1.0, 0.5), 0.5 * math.sinh(math.asinh(2.0) + 1.0)),
        ],
        ids=["tabulated", "power_law_half"],
    )
    def test_a_divergent_tail_never_understates_xm(self, kernel, root):
        # X0 = 1, V0 = 1/2: the tail from X0 is infinite, but X_M is finite
        v = theorem3_test(kernel, Ensemble.from_points([0.0, 2.0], [0.0, 1.0]))
        assert v.in_region
        assert v.X_M >= root

    def test_divergent_kernel_unconditional(self):
        e = uniform_box_ensemble(10, 0.0, 1.0, -5.0, 5.0, seed=1)
        v = theorem3_test(PowerLawKernel(1.0, 0.4), e)
        assert v.in_region
        assert v.threshold == math.inf

    def test_out_of_region(self):
        e = Ensemble.from_points([0.0, 0.0], [-1.0, 1.0])
        v = theorem3_test(ExponentialKernel(1.0, 1.0), e)  # V0 = 1 > 0.5
        assert not v.in_region
        assert v.margin < 0
        assert v.X_M is None

    def test_verdict_margin_consistency(self):
        e = uniform_box_ensemble(25, 0.0, 1.0, 0.0, 1.0, seed=2)
        for K in (0.2, 1.0, 5.0):
            v = theorem3_test(PowerLawKernel(K, 1.0), e)
            assert v.in_region == (v.margin > 0)

    @given(scale=st.floats(0.1, 5.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_velocity_spread(self, scale, seed):
        """Enlarging the velocity spread can only lose the certificate."""
        e = uniform_box_ensemble(15, 0.0, 1.0, 0.0, 0.3, seed=seed)
        k = ExponentialKernel(1.0, 1.0)
        small = theorem3_test(k, e)
        vbar = e.w @ e.v
        big = Ensemble(x=e.x, v=vbar + (e.v - vbar) * (1.0 + scale), w=e.w)
        if not small.in_region:
            assert not theorem3_test(k, big).in_region


class TestCorollary2:
    def test_zero_spread(self):
        assert corollary2_test(ExponentialKernel(), 3.0, 0.0).in_region

    def test_exponential_reject(self):
        # threshold e^{-2}/2, 2V = 0.1 exceeds it
        v = corollary2_test(ExponentialKernel(1.0, 1.0), 0.5, 0.05)
        assert v.threshold == pytest.approx(math.exp(-2.0) / 2.0)
        assert not v.in_region

    def test_exponential_accept(self):
        v = corollary2_test(ExponentialKernel(1.0, 1.0), 0.5, 0.03)
        assert v.in_region

    def test_negative_radii_rejected(self):
        with pytest.raises(ValueError):
            corollary2_test(ExponentialKernel(), -1.0, 0.0)

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_implies_barycentric_certificate(self, seed):
        """The covering-box condition is the stronger of the two tests."""
        e = uniform_box_ensemble(20, 0.0, 1.0, 0.0, 0.4, seed=seed)
        k = ExponentialKernel(1.0, 1.0)
        m = flocking_metrics(e)
        if corollary2_test(k, m.X, m.V).in_region and m.V > 0:
            assert theorem3_test(k, e).in_region


class TestFiniteDim:
    def test_flocked(self):
        e = uniform_box_ensemble(8, 0.0, 1.0, 0.5, 0.5, seed=3)
        assert finite_dim_test(ExponentialKernel(), e).in_region

    def test_threshold_at_zero_gamma(self):
        # Gamma = 0: threshold int_0^inf e^{-x} dx = 1
        root = math.sqrt(0.9)
        e = Ensemble.from_points([0.0, 0.0], [-root, root])
        v = finite_dim_test(ExponentialKernel(1.0, 1.0), e)
        assert v.threshold == pytest.approx(1.0)
        assert v.in_region  # Lambda = 0.9 < 1

    def test_reject_above_threshold(self):
        root = math.sqrt(1.1)
        e = Ensemble.from_points([0.0, 0.0], [-root, root])
        assert not finite_dim_test(ExponentialKernel(1.0, 1.0), e).in_region
