"""Sufficient flocking-region certificates."""

import math

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
        # spatial radius 1e6, where doubles are 1.2e-10 apart: coarser than
        # the bisection tolerance
        e = Ensemble.from_points([-1e6, 1e6], [-1e-8, 1e-8])
        k = PowerLawKernel(1.0, 1.0)
        v = theorem3_test(k, e)
        assert v.in_region
        assert 1e6 < v.X_M < math.inf
        consumed = k.tail_integral(1e6) - k.tail_integral(v.X_M)
        assert consumed == pytest.approx(1e-8, rel=1e-6, abs=0)

    def test_xm_beyond_the_bracket_is_infinite(self):
        # gamma near 1/2: V0 = 22 < tail(0.5) = 24.9, yet tail(1e12) = 14.2
        e = Ensemble.from_points([0.0, 1.0], [0.0, 44.0])
        v = theorem3_test(PowerLawKernel(1.0, 0.51), e)
        assert v.in_region
        assert v.X_M == math.inf

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
