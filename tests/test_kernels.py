"""Kernel evaluation, tail integrals, and the nonlocal field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from flockctrl import (
    Ensemble,
    ExponentialKernel,
    PowerLawKernel,
    TabulatedKernel,
    interaction_field,
    inward_radii,
    kernel_from_dict,
    phi_eval,
    tail_integral,
    uniform_box_ensemble,
    xi_eval,
)


class TestPhiEval:
    def test_power_law_at_zero(self):
        assert phi_eval(PowerLawKernel(1.0, 1.0), 0.0) == 1.0

    def test_power_law_at_one(self):
        # 1 / (1 + 1^2)
        assert phi_eval(PowerLawKernel(1.0, 1.0), 1.0) == pytest.approx(0.5)

    def test_exponential_at_zero(self):
        assert phi_eval(ExponentialKernel(2.0, 1.0), 0.0) == 2.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            phi_eval(PowerLawKernel(), -0.1)

    def test_positive_and_nonincreasing_on_grid(self):
        grid = np.linspace(0.0, 50.0, 400)
        for k in (
            PowerLawKernel(2.0, 0.7),
            ExponentialKernel(1.5, 0.3),
            TabulatedKernel((0.0, 1.0, 5.0), (2.0, 1.0, 0.5)),
        ):
            vals = k.phi(grid)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_phi_sq_matches_phi(self):
        r = np.linspace(0.0, 9.0, 50)
        for k in (PowerLawKernel(1.0, 1.7), ExponentialKernel(1.0, 2.0)):
            np.testing.assert_allclose(k.phi_sq(r * r), k.phi(r), rtol=1e-14)


class TestTailIntegral:
    def test_power_law_gamma_one_closed_form(self):
        # int_0^inf dx/(1+4x^2) = pi/4
        assert tail_integral(PowerLawKernel(1.0, 1.0), 0.0) == pytest.approx(
            math.pi / 4.0, rel=1e-12
        )

    def test_exponential_closed_form(self):
        assert tail_integral(ExponentialKernel(1.0, 1.0), 0.0) == pytest.approx(0.5)

    def test_divergent_power_law(self):
        assert tail_integral(PowerLawKernel(1.0, 0.5), 1.0) == math.inf
        assert PowerLawKernel(1.0, 0.5).tail_diverges

    def test_tabulated_tail_diverges(self):
        k = TabulatedKernel((0.0, 1.0), (1.0, 0.5))
        assert k.tail_diverges
        assert tail_integral(k, 3.0) == math.inf

    @pytest.mark.parametrize("gamma", [0.8, 1.0, 1.5, 2.3])
    def test_quadrature_consistency(self, gamma):
        k = PowerLawKernel(1.3, gamma)
        for a in (0.0, 0.5, 2.0):
            ref, _ = quad(lambda x: k.phi(2.0 * x), a, math.inf, limit=200)
            assert tail_integral(k, a) == pytest.approx(ref, rel=1e-8)

    def test_nonincreasing_in_lower_limit(self):
        k = ExponentialKernel(2.0, 0.7)
        vals = [tail_integral(k, a) for a in np.linspace(0, 5, 20)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            tail_integral(PowerLawKernel(), -1.0)


class TestKernelFromDict:
    def test_round_trip(self):
        for k in (
            PowerLawKernel(2.0, 1.5),
            ExponentialKernel(1.0, 0.5),
            TabulatedKernel((0.0, 2.0), (1.0, 0.25)),
        ):
            assert kernel_from_dict(k.to_dict()) == k

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            kernel_from_dict({"family": "gaussian"})

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedKernel((0.0, 1.0), (0.5, 1.0))  # increasing
        with pytest.raises(ValueError):
            TabulatedKernel((1.0, 0.0), (1.0, 0.5))  # radii not increasing
        with pytest.raises(ValueError):
            TabulatedKernel((0.0, 1.0), (1.0, 0.0))  # not strictly positive


class TestXiEval:
    def test_single_particle_at_itself(self):
        e = Ensemble.from_points([0.0], [1.0])
        assert xi_eval(PowerLawKernel(), e, [0.0], [1.0]) == pytest.approx(0.0)

    def test_common_velocity_vanishes(self):
        e = uniform_box_ensemble(20, 0.0, 1.0, 0.5, 0.5, seed=3)
        out = xi_eval(PowerLawKernel(), e, [0.3], [0.5])
        assert abs(out[0]) < 1e-15

    def test_two_particle_hand_sum(self):
        e = Ensemble.from_points([0.0, 1.0], [0.0, 1.0])
        # 0.5 * phi(0) * 0 + 0.5 * phi(1) * 1 = 0.25
        out = xi_eval(PowerLawKernel(1.0, 1.0), e, [0.0], [0.0])
        assert out[0] == pytest.approx(0.25)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_weighted_field_sum_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        w = rng.random(n) + 0.1
        w /= w.sum()
        e = Ensemble(x=rng.normal(size=(n, d)), v=rng.normal(size=(n, d)), w=w)
        f = interaction_field(PowerLawKernel(1.0, 1.0), e.x, e.v, e.w)
        assert np.linalg.norm(e.w @ f) <= 1e-12 * n

    def test_matrix_form_matches_pointwise(self):
        e = uniform_box_ensemble(15, 0.0, 1.0, -1.0, 1.0, seed=5)
        k = ExponentialKernel(1.0, 1.0)
        f = interaction_field(k, e.x, e.v, e.w)
        for i in range(e.n):
            np.testing.assert_allclose(
                f[i], xi_eval(k, e, e.x[i], e.v[i]), atol=1e-13
            )


FIELD_KERNELS = {
    "power_law_1": PowerLawKernel(1.0, 1.0),
    "power_law_1.5": PowerLawKernel(1.3, 1.5),
    "exponential": ExponentialKernel(1.0, 0.7),
    "tabulated": TabulatedKernel((0.0, 0.5, 2.0), (1.5, 0.8, 0.3)),
}


def _weighted_cloud(n, d, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(n) + 0.1
    w /= w.sum()
    return Ensemble(x=rng.uniform(-1.0, 1.0, size=(n, d)), v=rng.normal(size=(n, d)), w=w)


class TestInteractionFieldBlocks:
    """The row-blocked field across block edges (blocks of 64 rows)."""

    @pytest.mark.parametrize("name", sorted(FIELD_KERNELS))
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 300])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pointwise(self, name, n, d):
        k = FIELD_KERNELS[name]
        e = _weighted_cloud(n, d, seed=10 * n + d)
        f = interaction_field(k, e.x, e.v, e.w)
        for i in range(n):
            ref = xi_eval(k, e, e.x[i], e.v[i])
            # size of the terms that cancel: sum_j w_j phi_ij (|v_j| + |v_i|)
            coef = e.w * k.phi(np.linalg.norm(e.x - e.x[i], axis=1))
            scale = coef @ (np.abs(e.v) + np.abs(e.v[i]))
            assert np.all(np.abs(f[i] - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("name", sorted(FIELD_KERNELS))
    @pytest.mark.parametrize("n", [65, 130, 300])
    def test_weighted_sum_vanishes_across_blocks(self, name, n):
        e = _weighted_cloud(n, 2, seed=n)
        f = interaction_field(FIELD_KERNELS[name], e.x, e.v, e.w)
        assert np.linalg.norm(e.w @ f) <= 1e-12

    def test_calls_return_fresh_arrays(self):
        e = _weighted_cloud(130, 2, seed=1)
        k = FIELD_KERNELS["power_law_1"]
        f1 = interaction_field(k, e.x, e.v, e.w)
        kept = f1.copy()
        f2 = interaction_field(k, e.x, e.v, e.w)
        assert not np.shares_memory(f1, f2)
        for arr in (e.x, e.v, e.w):
            assert not np.shares_memory(f2, arr)
        np.testing.assert_array_equal(f1, kept)
        np.testing.assert_array_equal(f1, f2)


class TestInwardRadii:
    def test_constant_kernel_limit(self):
        # X = 0 makes phi(2X) = phi(0): factor 1/2
        rp, rm = inward_radii(PowerLawKernel(3.0, 1.0), 0.0, 0.0, 2.0, 1.0)
        assert rp == pytest.approx(0.5)
        assert rm == pytest.approx(0.5)

    def test_dirac_slab(self):
        rp, rm = inward_radii(ExponentialKernel(), 1.0, 0.3, 0.0, 0.3)
        assert rp == 0.0 and rm == 0.0

    def test_power_law_example(self):
        # phi(2 * 0.5) = 0.5: factor 1/1.5; widths 1.5 each
        rp, rm = inward_radii(PowerLawKernel(1.0, 1.0), 0.5, 0.0, 3.0, 1.5)
        assert rp == pytest.approx(1.0)
        assert rm == pytest.approx(1.0)

    def test_barycenter_outside_slab_rejected(self):
        with pytest.raises(ValueError):
            inward_radii(PowerLawKernel(), 1.0, 0.0, 1.0, 1.5)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_strict_sign_beyond_radii(self, seed):
        """Queries beyond the inward radii feel a strictly restoring field."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        w = rng.random(n) + 0.1
        w /= w.sum()
        x = rng.uniform(-1.0, 1.0, size=(n, 1))
        v = rng.uniform(0.0, 1.0, size=(n, 1))
        e = Ensemble(x=x, v=v, w=w)
        k = PowerLawKernel(1.0, 1.0)
        xbar, vbar = e.w @ e.x, e.w @ e.v
        X = float(np.abs(x - xbar).max())
        a, top = float(v.min()), float(v.max())
        rp, rm = inward_radii(k, X, a, top - a, float(vbar[0]))
        qx = rng.uniform(-1.0, 1.0)
        margin = rng.uniform(1e-6, 0.5)
        for sgn, r in ((+1.0, rp), (-1.0, rm)):
            qv = float(vbar[0]) + sgn * (r + margin)
            xi = xi_eval(k, e, [qx], [qv])[0]
            # the query must also respect the spatial radius bound
            if abs(qx - float(xbar[0])) <= X:
                assert xi * (qv - float(vbar[0])) < 0
