"""Kernel evaluation, tail integrals, and the nonlocal field."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

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
    uniform_box_ensemble,
    xi_eval,
)
from flockctrl import kernels
from flockctrl.kernels import _EXP_SEGMENT


class TestPhiEval:
    def test_power_law_at_zero(self):
        assert PowerLawKernel(1.0, 1.0).phi(0.0) == 1.0

    def test_power_law_at_one(self):
        # 1 / (1 + 1^2)
        assert PowerLawKernel(1.0, 1.0).phi(1.0) == pytest.approx(0.5)

    def test_exponential_at_zero(self):
        assert ExponentialKernel(2.0, 1.0).phi(0.0) == 2.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            PowerLawKernel().phi(-0.1)

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
        for k in (PowerLawKernel(1.0, 1.7), ExponentialKernel(1.0, 2.0),
                  TabulatedKernel((0.0, 1.0, 5.0), (2.0, 1.0, 0.5))):
            np.testing.assert_allclose(k.phi_sq_inplace(r * r), k.phi(r), rtol=1e-14)


# 100k radii spanning the finite doubles, plus ones whose square underflows or overflows
_RADII = np.concatenate([
    np.random.default_rng(11).uniform(0.0, 10.0, 50_000),
    10.0 ** np.random.default_rng(12).uniform(-200.0, 300.0, 50_000),
    [0.0, 1e-170, 1e-160, 1e150, 1e155, 1e300],
])


class TestPhiIsOneLaw:
    """phi is phi_sq_inplace of r * r: sqrt(fl(r^2)) = r unless r^2 underflows or
    overflows, and there both forms give K or 0."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # r * r overflows
    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 2.5, 3.0])
    def test_power_law_is_bit_equal_to_its_formula(self, gamma):
        k = PowerLawKernel(0.7, gamma)
        assert np.array_equal(k.phi(_RADII), 0.7 / (1.0 + _RADII * _RADII) ** gamma)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 0.3])
    def test_exponential_is_bit_equal_to_its_formula(self, lam):
        k = ExponentialKernel(1.3, lam)
        assert np.array_equal(k.phi(_RADII), 1.3 * np.exp(-lam * _RADII))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_scalar_gives_the_float_of_the_array_value(self):
        for k in (PowerLawKernel(1.0, 2.5), ExponentialKernel(1.0, 0.3)):
            for r, val in zip(_RADII[::4999], k.phi(_RADII[::4999])):
                out = k.phi(float(r))
                assert type(out) is float and out == val

    def test_tabulated_interpolates_in_r_where_r_squared_overflows(self):
        k = TabulatedKernel((0.0, 1e300), (2.0, 1.0))
        assert k.phi(1e200) == np.interp(1e200, k.radii, k.values) == 2.0

    def test_phi0_is_cached_and_leaves_equality_hash_and_pickling_alone(self):
        import pickle

        k = PowerLawKernel(1.0, 2.0)
        assert k.phi0 == 1.0 and "phi0" in vars(k)
        again = pickle.loads(pickle.dumps(k))
        assert again == PowerLawKernel(1.0, 2.0) and hash(again) == hash(PowerLawKernel(1.0, 2.0))
        assert repr(again) == "PowerLawKernel(K=1.0, gamma=2.0)"


class TestTailIntegral:
    def test_power_law_gamma_one_closed_form(self):
        # int_0^inf dx/(1+4x^2) = pi/4
        assert PowerLawKernel(1.0, 1.0).tail_integral(0.0) == pytest.approx(
            math.pi / 4.0, rel=1e-12
        )

    def test_exponential_closed_form(self):
        assert ExponentialKernel(1.0, 1.0).tail_integral(0.0) == pytest.approx(0.5)

    def test_divergent_power_law(self):
        k = PowerLawKernel(1.0, 0.5)
        assert k.tail_integral(1.0) == k.tail_inverse(1.0) == math.inf

    def test_tabulated_tail_diverges(self):
        k = TabulatedKernel((0.0, 1.0), (1.0, 0.5))
        assert k.tail_integral(3.0) == k.tail_inverse(3.0) == math.inf

    @pytest.mark.parametrize("gamma", [0.8, 1.0, 1.5, 2.3])
    def test_quadrature_consistency(self, gamma):
        k = PowerLawKernel(1.3, gamma)
        for a in (0.0, 0.5, 2.0):
            ref, _ = quad(lambda x: k.phi(2.0 * x), a, math.inf, limit=200)
            assert k.tail_integral(a) == pytest.approx(ref, rel=1e-8)

    # small tails, slowly decaying tails and gamma near 1/2: hard cases for
    # adaptive quadrature
    @pytest.mark.parametrize("gamma, a", [
        (5.5, 30.0), (7.3, 100.0), (4.0, 100.0), (3.0, 1e3), (10.0, 1e6),
        (0.6, 1e6), (0.5000001, 1.0), (0.55, 10.0), (0.7, 1e8),
    ])
    def test_closed_form_matches_mpmath(self, gamma, a):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            g, x = mpmath.mpf(gamma), mpmath.mpf(a)
            half = mpmath.mpf(1) / 2
            # int_a^inf dx / (1 + 4x^2)^g = B(1 / (1 + 4a^2); g - 1/2, 1/2) / 4
            ref = 1.3 * mpmath.betainc(g - half, half, 0, 1 / (1 + 4 * x * x)) / 4
            # abs=0: approx would otherwise pass any tail below 1e-12
            assert PowerLawKernel(1.3, gamma).tail_integral(a) == pytest.approx(
                float(ref), rel=1e-13, abs=0
            )

    @pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
    def test_gamma_three_halves_elementary(self, a):
        # int_a^inf dx / (1 + 4x^2)^(3/2) = (1 - 2a / sqrt(1 + 4a^2)) / 2
        ref = 0.5 * 1.3 * (1.0 - 2.0 * a / math.sqrt(1.0 + 4.0 * a * a))
        assert PowerLawKernel(1.3, 1.5).tail_integral(a) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_import_loads_no_scipy(self):
        # nor does an in-region X_M on the benchmark's kernels: scipy.special
        # would add most of a second to a run's setup
        code = (
            "import sys, flockctrl as f\n"
            "e = f.Ensemble.from_points([0.0, 1.0], [0.0, 0.1])\n"
            "for k in (f.ExponentialKernel(1.0, 1.0), f.PowerLawKernel(1.0, 1.0)):\n"
            "    assert 0.5 < f.theorem3_test(k, e).X_M < float('inf')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(kernels.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("kernel", [
        ExponentialKernel(2.0, 0.7), PowerLawKernel(1.3, 1.0), PowerLawKernel(1.3, 0.6),
        PowerLawKernel(1.3, 2.3),
    ], ids=repr)
    @pytest.mark.parametrize("a", [0.0, 0.5, 3.0, 300.0])
    def test_tail_inverse_undoes_the_tail(self, kernel, a):
        assert kernel.tail_inverse(kernel.tail_integral(a)) == pytest.approx(a, rel=1e-9, abs=1e-15)

    def test_tail_inverse_at_the_ends_of_the_doubles(self):
        # ln(K / (2 lam T)) / (2 lam) would overflow the quotient
        assert ExponentialKernel(2.0, 0.7).tail_inverse(5e-324) == pytest.approx(
            (math.log(2.0 / 1.4) + 744.4400719213812) / 1.4, rel=1e-15
        )
        # K / (2 lam) past the largest double: an infinite tail, as in theorem 3's T
        assert ExponentialKernel(1e308, 0.1).tail_inverse(math.inf) == math.inf
        # a root past the doubles, and a t below the normal doubles, are not resolved
        assert PowerLawKernel(1.0, 1.0).tail_inverse(5e-324) == math.inf
        assert PowerLawKernel(1.0, 0.51).tail_inverse(1e-3) == math.inf

    def test_nonincreasing_in_lower_limit(self):
        k = ExponentialKernel(2.0, 0.7)
        vals = [k.tail_integral(a) for a in np.linspace(0, 5, 20)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            PowerLawKernel().tail_integral(-1.0)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_parameters_rejected(self, bad):
        for make in (
            lambda: PowerLawKernel(bad, 1.0),
            lambda: PowerLawKernel(1.0, bad),
            lambda: ExponentialKernel(bad, 1.0),
            lambda: ExponentialKernel(1.0, bad),
            lambda: TabulatedKernel((0.0, bad), (1.0, 0.5)),
            lambda: TabulatedKernel((0.0, 1.0), (bad, 0.5)),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()

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
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 300, 2000])
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


def _in_fresh_thread(fn):
    """fn() in a new thread, whose field scratch starts empty; returns its result."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join()
    return out[0]


class TestFieldScratch:
    """The block scratch each thread keeps between interaction_field calls."""

    SIZES = [(400, 2), (50, 1), (900, 2), (400, 2)]

    @staticmethod
    def _fields(sizes):
        k = FIELD_KERNELS["power_law_1"]
        return [
            interaction_field(k, e.x, e.v, e.w)
            for e in (_weighted_cloud(n, d, seed=n + d) for n, d in sizes)
        ]

    def test_calls_that_alternate_in_size_match_each_call_alone(self):
        alternating = _in_fresh_thread(lambda: self._fields(self.SIZES))
        backwards = _in_fresh_thread(lambda: self._fields(self.SIZES[::-1]))[::-1]
        for i, size in enumerate(self.SIZES):
            [alone] = _in_fresh_thread(lambda: self._fields([size]))
            assert alternating[i].tobytes() == alone.tobytes(), size
            assert backwards[i].tobytes() == alone.tobytes(), size

    def test_threads_at_once_match_the_serial_fields(self):
        # more threads than cores, switching often, on clouds of two sizes
        sizes = [(400, 2), (300, 1), (400, 2), (300, 1)]
        serial = _in_fresh_thread(lambda: self._fields(sizes))
        start = threading.Barrier(len(sizes))
        got = {}

        def work(i):
            start.wait()
            got[i] = [self._fields([sizes[i]])[0] for _ in range(25)]

        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(sizes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        for i, size in enumerate(sizes):
            assert all(f.tobytes() == serial[i].tobytes() for f in got[i]), size

    def test_writing_into_a_returned_field_leaves_the_next_call_alone(self):
        e = _weighted_cloud(400, 2, seed=3)
        k = FIELD_KERNELS["power_law_1"]
        first = interaction_field(k, e.x, e.v, e.w)
        expected = first.copy()
        first[...] = np.nan
        assert interaction_field(k, e.x, e.v, e.w).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [400, 900])
    def test_a_warm_call_allocates_less_than_one_scratch(self, n):
        e = _weighted_cloud(n, 2, seed=n)
        k = FIELD_KERNELS["power_law_1"]
        interaction_field(k, e.x, e.v, e.w)
        tracemalloc.start()
        try:
            interaction_field(k, e.x, e.v, e.w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * min(64, n) * n * 8


def _outer_difference_field(kernel, x, v, w):
    """interaction_field's row-blocked loop with np.subtract.outer differences.

    The reference that the matrix-product differences must reproduce bit
    for bit: the blocks, their order and every operation after the
    differences are the same.
    """
    n, d = x.shape
    rhs = np.empty((n, d + 1))
    np.multiply(w[:, None], v, out=rhs[:, :d])
    rhs[:, d] = w
    acc = np.empty((n, d + 1))
    buf = np.empty(2 * min(kernels._FIELD_BLOCK, n) * n)
    for s in reversed(range(0, n, kernels._FIELD_BLOCK)):
        e = min(s + kernels._FIELD_BLOCK, n)
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


class TestFieldDifferences:
    """The block differences are a rank-2 matrix product, exact like a subtraction."""

    @pytest.mark.parametrize(
        "name, d",
        [(name, d) for name in sorted(FIELD_KERNELS) for d in (1, 2, 3)
         if (name, d) != ("exponential", 1)],  # the line's exponential has its own path
    )
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 400])
    def test_field_matches_outer_differences_bit_for_bit(self, name, d, n):
        k = FIELD_KERNELS[name]
        e = _weighted_cloud(n, d, seed=7 * n + d)
        got = interaction_field(k, e.x, e.v, e.w)
        assert np.array_equal(got, _outer_difference_field(k, e.x, e.v, e.w))

    def test_differences_of_edge_values_round_like_subtraction(self):
        edge = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, 0.1, -3.5,
                1e300, -1e300, 1.7e308, -1.7e308, np.inf, -np.inf]
        # 75 values in each coordinate: two blocks, the first one full
        x = np.stack([np.tile(edge, 5), np.roll(np.tile(edge, 5), 3)], axis=1)
        lifted = kernels._lifted(x)
        n = x.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(2):
                for s in range(0, n, kernels._FIELD_BLOCK):
                    e = min(s + kernels._FIELD_BLOCK, n)
                    got = np.empty((e - s, n - s))
                    np.matmul(lifted[k, s:e, 1:], lifted[k, s:, :2].T, out=got)
                    ref = np.subtract.outer(x[s:e, k], x[s:, k])
                    nan = np.isnan(ref)
                    assert np.array_equal(np.isnan(got), nan)
                    # bit for bit, but for the sign of an exact zero (-0 - 0
                    # is -0; a product's sum starts from +0), which squares erase
                    assert np.array_equal((got + 0.0).view(np.int64)[~nan],
                                          (ref + 0.0).view(np.int64)[~nan])
                    assert np.array_equal((got * got).view(np.int64)[~nan],
                                          (ref * ref).view(np.int64)[~nan])


def _dense_field_1d(k, x, v, w):
    """The field on the line from the N x N kernel matrix, and the size of the
    terms that cancel in it, sum_j w_j phi_ij (|v_j| + |v_i|), per row."""
    coef = w * k.phi(np.abs(x - x.T))
    row = coef.sum(axis=1, keepdims=True)
    return coef @ v - row * v, coef @ np.abs(v) + row * np.abs(v)


def _line_cloud(n, span, seed, tied=False):
    """Unsorted positions on [0, span), non-uniform weights, velocities offset by 5."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, span, n)
    if tied:
        # every position four times over, in scrambled order
        x = rng.permutation(np.repeat(x[: n // 4], 4))
    w = rng.random(n) + 0.1
    w /= w.sum()
    return x[:, None], 5.0 + rng.normal(size=(n, 1)), w


def _history(before, x, v, w):
    """The cloud a call just before one on (x, v, w) sees, or None for no call."""
    n = x.shape[0]
    if before == "none":
        return None
    if before == "same cloud":
        return x, v, w
    if before == "other cloud":
        return _line_cloud(n, np.ptp(x), seed=99)
    if before == "reversed":
        return x[::-1], v[::-1], w[::-1]
    if before == "other n":
        return _line_cloud(n + 3, np.ptp(x), seed=99)
    if before == "permuted":
        perm = np.random.default_rng(3).permutation(n)
        return x[perm], v[perm], w[perm]
    if before == "random hint":
        return np.random.default_rng(4).permutation(n)
    # "swap": the two particles that pass each other between the calls, at the
    # first place in sorted order where two distinct positions meet
    order = np.argsort(x[:, 0], kind="stable")
    k = int(np.flatnonzero(np.diff(x[order, 0]) > 0)[0])
    prev = x.copy()
    prev[order[[k, k + 1]]] = prev[order[[k + 1, k]]]
    return prev, v, w


class TestExponentialField1d:
    """The sorted prefix-sum field of the exponential kernel on the line."""

    # N = 1, 2 and 2000 without a velocity offset are in test_matches_pointwise
    @pytest.mark.parametrize(
        "n, lam, span, tied",
        [
            (400, 3.0, 1.0, True),
            (2000, 1.0, 1.0, False),
            # lam * span = 1200: at least three segments
            (2000, 2.5, 480.0, False),
        ],
    )
    def test_matches_dense(self, n, lam, span, tied):
        k = ExponentialKernel(1.3, lam)
        x, v, w = _line_cloud(n, span, seed=n, tied=tied)
        if span > 1.0:
            assert lam * np.ptp(x) > 2 * _EXP_SEGMENT
        f = interaction_field(k, x, v, w)
        ref, scale = _dense_field_1d(k, x, v, w)
        assert f.shape == (n, 1)
        assert np.all(np.abs(f - ref) <= 1e-13 * scale)

    def test_large_cloud(self):
        k = ExponentialKernel(1.0, 1.0)
        x, v, w = _line_cloud(100_000, 50.0, seed=7)
        e = Ensemble(x=x, v=v, w=w)
        f = interaction_field(k, x, v, w)
        for i in np.random.default_rng(0).choice(e.n, size=50, replace=False):
            ref = xi_eval(k, e, x[i], v[i])
            coef = w * k.phi(np.abs(x[:, 0] - x[i, 0]))
            scale = coef @ (np.abs(v) + np.abs(v[i]))
            assert np.all(np.abs(f[i] - ref) <= 1e-13 * scale)
        assert np.linalg.norm(w @ f) <= 1e-12

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize(
        "before",
        ["none", "same cloud", "other cloud", "reversed", "other n", "swap", "permuted",
         "random hint"],
    )
    def test_field_independent_of_previous_call(self, monkeypatch, tied, before):
        """The sort order carried between calls changes no bit of the field."""
        k = ExponentialKernel(1.3, 2.5)
        # lam * span = 1200: several segments
        x, v, w = _line_cloud(400, 480.0, seed=11, tied=tied)
        monkeypatch.setattr(kernels, "_SORT_HINT", np.empty(0, dtype=np.intp))
        ref = interaction_field(k, x, v, w)
        monkeypatch.setattr(kernels, "_SORT_HINT", np.empty(0, dtype=np.intp))
        prev = _history(before, x, v, w)
        if isinstance(prev, tuple):
            interaction_field(k, *prev)
        elif prev is not None:
            monkeypatch.setattr(kernels, "_SORT_HINT", prev)
        f = interaction_field(k, x, v, w)
        assert np.array_equal(f, ref)
        np.testing.assert_array_equal(kernels._SORT_HINT, np.argsort(x[:, 0], kind="stable"))

    def test_nan_position_still_fails_after_a_call(self):
        k = ExponentialKernel(1.0, 1.0)
        x, v, w = _line_cloud(50, 1.0, seed=2)
        interaction_field(k, x, v, w)
        x = x.copy()
        x[[7, 30]] = np.nan
        f = interaction_field(k, x, v, w)
        assert not np.all(np.isfinite(f))
        np.testing.assert_array_equal(kernels._SORT_HINT, np.argsort(x[:, 0], kind="stable"))


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
