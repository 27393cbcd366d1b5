"""Ensemble state queries: barycenters, boxes, metrics, mass-quantile cuts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockctrl import (
    Ensemble,
    flocking_metrics,
    grid_ensemble,
    mass_quantile_cuts,
    normalized,
    support_box,
    uniform_box_ensemble,
    wasserstein1_1d,
)


def _random_ensemble(seed, n=None, d=1):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 40))
    w = rng.random(n) + 0.05
    w /= w.sum()
    return Ensemble(x=rng.normal(size=(n, d)), v=rng.normal(size=(n, d)), w=w)


class TestEnsembleInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Ensemble(x=np.zeros((2, 1)), v=np.zeros((2, 1)), w=np.array([0.7, 0.7]))

    def test_weights_strictly_positive(self):
        with pytest.raises(ValueError):
            Ensemble(x=np.zeros((2, 1)), v=np.zeros((2, 1)), w=np.array([1.0, 0.0]))

    def test_nan_weight_rejected(self):
        # NaN <= 0 is false, and so is the sum check on a NaN total
        with pytest.raises(ValueError, match="strictly positive"):
            Ensemble(x=np.zeros((3, 1)), v=np.zeros((3, 1)), w=np.array([np.nan, 0.5, 0.5]))

    def test_nonempty(self):
        with pytest.raises(ValueError):
            Ensemble(x=np.zeros((0, 1)), v=np.zeros((0, 1)), w=np.zeros(0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Ensemble(x=np.zeros((2, 1)), v=np.zeros((3, 1)), w=np.full(2, 0.5))

    def test_from_points_1d(self):
        e = Ensemble.from_points([0.0, 1.0], [2.0, 3.0])
        assert e.n == 2 and e.d == 1
        assert np.allclose(e.w, 0.5)


class TestBarycenters:
    def test_single_particle(self):
        e = Ensemble.from_points([2.0], [3.0])
        m = flocking_metrics(e)
        xb, vb = m.xbar, m.vbar
        assert xb[0] == 2.0 and vb[0] == 3.0

    def test_symmetric_pair(self):
        e = Ensemble.from_points([0.0, 2.0], [-1.0, 1.0])
        m = flocking_metrics(e)
        xb, vb = m.xbar, m.vbar
        assert xb[0] == pytest.approx(1.0)
        assert vb[0] == pytest.approx(0.0)

    def test_weighted_three(self):
        e = Ensemble.from_points([0.0, 1.0, 3.0], [0.0, 0.0, 0.0], w=[0.5, 0.25, 0.25])
        xb = flocking_metrics(e).xbar
        assert xb[0] == pytest.approx(1.0)

    @given(seed=st.integers(0, 10_000), shift=st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_translation_equivariance(self, seed, shift):
        e = _random_ensemble(seed)
        xb = flocking_metrics(e).xbar
        e2 = Ensemble(x=e.x + shift, v=e.v, w=e.w)
        xb2 = flocking_metrics(e2).xbar
        assert xb2[0] == pytest.approx(xb[0] + shift, abs=1e-12)


class TestSupportBox:
    def test_single_particle_zero_extent(self):
        box = support_box(Ensemble.from_points([1.0], [2.0]))
        assert box.y[0] == 0.0 and box.w[0] == 0.0

    def test_min_scan(self):
        e = Ensemble.from_points([1.0, 4.0], [2.0, 5.0])
        box = support_box(e)
        assert box.x_shift[0] == 1.0 and box.v_shift[0] == 2.0
        assert box.y[0] == 3.0 and box.w[0] == 3.0

    def test_containment_after_normalization(self):
        e = _random_ensemble(11, n=25, d=2)
        box = support_box(e)
        en = normalized(e, box)
        assert np.all(en.x >= 0) and np.all(en.x <= box.y[None, :] + 1e-15)
        assert np.all(en.v >= 0) and np.all(en.v <= box.w[None, :] + 1e-15)


class TestFlockingMetrics:
    def test_flocked_state(self):
        e = uniform_box_ensemble(10, 0.0, 1.0, 0.7, 0.7, seed=1)
        m = flocking_metrics(e)
        assert m.Lambda == pytest.approx(0.0, abs=1e-28)
        assert m.V == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_velocities(self):
        e = Ensemble.from_points([0.0, 0.0], [-1.0, 1.0])
        m = flocking_metrics(e)
        assert m.Lambda == pytest.approx(1.0)
        assert m.V == pytest.approx(1.0)

    def test_single_particle(self):
        m = flocking_metrics(Ensemble.from_points([5.0], [-2.0]))
        assert m.X == m.V == m.Lambda == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_lambda_below_v_squared(self, seed):
        m = flocking_metrics(_random_ensemble(seed, d=2))
        assert m.Lambda <= m.V**2 + 1e-12


class TestMassQuantileCuts:
    def test_uniform_grid_splits_evenly(self):
        x = (np.arange(8) + 0.5) / 8.0
        e = Ensemble.from_points(x, np.zeros(8))
        en = normalized(e)
        cuts, masses = mass_quantile_cuts(en, 0, 0.25, 4)
        assert cuts[0] == 0.0 and cuts[-1] == pytest.approx(en.x[:, 0].max())
        np.testing.assert_allclose(masses, 0.25)

    def test_single_slice(self):
        e = normalized(_random_ensemble(5))
        cuts, _ = mass_quantile_cuts(e, 0, 1.0, 1)
        assert cuts[0] == 0.0 and cuts[1] == pytest.approx(e.x[:, 0].max())

    def test_atom_absorbs_mass(self):
        e = Ensemble.from_points([0.0, 0.0, 0.0], [0.0, 1.0, 2.0])
        cuts, masses = mass_quantile_cuts(e, 0, 0.5, 2)
        assert cuts[1] == 0.0
        assert masses[0] >= 0.5

    def test_target_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            mass_quantile_cuts(_random_ensemble(5), 0, 1.5, 2)

    def test_undercovering_rejected(self):
        with pytest.raises(ValueError):
            mass_quantile_cuts(_random_ensemble(5), 0, 0.2, 3)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cut_properties(self, seed):
        rng = np.random.default_rng(seed)
        n_particles = int(rng.integers(4, 60))
        e = normalized(_random_ensemble(seed, n=n_particles))
        target = float(rng.uniform(0.15, 0.6))
        n = int(np.ceil(1.0 / target))
        cuts, masses = mass_quantile_cuts(e, 0, target, n)
        assert np.all(np.diff(cuts) >= 0)
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)
        w_max = e.w.max()
        # interior slices overshoot the target by at most one particle weight
        for m in masses[:-1]:
            assert m <= target + w_max + 1e-12


class TestWasserstein:
    def test_identical(self):
        e = _random_ensemble(4)
        assert wasserstein1_1d(e, e) == pytest.approx(0.0, abs=1e-15)

    def test_diracs(self):
        a = Ensemble.from_points([0.0], [0.0])
        b = Ensemble.from_points([1.0], [0.0])
        assert wasserstein1_1d(a, b) == pytest.approx(1.0)

    def test_shifted_pairs(self):
        a = Ensemble.from_points([0.0, 1.0], [0.0, 0.0])
        b = Ensemble.from_points([0.5, 1.5], [0.0, 0.0])
        assert wasserstein1_1d(a, b) == pytest.approx(0.5)

    @given(s1=st.integers(0, 500), s2=st.integers(0, 500), s3=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, s1, s2, s3):
        a, b, c = (_random_ensemble(s) for s in (s1, s2, s3))
        dab = wasserstein1_1d(a, b)
        dbc = wasserstein1_1d(b, c)
        dac = wasserstein1_1d(a, c)
        assert dac <= dab + dbc + 1e-10


    @given(s1=st.integers(0, 500), s2=st.integers(0, 500), coord=st.sampled_from(["x", "v"]))
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy(self, s1, s2, coord):
        # scipy serves only as an oracle here
        from scipy.stats import wasserstein_distance

        a, b = _random_ensemble(s1, d=2), _random_ensemble(s2, d=2)
        for axis in (0, 1):
            pa = (a.x if coord == "x" else a.v)[:, axis]
            pb = (b.x if coord == "x" else b.v)[:, axis]
            ref = wasserstein_distance(pa, pb, u_weights=a.w, v_weights=b.w)
            assert abs(wasserstein1_1d(a, b, coord, axis) - ref) <= 1e-12

    def test_tied_points_match_scipy(self):
        from scipy.stats import wasserstein_distance

        rng = np.random.default_rng(5)
        pa, pb = rng.integers(0, 4, 30).astype(float), rng.integers(1, 6, 20).astype(float)
        wa, wb = rng.random(30) + 0.1, rng.random(20) + 0.1
        a = Ensemble(x=pa[:, None], v=np.zeros((30, 1)), w=wa / wa.sum())
        b = Ensemble(x=pb[:, None], v=np.zeros((20, 1)), w=wb / wb.sum())
        ref = wasserstein_distance(pa, pb, u_weights=a.w, v_weights=b.w)
        assert abs(wasserstein1_1d(a, b) - ref) <= 1e-12


class TestSamplers:
    def test_uniform_box_seeded_determinism(self):
        a = uniform_box_ensemble(30, 0.0, 1.0, -1.0, 1.0, seed=42)
        b = uniform_box_ensemble(30, 0.0, 1.0, -1.0, 1.0, seed=42)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.v, b.v)

    def test_grid_counts(self):
        e = grid_ensemble(0.0, 1.0, 0.0, 1.0, 3, 4)
        assert e.n == 12 and e.d == 1
        assert np.all(e.x > 0) and np.all(e.x < 1)

    def test_grid_2d(self):
        e = grid_ensemble([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0],
                          [2, 2], [2, 2])
        assert e.n == 16 and e.d == 2
