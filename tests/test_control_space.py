"""Volume-budget control synthesis: band geometry, contraction, strategy."""

import math

import numpy as np
import pytest

from flockctrl import (
    AlreadyFlockedSignal,
    ControlPiece,
    Ensemble,
    ExponentialKernel,
    PowerLawKernel,
    StepParams,
    StrategyBudgetError,
    TabulatedKernel,
    VolumeBudget,
    complete_strategy,
    fundamental_step,
    normalized,
    space_step_params,
    support_box,
    theorem6_threshold,
    uniform_box_ensemble,
)
from flockctrl.control_mass import _band_offsets
from flockctrl.control_space import min_space_steps
from flockctrl.dynamics import SpaceBand

CONSTANT_KERNEL = TabulatedKernel((0.0, 1000.0), (1.0, 1.0))


def _normalized_uniform(n=200, seed=7, x_hi=1.0, v_hi=1.0):
    e = uniform_box_ensemble(n, 0.0, x_hi, 0.0, v_hi, seed=seed)
    return normalized(e)


def _band_force(params, x, v):
    """Band force at normalized (x, v): force_axis of the step's piece in the identity frame."""
    piece = ControlPiece(0.0, params.T0, "space_band", axis=0, t_ref=0.0, x_shift=0.0,
                         v_shift=0.0, params={"eps": params.eps0, "y0": params.Y0, "w0": params.W0})
    x, v = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(v))
    f = piece.force_axis(x[:, None], v[:, None], 0.0)
    return f if f.size > 1 else float(f[0])


class TestSpaceStepParams:
    def test_constant_kernel_band_offsets(self):
        # phi0 = phid = 1: alpha = (W - vbar)/2, beta = (W - vbar)/6
        e = _normalized_uniform(seed=1)
        p = space_step_params(CONSTANT_KERNEL, e, 1.0)
        assert p.alpha0 == pytest.approx((p.W0 - p.vbar0) / 2.0)
        assert p.beta0 == pytest.approx((p.W0 - p.vbar0) / 6.0)

    def test_eps_closed_form_when_beta_binds(self):
        # large budget: eps = beta/2 and the band area is well under c
        e = _normalized_uniform(seed=2)
        p = space_step_params(ExponentialKernel(1.0, 1.0), e, 50.0)
        assert p.eps0 == pytest.approx(p.beta0 / 2.0)
        assert SpaceBand.area({"eps": p.eps0, "y0": p.Y0, "w0": p.W0}) <= 50.0

    def test_area_never_exceeds_budget(self):
        for seed in range(8):
            for c in (0.05, 0.3, 1.0, 3.0):
                e = _normalized_uniform(seed=seed)
                p = space_step_params(PowerLawKernel(1.0, 1.0), e, c)
                assert SpaceBand.area({"eps": p.eps0, "y0": p.Y0, "w0": p.W0}) <= c
                # rectangle area recomputed independently
                area = (p.Y0 + p.eps0 * p.W0 + 2.0 * p.eps0) * 4.0 * p.eps0
                assert SpaceBand.area({"eps": p.eps0, "y0": p.Y0, "w0": p.W0}) == \
                    pytest.approx(area)

    def test_step_duration_equals_band_width(self):
        e = _normalized_uniform(seed=3)
        p = space_step_params(PowerLawKernel(1.0, 1.0), e, 0.5)
        assert p.T0 == p.eps0

    def test_one_column_step_of_the_shared_geometry(self):
        # a volume step is the mass step's sweep with n = 1 column and T0 = eps0
        e = _normalized_uniform(seed=6)
        p = space_step_params(PowerLawKernel(1.0, 1.0), e, 0.5)
        assert isinstance(p, StepParams)
        assert (p.axis, p.n, p.T0) == (0, 1, p.eps0)
        # with the mass step's distance bound, Y0 + W0 in one dimension
        assert _band_offsets(PowerLawKernel(1.0, 1.0), p.Y0 + p.W0, p.W0 - p.vbar0) == \
            (p.alpha0, p.beta0)
        assert p.cuts.tolist() == [0.0, p.Y0]
        assert p.W0 - p.T0 / p.n == p.W0 - p.eps0

    def test_flocked_signals(self):
        e = Ensemble.from_points([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(AlreadyFlockedSignal):
            space_step_params(PowerLawKernel(), e, 1.0)

    def test_rejects_nonpositive_budget_and_wrong_dimension(self):
        e = _normalized_uniform(seed=4)
        with pytest.raises(ValueError):
            space_step_params(PowerLawKernel(), e, 0.0)
        e2 = uniform_box_ensemble(
            10, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], seed=0
        )
        with pytest.raises(ValueError):
            space_step_params(PowerLawKernel(), e2, 1.0)


class TestSpaceForce:
    @pytest.fixture()
    def params(self):
        e = _normalized_uniform(seed=5)
        return space_step_params(PowerLawKernel(1.0, 1.0), e, 1.0)

    def test_plateau_core_is_minus_one(self, params):
        x = 0.5 * params.Y0
        assert _band_force(params, x, params.W0) == pytest.approx(-1.0)

    def test_zero_below_band(self, params):
        x = 0.5 * params.Y0
        assert _band_force(params, x, params.W0 - 3.0 * params.eps0) == 0.0
        assert _band_force(params, x, 0.0) == 0.0

    def test_spatial_ramp_half_height(self, params):
        assert _band_force(params, -params.eps0 / 2.0, params.W0) == pytest.approx(-0.5)

    def test_bounded_by_one_everywhere(self, params):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, params.Y0 + 1.0, size=500)
        v = rng.uniform(-1.0, params.W0 + 1.0, size=500)
        f = _band_force(params, x, v)
        assert np.all(f <= 0.0) and np.all(f >= -1.0)


class TestFundamentalStepSpace:
    def test_contraction_and_audit(self):
        e = uniform_box_ensemble(200, 0.0, 0.4, 0.0, 0.6, seed=7)
        k = ExponentialKernel(1.0, 1.0)
        e1, rec, frag, traj = fundamental_step(k, e, VolumeBudget(1.0))
        p = rec.params
        assert rec.max_omega_area <= 1.0
        assert rec.max_u_sup <= 1.0 + 1e-12
        assert rec.W_after[0] <= p.W0 - p.eps0 + 1e-6
        assert rec.Y_after[0] <= p.Y0 + p.eps0 * p.W0 + 1e-6
        assert frag.total_control_time() == pytest.approx(p.T0)
        assert support_box(e1).w[0] == pytest.approx(rec.W_after[0])


@pytest.fixture(scope="module")
def run():
    k = ExponentialKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(120, 0.0, 0.2, 0.0, 0.5, seed=9)
    return k, e0, complete_strategy(k, e0, VolumeBudget(1.0))


class TestCompleteStrategySpace:
    def test_threshold_closed_form(self):
        # 0.5 * int_a^inf e^{-2x} dx at a = 2(Y + W^2) = 0.9 -> e^{-1.8}/4
        k = ExponentialKernel(1.0, 1.0)
        assert theorem6_threshold(k, 0.2, 0.5) == pytest.approx(
            0.25 * math.exp(-1.8)
        )

    def test_reaches_eta_with_certificate(self, run):
        _, _, res = run
        assert support_box(res.final).w[0] <= res.eta
        assert res.terminal_verdict.in_region

    def test_per_step_contraction_chain(self, run):
        _, _, res = run
        for a, b in zip(res.records, res.records[1:]):
            assert b.W_before[0] <= a.W_after[0] + 1e-12
            assert a.W_after[0] <= a.W_before[0] - a.params.eps0 + 1e-6

    def test_budget_bounds(self, run):
        _, e0, res = run
        box = support_box(e0)
        W0, Y0 = float(box.w[0]), float(box.y[0])
        assert res.total_control_time <= W0 + 1e-9
        assert support_box(res.final).y[0] <= Y0 + W0 * W0 + 1e-6
        assert max(r.max_omega_area for r in res.records) <= 1.0

    def test_plan_is_contiguous(self, run):
        _, _, res = run
        for a, b in zip(res.plan.pieces, res.plan.pieces[1:]):
            assert b.t_start == pytest.approx(a.t_end, abs=1e-9)


class TestStepBound:
    def test_is_at_most_the_steps_taken(self, run):
        k, e0, res = run
        cases = [(k, e0, 1.0, res)]
        for kernel, e0, c in [
            (ExponentialKernel(1.0, 1.0), uniform_box_ensemble(40, 0.0, 0.3, 0.0, 0.3, seed=5), 1.0),
            (PowerLawKernel(1.0, 1.0), uniform_box_ensemble(20, 0.0, 1.0, 0.0, 1.0, seed=1), 1e-2),
        ]:
            cases.append((kernel, e0, c, complete_strategy(kernel, e0, VolumeBudget(c))))
        for kernel, e0, c, res in cases:
            bound = min_space_steps(kernel, float(support_box(e0).w[0]), res.eta, c)
            assert 0.0 < bound <= len(res.records)

    def test_closed_form(self):
        k = PowerLawKernel(2.0, 1.0)  # phi0 = 2
        t = math.log((2 * 2 * 1.5 + 1) / (2 * 2 * 0.1 + 1)) / (2 * 2)
        assert min_space_steps(k, 1.5, 0.1, 0.08) == pytest.approx(t / (math.sqrt(0.16) / 4))
        assert min_space_steps(k, 0.1, 0.1, 0.08) == 0.0

    def test_a_budget_far_too_small_is_rejected_before_the_first_step(self, monkeypatch):
        from flockctrl import control_mass

        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(control_mass, "fundamental_step", no_step)
        e0 = uniform_box_ensemble(20, 0.0, 1.0, 0.0, 1.0, seed=1)
        with pytest.raises(StrategyBudgetError, match=r"at least 1\.4e\+06 steps") as info:
            complete_strategy(PowerLawKernel(1.0, 1.0), e0, VolumeBudget(1e-12))
        assert info.value.records == []

    def test_the_rejection_needs_twice_the_step_budget(self):
        k, c = PowerLawKernel(1.0, 1.0), 1e-2
        e0 = uniform_box_ensemble(20, 0.0, 1.0, 0.0, 1.0, seed=1)
        y0, w0 = float(support_box(e0).y[0]), float(support_box(e0).w[0])
        bound = min_space_steps(k, w0, theorem6_threshold(k, y0, w0), c)
        assert 14.0 < bound < 14.1  # the synthesis takes 556 steps
        with pytest.raises(StrategyBudgetError, match="exceeded"):  # the loop's own count
            complete_strategy(k, e0, VolumeBudget(c), step_budget=math.ceil(bound / 2.0))
        with pytest.raises(StrategyBudgetError, match="more than twice the step budget"):
            complete_strategy(k, e0, VolumeBudget(c), step_budget=math.ceil(bound / 2.0) - 1)
