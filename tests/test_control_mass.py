"""Mass-budget control synthesis: step geometry, contraction, strategies."""

import dataclasses
import logging
import math
import types
import typing

import numpy as np
import pytest

import flockctrl
from flockctrl import (
    AlreadyFlockedSignal,
    ContractionError,
    DegenerateMeasureError,
    Ensemble,
    ExponentialKernel,
    MassBudget,
    PowerLawKernel,
    SampleColumns,
    StepRecord,
    StrategyBudgetError,
    StrategyResult,
    SupportBox,
    TabulatedKernel,
    Trajectory,
    VolumeBudget,
    axis_step_params,
    build_control_piece,
    complete_strategy,
    control_mass,
    fundamental_step,
    grid_ensemble,
    mass_quantile_cuts,
    normalized,
    space_step_params,
    support_box,
    theorem4_threshold,
    uniform_box_ensemble,
)

CONSTANT_KERNEL = TabulatedKernel((0.0, 1000.0), (1.0, 1.0))


def _normalized_uniform(n=400, seed=7, hi=1.0):
    e = uniform_box_ensemble(n, 0.0, hi, 0.0, hi, seed=seed)
    return normalized(e)


def _identity_box(p):
    """A one-dimensional support box whose frame is the identity."""
    return SupportBox(y=np.array([p.Y0]), w=np.array([p.W0]),
                      x_shift=np.zeros(1), v_shift=np.zeros(1))


class TestStepParams:
    def test_slice_count_and_cuts(self):
        e = normalized(grid_ensemble(0.0, 1.0, 0.0, 1.0, 200, 10))
        p = axis_step_params(PowerLawKernel(1.0, 1.0), e, 0, 0.5)
        assert p.n == 4
        np.testing.assert_allclose(p.cuts, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0.01)
        np.testing.assert_allclose(mass_quantile_cuts(e, 0, 0.25, p.n)[1], 0.25, atol=0.01)

    def test_widening_approaches_continuum_value(self):
        # extended slab mass 0.25 + 6 eps <= 0.5 gives eps = 1/24 in the limit
        e = normalized(grid_ensemble(0.0, 1.0, 0.0, 1.0, 400, 5))
        p = axis_step_params(PowerLawKernel(1.0, 1.0), e, 0, 0.5)
        assert p.eps0 == pytest.approx(1.0 / 24.0, abs=5e-3)

    def test_symmetric_support_balances_alpha_beta(self):
        # velocities mirror-symmetric about W/2, so both sides give the max
        x = np.linspace(0.0, 1.0, 50)
        v = np.concatenate([np.linspace(0.0, 1.0, 25), np.linspace(1.0, 0.0, 25)])
        e = normalized(Ensemble.from_points(x, v))
        p = axis_step_params(ExponentialKernel(1.0, 1.0), e, 0, 0.5)
        assert p.vbar0 == pytest.approx(p.W0 / 2.0, abs=1e-9)
        phid = ExponentialKernel(1.0, 1.0).phi(p.Y0 + p.W0)
        assert p.alpha0 == pytest.approx(1.0 / (1.0 + phid) * p.W0 / 2.0, rel=1e-9)

    def test_constant_kernel_factors(self):
        e = _normalized_uniform(n=100, seed=1)
        p = axis_step_params(CONSTANT_KERNEL, e, 0, 0.5)
        width = max(p.W0 - p.vbar0, p.vbar0)
        assert p.alpha0 == pytest.approx(width / 2.0)
        assert p.beta0 == pytest.approx(width / 6.0)

    def test_t0_formula(self):
        e = _normalized_uniform(n=200, seed=2)
        c = 0.5
        p = axis_step_params(PowerLawKernel(1.0, 1.0), e, 0, c)
        assert p.T0 == pytest.approx(min(p.eps0 / p.W0, p.beta0 / (2.0 * c), 1.0))

    def test_flocked_axis_signals(self):
        e = Ensemble.from_points([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(AlreadyFlockedSignal):
            axis_step_params(PowerLawKernel(), normalized(e), 0, 0.5)

    def test_heavy_atom_cluster_rejected(self):
        # all spatial mass at one point: no widened column can stay under c
        e = Ensemble.from_points([0.0, 0.0, 0.0], [0.0, 0.5, 1.0])
        with pytest.raises(DegenerateMeasureError):
            axis_step_params(PowerLawKernel(), e, 0, 0.5)

    def test_atom_heavier_than_the_budget_rejected_before_any_cut(self):
        # ceil(2/c) = 2e12 columns were once asked of mass_quantile_cuts
        e = _normalized_uniform(n=20, seed=4)
        with pytest.raises(DegenerateMeasureError, match="atom of mass 0.05 exceeds"):
            axis_step_params(PowerLawKernel(), e, 0, 1e-12)

    def test_widened_columns_respect_budget(self):
        e = _normalized_uniform(n=300, seed=3)
        c = 0.4
        p = axis_step_params(PowerLawKernel(1.0, 1.0), e, 0, c)
        coords = e.x[:, 0]
        for i in range(p.n):
            lo = p.cuts[i] - 3.0 * p.eps0
            hi = p.cuts[i + 1] + 3.0 * p.eps0
            mass = e.w[(coords >= lo) & (coords <= hi)].sum()
            assert mass <= c + 1e-9


class TestControlPieceGeometry:
    def test_plateau_and_boundary(self):
        e = _normalized_uniform(n=150, seed=4)
        p = axis_step_params(PowerLawKernel(1.0, 1.0), e, 0, 0.5)
        piece = build_control_piece(p, 1, 0.0, _identity_box(p))
        x_mid = 0.5 * (p.cuts[0] + p.cuts[1])
        x = np.array([[x_mid]])
        # upper plateau: force -1
        v = np.array([[p.vbar0 + p.alpha0 + 2.5 * p.beta0]])
        assert piece.force(x, v, 0.0)[0, 0] == pytest.approx(-1.0)
        # lower plateau: force +1
        v = np.array([[p.vbar0 - p.alpha0 - 2.5 * p.beta0]])
        assert piece.force(x, v, 0.0)[0, 0] == pytest.approx(1.0)
        # inner band edge: continuous zero (up to roundoff in the ramp)
        v = np.array([[p.vbar0 + p.alpha0 + p.beta0]])
        assert piece.force(x, v, 0.0)[0, 0] == pytest.approx(0.0, abs=1e-12)
        # far outside
        v = np.array([[p.vbar0 + p.alpha0 + 10.0 * p.beta0]])
        assert piece.force(x, v, 0.0)[0, 0] == 0.0

    def test_slice_index_bounds(self):
        e = _normalized_uniform(n=50, seed=5)
        p = axis_step_params(PowerLawKernel(), e, 0, 0.5)
        with pytest.raises(ValueError):
            build_control_piece(p, 0, 0.0, _identity_box(p))
        with pytest.raises(ValueError):
            build_control_piece(p, p.n + 1, 0.0, _identity_box(p))


class TestFundamentalStep:
    def test_contraction_and_audits(self):
        e = uniform_box_ensemble(400, 0.0, 1.0, 0.0, 1.0, seed=7)
        c = 0.5
        e1, rec, frag, traj = fundamental_step(PowerLawKernel(1.0, 1.0), e, MassBudget(c))
        assert rec.W_after[0] <= rec.W_before[0] - rec.params.T0 / rec.params.n + 1e-6
        assert rec.max_mass_in_omega <= c + 2.0 * e.w.max()
        assert rec.max_u_sup <= 1.0 + 1e-12
        assert rec.max_vbar_drift <= rec.params.beta0 / 2.0 + 1e-6
        assert frag.total_control_time() == pytest.approx(rec.params.T0)


def _mass_step():
    e = uniform_box_ensemble(60, 0.0, 1.0, 0.0, 1.0, seed=7)
    return fundamental_step(PowerLawKernel(1.0, 1.0), e, MassBudget(0.5))


def _volume_step():
    e = uniform_box_ensemble(40, 0.0, 1.0, 0.0, 1.0, seed=7)
    return fundamental_step(PowerLawKernel(1.0, 1.0), e, VolumeBudget(1.0))


class TestStepAuditsFire:
    """Each audit of a step rejects a trajectory with one sample column doctored."""

    @staticmethod
    def _doctor(monkeypatch, column, row, delta):
        real = control_mass.integrate

        def integrate(*args, **kwargs):
            traj = real(*args, **kwargs)
            cols = SampleColumns(*(a.copy() for a in traj.columns))
            getattr(cols, column)[row] += delta
            return Trajectory(cols, traj.final)

        monkeypatch.setattr(control_mass, "integrate", integrate)

    @pytest.mark.parametrize("step", [_mass_step, _volume_step], ids=["mass", "volume"])
    def test_undoctored_copy_passes(self, monkeypatch, step):
        self._doctor(monkeypatch, "t", 0, 0.0)
        step()

    @pytest.mark.parametrize(
        "step, column, row, delta, message",
        [
            (_mass_step, "W", -1, 1.0, "contracted W to"),
            (_volume_step, "W", -1, 1.0, "contracted W to"),
            (_mass_step, "v_shift", 0, -1e-3, "lower velocity edge dropped"),
            (_volume_step, "v_shift", 0, -1e-3, "lower velocity edge dropped"),
            (_mass_step, "W", 0, 1e-3, "upper velocity edge rose"),
            (_volume_step, "W", 0, 1e-3, "upper velocity edge rose"),
            (_mass_step, "vbar", 0, 1.0, "barycenter drifted"),
            (_mass_step, "mass", 0, 1.0, "control set carried mass"),
            (_volume_step, "area", 0, 1.0, "band area exceeded"),
            (_volume_step, "Y", -1, 1.0, "spatial spread exceeded"),
            (_mass_step, "u_sup", 0, 1.0, "control force reached"),
            (_volume_step, "u_sup", 0, 1.0, "control force reached"),
            (_volume_step, "u_sup", -1, math.nan, "control force reached"),
        ],
        ids=["contraction-mass", "contraction-volume", "lower-edge-mass", "lower-edge-volume",
             "upper-edge-mass", "upper-edge-volume", "drift", "mass-budget", "area-budget",
             "spread", "u_sup-mass", "u_sup-volume", "u_sup-nan"],
    )
    def test_audit_raises_its_own_message(self, monkeypatch, step, column, row, delta, message):
        self._doctor(monkeypatch, column, row, delta)
        with pytest.raises(ContractionError, match=message):
            step()


def test_type_hints_of_exported_dataclasses_resolve():
    exported = [getattr(flockctrl, name) for name in dir(flockctrl)]
    classes = [c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert StrategyResult in classes
    for cls in classes:
        assert typing.get_type_hints(cls)


@pytest.fixture(scope="module")
def small_run():
    k = ExponentialKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(100, 0.0, 0.3, 0.0, 0.3, seed=12)
    return k, e0, complete_strategy(k, e0, MassBudget(0.5))


@pytest.fixture(scope="module")
def small_run_2d():
    k = PowerLawKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(
        100, [0.0, 0.0], [0.3, 0.3], [0.0, 0.0], [0.3, 0.3], seed=21
    )
    return k, e0, complete_strategy(k, e0, MassBudget(0.5))


@pytest.fixture(scope="module")
def volume_run():
    k = ExponentialKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(60, 0.0, 0.2, 0.0, 0.3, seed=8)
    return k, e0, complete_strategy(k, e0, VolumeBudget(1.0))


def test_every_record_holds_the_declared_params_type(small_run, small_run_2d, volume_run):
    declared = typing.get_type_hints(StepRecord)["params"]
    for _, _, res in (small_run, small_run_2d, volume_run):
        assert res.records
        assert all(isinstance(r.params, declared) for r in res.records)


def test_volume_step_bound_is_at_most_the_steps_taken(volume_run):
    from flockctrl.control_space import min_space_steps

    k, e0, res = volume_run
    assert 0.0 < min_space_steps(k, float(support_box(e0).w[0]), res.eta, 1.0) <= len(res.records)


class TestCompleteStrategy1D:
    def test_terminates_below_eta(self, small_run):
        _, e0, res = small_run
        assert support_box(res.final).w[0] <= res.eta

    def test_default_eta_formula(self, small_run):
        k, e0, res = small_run
        box = support_box(e0)
        assert res.eta == pytest.approx(
            theorem4_threshold(k, float(box.y[0]), float(box.w[0]), 0.5)
        )

    def test_time_and_spread_bounds(self, small_run):
        _, e0, res = small_run
        box = support_box(e0)
        n = math.ceil(2.0 / 0.5)
        assert res.total_control_time <= float(box.w[0]) * n + 1e-9
        assert support_box(res.final).y[0] <= float(box.y[0]) + n * float(box.w[0]) ** 2 + 1e-6

    def test_strictly_monotone_contraction(self, small_run):
        _, _, res = small_run
        ws = [r.W_before[0] for r in res.records] + [res.records[-1].W_after[0]]
        assert all(b < a for a, b in zip(ws, ws[1:]))

    def test_mass_constraint_throughout(self, small_run):
        _, e0, res = small_run
        assert max(r.max_mass_in_omega for r in res.records) <= 0.5 + 2.0 * e0.w.max()

    def test_terminal_certificate(self, small_run):
        _, _, res = small_run
        assert res.terminal_verdict.in_region

    def test_plan_contiguous_zero_after(self, small_run):
        _, _, res = small_run
        assert res.plan.piece_index_at(res.plan.t_end + 1.0) == -1

    def test_already_flocked_empty_plan(self):
        e = Ensemble.from_points([0.0, 0.5, 1.0], [0.2, 0.2, 0.2])
        res = complete_strategy(ExponentialKernel(1.0, 1.0), e, MassBudget(0.5))
        assert len(res.records) == 0
        assert res.plan.pieces == ()
        assert res.total_control_time == 0.0

    def test_divergent_kernel_needs_no_control(self):
        e = uniform_box_ensemble(50, 0.0, 1.0, 0.0, 1.0, seed=3)
        res = complete_strategy(PowerLawKernel(1.0, 0.4), e, MassBudget(0.5))
        assert len(res.records) == 0  # eta is infinite


class TestStepBudget:
    @pytest.mark.parametrize(
        "budget, e0",
        [
            (MassBudget(0.5), uniform_box_ensemble(40, 0.0, 0.3, 0.0, 0.3, seed=5)),
            (MassBudget(0.5),
             uniform_box_ensemble(40, [0.0, 0.0], [0.2, 0.2], [0.0, 0.0], [0.2, 0.2], seed=5)),
            (VolumeBudget(1.0), uniform_box_ensemble(40, 0.0, 0.3, 0.0, 0.3, seed=5)),
        ],
        ids=["mass_1d", "mass_2d", "volume"],
    )
    def test_one_step_budget_carries_one_record(self, budget, e0):
        with pytest.raises(StrategyBudgetError) as exc_info:
            complete_strategy(ExponentialKernel(1.0, 1.0), e0, budget, step_budget=1)
        assert len(exc_info.value.records) == 1
        assert isinstance(exc_info.value.records[0], StepRecord)


class TestBudgets:
    @pytest.mark.parametrize("budget", [MassBudget, VolumeBudget])
    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_a_c_that_is_not_positive_and_finite_is_rejected(self, budget, c):
        # c = 0 once divided by zero, and a volume c = nan or inf never failed its area audit
        with pytest.raises(ValueError, match=r"c must be a positive finite number"):
            budget(c)

    @pytest.mark.parametrize("geometry, budget", [
        (lambda e, c: axis_step_params(PowerLawKernel(), e, 0, c), "MassBudget"),
        (lambda e, c: space_step_params(PowerLawKernel(), e, c), "VolumeBudget"),
    ], ids=["mass", "volume"])
    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_the_step_geometries_reject_the_c_their_budgets_reject(self, geometry, budget, c):
        # a volume c = nan or inf once gave the width beta0/2 with no area bound, and a
        # mass c = inf failed inside the column cuts
        e = _normalized_uniform(n=20, seed=4)
        with pytest.raises(ValueError, match=rf"^{budget} c must be a positive finite number"):
            geometry(e, c)

    def test_the_volume_budget_rejects_a_second_dimension(self):
        e = uniform_box_ensemble(20, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], seed=1)
        with pytest.raises(ValueError, match="one-dimensional"):
            complete_strategy(PowerLawKernel(), e, VolumeBudget(1.0))

    @pytest.mark.parametrize(
        "budget, params_owner, params_name, e0",
        [
            (MassBudget(0.5), "control_mass", "axis_step_params",
             uniform_box_ensemble(40, [0.0, 0.0], [0.2, 0.2], [0.0, 0.0], [0.2, 0.2], seed=5)),
            (VolumeBudget(1.0), "control_space", "space_step_params",
             uniform_box_ensemble(40, 0.0, 0.3, 0.0, 0.3, seed=5)),
        ],
        ids=["mass_2d", "volume"],
    )
    def test_the_step_and_its_params_are_called_through_their_modules_once_per_record(
        self, monkeypatch, budget, params_owner, params_name, e0
    ):
        # the benchmark's tracer times these layers by rebinding the module attributes
        calls = {"fundamental_step": 0, params_name: 0}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(control_mass, "fundamental_step")
        count(getattr(flockctrl, params_owner), params_name)
        res = complete_strategy(ExponentialKernel(1.0, 1.0), e0, budget)
        assert res.records
        assert calls == {"fundamental_step": len(res.records), params_name: len(res.records)}


class TestMultiD:
    def test_axis_membership_ignores_other_coordinates(self):
        e = uniform_box_ensemble(80, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], seed=9)
        en = normalized(e)
        p = axis_step_params(PowerLawKernel(1.0, 1.0), en, 0, 0.5)
        from flockctrl import build_control_piece

        piece = build_control_piece(p, 1, 0.0, support_box(e))
        x = e.x.copy()
        v = e.v.copy()
        f1 = piece.force(x, v, 0.0)
        x2, v2 = x.copy(), v.copy()
        x2[:, 1] += 100.0
        v2[:, 1] -= 50.0
        f2 = piece.force(x2, v2, 0.0)
        np.testing.assert_array_equal(f1, f2)
        assert np.all(f1[:, 1] == 0.0)

    def test_constant_kernel_factor_any_dimension(self):
        e = normalized(
            uniform_box_ensemble(60, [0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [1.0, 1.0], seed=2)
        )
        p = axis_step_params(CONSTANT_KERNEL, e, 1, 0.5)
        width = max(p.W0 - p.vbar0, p.vbar0)
        assert p.alpha0 == pytest.approx(width / 2.0)

    def test_both_axes_reach_eta(self, small_run_2d):
        _, _, res = small_run_2d
        box = support_box(res.final)
        assert np.all(box.w <= res.eta + 1e-12)

    def test_completed_axis_stays_small(self, small_run_2d):
        _, _, res = small_run_2d
        # find the time axis 0 finished: last record on axis 0
        t0_done = max(r.t_end for r in res.records if r.params.axis == 0)
        for s in res.trajectory.samples:
            if s.t >= t0_done:
                assert s.box.w[0] <= res.eta + 1e-6

    def test_total_time_bound(self, small_run_2d):
        _, e0, res = small_run_2d
        box = support_box(e0)
        n = math.ceil(2.0 / 0.5)
        assert res.total_control_time <= n * float(box.w.sum()) + 1e-9


class TestProgress:
    """complete_strategy's INFO lines on the flockctrl logger."""

    @staticmethod
    def _synthesize(caplog):
        e0 = uniform_box_ensemble(40, 0.0, 0.3, 0.0, 0.3, seed=5)
        with caplog.at_level(logging.INFO, logger="flockctrl"):
            res = complete_strategy(ExponentialKernel(1.0, 1.0), e0, MassBudget(0.5))
        assert len(res.records) > 8
        return res, [r.getMessage() for r in caplog.records if r.name == "flockctrl"]

    @staticmethod
    def _line(res, steps):
        rec = res.records[steps - 1]
        p = rec.params
        return (f"synthesis step {steps} on axis 0: W {p.W0:.9g} -> {rec.W_after[0]:.9g}, "
                f"guaranteed {p.W0 - p.T0 / p.n:.9g}, eta {res.eta:.9g}")

    def test_lines_come_at_most_once_a_second_and_after_the_last_step(
        self, monkeypatch, caplog
    ):
        # every step takes a quarter of a second on the synthesis's clock
        clock = [0.0]
        step = control_mass.fundamental_step

        def quarter_second_step(*args, **kwargs):
            clock[0] += 0.25
            return step(*args, **kwargs)

        monkeypatch.setattr(control_mass, "fundamental_step", quarter_second_step)
        monkeypatch.setattr(control_mass, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
        res, lines = self._synthesize(caplog)
        last = len(res.records)
        logged = list(range(4, last + 1, 4)) + ([last] if last % 4 else [])
        assert lines == [self._line(res, k) for k in logged]

    def test_a_synthesis_shorter_than_a_second_logs_its_last_step_only(self, monkeypatch, caplog):
        monkeypatch.setattr(control_mass, "time", types.SimpleNamespace(monotonic=lambda: 0.0))
        res, lines = self._synthesize(caplog)
        assert lines == [self._line(res, len(res.records))]
