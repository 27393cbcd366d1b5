"""Integrator, control plans, and trajectory diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from flockctrl import (
    ControlPiece,
    ControlPlan,
    Ensemble,
    MassBudget,
    PowerLawKernel,
    SampleColumns,
    Trajectory,
    TrajectorySample,
    decay_rate_estimate,
    flocking_metrics,
    fundamental_step,
    integrate,
    interaction_field,
    support_box,
    uniform_box_ensemble,
)
from flockctrl.dynamics import (
    MAX_FLIGHT_STEPS,
    FlightTooLongError,
    flight_segments,
)


def _recorded_states(monkeypatch):
    """A list that gets each sampled state, as an Ensemble, when integrate records it."""
    states = []
    record = Trajectory.record

    def keeping(self, t, x, v, w, piece, piece_idx):
        states.append(Ensemble(x=x.copy(), v=v.copy(), w=w))
        return record(self, t, x, v, w, piece, piece_idx)

    monkeypatch.setattr(Trajectory, "record", keeping)
    return states


def _mass_piece(t0=0.0, t1=1.0, x_shift=0.0, v_shift=0.0, **overrides):
    params = {
        "x_lo": -1.0,
        "x_hi": 1.0,
        "vbar": 0.0,
        "alpha": 0.5,
        "beta": 0.25,
        "eps": 0.25,
    }
    params.update(overrides)
    return ControlPiece(
        t_start=t0, t_end=t1, kind="mass_band", axis=0,
        t_ref=t0, x_shift=x_shift, v_shift=v_shift, params=params,
    )


class TestControlPiece:
    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            _mass_piece(1.0, 1.0)

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
    def test_a_step_size_that_is_not_positive_is_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            ControlPiece(0.0, 1.0, "space_band", axis=0, t_ref=0.0, x_shift=0.0, v_shift=0.0,
                         params={"eps": 0.25, "y0": 1.0, "w0": 0.5}, dt=dt)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ControlPiece(0.0, 1.0, kind="mystery", axis=0, t_ref=0.0,
                         x_shift=0.0, v_shift=0.0)

    @pytest.mark.parametrize(
        "piece",
        [_mass_piece(), ControlPiece(0.0, 1.0, "space_band", axis=0, t_ref=0.0, x_shift=0.0,
                                     v_shift=0.0, params={"eps": 0.25, "y0": 1.0, "w0": 0.5})],
        ids=["mass_band", "space_band"],
    )
    def test_force_bounded_and_supported_on_omega(self, piece):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, size=(500, 1))
        v = rng.uniform(-3.0, 3.0, size=(500, 1))
        f = piece.force(x, v, 0.0)
        assert np.all(np.abs(f) <= 1.0 + 1e-12)
        outside = ~piece.in_omega(x, v, 0.0)
        assert np.all(f[outside, 0] == 0.0)
        assert not outside.all()

    def test_plateau_force_is_inward_unit(self):
        piece = _mass_piece()
        # upper plateau: v in [vbar + a + 2b, vbar + a + 3b], x inset
        x = np.array([[0.0]])
        v = np.array([[0.5 + 2.5 * 0.25]])
        assert piece.force(x, v, 0.0)[0, 0] == pytest.approx(-1.0)
        assert piece.force(x, -v, 0.0)[0, 0] == pytest.approx(1.0)

    def test_force_continuous_at_inner_boundary(self):
        piece = _mass_piece()
        v = np.array([[0.5 + 0.25]])  # exactly alpha + beta above vbar
        assert piece.force(np.zeros((1, 1)), v, 0.0)[0, 0] == 0.0

    def test_frame_comoves(self):
        piece = _mass_piece(v_shift=2.0)
        # after time t the band has drifted by v_shift * t
        x = np.array([[2.0 * 0.5]])
        v = np.array([[2.0 + 0.5 + 2.5 * 0.25]])
        assert piece.force(x, v, 0.5)[0, 0] == pytest.approx(-1.0)

    def test_round_trip_serialization(self):
        piece = _mass_piece(1.5, 2.5)
        again = ControlPiece.from_dict(piece.to_dict())
        assert again == piece

    def test_omega_volume(self):
        piece = _mass_piece()
        assert piece.omega_volume() == pytest.approx(2.0 * 6.0 * 0.25)


class TestControlPlan:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            ControlPlan(pieces=(_mass_piece(0.0, 1.0), _mass_piece(0.5, 2.0)))

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            ControlPlan(pieces=(_mass_piece(0.0, 1.0), _mass_piece(1.5, 2.0)))

    def test_piece_lookup(self):
        plan = ControlPlan(pieces=(_mass_piece(0.0, 1.0), _mass_piece(1.0, 2.0)))
        assert plan.piece_index_at(0.5) == 0
        assert plan.piece_index_at(1.0) == 1
        assert plan.piece_index_at(2.5) == -1  # zero control after the plan
        assert plan.total_control_time() == pytest.approx(2.0)

    def test_piece_lookup_matches_a_linear_scan(self):
        rng = np.random.default_rng(8)
        ends = np.cumsum(rng.uniform(1e-3, 1.0, 3000))
        starts = np.concatenate(([0.0], ends[:-1]))
        # some joins off by less than the overlap tolerance, either way
        starts[1::7] += rng.uniform(-5e-10, 5e-10, starts[1::7].size)
        plan = ControlPlan(pieces=tuple(_mass_piece(a, b) for a, b in zip(starts, ends)))

        def scan(t):
            i = np.flatnonzero(starts <= t)
            return int(i[-1]) if i.size and t < ends[i[-1]] - 1e-12 else -1

        queries = np.concatenate([starts, 0.5 * (starts + ends), ends, ends[-1] + [1e-9, 1.0]])
        for t in queries:
            assert plan.piece_index_at(t) == scan(t)
        assert plan.piece_index_at(-1.0) == -1

    def test_round_trip(self):
        plan = ControlPlan(pieces=(_mass_piece(0.0, 1.0),))
        assert ControlPlan.from_dict(plan.to_dict()) == plan


class TestStepRhs:
    # the right-hand side of the characteristics is dx = v and dv = the
    # field plus the active piece's force
    def test_flocked_equilibrium(self):
        e = uniform_box_ensemble(12, 0.0, 1.0, 0.3, 0.3, seed=2)
        dv = interaction_field(PowerLawKernel(), e.x, e.v, e.w)
        assert np.abs(dv).max() < 1e-15

    def test_two_particle_antisymmetric(self):
        e = Ensemble.from_points([0.0, 1.0], [0.0, 1.0])
        dv = interaction_field(PowerLawKernel(1.0, 1.0), e.x, e.v, e.w)
        np.testing.assert_allclose(dv[:, 0], [0.25, -0.25], atol=1e-15)

    def test_pure_control_single_particle(self):
        e = Ensemble.from_points([0.0], [1.0])
        piece = _mass_piece()  # v = 1.0 is in the upper plateau
        dv = interaction_field(PowerLawKernel(), e.x, e.v, e.w)
        piece.force(e.x, e.v, 0.0, add_to=dv)
        assert dv[0, 0] == pytest.approx(-1.0)


class TestIntegrate:
    def test_free_streaming(self):
        e = Ensemble.from_points([0.0], [1.0])
        traj = integrate(PowerLawKernel(), e, ControlPlan(), 1.0, dt_max=0.05)
        assert traj.final.x[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_pair_conserves_vbar(self):
        e = Ensemble.from_points([-1.0, 1.0], [1.0, -1.0])
        traj = integrate(PowerLawKernel(1.0, 1.0), e, ControlPlan(), 5.0, dt_max=0.01)
        for s in traj.samples:
            assert abs(s.metrics.vbar[0]) < 1e-12

    def test_vbar_conserved_uncontrolled(self):
        e = uniform_box_ensemble(40, 0.0, 1.0, 0.0, 1.0, seed=4)
        vbar0 = e.w @ e.v
        traj = integrate(PowerLawKernel(1.0, 1.0), e, ControlPlan(), 5.0, dt_max=0.01)
        vbar1 = traj.final.w @ traj.final.v
        assert np.linalg.norm(vbar1 - vbar0) < 1e-10

    def test_v_nonincreasing_and_exponential_bound(self):
        k = PowerLawKernel(1.0, 1.0)
        e = uniform_box_ensemble(40, 0.0, 0.5, 0.0, 0.5, seed=6)
        traj = integrate(k, e, ControlPlan(), 5.0, dt_max=0.01)
        vs = traj.columns.V
        assert np.all(np.diff(vs) <= 1e-10)
        xmax = traj.columns.X.max()
        rate = k.phi(2.0 * xmax)
        ts = traj.columns.t
        assert np.all(vs <= vs[0] * np.exp(-rate * ts) * (1.0 + 1e-6) + 1e-15)

    def test_velocity_box_invariant_uncontrolled(self, monkeypatch):
        e = uniform_box_ensemble(40, 0.0, 1.0, 0.0, 1.0, seed=8)
        states = _recorded_states(monkeypatch)
        traj = integrate(PowerLawKernel(1.0, 1.0), e, ControlPlan(), 3.0, dt_max=0.01)
        assert len(states) == len(traj.samples)
        for s in states:
            assert s.v.min() >= -1e-9
            assert s.v.max() <= 1.0 + 1e-9

    def test_forward_backward_round_trip(self):
        k = PowerLawKernel(1.0, 1.0)
        e = uniform_box_ensemble(20, 0.0, 1.0, 0.0, 1.0, seed=10)
        traj = integrate(k, e, ControlPlan(), 1.0, dt_max=0.01)
        # integrate the reversed vector field with the shared right-hand side
        x, v = traj.final.x.copy(), traj.final.v.copy()
        w = e.w
        dt = -0.01
        cur = Ensemble(x=x, v=v, w=w)
        def rhs(e):
            return e.v, interaction_field(k, e.x, e.v, e.w)

        for _ in range(100):
            k1x, k1v = rhs(cur)
            mid1 = Ensemble(x=cur.x + 0.5 * dt * k1x, v=cur.v + 0.5 * dt * k1v, w=w)
            k2x, k2v = rhs(mid1)
            mid2 = Ensemble(x=cur.x + 0.5 * dt * k2x, v=cur.v + 0.5 * dt * k2v, w=w)
            k3x, k3v = rhs(mid2)
            end = Ensemble(x=cur.x + dt * k3x, v=cur.v + dt * k3v, w=w)
            k4x, k4v = rhs(end)
            cur = Ensemble(
                x=cur.x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
                v=cur.v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v),
                w=w,
            )
        assert np.abs(cur.x - e.x).max() < 1e-6
        assert np.abs(cur.v - e.v).max() < 1e-6

    def test_nonfinite_state_raises(self):
        from flockctrl import IntegrationError

        e = Ensemble.from_points([0.0], [1e308])
        with pytest.raises(IntegrationError):
            integrate(PowerLawKernel(), e, ControlPlan(), 400.0, dt_max=1.0)

    def test_nan_position_raises(self):
        # the exponential field on the line sorts positions; a NaN sorts last
        from flockctrl import ExponentialKernel, IntegrationError

        e = Ensemble.from_points([0.0, math.nan, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(IntegrationError):
            integrate(ExponentialKernel(), e, ControlPlan(), 0.1, dt_max=0.05)

    def test_boundary_alignment_samples(self):
        e = uniform_box_ensemble(10, 0.0, 1.0, 0.0, 1.0, seed=1)
        plan = ControlPlan(pieces=(_mass_piece(0.0, 0.37), _mass_piece(0.37, 0.61)))
        traj = integrate(PowerLawKernel(), e, plan, 1.0, dt_max=0.1)
        times = traj.columns.t.tolist()
        assert any(abs(t - 0.37) < 1e-15 for t in times)
        assert any(abs(t - 0.61) < 1e-15 for t in times)

    def test_barycenter_ode_matches_control_sum(self, monkeypatch):
        """d vbar / dt equals the weighted control force over omega."""
        k = PowerLawKernel(1.0, 1.0)
        e = uniform_box_ensemble(60, 0.0, 1.0, 0.0, 1.0, seed=3)
        piece = _mass_piece(0.0, 0.2, vbar=0.5, alpha=0.1, beta=0.1,
                            x_lo=-0.5, x_hi=1.5, eps=0.2)
        plan = ControlPlan(pieces=(piece,))
        dt = 0.002
        states = _recorded_states(monkeypatch)
        traj = integrate(k, e, plan, 0.2, dt_max=dt)
        samples = traj.samples
        for i in range(0, len(samples) - 2, 10):
            a, mid, b = samples[i], samples[i + 1], samples[i + 2]
            fd = (b.metrics.vbar[0] - a.metrics.vbar[0]) / (b.t - a.t)
            s = states[i + 1]
            force = piece.force(s.x, s.v, mid.t)
            inst = float(s.w @ force[:, 0])
            assert abs(fd - inst) < 50.0 * dt * dt + 1e-8 + 0.05 * abs(inst) + 1e-4


class TestFiniteDimIntegrate:
    def test_matches_measure_pathway_bitwise(self):
        k = PowerLawKernel(1.0, 1.0)
        rng = np.random.default_rng(5)
        x0 = rng.uniform(0, 1, size=(30, 1))
        v0 = rng.uniform(0, 1, size=(30, 1))
        e = Ensemble(x=x0, v=v0, w=np.full(30, 1.0 / 30))
        plan = ControlPlan(pieces=(_mass_piece(0.0, 0.5, vbar=0.5),))
        t1 = integrate(k, e, plan, 1.0, dt_max=0.01)
        t2 = integrate(k, Ensemble.from_points(x0, v0), plan, 1.0, dt_max=0.01)
        np.testing.assert_array_equal(t1.final.x, t2.final.x)
        np.testing.assert_array_equal(t1.final.v, t2.final.v)


def _synthetic_traj(ts, vs):
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    zeros, axis_zeros = np.zeros(ts.size), np.zeros((ts.size, 1))
    columns = SampleColumns(
        t=ts, Y=axis_zeros, W=2.0 * vs[:, None], x_shift=axis_zeros, v_shift=axis_zeros,
        xbar=axis_zeros, vbar=axis_zeros, X=zeros, V=vs, Lambda=vs * vs,
        mass=zeros, area=zeros, u_sup=zeros, piece=np.full(ts.size, -1),
    )
    final = Ensemble.from_points([0.0], [0.0])
    return Trajectory(columns, final)


class TestDecayRate:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 3.0, 40)
        traj = _synthetic_traj(ts, np.exp(-2.0 * ts))
        assert decay_rate_estimate(traj) == pytest.approx(2.0, rel=1e-9)

    def test_flocked_returns_zero(self):
        ts = np.linspace(0.0, 1.0, 5)
        traj = _synthetic_traj(ts, np.zeros_like(ts))
        assert decay_rate_estimate(traj) == 0.0

    def test_insufficient_samples(self):
        traj = _synthetic_traj([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            decay_rate_estimate(traj)


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _column_case(name):
    """(ensemble, plan, horizon): a 2-D mass-band plan, a space-band plan, no plan."""
    if name == "mass_band":
        e = uniform_box_ensemble(30, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], seed=11)
        params = {"x_lo": -0.5, "x_hi": 1.5, "alpha": 0.1, "beta": 0.1, "eps": 0.2}
        pieces = tuple(
            ControlPiece(t_start=a, t_end=b, kind="mass_band", axis=1, t_ref=0.0,
                         x_shift=0.0, v_shift=0.0, params=dict(params, vbar=vbar))
            for a, b, vbar in ((0.0, 0.07, 0.5), (0.07, 0.15, 0.45))
        )
        return e, ControlPlan(pieces=pieces), 0.2
    e = uniform_box_ensemble(30, 0.0, 1.0, 0.0, 1.0, seed=12)
    if name == "space_band":
        piece = ControlPiece(t_start=0.0, t_end=0.13, kind="space_band", axis=0, t_ref=0.0,
                             x_shift=0.0, v_shift=0.0,
                             params={"eps": 0.1, "y0": 1.0, "w0": 0.9})
        return e, ControlPlan(pieces=(piece,)), 0.2
    return e, ControlPlan(), 0.2


COLUMN_CASES = ["mass_band", "space_band", "empty"]


class TestSampleColumns:
    @pytest.mark.parametrize("case", COLUMN_CASES)
    def test_rows_match_recomputation_on_each_sample(self, case, monkeypatch):
        e, plan, horizon = _column_case(case)
        states = _recorded_states(monkeypatch)
        traj = integrate(PowerLawKernel(1.0, 1.0), e, plan, horizon, dt_max=0.01)
        times = traj.columns.t
        assert len(traj.samples) > 16  # the log grew past its first allocation
        assert len(states) == len(traj.samples)
        for i, row in enumerate(traj.samples):
            s = states[i]
            m, box = flocking_metrics(s), support_box(s)
            assert _bits(row.t, row.metrics.X, row.metrics.V, row.metrics.Lambda,
                         row.metrics.xbar, row.metrics.vbar) == _bits(
                times[i], m.X, m.V, m.Lambda, m.xbar, m.vbar)
            assert _bits(row.box.y, row.box.w, row.box.x_shift, row.box.v_shift) == _bits(
                box.y, box.w, box.x_shift, box.v_shift)
            # a sample is audited against the piece of the step that led to it
            idx = plan.piece_index_at(times[max(i - 1, 0)])
            assert row.piece_index == idx
            if idx < 0:
                audit = (0.0, 0.0, 0.0)
            else:
                piece = plan.pieces[idx]
                audit = (
                    float(s.w[piece.in_omega(s.x, s.v, row.t)].sum()),
                    piece.omega_volume(),
                    float(np.abs(piece.force_axis(s.x, s.v, row.t)).max()),
                )
            assert _bits(row.mass_in_omega, row.omega_volume, row.u_sup) == _bits(*audit)
        if plan.pieces:
            assert traj.columns.u_sup.max() > 0.0 and traj.columns.mass.max() > 0.0

    @pytest.mark.parametrize("case", COLUMN_CASES)
    def test_shared_force_leaves_the_state_unchanged(self, case, monkeypatch):
        # strides change which first RK4 stages reuse an audit's force
        e, plan, horizon = _column_case(case)

        def final(stride):
            return integrate(PowerLawKernel(1.0, 1.0), e, plan, horizon, dt_max=0.01,
                             sample_stride=stride).final

        finals = [final(stride) for stride in (1, 3, 7)]
        record = Trajectory.record

        def record_without_sharing(self, *args):
            record(self, *args)  # the next step evaluates its first stage itself

        monkeypatch.setattr(Trajectory, "record", record_without_sharing)
        reference = final(1)
        for f in finals:
            assert _bits(f.x, f.v) == _bits(reference.x, reference.v)

    @pytest.mark.parametrize("case", COLUMN_CASES)
    def test_a_flight_that_continues_a_log_records_only_its_new_rows(self, case):
        k = PowerLawKernel(1.0, 1.0)
        e, plan, horizon = _column_case(case)
        alone = integrate(k, e, plan, horizon, dt_max=0.01)
        log = integrate(k, e, ControlPlan(), 0.05, dt_max=0.01, t0=-0.05)
        log = Trajectory(SampleColumns(*(c.copy() for c in log.columns)), e)
        before = log.columns.t.size
        # e stands in for the state the log ends in, at the time of its last row
        flight = integrate(k, e, plan, horizon, dt_max=0.01, log=log, piece_offset=3)
        assert log.columns.t.size == before + alone.columns.t.size - 1
        assert flight.columns.t.size == alone.columns.t.size - 1
        assert log.final is flight.final
        assert _bits(flight.final.x, flight.final.v) == _bits(alone.final.x, alone.final.v)
        for name in SampleColumns._fields:
            new, ref = getattr(flight.columns, name), getattr(alone.columns, name)[1:]
            if name == "piece":
                ref = np.where(ref >= 0, ref + 3, -1)
            assert _bits(new) == _bits(ref), name
            assert _bits(getattr(log.columns, name)[before:]) == _bits(new), name
        # the first state's row stays the log's; only its audit is the flight's
        o = flight.opening
        first = alone.columns
        assert _bits(o.mass, o.area, o.u_sup) == _bits(first.mass[0], first.area[0],
                                                      first.u_sup[0])
        assert alone.opening is None

    def test_samples_are_a_read_only_sequence(self):
        e, plan, horizon = _column_case("space_band")
        traj = integrate(PowerLawKernel(1.0, 1.0), e, plan, horizon, dt_max=0.01)
        rows = traj.samples
        assert len(rows) == traj.columns.t.size
        assert all(isinstance(r, TrajectorySample) for r in rows)
        assert [r.t for r in rows] == traj.columns.t.tolist()
        assert rows[-1].t == rows[len(rows) - 1].t == traj.columns.t[-1]
        assert [r.t for r in rows[::5]] == traj.columns.t[::5].tolist()
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(TypeError):
            rows[0] = rows[1]
        with pytest.raises(AttributeError):
            traj.samples = []
        with pytest.raises(ValueError):
            traj.columns.W[0, 0] = 0.0

    def test_extend_drops_the_repeated_first_sample(self):
        k = PowerLawKernel(1.0, 1.0)
        e, plan, horizon = _column_case("space_band")
        a = integrate(k, e, plan, horizon, dt_max=0.01)
        b = integrate(k, a.final, ControlPlan(), 0.3, dt_max=0.01, t0=a.columns.t[-1])
        joined = a.extend(b)
        assert len(joined.samples) == len(a.samples) + len(b.samples) - 1
        for name, col in zip(joined.columns._fields, joined.columns):
            expected = np.concatenate([getattr(a.columns, name), getattr(b.columns, name)[1:]])
            assert _bits(col) == _bits(expected), name
        assert joined.final is b.final

    def test_extend_allocates_exactly_the_joined_rows(self):
        k = PowerLawKernel(1.0, 1.0)
        e, plan, horizon = _column_case("mass_band")
        a = integrate(k, e, plan, horizon, dt_max=0.01)
        b = integrate(k, a.final, ControlPlan(), 0.3, dt_max=0.01, t0=a.columns.t[-1])
        joined = a.extend(b)
        rows = a.columns.t.size + b.columns.t.size - 1
        for name, col in zip(joined.columns._fields, joined.columns):
            assert col.shape[0] == col.base.shape[0] == rows, name

    def test_a_row_not_after_the_last_is_refused_where_it_enters(self):
        e, plan, horizon = _column_case("empty")
        log = Trajectory.empty(e)
        log.record(1.0, e.x, e.v, e.w, None, -1)
        for t in (1.0, 0.5):
            with pytest.raises(ValueError, match="strictly increasing"):
                log.record(t, e.x, e.v, e.w, None, -1)
        assert log.columns.t.tolist() == [1.0]

    def test_extend_drops_a_repeat_and_refuses_a_row_not_after_the_last(self):
        first = _synthetic_traj([0.0, 1.0], [1.0, 1.0])
        # a first row within the tolerance of the last is a repeat and dropped;
        # one before it, or a row after the repeat that is not later, is refused
        for times in ([0.5, 2.0], [1.0 - 1e-13, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                first.extend(_synthetic_traj(times, [1.0, 1.0]))
        for times in ([1.0, 2.0], [1.0 + 1e-13, 2.0]):
            assert first.extend(_synthetic_traj(times, [1.0, 1.0])).columns.t.tolist() == [
                0.0, 1.0, 2.0]
        assert first.extend(_synthetic_traj([], [])).columns.t.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("entry", ["integrate", "fundamental_step"])
    def test_a_log_that_ends_at_the_start_in_another_state_is_refused(self, entry):
        k = PowerLawKernel(1.0, 1.0)
        e = uniform_box_ensemble(20, 0.0, 1.0, 0.0, 1.0, seed=12)
        other = uniform_box_ensemble(20, 0.0, 1.0, 2.0, 3.0, seed=13)
        log = Trajectory.empty(e)
        log.record(0.0, e.x, e.v, e.w, None, -1)
        rows = log.columns.t.size
        fly = {
            "integrate": lambda start: integrate(k, start, ControlPlan(), 0.05, dt_max=0.01,
                                                 log=log),
            "fundamental_step": lambda start: fundamental_step(k, start, MassBudget(0.5),
                                                               log=log),
        }[entry]
        with pytest.raises(ValueError, match="another state"):
            fly(other)
        assert log.columns.t.size == rows and log.final is e
        # a bit-equal copy of the state the log ends in is that state
        fly(Ensemble(x=e.x.copy(), v=e.v.copy(), w=e.w))
        assert log.columns.t.size > rows


class TestFlightCap:
    def test_counts_the_steps_integrate_takes(self, monkeypatch):
        from flockctrl import dynamics

        e, plan, horizon = _column_case("mass_band")
        steps = []
        rk4 = dynamics._rk4_segment

        def counting(*args):
            steps.append(args[5])
            return rk4(*args)

        monkeypatch.setattr(dynamics, "_rk4_segment", counting)
        integrate(PowerLawKernel(1.0, 1.0), e, plan, horizon, dt_max=0.004)
        assert sum(seg[3] for seg in flight_segments(plan, horizon, 0.004)) == len(steps)

    @pytest.mark.parametrize(
        "horizon, dt_max, named",
        [(1e9, None, "100000000000"), (1e300, 1e-300, "inf"),
         (MAX_FLIGHT_STEPS * 0.01 + 0.01, None, str(MAX_FLIGHT_STEPS + 1))],
        ids=["long_horizon", "overflowing_count", "one_past_the_cap"],
    )
    def test_a_flight_past_the_cap_raises_before_its_first_step(
        self, monkeypatch, horizon, dt_max, named
    ):
        from flockctrl import dynamics

        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(dynamics, "_rk4_segment", no_step)
        e = uniform_box_ensemble(5, 0.0, 1.0, 0.0, 1.0, seed=1)
        with pytest.raises(FlightTooLongError, match=f"needs {named} RK4 steps"):
            integrate(PowerLawKernel(1.0, 1.0), e, ControlPlan(), horizon, dt_max=dt_max)

    def test_the_cap_itself_is_allowed(self):
        segments = flight_segments(ControlPlan(), MAX_FLIGHT_STEPS * 0.01 - 0.005)
        assert sum(seg[3] for seg in segments) == MAX_FLIGHT_STEPS

    def test_a_piece_with_a_tiny_dt_counts_past_the_cap(self):
        piece = ControlPiece(t_start=0.0, t_end=0.1, kind="space_band", axis=0, t_ref=0.0,
                             x_shift=0.0, v_shift=0.0,
                             params={"eps": 0.1, "y0": 1.0, "w0": 0.9}, dt=1e-12)
        with pytest.raises(FlightTooLongError) as info:
            flight_segments(ControlPlan(pieces=(piece,)), 0.1)
        assert info.value.steps == pytest.approx(1e11)


def _reference_to_csv(traj, path):
    """Trajectory.to_csv as it was before it wrote in chunks: every row's text at once."""
    c = traj.columns
    d = traj.final.d
    header = ["t"]
    header += [f"Y_{j}" for j in range(d)]
    header += [f"a_{j}" for j in range(d)]
    header += [f"W_{j}" for j in range(d)]
    header += ["X", "V", "Lambda"]
    header += [f"vbar_{j}" for j in range(d)]
    header += ["mass_in_omega", "omega_volume", "u_sup", "piece_index"]
    cols = [c.t, *c.Y.T, *c.v_shift.T, *c.W.T, c.X, c.V, c.Lambda, *c.vbar.T,
            c.mass, c.area, c.u_sup]
    text = [map(repr, col.tolist()) for col in cols]
    text.append(map(str, c.piece.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines([",".join(row) + "\r\n" for row in zip(*text)])


def _random_traj(rows, d, seed=0):
    """A trajectory of ``rows`` samples whose values take every length of repr."""
    rng = np.random.default_rng(seed)

    def values(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)

    columns = SampleColumns(
        t=np.arange(rows) * 0.1, Y=values(rows, d), W=values(rows, d),
        x_shift=values(rows, d), v_shift=values(rows, d), xbar=values(rows, d),
        vbar=values(rows, d), X=values(rows), V=values(rows), Lambda=values(rows),
        mass=values(rows), area=values(rows), u_sup=values(rows),
        piece=rng.integers(-1, 5000, rows),
    )
    return Trajectory(columns, Ensemble.from_points(np.zeros((1, d)), np.zeros((1, d))))


class TestToCsv:
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 5000])
    @pytest.mark.parametrize("d", [1, 2])
    def test_bytes_match_the_whole_text_writer(self, tmp_path, rows, d):
        traj = _random_traj(rows, d, seed=rows)
        traj.to_csv(tmp_path / "chunked.csv")
        _reference_to_csv(traj, tmp_path / "whole.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_a_long_trajectory_is_written_in_small_memory(self, tmp_path):
        traj = _random_traj(100_000, 1)
        peaks = []
        for write in (Trajectory.to_csv, _reference_to_csv):
            tracemalloc.start()
            try:
                write(traj, tmp_path / "t.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 4 * 2**20 < 30 * 2**20 < peaks[1]
