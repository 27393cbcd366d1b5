"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test prints ``criterion N (<name>): PASS`` or ``FAIL`` so the gate can
be read off a plain ``pytest -s`` run.  The expensive strategy runs are
module-scoped fixtures shared between the criteria that audit them.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from flockctrl import (
    ControlPlan,
    Ensemble,
    ExponentialKernel,
    MassBudget,
    PowerLawKernel,
    VolumeBudget,
    complete_strategy,
    corollary2_test,
    decay_rate_estimate,
    flocking_metrics,
    integrate,
    interaction_field,
    inward_radii,
    run_scenario,
    support_box,
    theorem3_test,
    uniform_box_ensemble,
    validate_config,
    xi_eval,
)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            print(f"criterion {num:2d} ({name}): PASS")

        return wrapper

    return deco


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def free_runs():
    """20 seeded in-region ensembles integrated uncontrolled over horizon 20."""
    kernel = ExponentialKernel(1.0, 1.0)
    runs = []
    for seed in range(20):
        e = uniform_box_ensemble(200, 0.0, 1.0, 0.0, 0.1, seed=seed)
        verdict = theorem3_test(kernel, e)
        t0 = time.perf_counter()
        traj = integrate(kernel, e, ControlPlan(), 20.0, dt_max=0.01, sample_stride=10)
        wall = time.perf_counter() - t0
        runs.append((e, verdict, traj, wall))
    return kernel, runs


@pytest.fixture(scope="module")
def mass_desk():
    kernel = PowerLawKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(400, 0.0, 1.0, 0.0, 1.0, seed=7)
    t0 = time.perf_counter()
    res = complete_strategy(kernel, e0, MassBudget(0.5))
    wall = time.perf_counter() - t0
    return kernel, e0, res, wall


@pytest.fixture(scope="module")
def d2_desk():
    kernel = PowerLawKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(
        900, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], seed=11
    )
    t0 = time.perf_counter()
    res = complete_strategy(kernel, e0, MassBudget(0.5))
    wall = time.perf_counter() - t0
    return kernel, e0, res, wall


@pytest.fixture(scope="module")
def volume_desk():
    kernel = PowerLawKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(400, 0.0, 1.0, 0.0, 1.0, seed=7)
    t0 = time.perf_counter()
    res = complete_strategy(kernel, e0, VolumeBudget(1.0))
    wall = time.perf_counter() - t0
    return kernel, e0, res, wall


# ---------------------------------------------------------------- criteria


@criterion(1, "uncontrolled flocking certificate")
def test_criterion_01_free_flight_certificate(free_runs):
    kernel, runs = free_runs
    for e, verdict, traj, wall in runs:
        assert verdict.in_region
        assert verdict.margin >= 0.1 * verdict.threshold  # margin >= 10%
        x_m = verdict.X_M
        for s in traj.samples:
            assert s.metrics.X <= x_m * 1.001
        rate = decay_rate_estimate(traj)
        assert rate >= 0.9 * float(kernel.phi(2.0 * x_m))
        assert wall <= 10.0


@criterion(2, "uncontrolled monotonicity and mean conservation")
def test_criterion_02_monotone_v_and_conserved_mean(free_runs):
    _, runs = free_runs
    for e, _, traj, _ in runs:
        vs = traj.columns.V
        assert np.all(np.diff(vs) <= 1e-10)
        vbar0 = traj.samples[0].metrics.vbar
        for s in traj.samples:
            assert np.max(np.abs(s.metrics.vbar - vbar0)) <= 1e-10


@criterion(3, "restoring-field sign oracle")
def test_criterion_03_inward_radii_sign():
    kernels = [ExponentialKernel(1.0, 1.0), PowerLawKernel(1.0, 1.0)]
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        kernel = kernels[checked % 2]
        n = int(rng.integers(3, 12))
        e = Ensemble.from_points(rng.uniform(0.0, 2.0, n), rng.uniform(-1.0, 1.0, n))
        m = flocking_metrics(e)
        a_k = float(e.v.min())
        w_k = float(e.v.max()) - a_k
        vbar = float(m.vbar[0])
        r_plus, r_minus = inward_radii(kernel, m.X, a_k, w_k, vbar)
        qx = float(m.xbar[0]) + rng.uniform(-m.X, m.X)
        hi = a_k + w_k - vbar
        if r_plus < hi - 1e-9:
            qv = vbar + r_plus + (hi - r_plus) * rng.uniform(0.01, 1.0)
            xi = float(xi_eval(kernel, e, [qx], [qv])[0])
            assert xi * (qv - vbar) < 0.0
            checked += 1
        lo = vbar - a_k
        if r_minus < lo - 1e-9 and checked < 1000:
            qv = vbar - r_minus - (lo - r_minus) * rng.uniform(0.01, 1.0)
            xi = float(xi_eval(kernel, e, [qx], [qv])[0])
            assert xi * (qv - vbar) < 0.0
            checked += 1


@criterion(4, "mass-budget strategy, one-dimensional desk case")
def test_criterion_04_mass_strategy_1d(mass_desk):
    _, e0, res, wall = mass_desk
    box0 = support_box(e0)
    y0, w0 = float(box0.y[0]), float(box0.w[0])
    n = math.ceil(2.0 / 0.5)
    assert res.total_control_time <= w0 * n + 1e-3
    assert float(support_box(res.final).y[0]) <= y0 + n * w0 * w0 + 1e-3
    for r in res.records:
        assert r.W_after[0] <= r.W_before[0] - r.params.T0 / r.params.n + 1e-6
    max_w = float(e0.w.max())
    assert max(r.max_mass_in_omega for r in res.records) <= 0.5 + 2.0 * max_w
    assert wall <= 60.0


@criterion(5, "mass-budget strategy, two-dimensional phase order")
def test_criterion_05_mass_strategy_2d(d2_desk):
    _, e0, res, wall = d2_desk
    box0 = support_box(e0)
    n = math.ceil(2.0 / 0.5)
    assert res.total_control_time <= n * float(box0.w.sum()) + 1e-3
    # once the first axis finishes, its velocity extent stays below eta
    t0_done = max(r.t_end for r in res.records if r.params.axis == 0)
    assert any(r.params.axis == 1 for r in res.records)
    for s in res.trajectory.samples:
        if s.t >= t0_done:
            assert s.box.w[0] <= res.eta + 1e-6
    assert wall <= 300.0


@criterion(6, "volume-budget strategy desk case")
def test_criterion_06_volume_strategy(volume_desk):
    _, e0, res, wall = volume_desk
    box0 = support_box(e0)
    y0, w0 = float(box0.y[0]), float(box0.w[0])
    assert max(r.max_omega_area for r in res.records) <= 1.0
    assert res.total_control_time <= w0 + 1e-3
    assert float(support_box(res.final).y[0]) <= y0 + w0 * w0 + 1e-3
    for r in res.records:
        assert r.W_after[0] <= r.W_before[0] - r.params.eps0 + 1e-6
    # a count no machine changes: 150 steps with each band on the velocity edge
    # farther from the barycenter, 1,334 with every band on the top edge
    assert len(res.records) <= 200
    assert wall <= 60.0


@criterion(7, "post-control certificate and decay")
def test_criterion_07_end_to_end(mass_desk, d2_desk, volume_desk):
    for kernel, _, res, _ in (mass_desk, d2_desk, volume_desk):
        box = support_box(res.final)
        x_tilde = 0.5 * float(np.linalg.norm(box.y))
        v_tilde = 0.5 * float(np.linalg.norm(box.w))
        verdict = corollary2_test(kernel, x_tilde, v_tilde)
        assert 2.0 * v_tilde <= 0.99 * verdict.threshold
        lam_off = flocking_metrics(res.final).Lambda
        post = integrate(
            kernel, res.final, ControlPlan(), 10.0, dt_max=0.01,
            t0=res.plan.t_end, sample_stride=10,
        )
        assert decay_rate_estimate(post) > 0.0
        assert post.samples[-1].metrics.Lambda <= 0.5 * lam_off


@criterion(8, "integrator reference and reversibility")
def test_criterion_08_integrator_oracle():
    kernel = PowerLawKernel(1.0, 1.0)
    e0 = Ensemble.from_points([0.0, 1.0], [0.3, -0.2])
    coarse = integrate(kernel, e0, ControlPlan(), 10.0, dt_max=0.01)
    fine = integrate(kernel, e0, ControlPlan(), 10.0, dt_max=0.001)
    dev = max(
        float(np.max(np.abs(coarse.final.x - fine.final.x))),
        float(np.max(np.abs(coarse.final.v - fine.final.v))),
    )
    assert dev <= 1e-8

    # round trip: integrate the same vector field with a negative step
    def rhs(e):
        return e.v, interaction_field(kernel, e.x, e.v, e.w)

    fwd = integrate(kernel, e0, ControlPlan(), 1.0, dt_max=0.01)
    cur, w, dt = fwd.final, e0.w, -0.01
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
    assert float(np.max(np.abs(cur.x - e0.x))) <= 1e-6
    assert float(np.max(np.abs(cur.v - e0.v))) <= 1e-6


@criterion(9, "measure pathway matches the agent ODE system")
def test_criterion_09_finite_dim_consistency():
    kernel = ExponentialKernel(1.0, 1.0)
    e0 = uniform_box_ensemble(60, 0.0, 0.3, 0.0, 0.3, seed=5)
    res = complete_strategy(kernel, e0, MassBudget(0.5))
    kinetic = integrate(kernel, e0, res.plan, res.plan.t_end, dt_max=None)
    # the N-agent ODE system, coupled with equal weights 1/N
    agents = integrate(
        kernel, Ensemble.from_points(e0.x, e0.v), res.plan, res.plan.t_end, dt_max=None
    )
    np.testing.assert_array_equal(kinetic.final.x, agents.final.x)
    np.testing.assert_array_equal(kinetic.final.v, agents.final.v)


@criterion(10, "byte-identical artifacts on repeated runs")
def test_criterion_10_determinism(tmp_path):
    doc = {
        "schema_version": 1,
        "dimension": 1,
        "mode": "mass",
        "c": 0.5,
        "kernel": {"family": "exponential", "K": 1.0, "lam": 1.0},
        "initial": {
            "kind": "uniform_box",
            "particles": 60,
            "seed": 5,
            "x_low": 0.0,
            "x_high": 0.3,
            "v_low": 0.0,
            "v_high": 0.3,
        },
        "post_horizon": 2.0,
    }
    for out in ("a", "b"):
        run_scenario(validate_config(json.dumps(dict(doc, out=str(tmp_path / out)))))
    for name in ("trajectory.csv", "summary.json", "plan.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_volume_step_bound_is_at_most_the_desk_case_steps(volume_desk):
    from flockctrl.control_space import min_space_steps

    kernel, e0, res, _ = volume_desk
    bound = min_space_steps(kernel, float(support_box(e0).w[0]), res.eta, 1.0)
    assert 0.0 < bound <= len(res.records)
