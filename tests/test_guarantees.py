"""The paper's guarantees, on random small syntheses of either budget.

Each instance draws at most 20 weighted particles in dimension 1 or 2, a
power-law or exponential kernel, a budget c in [0.1, 2] and a step budget of
at most 300.  Its run either fails with a named error (an exhausted step
budget, or a measure no synthesis applies to), or its synthesis ends
certified inside the flocking region, within the theorems' control-time and
spread bounds, with the budget and |u| <= 1 held at every sample, and a
replay of its plan.json reproduces its trajectory.csv byte for byte.  A run
that fails a run-time audit (ContractionError) or stops being finite fails
the test: on these instances the construction guarantees neither.

The audits check the RK4 flight, while the theorems speak of the exact flow,
so a few fixed plans are also replayed with a quarter of their step.
"""

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from flockctrl import (
    DegenerateMeasureError,
    StrategyBudgetError,
    StrategyFailure,
    replay_plan,
    run_scenario,
    support_box,
    validate_config,
)
from flockctrl.flocking import covering_box_test

_KERNELS = st.one_of(
    st.builds(lambda K, gamma: {"family": "power_law", "K": K, "gamma": gamma},
              st.floats(0.5, 2.0), st.floats(0.6, 2.0)),
    st.builds(lambda K, lam: {"family": "exponential", "K": K, "lam": lam},
              st.floats(0.5, 2.0), st.floats(0.5, 3.0)),
)


@st.composite
def _instances(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 20))
    mode = "volume" if d == 1 and draw(st.booleans()) else "mass"
    # a seeded cloud: positions in [0, x_high]^d, snapped to a grid of `cells`
    # per unit when that is not 0, so that atoms may coincide, and velocities
    # in [0, v_high]^d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_high, v_high = draw(st.floats(0.05, 1.0)), draw(st.floats(0.2, 1.0))
    cells = draw(st.sampled_from([0, 4, 64]))
    x = x_high * rng.uniform(0.0, 1.0, (n, d))
    if cells:
        x = np.round(x * cells) / cells
    v = v_high * rng.uniform(0.0, 1.0, (n, d))
    w = rng.uniform(0.2, 1.0, n)
    doc = {
        "schema_version": 1,
        "dimension": d,
        "kernel": draw(_KERNELS),
        "mode": mode,
        "c": draw(st.floats(0.1, 2.0)),
        "initial": {"kind": "explicit", "x": x.tolist(), "v": v.tolist(),
                    "w": (w / w.sum()).tolist()},
        "post_horizon": 0.0,
    }
    return doc, draw(st.integers(1, 300))


def _theorem_bounds(doc, e0):
    """(control time bound, spatial spread bound on axis 0), from the initial box."""
    Y0 = e0.x.max(axis=0) - e0.x.min(axis=0)
    W0 = e0.v.max(axis=0) - e0.v.min(axis=0)
    if doc["mode"] == "volume":  # theorem 6
        return W0[0], Y0[0] + W0[0] ** 2
    n = math.ceil(2.0 / doc["c"])
    if doc["dimension"] == 1:  # theorem 4
        return n * W0[0], Y0[0] + n * W0[0] ** 2
    return n * W0.sum(), math.inf  # theorem 5


# a step whose n slots once ended an ulp before its flight: the flight then
# recorded a free sample, and a replay of its plan one row fewer
_ULP_SHORT = {
    "schema_version": 1,
    "dimension": 2,
    "kernel": {"family": "power_law", "K": 1.0, "gamma": 1.0},
    "mode": "mass",
    "c": 0.375,
    "initial": {
        "kind": "explicit",
        "x": [[0.0, 0.0]] * 4 + [[0.5, 0.0]] * 4 + [[0.25, 0.0]] * 5
        + [[0.375, 0.0], [0.125, 0.0]] + [[0.0, 0.0]] * 4,
        "v": [[0.0, 0.0]] * 18 + [[0.15625, 0.0]],
        "w": [0.0625] * 14 + [0.03125] * 3 + [0.015625] * 2,
    },
    "post_horizon": 0.0,
}
# two atoms 6.25e-12 apart once made steps whose pieces (about 1e-12 long) the
# plan did not resolve: the synthesis flew them uncontrolled, and its samples
# came out of order or a replay differed
_CLOSE_ATOMS = [
    dict(_ULP_SHORT, c=0.875, kernel={"family": "power_law", "K": 1.0, "gamma": 0.75},
         initial={"kind": "explicit", "w": [0.2] * 5,
                  "x": [[0.0, 0.0], [0.0, 0.0], [0.0625, 0.0], [6.25e-12, 0.0], [0.0625, 0.0]],
                  "v": [[0.0, 0.0]] * 3 + [[0.375, 0.0], [0.0, 0.0]]}),
    dict(_ULP_SHORT, c=0.9375,
         initial={"kind": "explicit", "w": [4 / 15, 2 / 15, 4 / 15, 4 / 15, 1 / 15],
                  "x": [[0.0, 0.0]] * 2 + [[0.02734375, 0.0], [0.0546875, 0.0], [0.0, 0.0]],
                  "v": [[0.0, 0.0]] * 2 + [[0.375, 0.0]] + [[0.0, 0.0]] * 2}),
]


@given(instance=_instances())
# a fixed sample of instances keeps the suite reproducible
@settings(max_examples=60, deadline=None, derandomize=True)
@example(instance=(_ULP_SHORT, 4))
@example(instance=(_CLOSE_ATOMS[0], 142))
@example(instance=(_CLOSE_ATOMS[1], 180))
def test_a_synthesis_keeps_every_guarantee_or_raises_a_named_error(instance):
    doc, step_budget = instance
    with tempfile.TemporaryDirectory() as out:
        s = validate_config(json.dumps(dict(doc, step_budget=step_budget, out=out)))
        try:
            # no flight after control: the run ends where the synthesis does
            summary, traj, _ = run_scenario(s)
        except StrategyFailure as exc:
            cause = exc.__cause__
            if isinstance(cause, StrategyBudgetError):
                # the loop's own count, or the volume bound before the first step
                assert len(cause.records) in (step_budget, 0)
                event("step budget exhausted")
                return
            assert isinstance(cause, DegenerateMeasureError), exc
            event("no synthesis applies")
            return
        event(f"completed in {'no' if summary.steps == 0 else 'some'} steps")

        assert summary.verdict_after["in_region"]
        time_bound, spread_bound = _theorem_bounds(doc, s.ensemble)
        assert summary.total_control_time <= time_bound + 1e-9
        assert summary.terminal_box["Y"][0] <= spread_bound + 1e-6
        cols = traj.columns
        if s.mode == "mass":
            assert cols.mass.max() <= s.c + 2.0 * s.ensemble.w.max() + 1e-12
        else:
            assert cols.area.max() <= s.c
        assert cols.u_sup.max() <= 1.0 + 1e-12

        with open(os.path.join(out, "plan.json")) as fh:
            replay_plan(json.load(fh), s).to_csv(os.path.join(out, "replay.csv"))
        with open(os.path.join(out, "trajectory.csv"), "rb") as a, \
                open(os.path.join(out, "replay.csv"), "rb") as b:
            assert a.read() == b.read()


def _box_cloud(d, mode, n, v_high):
    """A uniform cloud in [0, 1]^d x [0, v_high]^d under the budget c = 1."""
    return {
        "schema_version": 1,
        "dimension": d,
        "kernel": {"family": "power_law", "K": 1.0, "gamma": 1.0},
        "mode": mode,
        "c": 1.0,
        "initial": {"kind": "uniform_box", "particles": n, "seed": 3, "x_low": [0.0] * d,
                    "x_high": [1.0] * d, "v_low": [0.0] * d, "v_high": [v_high] * d},
        "post_horizon": 0.0,
    }


# how far the finer flight may end from the synthesized one, in x and in v,
# on clouds in the unit box: the four plans below, a mass piece flown in one
# RK4 step, move by 8.2e-6, 9.2e-6, 9.2e-6 and 2.9e-5, and their certificate
# margins are 0.10 to 0.21
_FINER_FLIGHT_TOL = 1e-4


@pytest.mark.parametrize("doc", [
    _box_cloud(2, "mass", 400, 0.25),  # 83 steps, the benchmark's mass_2d size and budget
    _box_cloud(2, "mass", 20, 0.25),  # 76 steps
    _box_cloud(1, "mass", 20, 0.5),  # 42 steps
    _box_cloud(1, "volume", 30, 1.0),  # 116 steps
], ids=["mass_2d_400", "mass_2d", "mass_1d", "volume_1d"])
def test_a_certificate_survives_a_finer_flight(tmp_path, doc):
    s = validate_config(json.dumps(dict(doc, out=str(tmp_path))))
    _, traj, plan = run_scenario(s)
    with open(tmp_path / "plan.json") as fh:
        plan_doc = json.load(fh)
    dt = min(p.dt for p in plan.pieces)
    fine = replay_plan(plan_doc, dataclasses.replace(s, dt_max=dt / 4))
    cols = fine.columns
    # every piece flew at least four times as many steps as it was synthesized with
    assert cols.t.size >= 4 * (traj.columns.t.size - 1) + 1

    verdict, _ = covering_box_test(s.kernel, support_box(fine.final))
    assert verdict.in_region
    if s.mode == "mass":
        assert cols.mass.max() <= s.c + 2.0 * s.ensemble.w.max()
    else:
        assert cols.area.max() <= s.c
    assert np.abs(fine.final.x - traj.final.x).max() <= _FINER_FLIGHT_TOL
    assert np.abs(fine.final.v - traj.final.v).max() <= _FINER_FLIGHT_TOL
