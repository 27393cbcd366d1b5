"""Scenario validation, orchestration, artifacts, replay, and CLI exit codes."""

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from flockctrl import (
    ConfigError,
    ControlPlan,
    ExponentialKernel,
    MassBudget,
    Scenario,
    VolumeBudget,
    complete_strategy,
    integrate,
    replay_plan,
    run_scenario,
    uniform_box_ensemble,
    validate_config,
)
from flockctrl.cli import main as cli_main
from flockctrl.dynamics import ControlPiece
from flockctrl.runner import _parse_plan, _write_json, dump_json

# the end of the message that refuses a certified threshold past the largest double
_NO_ETA = "is past the largest double: no eta is certified"

MINIMAL = {
    "schema_version": 1,
    "dimension": 1,
    "mode": "none",
    "kernel": {"family": "exponential", "K": 1.0, "lam": 1.0},
    "initial": {
        "kind": "uniform_box",
        "particles": 40,
        "seed": 3,
        "x_low": 0.0,
        "x_high": 0.5,
        "v_low": 0.0,
        "v_high": 0.1,
    },
    "horizon": 5.0,
}

MASS_SMALL = {
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
    "post_horizon": 3.0,
}

VOLUME_SMALL = dict(
    MASS_SMALL,
    mode="volume",
    c=1.0,
    initial=dict(MASS_SMALL["initial"], particles=40),
)

# a volume cloud whose barycenter sits near the top edge, so that its steps
# act on the bottom edge
VOLUME_HIGH = {
    "schema_version": 1,
    "dimension": 1,
    "mode": "volume",
    "c": 1.0,
    "kernel": {"family": "power_law", "K": 1.0, "gamma": 1.0},
    "initial": {"kind": "explicit", "x": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25],
                "v": [0.0, 0.2, 0.24, 0.26, 0.28, 0.3]},
    "eta": 0.25,
    "post_horizon": 0.5,
}
# the plan.json of VOLUME_HIGH written when every volume step acted on the top
# edge (8 pieces, none with a sign), and the sha256 of the trajectory.csv its
# replay wrote then
PLAN_BEFORE_SIGN = Path(__file__).parent / "data" / "volume_plan_before_sign.json"
PLAN_BEFORE_SIGN_REPLAY_SHA256 = "c3d70ba82609b204474fc2c183eebb5c894a4ba888ba9113333bf3e685cd17af"

# the plan.json of MASS_TWO_RK4 written when a mass piece flew two RK4 steps
# (24 pieces, each with dt half its length), and the sha256 of the
# trajectory.csv its replay wrote then
MASS_TWO_RK4 = dict(MASS_SMALL, initial=dict(MASS_SMALL["initial"], particles=20), eta=0.2,
                    post_horizon=0.5)
PLAN_TWO_RK4 = Path(__file__).parent / "data" / "mass_plan_two_rk4.json"
PLAN_TWO_RK4_REPLAY_SHA256 = "f89a571006c06da450ca9e63a098c2dfa6fbe7c7463f393872b5ae1b4ec24140"

MASS_2D_SMALL = dict(
    MASS_SMALL,
    dimension=2,
    initial=dict(MASS_SMALL["initial"], particles=40, x_low=[0.0, 0.0], x_high=[0.2, 0.2],
                 v_low=[0.0, 0.0], v_high=[0.2, 0.2]),
)

# a plan document with one valid piece; the replay probes below break it
GOOD_PIECE = {
    "t_start": 0.0, "t_end": 0.1, "kind": "mass_band", "axis": 0, "t_ref": 0.0,
    "x_shift": 0.0, "v_shift": 0.0, "dt": 0.05,
    "params": {"x_lo": 0.0, "x_hi": 0.3, "vbar": 0.15, "alpha": 0.01, "beta": 0.02,
               "eps": 0.01},
}


def _plan_doc(drop=(), **changes):
    piece = {k: v for k, v in dict(GOOD_PIECE, **changes).items() if k not in drop}
    return {"schema_version": 1, "dimension": 1, "plan": {"pieces": [piece]}}


def _scenario(doc):
    return validate_config(json.dumps(doc))


def _count_rk4_steps(monkeypatch):
    """A list that gets the start time of every RK4 step taken."""
    from flockctrl import dynamics

    steps = []
    rk4 = dynamics._rk4_segment

    def counting(*args):
        steps.append(args[5])
        return rk4(*args)

    monkeypatch.setattr(dynamics, "_rk4_segment", counting)
    return steps


class TestValidateConfig:
    def test_minimal_with_defaults(self):
        s = _scenario(MINIMAL)
        assert s.mode == "none"
        assert s.safety_factor == 0.99
        assert s.step_budget == 100_000
        assert s.post_horizon == 10.0
        assert s.c is None

    def test_zero_budget_rejected_in_mass_mode(self):
        doc = dict(MINIMAL, mode="mass", c=0.0)
        with pytest.raises(ConfigError, match="budget"):
            _scenario(doc)

    def test_missing_kernel(self):
        doc = {k: v for k, v in MINIMAL.items() if k != "kernel"}
        with pytest.raises(ConfigError, match="kernel"):
            _scenario(doc)

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            _scenario(dict(MINIMAL, frobnicate=1))

    def test_unknown_initial_key(self):
        doc = dict(MINIMAL, initial=dict(MINIMAL["initial"], extra=1))
        with pytest.raises(ConfigError, match="initial-measure keys"):
            _scenario(doc)

    def test_volume_mode_is_one_dimensional(self):
        doc = dict(MINIMAL, mode="volume", c=1.0, dimension=2)
        with pytest.raises(ConfigError, match="one-dimensional"):
            _scenario(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            _scenario(dict(MINIMAL, schema_version=2))

    def test_errors_aggregate(self):
        doc = dict(MINIMAL, schema_version=2, mode="mass", safety_factor=2.0)
        with pytest.raises(ConfigError) as exc_info:
            _scenario(doc)
        assert len(exc_info.value.errors) >= 3

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            validate_config("{nope")

    # json.dumps writes float("nan") and float("inf") as NaN and Infinity,
    # which json.loads accepts
    def test_nan_eta_rejected(self):
        with pytest.raises(ConfigError, match="eta must be a positive finite"):
            _scenario(dict(MASS_SMALL, eta=float("nan")))

    def test_nan_budget_rejected(self):
        with pytest.raises(ConfigError, match="c must be a finite number"):
            _scenario(dict(MASS_SMALL, c=float("nan")))

    def test_nan_dt_max_rejected(self):
        with pytest.raises(ConfigError, match="dt_max must be a positive finite"):
            _scenario(dict(MINIMAL, dt_max=float("nan")))

    def test_infinite_post_horizon_rejected(self):
        with pytest.raises(ConfigError, match="post_horizon must be a nonnegative finite"):
            _scenario(dict(MASS_SMALL, post_horizon=float("inf")))

    def test_boolean_dimension_rejected(self):
        with pytest.raises(ConfigError, match="dimension must be a positive integer"):
            _scenario(dict(MINIMAL, dimension=True))

    def test_non_string_out_rejected(self):
        with pytest.raises(ConfigError, match="out must be a string"):
            _scenario(dict(MINIMAL, out=5))

    def test_out_under_a_regular_file_rejected(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ConfigError, match="not a directory"):
            _scenario(dict(MINIMAL, out=str(blocker / "deeper" / "out")))
        s = _scenario(MINIMAL)
        with pytest.raises(ConfigError, match="not a directory"):
            run_scenario(s, out_dir=str(blocker))
        assert _scenario(dict(MINIMAL, out=str(tmp_path / "new" / "out"))).out
        for name in ("", "a\0b"):
            with pytest.raises(ConfigError, match="not a directory name"):
                _scenario(dict(MINIMAL, out=name))

    def test_initial_measure_is_built_once(self, monkeypatch):
        from flockctrl import runner

        built = []
        build = runner._build_initial

        def counting(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(runner, "_build_initial", counting)
        s = _scenario(MINIMAL)
        assert s.build_ensemble() is s.build_ensemble()
        run_scenario(s)
        assert len(built) == 1


# the sha256 of each artifact these runs wrote before their flights recorded
# straight into the run's log (the free flight's: before the log's rows came
# in only through Trajectory.record); VOLUME_SMALL's pieces take both signs
PINNED_ARTIFACTS = {
    "free_flight": (MINIMAL, {
        "trajectory.csv": "0003e3d43d82cce97af6ffad27fd7fc94c6d0d781174203708dbb62abaac4301",
        "summary.json": "7a8b3a5170e0381e6e08d0b9c410ffcb4e9ff54e8d5d67d0af518bbeb345937f",
        "plan.json": "8407dbec99cade0f4e3604ee7c54ebfed58a86598abf5f59a3f8da8ccb58942b",
    }),
    "mass_2d": (MASS_2D_SMALL, {
        "trajectory.csv": "2f6b4410a3d4d357b1b42bf5b533089cf1edfd388e311af462a07fb9c7c1294e",
        "summary.json": "0cca7bcbc13fd639554da0e246a18e683f5e7397e6126e5d103c06307116632b",
        "plan.json": "c06c5e0f50b2cf11c999a9a552f873e86f1743f02c92684fecfa65326b07f4d5",
    }),
    "volume": (VOLUME_SMALL, {
        "trajectory.csv": "73194e4ef7ee79c1efb4196c5524f0ab7ccd3b2692b5d4dcd55132b2020e1402",
        "summary.json": "511d20aaf9471946be3be8b21573fd15fc1d9d9e6cd84eca273e4761fd13baf3",
        "plan.json": "0e266a7992b5d8d5a40a7af505108d5c3101affa0960d539881f521fe3d785d9",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_a_synthesis_writes_its_pinned_artifacts(tmp_path, name):
    doc, pinned = PINNED_ARTIFACTS[name]
    _, _, plan = run_scenario(_scenario(dict(doc, out=str(tmp_path))))
    if name == "volume":
        assert {p.sign for p in plan.pieces} == {1.0, -1.0}
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in pinned}
    assert got == pinned


@pytest.mark.parametrize("doc", [MASS_SMALL, VOLUME_SMALL], ids=["mass", "volume"])
def test_a_dt_max_above_every_piece_step_leaves_the_plan_alone(tmp_path, doc):
    plans = []
    for extra in ({}, {"dt_max": 10.0}):
        out = tmp_path / str(len(plans))
        run_scenario(_scenario(dict(doc, out=str(out), **extra)))
        plans.append((out / "plan.json").read_bytes())
    assert plans[0] == plans[1]


class TestRunScenario:
    def test_mode_none_in_region(self, tmp_path):
        s = _scenario(dict(MINIMAL, out=str(tmp_path)))
        summary, traj, plan = run_scenario(s)
        assert summary.steps == 0
        assert summary.total_control_time == 0.0
        assert summary.verdict_before["in_region"]
        assert summary.decay_rate > 0.0
        assert summary.success
        assert plan.pieces == ()
        for name in ("trajectory.csv", "summary.json", "plan.json"):
            assert (tmp_path / name).exists()

    def test_mass_on_flocked_input_takes_no_steps(self):
        doc = dict(MASS_SMALL)
        doc["initial"] = dict(doc["initial"], v_low=0.1, v_high=0.1)
        summary, _, plan = run_scenario(_scenario(doc))
        assert summary.steps == 0
        assert plan.pieces == ()
        assert summary.success

    def test_mass_run_certifies_and_audits(self, tmp_path):
        s = _scenario(dict(MASS_SMALL, out=str(tmp_path)))
        summary, traj, plan = run_scenario(s)
        assert summary.steps > 0
        assert summary.verdict_after["in_region"]
        assert summary.success
        assert summary.worst_audits["max_u_sup"] <= 1.0 + 1e-12
        assert summary.worst_audits["max_mass_in_omega"] <= 0.5 + 2.0 / 60 + 1e-12
        # velocity spread halves after control switches off and free flight
        assert summary.lambda_final <= summary.lambda_at_control_off + 1e-12

    def test_dimension_mismatch_is_config_error(self):
        doc = dict(MINIMAL, dimension=2)
        with pytest.raises(ConfigError, match="dimension"):
            run_scenario(_scenario(doc))

    @pytest.mark.parametrize(
        "doc", [MASS_SMALL, VOLUME_SMALL, MINIMAL], ids=["mass", "volume", "none"]
    )
    def test_artifacts_are_deterministic(self, tmp_path, doc):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(_scenario(dict(doc, out=str(a))))
        run_scenario(_scenario(dict(doc, out=str(b))))
        for name in ("trajectory.csv", "summary.json", "plan.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_a_controlled_run_returns_its_synthesis_log(self, monkeypatch, tmp_path):
        from flockctrl import runner

        logs, strategy = [], runner.complete_strategy

        def keeping(*args, **kwargs):
            res = strategy(*args, **kwargs)
            logs.append((res.trajectory, res.trajectory.columns.t.size))
            return res

        monkeypatch.setattr(runner, "complete_strategy", keeping)
        s = _scenario(dict(VOLUME_SMALL, post_horizon=0.5, out=str(tmp_path)))
        summary, traj, plan = run_scenario(s)
        [(log, rows)] = logs
        # the post-control flight went into the synthesis log, not into a copy of it
        assert summary.steps > 0 and traj is log
        assert traj.columns.t.size > rows and traj.columns.t[rows - 1] == plan.t_end

    def test_neither_a_run_nor_a_replay_joins_trajectories_by_copy(self, monkeypatch):
        from flockctrl import dynamics

        def refuse(self, other):
            raise AssertionError("Trajectory.extend copies the rows of a run")

        s = _scenario(dict(VOLUME_SMALL, post_horizon=0.5))
        monkeypatch.setattr(dynamics.Trajectory, "extend", refuse)
        _, run, plan = run_scenario(s)
        plan_doc = {"schema_version": 1, "dimension": s.dimension, "plan": plan.to_dict()}
        replayed = replay_plan(plan_doc, s)
        assert replayed.columns.t.tobytes() == run.columns.t.tobytes()

    def test_a_scenario_is_built_with_its_measure(self):
        s = _scenario(MINIMAL)
        with pytest.raises(TypeError, match="ensemble"):
            Scenario(dimension=1, kernel=s.kernel, mode="none", c=None)
        again = Scenario(dimension=1, kernel=s.kernel, ensemble=s.ensemble, mode="none", c=None,
                         horizon=5.0)
        assert run_scenario(again)[0] == run_scenario(s)[0]

    @pytest.mark.parametrize("mode", ["mass", "volume"])
    @pytest.mark.parametrize("c", [0.0, math.nan])
    def test_a_bad_budget_on_a_scenario_built_directly_is_a_config_error(self, mode, c):
        s = dataclasses.replace(_scenario(dict(VOLUME_SMALL, mode=mode)), c=c)
        with pytest.raises(ConfigError, match="c must be a positive finite number"):
            run_scenario(s)

    @pytest.mark.parametrize("doc", [MASS_SMALL, MASS_2D_SMALL], ids=["mass_1d", "mass_2d"])
    def test_a_mass_synthesis_flies_each_piece_in_one_rk4_step(self, monkeypatch, doc):
        steps = _count_rk4_steps(monkeypatch)
        s = _scenario(dict(doc, post_horizon=0.0))
        summary, _, plan = run_scenario(s)
        assert summary.steps > 0
        assert len(plan.pieces) == summary.steps * math.ceil(2.0 / s.c)
        assert len(steps) == len(plan.pieces)
        for p in plan.pieces:
            assert p.dt == pytest.approx(p.t_end - p.t_start, rel=1e-12)


class TestReplay:
    @pytest.mark.parametrize(
        "budget, e0",
        [
            (MassBudget(0.5), uniform_box_ensemble(60, 0.0, 0.3, 0.0, 0.3, seed=5)),
            (MassBudget(0.5),
             uniform_box_ensemble(40, [0.0, 0.0], [0.2, 0.2], [0.0, 0.0], [0.2, 0.2], seed=5)),
            (VolumeBudget(1.0), uniform_box_ensemble(40, 0.0, 0.3, 0.0, 0.3, seed=5)),
        ],
        ids=["mass_1d", "mass_2d", "volume"],
    )
    def test_replay_reproduces_synthesis_exactly(self, budget, e0):
        k = ExponentialKernel(1.0, 1.0)
        res = complete_strategy(k, e0, budget)
        assert res.records
        traj = integrate(k, e0, res.plan, res.plan.t_end, dt_max=None)
        np.testing.assert_array_equal(traj.final.x, res.final.x)
        np.testing.assert_array_equal(traj.final.v, res.final.v)

    @pytest.mark.parametrize(
        "doc", [MASS_SMALL, MASS_2D_SMALL, VOLUME_SMALL], ids=["mass_1d", "mass_2d", "volume"]
    )
    def test_replay_flies_after_control_as_the_run_does(self, doc):
        s = _scenario(dict(doc, post_horizon=0.5))
        _, run, plan = run_scenario(s)
        assert plan.pieces
        plan_doc = {"schema_version": 1, "dimension": s.dimension, "plan": plan.to_dict()}
        replayed = replay_plan(json.loads(json.dumps(plan_doc)), s)
        after_run = run.columns.t >= plan.t_end
        after_replay = replayed.columns.t >= plan.t_end
        assert np.count_nonzero(after_run) > 2
        for name, a, b in zip(run.columns._fields, run.columns, replayed.columns):
            assert a[after_run].tobytes() == b[after_replay].tobytes(), name
            # under control too, piece numbers included
            assert a.tobytes() == b.tobytes(), name

    def test_replay_steps_a_piece_without_dt_by_its_own_length(self, monkeypatch):
        # at 1/20 of the shortest piece, the flight after it would take 1e10 steps
        steps = _count_rk4_steps(monkeypatch)
        tiny = dict(GOOD_PIECE, t_start=0.1, t_end=0.1 + 2e-9, dt=None)
        plan_doc = {"schema_version": 1, "dimension": 1, "plan": {"pieces": [GOOD_PIECE, tiny]}}
        traj = replay_plan(plan_doc, _scenario(dict(MASS_SMALL, post_horizon=1.0)))
        assert len(steps) <= 250
        assert traj.columns.t[-1] == pytest.approx(1.1 + 2e-9, abs=1e-12)

    def test_replay_plan_checks_schema(self):
        s = _scenario(MASS_SMALL)
        with pytest.raises(ConfigError, match="schema_version"):
            replay_plan({"schema_version": 99}, s)
        with pytest.raises(ConfigError, match="dimension"):
            replay_plan({"schema_version": 1, "dimension": 3}, s)

    def test_replay_against_4n_resample_stays_within_2x(self):
        # mean-field stability: the plan synthesized against N particles,
        # replayed on a 4N bootstrap resample of the same initial measure,
        # ends with at most twice the original terminal velocity extent
        # (observed worst ratio 1.15 over 15 resample seeds)
        from flockctrl import support_box

        k = ExponentialKernel(1.0, 1.0)
        e0 = uniform_box_ensemble(100, 0.0, 0.3, 0.0, 0.3, seed=5)
        res = complete_strategy(k, e0, MassBudget(0.5), eta=0.08)
        w_orig = float(support_box(res.final).w[0])

        rng = np.random.default_rng(100)
        idx = rng.integers(0, e0.n, size=400)
        plan_doc = {
            "schema_version": 1,
            "dimension": 1,
            "kernel": k.to_dict(),
            "plan": res.plan.to_dict(),
        }
        doc = dict(
            MASS_SMALL,
            initial={
                "kind": "explicit",
                "x": e0.x[idx].tolist(),
                "v": e0.v[idx].tolist(),
            },
            post_horizon=0.0,
        )
        traj = replay_plan(plan_doc, _scenario(doc))
        w_final = float(traj.samples[-1].box.w[0])
        assert w_final <= 2.0 * w_orig


def test_dump_json_writes_each_non_finite_float_as_a_string():
    fh = io.StringIO()
    dump_json({"a": [math.inf, -math.inf, math.nan], "b": (1.5, {"c": 2})}, fh)
    expected = {"a": ["Infinity", "-Infinity", "NaN"], "b": [1.5, {"c": 2}]}
    assert json.loads(fh.getvalue()) == expected


def _reference_dump_json(doc, fh):
    """The bytes dump_json must write: a strict deep copy, then json.dump, kept
    apart from runner._strict so that neither checks itself."""

    def strict(x):
        if isinstance(x, float) and not math.isfinite(x):
            return json.dumps(x)
        if isinstance(x, dict):
            return {k: strict(val) for k, val in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(val) for val in x]
        return x

    json.dump(strict(doc), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def _dumped(dump, doc):
    fh = io.StringIO()
    dump(doc, fh)
    return fh.getvalue()


def _plan(pieces, seed=0):
    """A contiguous plan of ``pieces`` pieces of both kinds, with awkward numbers."""
    rng = np.random.default_rng(seed)
    out, t = [], 0.0
    for i in range(pieces):
        length = float(rng.uniform(1e-9, 0.3))
        shared = dict(t_start=t, t_end=t + length, axis=i % 2, t_ref=t,
                      x_shift=float(rng.standard_normal() * 1e-200),
                      v_shift=-float(rng.uniform()), dt=None if i % 3 else length / 4)
        if i % 2:
            params = {"eps": float(rng.uniform(1e-12, 1.0)), "y0": 3.0, "w0": 1e300}
            out.append(ControlPiece(kind="space_band", params=params, **shared))
        else:
            params = {k: float(rng.standard_normal()) for k in ("x_lo", "x_hi", "vbar", "alpha")}
            params.update(beta=0.1, eps=float(rng.uniform()))
            out.append(ControlPiece(kind="mass_band", params=params, **shared))
        t += length
    return ControlPlan(pieces=tuple(out))


NON_FINITE_DOCS = [
    {"a": [math.inf, (-math.inf, [math.nan, {"b": (1.0, math.inf)}])], "c": ()},
    [(math.nan,), [[-math.inf]], {"z": math.inf, "a": -0.0}, [], {}, ((),)],
    {"s": "caf\u00e9 \"q\"\n\t\u2603", "n": None, "t": True, "f": False, "i": -3,
     "big": 10**30, "x": 1e-300, "y": 2.5e300, "nested": {"e": {}, "l": [[]], "inf": -math.inf}},
    (math.inf,),
    {},
    [],
]


@pytest.mark.parametrize("doc", NON_FINITE_DOCS, ids=range(len(NON_FINITE_DOCS)))
def test_dump_json_bytes_match_the_deep_copy_writer(doc):
    assert _dumped(dump_json, doc) == _dumped(_reference_dump_json, doc)


@pytest.mark.parametrize("scalar", [1.5, math.nan, -math.inf, "x", None, True, 7])
def test_dump_json_of_a_scalar_document(scalar):
    assert _dumped(dump_json, scalar) == _dumped(_reference_dump_json, scalar)


@pytest.mark.parametrize("pieces", [0, 1, 3000])
def test_a_plan_with_lazily_made_pieces_is_written_as_its_dict(tmp_path, pieces):
    plan = _plan(pieces, seed=pieces)
    doc = {"schema_version": 1, "dimension": 2, "kernel": {"family": "exponential", "K": 1.0},
           "plan": plan.to_dict()}
    lazy = dict(doc, plan={"pieces": map(ControlPiece.to_dict, plan.pieces)})
    _write_json(tmp_path / "plan.json", lazy)
    assert (tmp_path / "plan.json").read_text() == _dumped(_reference_dump_json, doc)


def test_dump_json_rejects_what_json_cannot_write():
    with pytest.raises(TypeError, match="ndarray"):
        dump_json({"a": np.zeros(2)}, io.StringIO())
    with pytest.raises(TypeError, match="keys must be str"):
        dump_json({1: 2}, io.StringIO())


class TestCli:
    def _write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_and_summary_on_stdout(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, MINIMAL)
        assert cli_main(["--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["success"] is True

    @pytest.mark.parametrize(
        "kernel, initial, infinite",
        [
            # gamma near 1/2: the certificate's asymptotic spatial bound X_M lies
            # near 1e200, past the ~3.4e153 that the tail's inverse resolves
            ({"family": "power_law", "K": 1.0, "gamma": 0.51},
             {"kind": "explicit", "x": [0.0, 1.0], "v": [0.0, 49.8]}, ["X_M"]),
            # a tabulated ("custom") kernel has an infinite tail integral, threshold and margin
            ({"family": "custom", "radii": [0.0, 10.0], "values": [1.0, 0.5]},
             MINIMAL["initial"], ["threshold", "margin"]),
        ],
        ids=["power_law_X_M", "tabulated_threshold"],
    )
    def test_infinite_values_are_written_as_strict_json(
        self, tmp_path, capsys, kernel, initial, infinite
    ):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        out_dir = tmp_path / "art"
        doc = dict(MINIMAL, kernel=kernel, initial=initial, out=str(out_dir))
        assert cli_main(["--config", self._write_config(tmp_path, doc)]) == 0
        for text in (capsys.readouterr().out, (out_dir / "summary.json").read_text()):
            summary = json.loads(text, parse_constant=reject)
            for key in infinite:
                assert summary["verdict_before"][key] == "Infinity"

    def test_a_run_writes_nothing_to_stderr_by_default(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, dict(MASS_SMALL, out=str(tmp_path / "art")))
        assert cli_main(["--config", cfg]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "dim, x, v, code",
        [(1, 1e200, 1.0, 0), (2, 1e200, 1.0, 0), (2, 1.0, 1e160, 3)],
        ids=["Y-1d", "Y-2d", "W-2d"],
    )
    def test_a_support_past_1e154_prints_no_numpy_warning(
        self, tmp_path, capsys, dim, x, v, code
    ):
        # the squares of the box norms overflow to inf, which numpy would warn of
        doc = dict(
            MINIMAL, mode="mass", c=1, eta=0.5, dimension=dim,
            kernel={"family": "custom", "radii": [0.0, 10.0], "values": [1.0, 0.5]},
            initial={"kind": "explicit", "x": [[0.0] * dim, [x] * dim],
                     "v": [[0.0] * dim, [v] * dim]},
        )
        assert cli_main(["--config", self._write_config(tmp_path, doc)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert err == ""
            assert json.loads(out)["terminal_box"]["Y"] == [x] * dim
        else:  # the step is too short for a plan, and only that is reported
            assert re.fullmatch(r"strategy failure: step pieces of \S+ fall in .*\n", err)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "doc, code, err",
        [
            (dict(MINIMAL, initial={"kind": "explicit", "x": [-1e308, 1e308], "v": [0.0, 1.0]}),
             2, "config error: initial positions and velocities must be finite and span a "
             "finite range\n"),
            (dict(MINIMAL, dimension=2, mode="mass", c=1,
                  kernel={"family": "exponential", "K": 1000.0, "lam": 0.001},
                  initial={"kind": "explicit", "x": [[0.0, 10.0], [1.0, 1.0]],
                           "v": [[0.5, 0.5], [0.5, 1e308]]}),
             3, f"strategy failure: theorem 5's W* = inf {_NO_ETA}\n"),
            (dict(MINIMAL, dimension=2, mode="mass", c=0.5,
                  kernel={"family": "power_law", "K": 1.0, "gamma": 1.0},
                  initial={"kind": "explicit", "x": [[0.0, 0.0], [1.0, 1.0]],
                           "v": [[1e308, 0.0], [0.0, 1e308]]}),
             3, f"strategy failure: theorem 5's W* = inf {_NO_ETA}\n"),
            # W* = 2e155 is a double, W~ = |Y0 + W* W0| is not
            (dict(MINIMAL, dimension=2, mode="mass", c=1,
                  kernel={"family": "power_law", "K": 1.0, "gamma": 1.0},
                  initial={"kind": "explicit", "x": [[0.0, 0.0], [1.0, 1.0]],
                           "v": [[0.0, 0.0], [1e155, 0.0]]}),
             3, f"strategy failure: theorem 5's W~ = inf {_NO_ETA}\n"),
            (dict(MINIMAL, mode="mass", c=1,
                  kernel={"family": "power_law", "K": 1.0, "gamma": 1.0},
                  initial={"kind": "explicit", "x": [0.0, 1.0], "v": [0.0, 1e200]}),
             3, f"strategy failure: theorem 4's 2(Y0 + n W0^2) = inf {_NO_ETA}\n"),
            (dict(MINIMAL, mode="volume", c=1,
                  kernel={"family": "power_law", "K": 1.0, "gamma": 1.0},
                  initial={"kind": "explicit", "x": [0.0, 1.0], "v": [0.0, 1e200]}),
             3, f"strategy failure: theorem 6's 2(Y0 + W0^2) = inf {_NO_ETA}\n"),
        ],
        ids=["x-span-1d", "w-tilde-2d", "w-star-2d", "w-tilde-alone-2d", "mass-1d", "volume-1d"],
    )
    def test_a_support_past_the_largest_double_prints_no_numpy_warning(
        self, tmp_path, capsys, doc, code, err
    ):
        assert cli_main(["--config", self._write_config(tmp_path, doc)]) == code
        assert capsys.readouterr() == ("", err)

    def test_a_cloud_past_2_to_the_53_ends_with_a_finite_x_m(self, tmp_path):
        # X0 + 1.0 == X0 there, where a root search that steps from X0 by 1 never
        # moves: run in a subprocess, so that a hang fails here instead of
        # stalling the suite
        from flockctrl import runner

        doc = dict(MINIMAL, kernel={"family": "power_law", "K": 1000.0, "gamma": 0.51},
                   initial={"kind": "explicit", "x": [1.0, 1e150, 0.0, 1.0, 0.0],
                            "v": [0.0, 0.5, 0.5, 0.5, 0.5]})
        src = str(Path(runner.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "flockctrl.cli", "--config", self._write_config(tmp_path, doc)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        # X0 = 8e149, V0 = 0.4
        assert json.loads(done.stdout)["verdict_before"]["X_M"] == pytest.approx(
            1.8058014363772e150, rel=1e-12)

    def test_exit_two_on_a_replayed_plan_that_ends_before_t_zero(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(_plan_doc(t_start=-2.0, t_end=-1.0, t_ref=-2.0)))
        cfg = self._write_config(tmp_path, MINIMAL)
        assert cli_main(["--config", cfg, "--replay", str(plan)]) == 2
        assert capsys.readouterr().err == "config error: the plan ends at t = -1.0, before t = 0\n"

    @pytest.mark.parametrize("replay", [False, True], ids=["run", "replay"])
    def test_a_cli_run_builds_its_kernel_once(self, tmp_path, monkeypatch, replay):
        from flockctrl import runner

        specs = []
        build = runner.kernel_from_dict
        monkeypatch.setattr(runner, "kernel_from_dict",
                            lambda spec: specs.append(spec) or build(spec))
        argv = ["--config", self._write_config(tmp_path, MINIMAL)]
        if replay:
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps(
                {"schema_version": 1, "dimension": 1, "plan": {"pieces": []}}
            ))
            argv += ["--replay", str(plan)]
        assert cli_main(argv) == 0
        assert specs == [MINIMAL["kernel"]]

    def test_verbose_reports_what_the_run_cost_in_one_line(self, tmp_path, capsys):
        art = tmp_path / "art"
        cfg = self._write_config(tmp_path, dict(MASS_SMALL, out=str(art)))
        assert cli_main(["--config", cfg, "-v"]) == 0
        # the synthesis's progress lines, then the cost line
        *progress, cost = capsys.readouterr().err.splitlines()
        assert progress and all(line.startswith("synthesis step ") for line in progress)
        assert re.fullmatch(
            r"scenario done in \d+\.\d\d s wall: \d+ samples, \d+ pieces, "
            r"peak RSS \d+\.\d MB, \d+ minor page faults", cost
        ), cost
        plan = json.loads((art / "plan.json").read_text())
        rows = (art / "trajectory.csv").read_text().count("\n") - 1
        assert f" {rows} samples, {len(plan['plan']['pieces'])} pieces," in cost
        names = ("trajectory.csv", "summary.json", "plan.json")
        written = {f: (art / f).read_bytes() for f in names}
        # and the next run without -v is silent again, and writes the same artifacts
        assert cli_main(["--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        assert written == {f: (art / f).read_bytes() for f in written}

    @pytest.mark.parametrize(
        "changes, named",
        [({"horizon": 1e9}, "100000000000"),
         ({"mode": "mass", "c": 0.5, "post_horizon": 1e9}, "100000000000"),
         ({"horizon": 20.0, "dt_max": 1e-5}, "2000000")],
        ids=["horizon", "post_horizon", "dt_max"],
    )
    def test_exit_two_at_once_on_a_flight_past_the_step_cap(
        self, tmp_path, capsys, monkeypatch, changes, named
    ):
        steps = _count_rk4_steps(monkeypatch)
        cfg = self._write_config(tmp_path, dict(MINIMAL, **changes))
        assert cli_main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"needs {named} RK4 steps" in err and "config error" in err
        assert steps == []

    def test_exit_two_on_a_step_flight_past_the_step_cap(self, tmp_path, capsys, monkeypatch):
        steps = _count_rk4_steps(monkeypatch)
        doc = dict(VOLUME_SMALL, horizon=0.0, post_horizon=0.0, dt_max=1e-9)
        assert cli_main(["--config", self._write_config(tmp_path, doc)]) == 2
        assert "RK4 steps" in capsys.readouterr().err
        assert steps == []

    def test_exit_two_at_once_on_a_replayed_piece_past_the_step_cap(
        self, tmp_path, capsys, monkeypatch
    ):
        steps = _count_rk4_steps(monkeypatch)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(_plan_doc(dt=1e-12)))
        cfg = self._write_config(tmp_path, MINIMAL)
        assert cli_main(["--config", cfg, "--replay", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "config error: replayed plan: the flight needs 100000000000 RK4 steps" in err
        assert steps == []

    def test_exit_three_at_once_on_a_volume_budget_far_too_small(self, tmp_path, capsys):
        initial = dict(MINIMAL["initial"], particles=20, seed=1, x_high=1.0, v_high=1.0)
        doc = dict(VOLUME_SMALL, c=1e-12, initial=initial,
                   kernel={"family": "power_law", "K": 1.0, "gamma": 1.0})
        t0 = time.perf_counter()
        assert cli_main(["--config", self._write_config(tmp_path, doc)]) == 3
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert "strategy failure" in err and "needs at least 1.4e+06 steps" in err

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, dict(MINIMAL, mode="mass"))  # no c
        assert cli_main(["--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_nan_eta(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, dict(MASS_SMALL, eta=float("nan")))
        assert cli_main(["--config", cfg]) == 2
        assert "eta must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kernel, initial",
        [
            ({"family": "exponential", "K": float("nan"), "lam": 1.0}, None),
            ({"family": "exponential", "K": 1.0, "lam": float("nan")}, None),
            (None, {"kind": "explicit", "x": [[0.0], [1.0]], "v": [[0.0], [1.0]],
                    "w": [0.3, 0.3]}),
            (None, {"kind": "grid", "x_low": 0.0, "x_high": 1.0, "v_low": 0.0,
                    "v_high": 1.0, "counts_x": 0, "counts_v": 2}),
        ],
        ids=["nan_K", "nan_lam", "weights_off_one", "zero_grid_count"],
    )
    def test_exit_two_on_bad_nested_values(self, tmp_path, capsys, kernel, initial):
        doc = dict(MINIMAL)
        if kernel is not None:
            doc["kernel"] = kernel
        if initial is not None:
            doc["initial"] = initial
        cfg = self._write_config(tmp_path, doc)
        assert cli_main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kernel",
        [
            {"family": "power_law", "K": "2", "gamma": 1.0},
            {"family": "power_law", "K": True, "gamma": 1.0},
            {"family": "exponential", "K": 1.0, "lam": "1e0"},
            {"family": "custom", "radii": ["0", "1"], "values": [1.0, 0.5]},
            {"family": "custom", "radii": [False, True], "values": [1.0, 0.5]},
        ],
        ids=["string_K", "boolean_K", "string_lam", "string_radii", "boolean_radii"],
    )
    def test_exit_two_on_kernel_parameters_that_are_not_numbers(self, tmp_path, capsys, kernel):
        cfg = self._write_config(tmp_path, dict(MINIMAL, kernel=kernel))
        assert cli_main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1 and "kernel parameters must be" in err
        assert "Traceback" not in err

    _BOX = MINIMAL["initial"]
    _GRID = {"kind": "grid", "x_low": 0.0, "x_high": 1.0, "v_low": 0.0, "v_high": 1.0,
             "counts_x": 3, "counts_v": 2}

    @pytest.mark.parametrize(
        "initial",
        [
            dict(_BOX, x_high="1"),
            dict(_BOX, x_high=["1"]),
            dict(_BOX, x_high=True),
            dict(_GRID, x_high="1"),
            {"kind": "explicit", "x": ["0", "1"], "v": [0.0, 1.0]},
            {"kind": "explicit", "x": [False, True], "v": [0.0, 1.0]},
            {"kind": "explicit", "x": [0.0, 1.0], "v": [0.0, 1.0], "w": ["0.5", "0.5"]},
            {"kind": "explicit", "x": [0.0, 0.5, 1.0], "v": [0.0, 0.5, 1.0],
             "w": [float("nan"), 0.5, 0.5]},
        ],
        ids=["string_box_bound", "string_in_box_bound_list", "boolean_box_bound",
             "string_grid_bound", "string_x", "boolean_x", "string_w", "nan_w"],
    )
    def test_exit_two_on_initial_numbers_that_are_not_finite_numbers(
        self, tmp_path, capsys, initial
    ):
        cfg = self._write_config(tmp_path, dict(MINIMAL, initial=initial))
        assert cli_main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1 and "must be finite JSON numbers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("c", [1e-12, 1e-7, 1e-4])
    def test_exit_three_when_an_atom_outweighs_the_mass_budget(self, tmp_path, capsys, c):
        # 20 equal atoms of mass 0.05; c = 1e-12 once asked for 2e12 column cuts.  The
        # power law's slow tail keeps the certified eta positive at these c.
        initial = dict(MINIMAL["initial"], particles=20)
        kernel = {"family": "power_law", "K": 1.0, "gamma": 1.0}
        doc = dict(MINIMAL, mode="mass", c=c, kernel=kernel, initial=initial)
        cfg = self._write_config(tmp_path, doc)
        assert cli_main(["--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"an atom of mass 0.05 exceeds the mass budget c = {c}" in err
        assert "Traceback" not in err

    def test_exit_two_when_the_initial_measure_does_not_fit_in_memory(
        self, tmp_path, capsys, monkeypatch
    ):
        from flockctrl import runner

        # what numpy raises for 10^10 particles, without allocating them
        def too_large(spec):
            raise MemoryError

        monkeypatch.setattr(runner, "_build_initial", too_large)
        initial = dict(MINIMAL["initial"], particles=10_000_000_000)
        cfg = self._write_config(tmp_path, dict(MINIMAL, initial=initial))
        assert cli_main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1
        assert "10000000000" in err and "memory" in err
        assert "Traceback" not in err

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        assert cli_main(["--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("replay", [False, True], ids=["run", "replay"])
    def test_exit_three_on_integration_failure(self, tmp_path, capsys, replay):
        # the second particle's velocity overflows the state within the horizon
        doc = dict(
            MINIMAL,
            initial={"kind": "explicit", "x": [[0.0], [1.0]], "v": [[0.0], [1e308]]},
            horizon=400.0,
            post_horizon=400.0,
            dt_max=1.0,
        )
        argv = ["--config", self._write_config(tmp_path, doc)]
        if replay:
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps(
                {"schema_version": 1, "dimension": 1, "plan": {"pieces": []}}
            ))
            argv += ["--replay", str(plan)]
        assert cli_main(argv) == 3
        assert "strategy failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan_text",
        [
            None,
            "{not json",
            json.dumps([1, 2]),
            json.dumps({"schema_version": 1, "dimension": 1}),
            json.dumps(_plan_doc(drop=("t_end",))),
            json.dumps(_plan_doc(t_start=float("nan"))),
            json.dumps(_plan_doc(x_shift="0.0")),
            json.dumps(_plan_doc(kind="mystery")),
            json.dumps(_plan_doc(t_end=0.0)),
            json.dumps(_plan_doc(axis=1)),
            json.dumps(_plan_doc(axis=0.0)),
            json.dumps(_plan_doc(dt=-0.1)),
            json.dumps(_plan_doc(params={"eps": 0.1, "y0": 1.0, "w0": 1.0})),
            json.dumps(_plan_doc(params=dict(GOOD_PIECE["params"], beta=float("inf")))),
            json.dumps(_plan_doc(params=dict(GOOD_PIECE["params"], eps=0.0, beta=0.0))),
            json.dumps(_plan_doc(kind="space_band", params={"eps": -0.1, "y0": 1.0, "w0": 1.0})),
        ],
        ids=[
            "missing_file", "bad_json", "not_an_object", "no_plan", "no_t_end",
            "nan_t_start", "string_x_shift", "unknown_kind", "zero_duration",
            "axis_past_dimension", "float_axis", "negative_dt", "wrong_params",
            "infinite_param", "zero_eps_and_beta", "negative_space_eps",
        ],
    )
    def test_exit_two_on_bad_replay_plan(self, tmp_path, capsys, plan_text):
        cfg = self._write_config(tmp_path, MASS_SMALL)
        plan = tmp_path / "plan.json"
        if plan_text is not None:
            plan.write_text(plan_text)
        assert cli_main(["--config", cfg, "--replay", str(plan)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("replay", [False, True], ids=["run", "replay"])
    def test_exit_two_on_uncreatable_out_before_any_step(
        self, tmp_path, capsys, monkeypatch, replay
    ):
        steps = _count_rk4_steps(monkeypatch)
        blocker = tmp_path / "file"
        blocker.write_text("")
        doc = dict(MASS_SMALL, out=str(blocker / "out"))
        argv = ["--config", self._write_config(tmp_path, doc)]
        if replay:
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps(_plan_doc()))
            argv += ["--replay", str(plan)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1 and "not a directory" in err
        assert "Traceback" not in err
        assert steps == []

    def test_exit_two_on_replay_against_a_measure_of_another_dimension(self, tmp_path, capsys):
        # a 2-D scenario whose explicit points are 1-D, and a plan on axis 1
        doc = dict(MINIMAL, dimension=2,
                   initial={"kind": "explicit", "x": [0.0, 1.0], "v": [0.0, 0.5]})
        piece = dict(GOOD_PIECE, kind="space_band", axis=1,
                     params={"eps": 0.1, "y0": 1.0, "w0": 0.5})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"schema_version": 1, "dimension": 2, "plan": {"pieces": [piece]}}
        ))
        argv = ["--config", self._write_config(tmp_path, doc), "--replay", str(plan)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1 and "dimension 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "counts_x, counts_v",
        [("3", 2), (3, "2"), (True, 2), (3.0, 2), ([3, "2"], 2), ([3, True], 2), ([], 2),
         ([3, 2], 2), (None, 2)],
        ids=["string", "string_v", "boolean", "float", "string_entry", "boolean_entry",
             "empty_list", "entry_per_missing_axis", "missing"],
    )
    def test_exit_two_on_bad_grid_counts(self, tmp_path, capsys, counts_x, counts_v):
        initial = {"kind": "grid", "x_low": 0.0, "x_high": 1.0, "v_low": 0.0, "v_high": 1.0,
                   "counts_x": counts_x, "counts_v": counts_v}
        cfg = self._write_config(tmp_path, dict(MINIMAL, initial=initial))
        assert cli_main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1 and "counts" in err
        assert "Traceback" not in err

    def test_other_errors_come_before_building_the_initial_measure(
        self, tmp_path, capsys, monkeypatch
    ):
        from flockctrl import runner

        built = []
        build = runner._build_initial

        def counting(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr(runner, "_build_initial", counting)
        initial = {"kind": "grid", "x_low": 0.0, "x_high": 1.0, "v_low": 0.0, "v_high": 1.0,
                   "counts_x": 1000, "counts_v": 1000}
        cfg = self._write_config(tmp_path, dict(MASS_SMALL, c=5, initial=initial))
        assert cli_main(["--config", cfg]) == 2
        assert "mass budget c must be at most 2" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize(
        "counts_x, n", [(3, 3 * 3 * 2 * 2), ([3, 2], 3 * 2 * 2 * 2)], ids=["integer", "per_axis"]
    )
    def test_grid_counts_per_axis(self, counts_x, n):
        initial = {"kind": "grid", "x_low": [0.0, 0.0], "x_high": [1.0, 1.0],
                   "v_low": [0.0, 0.0], "v_high": [1.0, 1.0], "counts_x": counts_x, "counts_v": 2}
        s = _scenario(dict(MINIMAL, dimension=2, initial=initial))
        assert s.ensemble.n == n and s.ensemble.d == 2

    @pytest.mark.parametrize("t_end", [5e-13, 2e-9])
    def test_a_replayed_piece_must_outlast_the_plan_join_tolerance(self, tmp_path, capsys, t_end):
        # a plan takes a piece no longer than its 1e-9 join tolerance as over at
        # once: one of 5e-13 was flown uncontrolled, every sample on piece -1
        piece = dict(GOOD_PIECE, kind="space_band", t_end=t_end, dt=None,
                     params={"eps": 0.2, "y0": 1.0, "w0": 0.05})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"schema_version": 1, "dimension": 1, "plan": {"pieces": [piece]}}
        ))
        out = tmp_path / "replayed"
        cfg = self._write_config(tmp_path, dict(MINIMAL, post_horizon=0.0, out=str(out)))
        status = cli_main(["--config", cfg, "--replay", str(plan)])
        if t_end < 1e-9:
            assert status == 2
            assert ("config error: plan piece 0: must last longer than a plan's 1e-09 join "
                    "tolerance") in capsys.readouterr().err
            return
        assert status == 0
        header, *rows = (out / "trajectory.csv").read_text().splitlines()
        cols = header.split(",")
        samples = [dict(zip(cols, row.split(","))) for row in rows]
        # the band's plateau holds the whole cloud, x in [0, 0.5] and v in [0, 0.1]
        assert len(samples) > 2
        assert {(r["piece_index"], float(r["u_sup"])) for r in samples} == {("0", 1.0)}

    def test_good_replay_plan_probe_runs(self, tmp_path):
        cfg = self._write_config(tmp_path, dict(MASS_SMALL, post_horizon=0.0))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(_plan_doc()))
        assert cli_main(["--config", cfg, "--replay", str(plan)]) == 0

    def test_exit_three_on_strategy_failure(self, tmp_path, capsys):
        # one heavy atom cluster: no positive column widening fits c
        doc = dict(
            MASS_SMALL,
            initial={
                "kind": "explicit",
                "x": [[0.0], [0.0], [0.0]],
                "v": [[0.0], [0.5], [1.0]],
            },
        )
        cfg = self._write_config(tmp_path, doc)
        assert cli_main(["--config", cfg]) == 3
        assert "strategy failure" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, MASS_SMALL)
        out_dir = tmp_path / "art"
        rc = cli_main(
            [
                "--config", cfg,
                "--mode", "none",
                "--particles", "25",
                "--seed", "9",
                "--out", str(out_dir),
            ]
        )
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["mode"] == "none"
        rows = (out_dir / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) > 1

    def test_a_replay_of_mirrored_pieces_reproduces_the_run(self, tmp_path):
        cfg = self._write_config(tmp_path, dict(VOLUME_HIGH, out=str(tmp_path / "run")))
        assert cli_main(["--config", cfg]) == 0
        plan = tmp_path / "run" / "plan.json"
        pieces = json.loads(plan.read_text())["plan"]["pieces"]
        assert pieces and all(p["sign"] == -1.0 for p in pieces)
        replayed = tmp_path / "replayed"
        assert cli_main(["--config", cfg, "--replay", str(plan), "--out", str(replayed)]) == 0
        run_csv = (tmp_path / "run" / "trajectory.csv").read_bytes()
        assert (replayed / "trajectory.csv").read_bytes() == run_csv

    def test_a_plan_written_before_pieces_carried_a_sign_replays_as_it_did(self, tmp_path):
        pieces = json.loads(PLAN_BEFORE_SIGN.read_text())["plan"]["pieces"]
        assert len(pieces) == 8 and not any("sign" in p for p in pieces)
        cfg = self._write_config(tmp_path, VOLUME_HIGH)
        replayed = tmp_path / "replayed"
        argv = ["--config", cfg, "--replay", str(PLAN_BEFORE_SIGN), "--out", str(replayed)]
        assert cli_main(argv) == 0
        csv = (replayed / "trajectory.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == PLAN_BEFORE_SIGN_REPLAY_SHA256

    def test_a_mass_plan_of_two_rk4_steps_a_piece_replays_as_it_did(self, tmp_path):
        pieces = json.loads(PLAN_TWO_RK4.read_text())["plan"]["pieces"]
        assert len(pieces) == 24
        assert all(p["dt"] == pytest.approx((p["t_end"] - p["t_start"]) / 2.0) for p in pieces)
        cfg = self._write_config(tmp_path, MASS_TWO_RK4)
        replayed = tmp_path / "replayed"
        argv = ["--config", cfg, "--replay", str(PLAN_TWO_RK4), "--out", str(replayed)]
        assert cli_main(argv) == 0
        csv = (replayed / "trajectory.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == PLAN_TWO_RK4_REPLAY_SHA256

    @pytest.mark.parametrize(
        "kind, sign",
        [("mass_band", 1.0), ("mass_band", -1.0), ("space_band", 0.5), ("space_band", 0),
         ("space_band", -2), ("space_band", True), ("space_band", "-1"), ("space_band", None),
         ("space_band", float("nan"))],
    )
    def test_exit_two_on_a_sign_off_a_space_band_or_not_one(self, tmp_path, capsys, kind, sign):
        params = GOOD_PIECE["params"] if kind == "mass_band" else {"eps": 0.1, "y0": 1.0, "w0": 1.0}
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(_plan_doc(kind=kind, params=params, sign=sign)))
        cfg = self._write_config(tmp_path, MASS_SMALL)
        assert cli_main(["--config", cfg, "--replay", str(plan)]) == 2
        err = capsys.readouterr().err
        assert "plan piece 0: sign must be 1 or -1" in err and "Traceback" not in err

    @pytest.mark.parametrize("sign", [1, -1, 1.0, -1.0])
    def test_a_space_band_sign_of_one_or_minus_one_is_read(self, sign):
        doc = _plan_doc(kind="space_band", params={"eps": 0.1, "y0": 1.0, "w0": 1.0}, sign=sign)
        (piece,) = _parse_plan(doc, 1).pieces
        assert piece.sign == float(sign)

    def test_replay_writes_trajectory(self, tmp_path):
        cfg = self._write_config(tmp_path, dict(MASS_SMALL, out=str(tmp_path / "run")))
        assert cli_main(["--config", cfg]) == 0
        replay_out = tmp_path / "replayed"
        rc = cli_main(
            [
                "--config", cfg,
                "--replay", str(tmp_path / "run" / "plan.json"),
                "--out", str(replay_out),
                "--post-horizon", "0",
            ]
        )
        assert rc == 0
        assert (replay_out / "trajectory.csv").exists()
