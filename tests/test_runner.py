"""Scenario validation, orchestration, artifacts, replay, and CLI exit codes."""

import json

import numpy as np
import pytest

from flockctrl import (
    ConfigError,
    ControlPlan,
    ExponentialKernel,
    complete_strategy_1d,
    integrate,
    replay_plan,
    run_scenario,
    uniform_box_ensemble,
    validate_config,
)
from flockctrl.cli import main as cli_main

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


def _scenario(doc):
    return validate_config(json.dumps(doc))


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

    def test_artifacts_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(_scenario(dict(MASS_SMALL, out=str(a))))
        run_scenario(_scenario(dict(MASS_SMALL, out=str(b))))
        for name in ("trajectory.csv", "summary.json", "plan.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestReplay:
    def test_replay_reproduces_synthesis_exactly(self):
        k = ExponentialKernel(1.0, 1.0)
        e0 = uniform_box_ensemble(60, 0.0, 0.3, 0.0, 0.3, seed=5)
        res = complete_strategy_1d(k, e0, 0.5)
        traj = integrate(k, e0, res.plan, res.plan.t_end, dt_max=None)
        np.testing.assert_array_equal(traj.final.x, res.final.x)
        np.testing.assert_array_equal(traj.final.v, res.final.v)

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
        res = complete_strategy_1d(k, e0, 0.5, eta=0.08)
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
        )
        traj = replay_plan(plan_doc, _scenario(doc), post_horizon=0.0)
        w_final = float(traj.samples[-1].box.w[0])
        assert w_final <= 2.0 * w_orig


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

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        assert cli_main(["--config", str(tmp_path / "absent.json")]) == 2

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
