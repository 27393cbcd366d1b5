"""Scenario orchestration: config validation, strategy dispatch, artifacts.

A scenario is a JSON document (schema_version 1) naming the kernel, the
initial particle cloud, the constraint mode, and the budgets.  Running it
produces three artifacts in the output directory:

* ``trajectory.csv``   -- per-sample support box, flocking metrics, audits;
* ``summary.json``     -- terminal report with verdicts and worst-case audits;
* ``plan.json``        -- the machine-readable control schedule, replayable.

All outputs are deterministic for a fixed scenario (seeds included); timing
is reported on stderr only so artifacts stay byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .control_mass import (
    ContractionError,
    DegenerateMeasureError,
    StrategyBudgetError,
    StrategyResult,
    complete_strategy_1d,
    complete_strategy_multi_d,
)
from .control_space import complete_strategy_space
from .dynamics import ControlPlan, Trajectory, decay_rate_estimate, integrate
from .ensemble import (
    Ensemble,
    flocking_metrics,
    grid_ensemble,
    support_box,
    uniform_box_ensemble,
)
from .flocking import corollary2_test, theorem3_test
from .kernels import Kernel, kernel_from_dict

SCHEMA_VERSION = 1

_MODES = ("mass", "volume", "none")
_TOP_KEYS = {
    "schema_version",
    "dimension",
    "kernel",
    "initial",
    "mode",
    "c",
    "eta",
    "dt_max",
    "horizon",
    "post_horizon",
    "safety_factor",
    "step_budget",
    "out",
}
_INITIAL_KEYS = {
    "uniform_box": {"kind", "particles", "seed", "x_low", "x_high", "v_low", "v_high"},
    "grid": {"kind", "x_low", "x_high", "v_low", "v_high", "counts_x", "counts_v"},
    "explicit": {"kind", "x", "v", "w"},
}


class ConfigError(ValueError):
    """Aggregated, human-readable configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class StrategyFailure(RuntimeError):
    """A strategy raised after validation; partial artifacts may exist."""


@dataclass
class Scenario:
    dimension: int
    kernel: dict
    initial: dict
    mode: str
    c: float | None
    eta: float | None = None
    dt_max: float | None = None
    horizon: float = 10.0
    post_horizon: float = 10.0
    safety_factor: float = 0.99
    step_budget: int = 100_000
    out: str | None = None

    def build_kernel(self) -> Kernel:
        return kernel_from_dict(self.kernel)

    def build_ensemble(self) -> Ensemble:
        spec = self.initial
        kind = spec["kind"]
        if kind == "uniform_box":
            return uniform_box_ensemble(
                n=int(spec["particles"]),
                x_low=spec["x_low"],
                x_high=spec["x_high"],
                v_low=spec["v_low"],
                v_high=spec["v_high"],
                seed=int(spec.get("seed", 0)),
            )
        if kind == "grid":
            return grid_ensemble(
                spec["x_low"], spec["x_high"], spec["v_low"], spec["v_high"],
                spec["counts_x"], spec["counts_v"],
            )
        return Ensemble.from_points(spec["x"], spec["v"], spec.get("w"))


@dataclass
class RunSummary:
    mode: str
    steps: int
    total_control_time: float
    eta: float | None
    terminal_box: dict
    verdict_before: dict
    verdict_after: dict
    decay_rate: float
    lambda_at_control_off: float
    lambda_final: float
    success: bool
    worst_audits: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "steps": self.steps,
            "total_control_time": self.total_control_time,
            "eta": self.eta,
            "terminal_box": self.terminal_box,
            "verdict_before": self.verdict_before,
            "verdict_after": self.verdict_after,
            "decay_rate": self.decay_rate,
            "lambda_at_control_off": self.lambda_at_control_off,
            "lambda_final": self.lambda_final,
            "success": self.success,
            "worst_audits": self.worst_audits,
        }


def _listify(x):
    return x if isinstance(x, list) else [x]


def _is_number(x) -> bool:
    """A finite JSON number; JSON's NaN and Infinity and the booleans are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def validate_config(raw: str) -> Scenario:
    """Parse and validate a JSON scenario, applying documented defaults."""
    errors = []
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top-level config must be an object"])

    unknown = set(doc) - _TOP_KEYS
    if unknown:
        errors.append(f"unknown config keys: {sorted(unknown)}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}")

    mode = doc.get("mode", "none")
    if mode not in _MODES:
        errors.append(f"mode must be one of {_MODES}")
    dim = doc.get("dimension", 1)
    if not _is_integer(dim) or dim < 1:
        errors.append("dimension must be a positive integer")
    if mode == "volume" and dim != 1:
        errors.append("volume mode is one-dimensional; set dimension = 1")

    kernel = doc.get("kernel")
    if not isinstance(kernel, dict) or "family" not in kernel:
        errors.append("kernel spec with a 'family' field is required")
    else:
        try:
            kernel_from_dict(kernel)
        except (KeyError, ValueError) as exc:
            errors.append(f"bad kernel spec: {exc}")

    initial = doc.get("initial")
    if not isinstance(initial, dict) or initial.get("kind") not in _INITIAL_KEYS:
        errors.append(
            "initial measure spec with kind in "
            f"{sorted(_INITIAL_KEYS)} is required"
        )
    else:
        allowed = _INITIAL_KEYS[initial["kind"]]
        bad = set(initial) - allowed
        if bad:
            errors.append(f"unknown initial-measure keys: {sorted(bad)}")
        if initial["kind"] == "uniform_box":
            n = initial.get("particles")
            if not _is_integer(n) or n < 1:
                errors.append("initial.particles must be a positive integer")

    c = doc.get("c")
    if c is not None and not _is_number(c):
        errors.append("c must be a finite number")
    elif mode != "none" and (c is None or c <= 0):
        errors.append("budget must be positive when mode is not 'none'")
    dt_max = doc.get("dt_max")
    if dt_max is not None and (not _is_number(dt_max) or dt_max <= 0):
        errors.append("dt_max must be a positive finite number")
    for key in ("horizon", "post_horizon"):
        val = doc.get(key)
        if val is not None and (not _is_number(val) or val < 0):
            errors.append(f"{key} must be a nonnegative finite number")
    sf = doc.get("safety_factor", 0.99)
    if not _is_number(sf) or not 0 < sf <= 1:
        errors.append("safety_factor must lie in (0, 1]")
    budget = doc.get("step_budget", 100_000)
    if not _is_integer(budget) or budget < 1:
        errors.append("step_budget must be a positive integer")
    eta = doc.get("eta")
    if eta is not None and (not _is_number(eta) or eta <= 0):
        errors.append("eta must be a positive finite number")

    if errors:
        raise ConfigError(errors)
    return Scenario(
        dimension=dim,
        kernel=kernel,
        initial=initial,
        mode=mode,
        c=float(c) if c is not None else None,
        eta=float(eta) if eta is not None else None,
        dt_max=float(dt_max) if dt_max is not None else None,
        horizon=float(doc.get("horizon", 10.0)),
        post_horizon=float(doc.get("post_horizon", 10.0)),
        safety_factor=float(sf),
        step_budget=budget,
        out=doc.get("out"),
    )


def _box_dict(box) -> dict:
    return {
        "Y": [float(x) for x in box.y],
        "a": [float(x) for x in box.a],
        "W": [float(x) for x in box.w],
        "x_shift": [float(x) for x in box.x_shift],
        "v_shift": [float(x) for x in box.v_shift],
    }


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _free_flight(kernel, e, t0, horizon, dt_max):
    return integrate(
        kernel, e, ControlPlan(), horizon, dt_max=dt_max or 0.01, t0=t0,
        sample_stride=10,
    )


def run_scenario(s: Scenario, out_dir: str | None = None):
    """Execute a scenario end to end and write the three artifacts.

    Returns (RunSummary, Trajectory, ControlPlan).  Raises ConfigError for
    invalid late-bound settings and StrategyFailure when a synthesis loop
    fails; in the latter case whatever artifacts exist are flushed first.
    """
    t_wall = time.perf_counter()
    out = out_dir or s.out
    kernel = s.build_kernel()
    e0 = s.build_ensemble()
    if e0.d != s.dimension:
        raise ConfigError(
            [f"initial measure has dimension {e0.d}, scenario says {s.dimension}"]
        )

    verdict_before = theorem3_test(kernel, e0)
    records: list = []
    worst: dict = {}

    try:
        if s.mode == "none":
            plan = ControlPlan()
            traj = _free_flight(kernel, e0, 0.0, s.horizon, s.dt_max)
            result = StrategyResult(
                plan=plan,
                trajectory=traj,
                records=[],
                eta=s.eta if s.eta is not None else math.nan,
                final=traj.final,
                total_control_time=0.0,
                terminal_verdict=verdict_before,
            )
            control_off = 0.0
        else:
            if s.mode == "mass":
                strategy = complete_strategy_1d if s.dimension == 1 else complete_strategy_multi_d
            else:
                strategy = complete_strategy_space
            result = strategy(
                kernel, e0, s.c, eta=s.eta, dt_max=s.dt_max,
                step_budget=s.step_budget,
            )
            control_off = result.plan.t_end
            if s.post_horizon > 0:
                post = _free_flight(
                    kernel, result.final, control_off, s.post_horizon, s.dt_max
                )
                result.trajectory = result.trajectory.extend(post)
                result.final = post.final
            records = result.records
    except (StrategyBudgetError, ContractionError, DegenerateMeasureError) as exc:
        raise StrategyFailure(str(exc)) from exc

    traj = result.trajectory
    lam_off = next(
        (x.metrics.Lambda for x in traj.samples if x.t >= control_off - 1e-12),
        traj.samples[-1].metrics.Lambda,
    )
    lam_final = traj.samples[-1].metrics.Lambda
    try:
        decay = decay_rate_estimate(traj, t_from=control_off)
    except ValueError:
        decay = 0.0

    box_f = support_box(result.final)
    x_tilde = 0.5 * float(np.linalg.norm(box_f.y))
    v_tilde = 0.5 * float(np.linalg.norm(box_f.w))
    verdict_after = corollary2_test(kernel, x_tilde, v_tilde)
    safe_pass = 2.0 * v_tilde <= s.safety_factor * verdict_after.threshold
    success = bool(safe_pass and (decay > 0.0 or v_tilde == 0.0))

    if records and isinstance(records[0], dict):
        worst["max_omega_area"] = max(r["omega_area"] for r in records)
        worst["max_u_sup"] = max(r["max_u_sup"] for r in records)
    elif records:
        worst["max_mass_in_omega"] = max(r.max_mass_in_omega for r in records)
        worst["max_u_sup"] = max(r.max_u_sup for r in records)
        worst["max_vbar_drift"] = max(r.max_vbar_drift for r in records)

    summary = RunSummary(
        mode=s.mode,
        steps=len(records),
        total_control_time=result.total_control_time,
        eta=None if math.isnan(result.eta) else result.eta,
        terminal_box=_box_dict(box_f),
        verdict_before=verdict_before.to_dict(),
        verdict_after=verdict_after.to_dict(),
        decay_rate=decay,
        lambda_at_control_off=lam_off,
        lambda_final=lam_final,
        success=success,
    )
    summary.worst_audits = worst

    if out is not None:
        os.makedirs(out, exist_ok=True)
        traj.to_csv(os.path.join(out, "trajectory.csv"))
        _write_json(os.path.join(out, "summary.json"), summary.to_dict())
        plan_doc = {
            "schema_version": SCHEMA_VERSION,
            "dimension": e0.d,
            "kernel": kernel.to_dict(),
            "plan": result.plan.to_dict(),
        }
        _write_json(os.path.join(out, "plan.json"), plan_doc)
    print(
        f"scenario done in {time.perf_counter() - t_wall:.2f}s wall",
        file=sys.stderr,
    )
    return summary, traj, result.plan


def replay_plan(plan_doc: dict, s: Scenario, post_horizon: float | None = None):
    """Re-integrate an exported plan against the scenario's initial ensemble.

    The plan may have been synthesized against a different particle count;
    this is the mean-field robustness check.  Returns the Trajectory.
    """
    if plan_doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(["plan schema_version mismatch"])
    if plan_doc.get("dimension") != s.dimension:
        raise ConfigError(["plan and scenario dimensions differ"])
    kernel = s.build_kernel()
    e0 = s.build_ensemble()
    plan = ControlPlan.from_dict(plan_doc["plan"])
    horizon = plan.t_end + (s.post_horizon if post_horizon is None else post_horizon)
    # dt_max=None lets the pieces' synthesis-time step hints drive the
    # integrator, reproducing the original run exactly on the control window
    return integrate(kernel, e0, plan, horizon, dt_max=s.dt_max)
