"""Scenario orchestration: config validation, strategy dispatch, artifacts.

A scenario is a JSON document (schema_version 1) naming the kernel, the
initial particle cloud, the constraint mode, and the budgets.  Running it
produces three artifacts in the output directory:

* ``trajectory.csv``   -- per-sample support box, flocking metrics, audits;
* ``summary.json``     -- terminal report with verdicts and worst-case audits;
* ``plan.json``        -- the machine-readable control schedule, replayable.

All outputs are deterministic for a fixed scenario (seeds included).  What
a run cost goes only to the ``flockctrl`` logger, as one INFO line, so the
artifacts stay byte-reproducible.  ``trajectory.csv`` is written a chunk of
rows at a time; a JSON artifact goes through ``json.dump`` from a strict copy
of its document (``dump_json``).  A replayed plan document is checked piece
by piece before it is integrated.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .control_mass import (
    _flockctrl_log,
    ContractionError,
    DegenerateMeasureError,
    MassBudget,
    StrategyBudgetError,
    complete_strategy,
)
from .control_space import VolumeBudget
from .dynamics import (
    _JOIN_TOL,
    _SAMPLE_TOL,
    BANDS,
    ControlPiece,
    ControlPlan,
    FlightTooLongError,
    IntegrationError,
    Trajectory,
    decay_rate_estimate,
    flight_segments,
    integrate,
)
from .ensemble import Ensemble, grid_ensemble, support_box, uniform_box_ensemble
from .flocking import covering_box_test, theorem3_test
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
_KERNEL_NUMBERS = {"K", "gamma", "lam", "radii", "values"}
_BUDGETS = {"mass": MassBudget, "volume": VolumeBudget}


class ConfigError(ValueError):
    """Aggregated, human-readable configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class StrategyFailure(RuntimeError):
    """A synthesis, flight or replay failed after validation; no artifacts are written."""


@dataclass
class Scenario:
    dimension: int
    kernel: Kernel
    # the initial measure; integrate never writes into it
    ensemble: Ensemble = field(repr=False, compare=False)
    mode: str
    c: float | None
    eta: float | None = None
    dt_max: float | None = None
    horizon: float = 10.0
    post_horizon: float = 10.0
    safety_factor: float = 0.99
    step_budget: int = 100_000
    out: str | None = None

    # kept while the benchmark's set-up calls them (ROADMAP item 2)
    def build_kernel(self) -> Kernel:
        return self.kernel

    def build_ensemble(self) -> Ensemble:
        return self.ensemble


def _build_initial(spec: dict) -> Ensemble:
    """The initial measure an ``initial`` block describes."""
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
        return asdict(self)


def _is_number(x) -> bool:
    """A finite JSON number; JSON's NaN and Infinity and the booleans are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_numbers(x) -> bool:
    """A finite JSON number, or a list of them, nested to any depth."""
    return all(map(_is_numbers, x)) if isinstance(x, list) else _is_number(x)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_count(x) -> bool:
    """A positive JSON integer, or a nonempty list of them."""
    entries = x if isinstance(x, list) and x else [x]
    return all(_is_integer(m) and m >= 1 for m in entries)


def _out_problem(out: str) -> str | None:
    """Why the output directory ``out`` cannot be created, or None if it can."""
    if not out or "\0" in out:
        return f"out {out!r} is not a directory name"
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        return f"out {out!r} cannot be created: {path} is not a directory"
    if not os.access(path, os.W_OK | os.X_OK):
        return f"out {out!r} cannot be created: {path} is not writable"
    return None


def validate_config(raw: str) -> Scenario:
    """Parse and validate a JSON scenario, applying documented defaults.

    The kernel and the initial measure are built here once, the measure
    after every other check has passed, and kept on the Scenario; the output
    directory is checked to be creatable, so neither fails after a run.
    """
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

    spec = doc.get("kernel")
    if not isinstance(spec, dict) or "family" not in spec:
        errors.append("kernel spec with a 'family' field is required")
    elif not all(_is_number(x) for k, val in spec.items() if k in _KERNEL_NUMBERS
                 for x in (val if isinstance(val, list) else [val])):
        errors.append("kernel parameters must be finite numbers")
    else:
        try:
            kernel = kernel_from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"bad kernel spec: {exc}")

    initial = doc.get("initial")
    if not isinstance(initial, dict) or not isinstance(initial.get("kind"), str) \
            or initial["kind"] not in _INITIAL_KEYS:
        errors.append(
            "initial measure spec with kind in "
            f"{sorted(_INITIAL_KEYS)} is required"
        )
    else:
        allowed = _INITIAL_KEYS[initial["kind"]]
        bad = set(initial) - allowed
        if bad:
            errors.append(f"unknown initial-measure keys: {sorted(bad)}")
        n = initial.get("particles")
        seed = initial.get("seed", 0)
        if initial["kind"] == "uniform_box" and (not _is_integer(n) or n < 1):
            errors.append("initial.particles must be a positive integer")
        elif initial["kind"] == "uniform_box" and (not _is_integer(seed) or seed < 0):
            errors.append("initial.seed must be a nonnegative integer")
        elif initial["kind"] == "grid" and not all(
            _is_count(initial.get(k)) for k in ("counts_x", "counts_v")
        ):
            errors.append("initial.counts_x and counts_v must be positive integers or lists")
        if not all(_is_numbers(val) or (k == "w" and val is None) for k, val in initial.items()
                   if k in ("x_low", "x_high", "v_low", "v_high", "x", "v", "w")):
            errors.append("initial bounds, x, v and w must be finite JSON numbers")

    c = doc.get("c")
    if c is not None and not _is_number(c):
        errors.append("c must be a finite number")
    elif mode != "none" and (c is None or c <= 0):
        errors.append("budget must be positive when mode is not 'none'")
    elif mode == "mass" and c > 2:
        # columns hold mass c/2 each, and the total mass is 1
        errors.append("mass budget c must be at most 2")
    dt_max = doc.get("dt_max")
    dt_ok = dt_max is None or (_is_number(dt_max) and dt_max > 0)
    if not dt_ok:
        errors.append("dt_max must be a positive finite number")
    for key in ("horizon", "post_horizon"):
        val = doc.get(key, 10.0)
        if not _is_number(val) or val < 0:
            errors.append(f"{key} must be a nonnegative finite number")
        elif dt_ok:
            # a free flight, whose steps are counted before any is taken
            try:
                flight_segments(ControlPlan(), val, dt_max)
            except FlightTooLongError as exc:
                errors.append(f"{key} {val!r}: {exc}")
    sf = doc.get("safety_factor", 0.99)
    if not _is_number(sf) or not 0 < sf <= 1:
        errors.append("safety_factor must lie in (0, 1]")
    budget = doc.get("step_budget", 100_000)
    if not _is_integer(budget) or budget < 1:
        errors.append("step_budget must be a positive integer")
    eta = doc.get("eta")
    if eta is not None and (not _is_number(eta) or eta <= 0):
        errors.append("eta must be a positive finite number")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        errors.append("out must be a string naming a directory")
    elif out is not None and (problem := _out_problem(out)):
        errors.append(problem)
    if errors:
        raise ConfigError(errors)

    # built last, once, so that its own complaints are config errors and a
    # grid, whose size nothing bounds, is never built for a rejected config
    try:
        e = _build_initial(initial)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([f"bad initial measure: {exc}"]) from exc
    except MemoryError as exc:
        asked = {k: initial[k] for k in ("particles", "counts_x", "counts_v") if k in initial}
        raise ConfigError([f"initial measure {asked} does not fit in memory"]) from exc
    # a span past the largest double is inf, and one over inf or NaN is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        spans = np.ptp(e.x, axis=0), np.ptp(e.v, axis=0)
    if not all(np.all(np.isfinite(span)) for span in spans):
        errors.append("initial positions and velocities must be finite and span a finite range")
    if e.d != dim:
        errors.append(f"initial measure has dimension {e.d}, scenario says {dim}")
    if errors:
        raise ConfigError(errors)
    return Scenario(
        dimension=dim,
        kernel=kernel,
        ensemble=e,
        mode=mode,
        c=float(c) if c is not None else None,
        eta=float(eta) if eta is not None else None,
        dt_max=float(dt_max) if dt_max is not None else None,
        horizon=float(doc.get("horizon", 10.0)),
        post_horizon=float(doc.get("post_horizon", 10.0)),
        safety_factor=float(sf),
        step_budget=budget,
        out=out,
    )


def _box_dict(box) -> dict:
    return {
        "Y": [float(x) for x in box.y],
        "a": [0.0] * len(box.y),  # velocity offsets, zero in the normalized frame
        "W": [float(x) for x in box.w],
        "x_shift": [float(x) for x in box.x_shift],
        "v_shift": [float(x) for x in box.v_shift],
    }


def _strict(x):
    """A copy of ``x`` that strict JSON can hold: a non-finite float becomes the
    string of its token, and a tuple or an iterator a list."""
    if isinstance(x, float) and not math.isfinite(x):
        return json.dumps(x)
    if isinstance(x, dict):
        if not all(isinstance(k, str) for k in x):
            raise TypeError("keys must be str")
        return {k: _strict(val) for k, val in x.items()}
    if isinstance(x, (list, tuple, Iterator)):
        return [_strict(val) for val in x]
    return x


def dump_json(doc, fh) -> None:
    """Write ``doc`` to the text file ``fh`` as strict JSON, indented, with sorted
    keys, and a newline.  JSON has no non-finite number, so such a float goes
    out as the string "Infinity", "-Infinity" or "NaN".  An iterator in
    ``doc`` goes out as an array."""
    json.dump(_strict(doc), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        dump_json(doc, fh)


def _free_flight(kernel, e, t0, horizon, dt_max, log=None):
    return integrate(kernel, e, ControlPlan(), horizon, dt_max=dt_max, t0=t0, sample_stride=10,
                     log=log)


def run_scenario(s: Scenario, out_dir: str | None = None):
    """Execute a scenario end to end and write the three artifacts.

    Mode ``none`` is one free flight over ``horizon``.  Modes ``mass`` and
    ``volume`` run ``complete_strategy`` under the mode's budget, then a
    free flight over ``post_horizon`` from where the control switches off.
    The summary judges the final state by the covering-box certificate.

    Returns (RunSummary, Trajectory, ControlPlan), and logs what the run cost
    as one INFO line of the ``flockctrl`` logger.  Raises ConfigError for
    invalid late-bound settings (before any step) or a flight of more than
    ``dynamics.MAX_FLIGHT_STEPS`` steps (before its first), and
    StrategyFailure when a synthesis loop or a flight fails.  The artifacts
    are written only after a run completes, so a failed run leaves none, not
    even the output directory.
    """
    t_wall = time.perf_counter()
    log = _flockctrl_log()
    usage0 = _rusage() if log is not None else None
    out = out_dir or s.out
    if out is not None and (problem := _out_problem(out)):
        raise ConfigError([problem])
    kernel, e0 = s.kernel, s.ensemble
    verdict_before = theorem3_test(kernel, e0)
    try:
        if s.mode == "none":
            plan, records, eta, total_time = ControlPlan(), [], s.eta, 0.0
            traj = _free_flight(kernel, e0, 0.0, s.horizon, s.dt_max)
        else:
            try:
                budget = _BUDGETS[s.mode](s.c)
            except ValueError as exc:  # a Scenario built without validate_config
                raise ConfigError([str(exc)]) from exc
            result = complete_strategy(
                kernel, e0, budget, eta=s.eta, dt_max=s.dt_max, step_budget=s.step_budget,
            )
            plan, records, eta = result.plan, result.records, result.eta
            total_time, final, traj = result.total_control_time, result.final, result.trajectory
            if s.post_horizon > 0:
                _free_flight(kernel, final, plan.t_end, s.post_horizon, s.dt_max, traj)
    except FlightTooLongError as exc:  # a step's flight under a dt_max far below its length
        raise ConfigError([str(exc)]) from exc
    except (
        StrategyBudgetError, ContractionError, DegenerateMeasureError, IntegrationError
    ) as exc:
        raise StrategyFailure(str(exc)) from exc

    control_off = plan.t_end
    cols = traj.columns
    off = np.flatnonzero(cols.t >= control_off - _SAMPLE_TOL)
    lam_off = float(cols.Lambda[off[0] if off.size else -1])
    lam_final = float(cols.Lambda[-1])
    try:
        decay = decay_rate_estimate(traj, t_from=control_off)
    except ValueError:
        decay = 0.0

    box_f = support_box(traj.final)
    verdict_after, v_tilde = covering_box_test(kernel, box_f)
    safe_pass = 2.0 * v_tilde <= s.safety_factor * verdict_after.threshold
    success = bool(safe_pass and (decay > 0.0 or v_tilde == 0.0))

    worst = {}
    if records:
        worst = {name: max(getattr(r, name) for r in records) for name in budget.worst_audits}

    summary = RunSummary(
        mode=s.mode,
        steps=len(records),
        total_control_time=total_time,
        eta=eta,
        terminal_box=_box_dict(box_f),
        verdict_before=verdict_before.to_dict(),
        verdict_after=verdict_after.to_dict(),
        decay_rate=decay,
        lambda_at_control_off=lam_off,
        lambda_final=lam_final,
        success=success,
        worst_audits=worst,
    )

    if out is not None:
        os.makedirs(out, exist_ok=True)
        traj.to_csv(os.path.join(out, "trajectory.csv"))
        _write_json(os.path.join(out, "summary.json"), summary.to_dict())
        plan_doc = {
            "schema_version": SCHEMA_VERSION,
            "dimension": e0.d,
            "kernel": kernel.to_dict(),
            # ControlPlan.to_dict's pieces, each made only as dump_json copies it
            "plan": {"pieces": map(ControlPiece.to_dict, plan.pieces)},
        }
        _write_json(os.path.join(out, "plan.json"), plan_doc)
    if log is not None:
        log.info(
            "scenario done in %.2f s wall: %d samples, %d pieces, %s",
            time.perf_counter() - t_wall, cols.t.size, len(plan.pieces), _memory_cost(usage0),
        )
    return summary, traj, plan


def _rusage():
    """The process's resource usage so far, or None where ``resource`` is missing."""
    try:
        import resource
    except ImportError:  # not on every platform
        return None
    return resource.getrusage(resource.RUSAGE_SELF)


def _memory_cost(usage0) -> str:
    """The process's peak RSS so far and its minor page faults since ``usage0``, as text."""
    usage = _rusage()
    if usage is None:
        return "peak RSS unknown, unknown minor page faults"
    # ru_maxrss is in bytes on macOS, else in KiB
    peak = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    return f"peak RSS {peak:.1f} MB, {usage.ru_minflt - usage0.ru_minflt} minor page faults"


_PIECE_NUMBERS = ("t_start", "t_end", "t_ref", "x_shift", "v_shift")
_PIECE_KEYS = {*_PIECE_NUMBERS, "kind", "axis", "params"}


def _parse_plan(plan_doc, dimension: int) -> ControlPlan:
    """The control plan of a replay document; ConfigError at its first flaw.

    Each piece needs finite numbers for its times and frame, a duration
    longer than the plan's join tolerance, an integer axis below
    ``dimension``, a known kind, and exactly that kind's parameters as finite
    numbers, positive where the kind says so; ``dt`` may be null or positive.
    A ``space_band`` piece may carry ``sign`` 1 or -1 (missing means 1, as in
    plans written before mirrored pieces); no other kind carries one.
    """
    if not isinstance(plan_doc, dict):
        raise ConfigError(["plan document must be an object"])
    if plan_doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(["plan schema_version mismatch"])
    if plan_doc.get("dimension") != dimension:
        raise ConfigError(["plan and scenario dimensions differ"])
    plan = plan_doc.get("plan")
    pieces = plan.get("pieces") if isinstance(plan, dict) else None
    if not isinstance(pieces, list):
        raise ConfigError(["plan document needs a 'plan' object with a 'pieces' list"])
    for i, p in enumerate(pieces):
        if not isinstance(p, dict) or not _PIECE_KEYS <= set(p):
            problem = f"must be an object with keys {sorted(_PIECE_KEYS)}"
        elif not all(_is_number(p[k]) for k in _PIECE_NUMBERS):
            problem = f"{', '.join(_PIECE_NUMBERS)} must be finite numbers"
        elif not p["t_end"] - p["t_start"] > _JOIN_TOL:
            problem = f"must last longer than a plan's {_JOIN_TOL:g} join tolerance"
        elif p.get("dt") is not None and not (_is_number(p["dt"]) and p["dt"] > 0):
            problem = "dt must be null or a positive finite number"
        elif not (_is_integer(p["axis"]) and 0 <= p["axis"] < dimension):
            problem = f"axis must be an integer in [0, {dimension})"
        elif not (isinstance(p["kind"], str) and p["kind"] in BANDS):
            problem = f"kind must be one of {sorted(BANDS)}"
        elif "sign" in p and not (p["kind"] == "space_band" and _is_number(p["sign"])
                                  and p["sign"] in (1, -1)):
            problem = "sign must be 1 or -1, and only a space_band piece carries one"
        elif not (
            isinstance(p["params"], dict)
            and set(p["params"]) == set(BANDS[p["kind"]].params)
            and all(_is_number(x) for x in p["params"].values())
        ):
            problem = f"params must be finite numbers named {sorted(BANDS[p['kind']].params)}"
        elif not all(p["params"][k] > 0 for k in BANDS[p["kind"]].positive):
            problem = f"params {', '.join(BANDS[p['kind']].positive)} must be positive"
        else:
            continue
        raise ConfigError([f"plan piece {i}: {problem}"])
    try:
        plan = ControlPlan.from_dict(plan)
    except ValueError as exc:  # pieces that overlap or leave a gap
        raise ConfigError([f"bad plan: {exc}"]) from exc
    if plan.t_end < 0.0:  # a replay flies from t = 0 to the plan's end
        raise ConfigError([f"the plan ends at t = {plan.t_end!r}, before t = 0"])
    return plan


def replay_plan(plan_doc: dict, s: Scenario):
    """Re-integrate an exported plan against the scenario's initial ensemble.

    The plan may have been synthesized against a different particle count;
    this is the mean-field robustness check.  After the plan ends, the
    ensemble flies free over ``s.post_horizon`` as in :func:`run_scenario`.
    Returns the Trajectory.  A malformed plan document, or one whose flight
    needs more than ``dynamics.MAX_FLIGHT_STEPS`` steps, raises ConfigError
    before any step, and a flight whose state stops being finite raises
    StrategyFailure.
    """
    plan = _parse_plan(plan_doc, s.dimension)
    traj = Trajectory.empty(s.ensemble)
    try:
        # dt_max=None lets the pieces' synthesis-time step hints drive the
        # integrator, reproducing the original run exactly on the control window
        integrate(s.kernel, s.ensemble, plan, plan.t_end, dt_max=s.dt_max, log=traj)
        if s.post_horizon > 0:
            _free_flight(s.kernel, traj.final, plan.t_end, s.post_horizon, s.dt_max, traj)
    except FlightTooLongError as exc:  # raised before the flight's first step
        raise ConfigError([f"replayed plan: {exc}"]) from exc
    except IntegrationError as exc:
        raise StrategyFailure(str(exc)) from exc
    return traj
