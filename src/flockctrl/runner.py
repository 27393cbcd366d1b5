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
by piece, by ``ControlPlan.from_dict``, before it is integrated.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields

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
    _SAMPLE_TOL,
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
from .kernels import Kernel, _is_integer, _is_number, kernel_from_dict

SCHEMA_VERSION = 1

_MODES = ("mass", "volume", "none")
_BUDGETS = {"mass": MassBudget, "volume": VolumeBudget}


class ConfigError(ValueError):
    """Aggregated, human-readable configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class StrategyFailure(RuntimeError):
    """A synthesis, flight or replay failed after validation; no artifacts are written."""


@dataclass(kw_only=True)
class Scenario:
    """A validated scenario.  Each field with a default is the top-level key
    of that name, and the default is what an omitted key reads as."""

    dimension: int = 1
    kernel: Kernel
    # the initial measure; integrate never writes into it
    ensemble: Ensemble = field(repr=False, compare=False)
    mode: str = "none"
    c: float | None = None
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


# the optional top-level keys and what each reads as when omitted
_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}
_TOP_KEYS = {"schema_version", "kernel", "initial", *_DEFAULTS}
# the keys a Scenario holds as floats; JSON may give them as integers
_FLOATS = [f.name for f in fields(Scenario) if f.type.startswith("float")]


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


def _is_numbers(x) -> bool:
    """A finite JSON number, or a list of them, nested to any depth."""
    return all(map(_is_numbers, x)) if isinstance(x, list) else _is_number(x)


def _is_count(x) -> bool:
    """A positive JSON integer, or a nonempty list of them."""
    entries = x if isinstance(x, list) and x else [x]
    return all(_is_integer(m) and m >= 1 for m in entries)


# each initial kind's builder, its keys in the builder's argument order, and
# what its optional keys read as when omitted
_INITIAL_KINDS = {
    "uniform_box": (uniform_box_ensemble,
                    ("particles", "x_low", "x_high", "v_low", "v_high", "seed"), {"seed": 0}),
    "grid": (grid_ensemble, ("x_low", "x_high", "v_low", "v_high", "counts_x", "counts_v"), {}),
    "explicit": (Ensemble.from_points, ("x", "v", "w"), {"w": None}),
}
_NUMBERS = "initial bounds, x, v and w must be finite JSON numbers"
_COUNTS = "initial.counts_x and counts_v must be positive integers or lists"
# each initial key's rule and the message a value that breaks it gets, in the
# order the messages are reported; keys that share a message report it once
_INITIAL_RULES = {
    "particles": (lambda n: _is_integer(n) and n >= 1,
                  "initial.particles must be a positive integer"),
    "seed": (lambda s: _is_integer(s) and s >= 0, "initial.seed must be a nonnegative integer"),
    "counts_x": (_is_count, _COUNTS),
    "counts_v": (_is_count, _COUNTS),
    **dict.fromkeys(("x_low", "x_high", "v_low", "v_high", "x", "v"), (_is_numbers, _NUMBERS)),
    "w": (lambda w: w is None or _is_numbers(w), _NUMBERS),
}


def _build_initial(spec: dict) -> Ensemble:
    """The initial measure a checked ``initial`` block, its defaults filled, describes."""
    build, keys, _ = _INITIAL_KINDS[spec["kind"]]
    return build(*(spec[k] for k in keys))


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
    """Parse and validate a JSON scenario; an omitted key reads as the
    default of its ``Scenario`` field.

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
    doc = {**_DEFAULTS, **doc}

    mode = doc["mode"]
    if mode not in _MODES:
        errors.append(f"mode must be one of {_MODES}")
    dim = doc["dimension"]
    if not _is_integer(dim) or dim < 1:
        errors.append("dimension must be a positive integer")
    if mode == "volume" and dim != 1:
        errors.append("volume mode is one-dimensional; set dimension = 1")

    try:
        kernel = kernel_from_dict(doc.get("kernel"))
    except ValueError as exc:
        errors.append(str(exc))

    initial = doc.get("initial")
    kind = initial.get("kind") if isinstance(initial, dict) else None
    if not isinstance(kind, str) or kind not in _INITIAL_KINDS:
        errors.append(f"initial measure spec with kind in {sorted(_INITIAL_KINDS)} is required")
    else:
        _, keys, defaults = _INITIAL_KINDS[kind]
        initial = {**defaults, **initial}
        unknown = set(initial) - {"kind", *keys}
        if unknown:
            errors.append(f"unknown initial-measure keys: {sorted(unknown)}")
        missing = [k for k in keys if k not in initial]
        if missing:
            errors.append(f"initial kind {kind!r} needs the keys {missing}")
        errors.extend(dict.fromkeys(message for k, (rule, message) in _INITIAL_RULES.items()
                                    if k in keys and k in initial and not rule(initial[k])))

    c = doc["c"]
    if c is not None and not _is_number(c):
        errors.append("c must be a finite number")
    elif mode in _MODES and mode != "none" and (c is None or c <= 0):
        errors.append("budget must be positive when mode is not 'none'")
    elif mode == "mass" and c > 2:
        # columns hold mass c/2 each, and the total mass is 1
        errors.append("mass budget c must be at most 2")
    dt_max = doc["dt_max"]
    dt_ok = dt_max is None or (_is_number(dt_max) and dt_max > 0)
    if not dt_ok:
        errors.append("dt_max must be a positive finite number")
    for key in ("horizon", "post_horizon"):
        val = doc[key]
        if not _is_number(val) or val < 0:
            errors.append(f"{key} must be a nonnegative finite number")
        elif dt_ok:
            # a free flight, whose steps are counted before any is taken
            try:
                flight_segments(ControlPlan(), val, dt_max)
            except FlightTooLongError as exc:
                errors.append(f"{key} {val!r}: {exc}")
    sf = doc["safety_factor"]
    if not _is_number(sf) or not 0 < sf <= 1:
        errors.append("safety_factor must lie in (0, 1]")
    budget = doc["step_budget"]
    if not _is_integer(budget) or budget < 1:
        errors.append("step_budget must be a positive integer")
    eta = doc["eta"]
    if eta is not None and (not _is_number(eta) or eta <= 0):
        errors.append("eta must be a positive finite number")
    out = doc["out"]
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
    except (TypeError, ValueError, OverflowError) as exc:  # a count past a C long
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
    values = {k: doc[k] for k in _DEFAULTS}
    values.update((k, float(values[k])) for k in _FLOATS if values[k] is not None)
    return Scenario(kernel=kernel, ensemble=e, **values)


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


def _parse_plan(plan_doc, dimension: int) -> ControlPlan:
    """The control plan of a replay document; ConfigError at its first flaw.

    The document is an object with this ``schema_version`` and ``dimension``
    and a ``plan`` object with a ``pieces`` list, which
    :meth:`ControlPlan.from_dict` reads; the plan must not end before t = 0.
    """
    if not isinstance(plan_doc, dict):
        raise ConfigError(["plan document must be an object"])
    if plan_doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(["plan schema_version mismatch"])
    if plan_doc.get("dimension") != dimension:
        raise ConfigError(["plan and scenario dimensions differ"])
    plan = plan_doc.get("plan")
    if not (isinstance(plan, dict) and isinstance(plan.get("pieces"), list)):
        raise ConfigError(["plan document needs a 'plan' object with a 'pieces' list"])
    try:
        plan = ControlPlan.from_dict(plan, dimension)
    except ValueError as exc:  # a flawed piece, or pieces that overlap or leave a gap
        raise ConfigError([str(exc)]) from exc
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
