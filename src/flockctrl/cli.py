"""Command-line entry point.

Runs one scenario per invocation.  Flag values override the corresponding
config fields; exit status is 0 on success, 2 on validation errors (of the
scenario or of a replayed plan), 3 when a synthesis loop or an integration
fails.  With ``-v`` the ``flockctrl`` logger's INFO lines, such as what a
run cost, go to stderr; by default a successful run writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .runner import (
    _MODES, _TOP_KEYS, ConfigError, StrategyFailure, dump_json, replay_plan, run_scenario,
    validate_config,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flockctrl",
        description="Mean-field flocking simulator with sparse control synthesis",
    )
    p.add_argument("--config", required=True, help="path to the JSON scenario")
    p.add_argument("--mode", choices=_MODES, help="constraint mode")
    p.add_argument("--c", type=float, help="mass or volume budget")
    p.add_argument("--particles", type=int, help="particle count (uniform_box initial)")
    p.add_argument("--seed", type=int, help="sampler seed (uniform_box initial)")
    p.add_argument("--dim", type=int, dest="dimension", help="spatial dimension")
    p.add_argument("--out", help="output directory for the artifacts")
    p.add_argument("--dt-max", type=float, help="integrator step-size cap")
    p.add_argument("--post-horizon", type=float, help="free-flight horizon after control")
    p.add_argument("--replay", help="replay an exported plan.json instead of synthesizing")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="report what the run cost on stderr")
    return p


def _apply_overrides(doc: dict, args) -> dict:
    """``doc`` with each flag given: a flag whose dest is a top-level key sets
    that key, and ``--particles`` and ``--seed`` set the ``initial`` block's."""
    for key, val in vars(args).items():
        if key in _TOP_KEYS and val is not None:
            doc[key] = val
    initial = doc.get("initial")
    if isinstance(initial, dict):
        for key in ("particles", "seed"):
            if getattr(args, key) is not None:
                initial[key] = getattr(args, key)
    return doc


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot read {what} {path}: {exc}"]) from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.verbose:
        return _run(args)
    log = logging.getLogger("flockctrl")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(args) -> int:
    try:
        doc = _read_json(args.config, "config")
        if not isinstance(doc, dict):
            raise ConfigError(["top-level config must be an object"])
        scenario = validate_config(json.dumps(_apply_overrides(doc, args)))
        if args.replay is not None:
            traj = replay_plan(_read_json(args.replay, "plan"), scenario)
            if scenario.out is not None:
                os.makedirs(scenario.out, exist_ok=True)
                traj.to_csv(os.path.join(scenario.out, "trajectory.csv"))
            return 0
        summary, _, _ = run_scenario(scenario)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    except StrategyFailure as exc:
        print(f"strategy failure: {exc}", file=sys.stderr)
        return 3
    dump_json(summary.to_dict(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
