"""flockctrl benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload mass_2d --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The run

1. generates the workload's scenario from ``--seed`` (bench/workloads.py);
2. starts one discarded warm-up set-up process: a fresh interpreter that
   imports flockctrl, validates the scenario and builds the initial ensemble;
3. for about ``--seconds`` seconds, repeats cycles of ``run_scenario`` on the
   scenario, in whole rounds, starting a cycle only if it should end within
   them; with ``--trace 1`` each cycle holds an untraced round and a round
   under the per-layer tracer of bench/tracing.py, so drifts in the
   machine's speed fall on both alike.  Between cycles it starts
   ``SETUP_RUNS`` more set-up processes, spread over the run in proportion
   to the time gone, so they meet the same drifts as the rounds;
   ``setup_s`` is their median wall time;
4. checks the first round's outputs against computations made here
   (bench/checks.py), and every later round against the first, bit for bit;
5. prints the machine and thread settings as one JSON line, then the result
   as the last line: ``{"correct", "attempted", "failed", "metrics"}``.

Round outputs and a copy of the result go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import os

# one process, one BLAS thread: pinned before numpy loads, and inherited by
# the set-up processes
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from checks import CHECKS, Outcome  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 8
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flockctrl
t1 = time.perf_counter()
with open(sys.argv[2]) as fh:
    scenario = flockctrl.validate_config(fh.read())
scenario.build_kernel()
scenario.build_ensemble()
print(t1 - t0, time.perf_counter() - t1)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class SetUp:
    """Fresh set-up processes; samples are (wall, import, inputs) seconds."""

    def __init__(self, scenario_path: Path):
        self.cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(scenario_path)]
        self.samples = []
        self.run_once(keep=False)  # warms the file cache and writes the .pyc files

    def run_once(self, keep=True):
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        if keep:
            self.samples.append((wall, *map(float, done.stdout.split())))

    def medians(self):
        return [statistics.median(col) for col in zip(*self.samples)]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Rounds:
    """Rounds of run_scenario on one scenario under one probe, with their outcomes."""

    def __init__(self, scenario, out_dir: Path, probe):
        self.scenario = scenario
        self.out_dir = str(out_dir)
        self.probe = probe
        self.walls = []
        self.fields = []  # (calls, pairs) per round
        self.outcomes = []
        self.layers = []  # per-round Tracer snapshots
        self.failed = 0
        self.peak_rss_mb = None  # after the first round, as a one-run process

    def run_once(self):
        from flockctrl import run_scenario

        probe = self.probe
        probe.reset()
        probe.install()
        try:
            t0 = time.perf_counter()
            result = run_scenario(self.scenario, self.out_dir)
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"round failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return
        finally:
            probe.uninstall()
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.walls.append(wall)
        self.fields.append((probe.calls, probe.pairs))
        self.outcomes.append(Outcome.from_run(*result, probe.first_call))
        if hasattr(probe, "snapshot"):
            self.layers.append(probe.snapshot())

    @property
    def attempted(self) -> int:
        return len(self.walls) + self.failed


def run_rounds(rounds: list, setup: SetUp, seconds: float):
    """Cycles of one round of each, with set-up processes between them."""
    begin = time.perf_counter()
    cycles = []
    while True:
        t0 = time.perf_counter()
        for r in rounds:
            r.run_once()
        while len(setup.samples) < min(
            SETUP_RUNS, math.ceil(SETUP_RUNS * (time.perf_counter() - begin) / seconds)
        ):
            setup.run_once()
        cycles.append(time.perf_counter() - t0)
        # start another cycle only if it should end within the budget
        if time.perf_counter() - begin + statistics.median(cycles) > seconds:
            break
    while len(setup.samples) < SETUP_RUNS:
        setup.run_once()


def same_outcome(a, b) -> bool:
    arrays = ("t", "W", "vbar", "X", "V", "mass_in_omega", "final_x", "final_v")
    return (
        a.summary == b.summary
        and a.pieces == b.pieces
        and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in arrays)
    )


def verify(workload: str, doc: dict, rounds: list) -> list:
    """Independent checks on the first round; exact repeats after it."""
    outcomes = [o for r in rounds for o in r.outcomes]
    fields = {f for r in rounds for f in r.fields}
    errors = CHECKS[workload](doc, outcomes[0])
    if not all(same_outcome(outcomes[0], o) for o in outcomes[1:]):
        errors.append("rounds of the same scenario gave different outputs")
    if len(fields) != 1:
        errors.append(f"field call counts differ between rounds: {sorted(fields)}")
    counts = {
        tuple(sorted((k, v) for k, v in s.items() if k[0] != "self_s"))
        for r in rounds
        for s in r.layers
    }
    if len(counts) > 1:
        errors.append("per-layer counts differ between traced rounds")
    return errors


def layer_metrics(untraced: Rounds, traced: Rounds, setup) -> dict:
    """Per-layer metrics: medians of the traced rounds' times, exact counts."""
    from tracing import COUNTS, SPAN_FUNCTIONS

    samples = traced.layers

    def med(key):
        return statistics.median(s[key] for s in samples)

    first = samples[0]
    m = {}
    for layer in SPAN_FUNCTIONS:
        m[f"{layer}.calls"] = (first[("calls", layer)], "count")
        m[f"{layer}.s"] = (med(("self_s", layer)), "s")
    # names that say what the number is: integrate and fundamental_step hold
    # other layers, so their time is a self time; a step count is a count
    m["dynamics.integrate.self_s"] = m.pop("dynamics.integrate.s")
    m["control.fundamental_steps"] = m.pop("control.fundamental_step.calls")
    m["control.fundamental_step.self_s"] = m.pop("control.fundamental_step.s")
    calls = first[("calls", "kernels.interaction_field")]
    m["kernels.interaction_field.pairs"] = (traced.fields[0][1], "count")
    m["kernels.interaction_field.ms_per_call"] = (
        1e3 * med(("self_s", "kernels.interaction_field")) / calls,
        "ms",
    )
    for key in COUNTS:
        m[key] = (first[("count", key)], "B" if key.endswith(".bytes") else "count")
    traced_wall = statistics.median(traced.walls)
    layer_total = [sum(v for k, v in s.items() if k[0] == "self_s") for s in samples]
    m["setup.import_s"] = (setup[1], "s")
    m["setup.inputs_s"] = (setup[2], "s")
    m["trace.untraced_wall_s"] = (statistics.median(untraced.walls), "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    # rounds alternate, so each traced round is paired with the untraced
    # round just before it
    m["trace.overhead_s"] = (
        statistics.median(t - u for u, t in zip(untraced.walls, traced.walls)),
        "s",
    )
    m["trace.other_s"] = (
        statistics.median(w - t for w, t in zip(traced.walls, layer_total)),
        "s",
    )
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flockctrl" / "__init__.py").is_file():
        print(f"flockctrl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = WORKLOADS[args.workload].scenario(args.seed)
    raw = json.dumps(doc)
    scenario_path = out_dir / "scenario.json"
    scenario_path.write_text(raw)

    setup = SetUp(scenario_path)

    import flockctrl
    from tracing import FieldCounter, Tracer

    if Path(flockctrl.__file__).resolve().parent != SRC / "flockctrl":
        print(f"imported flockctrl from {flockctrl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scenario = flockctrl.validate_config(raw)

    untraced = Rounds(scenario, out_dir, FieldCounter())
    rounds = [untraced]
    if args.trace:
        traced = Rounds(scenario, out_dir, Tracer())
        rounds.append(traced)
    run_rounds(rounds, setup, args.seconds)
    setup_medians = setup.medians()

    if not all(r.walls for r in rounds):
        print("no round completed", file=sys.stderr)
        return 1
    errors = verify(args.workload, doc, rounds)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(untraced, traced, setup_medians)
    else:
        wall = statistics.median(untraced.walls)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_medians[0], "s"),
            "pair_evals_per_s": (untraced.fields[0][1] / wall, "1/s"),
            "peak_rss_mb": (untraced.peak_rss_mb, "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    env.update(
        workload=args.workload,
        seed=args.seed,
        rounds=[len(r.walls) for r in rounds],
        steps=untraced.outcomes[0].summary["steps"],
        field_calls=untraced.fields[0][0],
    )
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "env": env,
                "round_walls_s": [r.walls for r in rounds],
                "setup_samples_s": setup.samples,
                **result,
            },
            indent=1,
        )
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
