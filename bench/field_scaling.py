"""In-run cost of one interaction_field call across N, d and kernel.

    python3 bench/field_scaling.py

Each cell runs a short uncontrolled ``integrate`` (``STEPS`` RK4 steps,
four field calls each) under the benchmark's tracer and reports the field's
self time per call in milliseconds, so the call is timed inside a real run
rather than in a bare loop.  BLAS is pinned to one thread, as in run.py.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flockctrl import ControlPlan, ExponentialKernel, PowerLawKernel, integrate  # noqa: E402
from flockctrl import uniform_box_ensemble  # noqa: E402
from tracing import Tracer  # noqa: E402

SIZES = (200, 400, 900, 2000)
STEPS = 10
KERNELS = {"power_law": PowerLawKernel(1.0, 1.0), "exponential": ExponentialKernel(1.0, 1.0)}


def ms_per_call(kernel, n: int, d: int) -> float:
    e = uniform_box_ensemble(n, [0.0] * d, [1.0] * d, [0.0] * d, [1.0] * d, seed=0)
    tracer = Tracer().install()
    try:
        integrate(kernel, e, ControlPlan(), horizon=0.01 * STEPS, dt_max=0.01, sample_stride=10)
    finally:
        tracer.uninstall()
    return 1e3 * tracer.self_s["kernels.interaction_field"] / tracer.calls


def main() -> int:
    print("| N | d | " + " | ".join(f"{k} ms/call" for k in KERNELS) + " |")
    print("|---|---|" + "---|" * len(KERNELS))
    for d in (1, 2):
        for n in SIZES:
            cells = [f"{ms_per_call(k, n, d):.3f}" for k in KERNELS.values()]
            print(f"| {n} | {d} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
