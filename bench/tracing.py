"""Probes installed around flockctrl's public functions from outside the package.

Two probes share one rebinding helper:

* ``FieldCounter`` counts calls into ``kernels.interaction_field`` and the
  N^2 pairwise interactions behind them.  It is the only probe of an
  untraced run, so ``pair_evals_per_s`` is counted the same way traced or not.
* ``Tracer`` wraps every layer below in a span and keeps, per layer, the
  call count, the self time (span time minus the time of traced spans
  nested inside it) and the layer's own counts.

A function imported by name (``from .kernels import interaction_field``) is
a separate binding in the importing module, so every ``flockctrl`` module
attribute that is the original object gets the wrapper, not only the one in
the defining module.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from flockctrl import control_mass, control_space, dynamics, ensemble, flocking, kernels, runner

# layer name -> functions whose calls are that layer's spans
SPAN_FUNCTIONS = {
    "kernels.interaction_field": [(kernels, "interaction_field")],
    "dynamics.integrate": [(dynamics, "integrate")],
    "dynamics.force": [(dynamics.ControlPiece, "force")],
    "dynamics.audit": [
        (dynamics.ControlPiece, "in_omega"),
        (dynamics.ControlPiece, "force_axis"),
    ],
    "dynamics.bookkeeping": [
        (dynamics.Trajectory, "extend"),
        (dynamics.ControlPlan, "concat"),
    ],
    "ensemble.recording": [(ensemble, "flocking_metrics"), (ensemble, "support_box")],
    "control_mass.axis_step_params": [(control_mass, "axis_step_params")],
    "control_space.space_step_params": [(control_space, "space_step_params")],
    "control.fundamental_step": [
        (control_mass, "fundamental_step"),
        (control_space, "fundamental_step_space"),
    ],
    "flocking.certificates": [(flocking, "theorem3_test"), (flocking, "corollary2_test")],
    "runner.artifacts": [(dynamics.Trajectory, "to_csv"), (runner, "_write_json")],
}
# counts kept besides each layer's calls
COUNTS = ("dynamics.rk4_steps", "dynamics.samples", "runner.artifacts.bytes")


def _flockctrl_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "flockctrl" or name.startswith("flockctrl."))
    ]


class _Rebinder:
    """Swaps wrappers in for originals and puts the originals back."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for m in _flockctrl_modules() if getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapper)
            self._undo.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()


class FieldCounter(_Rebinder):
    """Counts interaction_field calls and the N^2 pairs each one evaluates.

    ``first_call`` keeps copies of the first call's inputs and output, so the
    field can be checked against a reference computed outside the program.
    """

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.pairs = 0
        self.first_call = None

    def reset(self):
        self.calls = 0
        self.pairs = 0
        self.first_call = None

    def install(self):
        def make(original):
            def interaction_field(kernel, x, v, w):
                out = original(kernel, x, v, w)
                self.calls += 1
                self.pairs += x.shape[0] ** 2
                if self.first_call is None:
                    self.first_call = (kernel.to_dict(), x.copy(), v.copy(), w.copy(), out.copy())
                return out

            return interaction_field

        self.wrap(kernels, "interaction_field", make)
        return self


class Tracer(FieldCounter):
    """Per-layer spans on top of the field counter."""

    def __init__(self):
        super().__init__()
        self.calls_by_layer = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [layer, time of nested spans]

    def reset(self):
        super().reset()
        self.calls_by_layer.clear()
        self.self_s.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        """Calls and self time of every layer, and every count; 0 where unused."""
        out = {}
        for layer in SPAN_FUNCTIONS:
            out[("calls", layer)] = self.calls_by_layer[layer]
            out[("self_s", layer)] = self.self_s[layer]
        for key in COUNTS:
            out[("count", key)] = self.counts[key]
        return out

    def _span(self, layer, original, after=None):
        stack = self._stack

        def span(*args, **kwargs):
            # force_axis inside force is part of the force, not an audit
            if layer == "dynamics.audit" and stack and stack[-1][0] == "dynamics.force":
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.calls_by_layer[layer] += 1
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, out)
            return out

        return span

    def _count_samples(self, args, traj):
        self.counts["dynamics.samples"] += len(traj.samples)

    def _count_bytes(self, args, out):
        path = args[1] if isinstance(args[0], dynamics.Trajectory) else args[0]
        self.counts["runner.artifacts.bytes"] += os.path.getsize(path)

    def _count_rk4(self, original):
        def rk4_segment(*args, **kwargs):
            self.counts["dynamics.rk4_steps"] += 1
            return original(*args, **kwargs)

        return rk4_segment

    def install(self):
        # the field counter goes in first so the span wraps it: the span's
        # time then includes the counter, exactly as an untraced run pays it
        super().install()
        after = {"dynamics.integrate": self._count_samples, "runner.artifacts": self._count_bytes}
        for layer, functions in SPAN_FUNCTIONS.items():
            for owner, attr in functions:
                self.wrap(owner, attr, lambda f, layer=layer: self._span(layer, f, after.get(layer)))
        self.wrap(dynamics, "_rk4_segment", self._count_rk4)
        return self
