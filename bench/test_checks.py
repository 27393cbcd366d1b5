"""Tests of the benchmark itself: every check rejects a perturbed result.

    python3 -m pytest -q bench/test_checks.py

Each workload runs once at a small size.  Its outcome must pass its checks
unchanged, and each perturbation below must make the check it targets fail.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import flockctrl  # noqa: E402
from checks import CHECKS, Outcome, tail  # noqa: E402
from tracing import FieldCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "mass_2d": {"n": 60},
    "volume_1d": {"n": 40, "v_high": 0.85},
    "free_flight": {"n": 200, "horizon": 1.0},
}


def run_small(name, probe, tmp_path):
    doc = dataclasses.replace(WORKLOADS[name], **SMALL[name]).scenario(seed=3)
    scenario = flockctrl.validate_config(json.dumps(doc))
    probe.install()
    try:
        result = flockctrl.run_scenario(scenario, str(tmp_path))
    finally:
        probe.uninstall()
    return doc, Outcome.from_run(*result, probe.first_call)


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Each workload run once at its small size, shared by the tests."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_small(name, FieldCounter(), tmp_path_factory.mktemp(name))
        return cache[name]

    return get


def _bump_field(doc, out):
    kernel, x, v, w, f = out.first_field
    f = f.copy()
    f[0, 0] += 1e-9 * max(1.0, float(np.abs(f).max()))
    out.first_field = (kernel, x, v, w, f)


def _initial_W(doc):
    return np.ptp(np.asarray(doc["initial"]["v"]), axis=0)


def _mass_bound(doc):
    return doc["c"] + 2.0 / len(doc["initial"]["x"])


def _stretch_last_piece(doc, out):
    extra = 2.0 * math.ceil(2.0 / doc["c"]) * float(_initial_W(doc).sum())
    out.pieces[-1]["t_end"] += extra
    out.summary["total_control_time"] += extra


def _regrow_axis0(doc, out):
    out.W[-1, 0] = out.summary["eta"] + 1e-5


def _huge_band(doc, out):
    p = out.pieces[0]["params"]
    p["y0"] = 2.0 * doc["c"] / (4.0 * p["eps"])


def _weak_step(doc, out):
    p = out.pieces[0]
    i1 = int(np.searchsorted(out.t, p["t_end"]))
    out.W[i1, 0] = p["params"]["w0"] - 0.5 * p["params"]["eps"]


def _raise_V(doc, out):
    out.V[5] = out.V[4] + 1e-9


def _exit_box(doc, out):
    out.X[-1] = 10.0


def _loosen_final_box(doc, out):
    out.final_v = out.final_v * 1e3


# workload -> perturbation -> (how, a phrase the check's message must hold)
PERTURBATIONS = {
    "mass_2d": {
        "field": (_bump_field, "first field evaluation"),
        "control time": (_stretch_last_piece, "total control time"),
        "summary control time": (
            lambda d, o: o.summary.update(total_control_time=o.summary["total_control_time"] + 1e-6),
            "summary total_control_time",
        ),
        "mass in omega": (
            lambda d, o: o.mass_in_omega.__setitem__(3, _mass_bound(d) + 1e-9),
            "mass in the control set",
        ),
        "eta": (
            lambda d, o: o.summary.update(eta=o.summary["eta"] * (1 + 1e-9)),
            "differs from the recomputed",
        ),
        "axis 0 regrowth": (_regrow_axis0, "axis 0 regrew"),
        "terminal certificate": (_loosen_final_box, "fails the certificate"),
        "success flag": (lambda d, o: o.summary.update(success=False), "success = false"),
    },
    "volume_1d": {
        "field": (_bump_field, "first field evaluation"),
        "control time": (_stretch_last_piece, "total control time"),
        "band area": (_huge_band, "band area"),
        "step contraction": (_weak_step, "less than eps0"),
        "step start": (
            lambda d, o: o.W.__setitem__((0, 0), o.W[0, 0] + 1e-9),
            "is not the piece's w0",
        ),
        "terminal certificate": (_loosen_final_box, "fails the certificate"),
    },
    "free_flight": {
        "field": (_bump_field, "first field evaluation"),
        "barycenter drift": (
            lambda d, o: o.vbar.__setitem__((7, 0), o.vbar[7, 0] + 2e-10),
            "barycenter drifted",
        ),
        "V increases": (_raise_V, "V(t) increased"),
        "X beyond X_M": (_exit_box, "X(t) reached"),
        "reported X_M": (
            lambda d, o: o.summary["verdict_before"].update(
                X_M=o.summary["verdict_before"]["X_M"] + 1e-6
            ),
            "differs from the closed form",
        ),
        "control pieces": (
            lambda d, o: o.pieces.append({"t_start": 0.0, "t_end": 0.1}),
            "carries control pieces",
        ),
    },
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unperturbed_outcome_passes(small_runs, name):
    doc, out = small_runs(name)
    assert CHECKS[name](doc, out) == []


@pytest.mark.parametrize(
    "name,label", [(name, label) for name, cases in PERTURBATIONS.items() for label in cases]
)
def test_perturbation_is_rejected(small_runs, name, label):
    doc, out = small_runs(name)
    perturb, phrase = PERTURBATIONS[name][label]
    bad = copy.deepcopy(out)
    perturb(doc, bad)
    errors = CHECKS[name](doc, bad)
    assert any(phrase in e for e in errors), errors


def test_tail_closed_forms_match_the_integral():
    from scipy.integrate import quad

    for kernel in ({"family": "power_law", "K": 1.5, "gamma": 1.0},
                   {"family": "exponential", "K": 0.7, "lam": 2.0}):
        for a in (0.0, 0.3, 2.0):
            ref = quad(lambda x: _phi1(kernel, 2.0 * x), a, math.inf, epsabs=1e-14)[0]
            assert tail(kernel, a) == pytest.approx(ref, rel=1e-9)


def _phi1(kernel, r):
    if kernel["family"] == "power_law":
        return kernel["K"] / (1.0 + r * r)
    return kernel["K"] * math.exp(-kernel["lam"] * r)


def test_tracer_counts_match_the_untraced_counter(tmp_path):
    doc, plain = run_small("mass_2d", counter := FieldCounter(), tmp_path / "a")
    tracer = Tracer()
    _, traced = run_small("mass_2d", tracer, tmp_path / "b")
    assert (tracer.calls, tracer.pairs) == (counter.calls, counter.pairs)
    snap = tracer.snapshot()
    assert snap[("calls", "kernels.interaction_field")] == counter.calls
    assert snap[("count", "dynamics.rk4_steps")] * 4 == counter.calls
    assert snap[("calls", "control.fundamental_step")] == traced.summary["steps"]
    assert traced.summary == plain.summary


def test_uninstall_restores_every_binding():
    from flockctrl import dynamics, kernels

    before = (kernels.interaction_field, dynamics.interaction_field, dynamics.Trajectory.extend)
    tracer = Tracer().install()
    assert dynamics.interaction_field is not before[1]
    assert dynamics.interaction_field is kernels.interaction_field
    tracer.uninstall()
    after = (kernels.interaction_field, dynamics.interaction_field, dynamics.Trajectory.extend)
    assert after == before
