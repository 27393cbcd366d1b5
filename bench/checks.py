"""Checks of a workload's outputs against computations made apart from flockctrl.

Every check takes the generated scenario document and an ``Outcome`` holding
plain arrays taken from ``run_scenario``'s return values, and returns a list
of failure messages (empty when the outcome passes).  The kernel, its tail
integral and the alignment field are recomputed here from their formulas;
nothing is compared with stored program output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FIELD_RTOL = 1e-12
# the program's own audit slack on velocity extents (control_mass._BOX_SLACK)
BOX_SLACK = 1e-6
# per-step contraction slack, the same as control_space._SLACK
CONTRACTION_SLACK = 1e-6
VBAR_TOL = 1e-10
# round-off allowed when V(t) is compared between consecutive samples
MONOTONE_TOL = 1e-12


@dataclass
class Outcome:
    summary: dict
    t: np.ndarray  # sample times, (S,)
    W: np.ndarray  # velocity extents of the support box, (S, d)
    vbar: np.ndarray  # velocity barycenters, (S, d)
    X: np.ndarray  # spatial radii around the barycenter, (S,)
    V: np.ndarray  # velocity radii around the barycenter, (S,)
    mass_in_omega: np.ndarray  # audited mass in the control set, (S,)
    pieces: list  # ControlPlan.to_dict()["pieces"]
    final_x: np.ndarray
    final_v: np.ndarray
    # (kernel dict, x, v, w, field) of the run's first interaction_field call
    first_field: tuple | None = None

    @classmethod
    def from_run(cls, summary, traj, plan, first_field) -> "Outcome":
        s = traj.samples
        return cls(
            summary=summary.to_dict(),
            t=np.array([x.t for x in s]),
            W=np.array([x.box.w for x in s]),
            vbar=np.array([x.metrics.vbar for x in s]),
            X=np.array([x.metrics.X for x in s]),
            V=np.array([x.metrics.V for x in s]),
            mass_in_omega=np.array([x.mass_in_omega for x in s]),
            pieces=plan.to_dict()["pieces"],
            final_x=traj.final.x.copy(),
            final_v=traj.final.v.copy(),
            first_field=first_field,
        )


def phi(kernel: dict, r: np.ndarray) -> np.ndarray:
    if kernel["family"] == "power_law":
        return kernel["K"] / (1.0 + r * r) ** kernel["gamma"]
    if kernel["family"] == "exponential":
        return kernel["K"] * np.exp(-kernel["lam"] * r)
    raise ValueError(f"no closed form for kernel family {kernel['family']!r}")


def tail(kernel: dict, a: float) -> float:
    """Closed form of int_a^inf phi(2x) dx."""
    if kernel["family"] == "power_law" and kernel["gamma"] == 1.0:
        return 0.5 * kernel["K"] * (math.pi / 2.0 - math.atan(2.0 * a))
    if kernel["family"] == "exponential":
        return kernel["K"] / (2.0 * kernel["lam"]) * math.exp(-2.0 * kernel["lam"] * a)
    raise ValueError(f"no closed-form tail for kernel {kernel}")


def field_reference(kernel: dict, x, v, w, block: int = 200):
    """sum_j w_j phi(|x_i - x_j|) (v_j - v_i) per particle, and its magnitude scale.

    The scale is sum_j w_j phi_ij |v_j - v_i|, the size of the terms that
    cancel; it makes the 1e-12 tolerance relative where the field is near 0.
    Rows go in blocks so the check adds little to the process's peak memory.
    """
    ref = np.empty_like(v)
    scale = np.empty(v.shape[0])
    for lo in range(0, x.shape[0], block):
        dx = x[None, :, :] - x[lo : lo + block, None, :]
        dv = v[None, :, :] - v[lo : lo + block, None, :]
        coef = w[None, :] * phi(kernel, np.sqrt((dx * dx).sum(axis=2)))
        ref[lo : lo + block] = np.einsum("ij,ijk->ik", coef, dv)
        scale[lo : lo + block] = np.einsum("ij,ij->i", coef, np.abs(dv).sum(axis=2))
    return ref, scale


def check_field(out: Outcome) -> list:
    if out.first_field is None:
        return ["no interaction_field call was made"]
    kernel, x, v, w, got = out.first_field
    ref, scale = field_reference(kernel, x, v, w)
    err = float(np.abs(got - ref).max()) / max(float(scale.max()), 1e-300)
    if not err <= FIELD_RTOL:
        return [f"first field evaluation is off by {err:.3e} relative (limit {FIELD_RTOL:g})"]
    return []


def _initial(scn: dict):
    x = np.asarray(scn["initial"]["x"], dtype=float)
    v = np.asarray(scn["initial"]["v"], dtype=float)
    return x, v, np.full(x.shape[0], 1.0 / x.shape[0])


def _extent(a: np.ndarray) -> np.ndarray:
    return a.max(axis=0) - a.min(axis=0)


def _control_time(out: Outcome) -> float:
    return math.fsum(p["t_end"] - p["t_start"] for p in out.pieces)


def check_terminal_certificate(scn: dict, out: Outcome) -> list:
    """Corollary 2 on the final covering box: 2 V~ <= tail(2 X~)."""
    x_t = 0.5 * float(np.linalg.norm(_extent(out.final_x)))
    v_t = 0.5 * float(np.linalg.norm(_extent(out.final_v)))
    threshold = tail(scn["kernel"], 2.0 * x_t)
    errors = []
    if not 2.0 * v_t <= threshold:
        errors.append(f"terminal box fails the certificate: 2V~ = {2 * v_t:.6g} > {threshold:.6g}")
    if out.summary["success"] is not True:
        errors.append("the run reports success = false")
    return errors


def _check_control_time(out: Outcome, bound: float) -> list:
    total = _control_time(out)
    errors = []
    if not total <= bound:
        errors.append(f"total control time {total:.9g} exceeds its bound {bound:.9g}")
    if not abs(total - out.summary["total_control_time"]) <= 1e-9 * max(1.0, total):
        errors.append("summary total_control_time differs from the plan's pieces")
    return errors


def check_mass_2d(scn: dict, out: Outcome) -> list:
    x0, v0, w = _initial(scn)
    kernel, c, d = scn["kernel"], scn["c"], x0.shape[1]
    Y0, W0 = _extent(x0), _extent(v0)
    n_cols = math.ceil(2.0 / c)
    errors = check_field(out) + _check_control_time(out, n_cols * float(W0.sum()))

    mass_bound = c + 2.0 * float(w.max())
    worst = max(float(out.mass_in_omega.max()), out.summary["worst_audits"]["max_mass_in_omega"])
    if not worst <= mass_bound:
        errors.append(f"mass in the control set reached {worst:.9g} > c + 2 max w = {mass_bound:.9g}")

    # Theorem 5's threshold, recomputed from the initial box
    w_star = n_cols * float(W0.sum())
    eta = tail(kernel, float(np.linalg.norm(Y0 + W0 * w_star))) / (2.0 * math.sqrt(d))
    if not abs(out.summary["eta"] - eta) <= 1e-12 * eta:
        errors.append(f"eta {out.summary['eta']!r} differs from the recomputed {eta!r}")
    axis0_end = max((p["t_end"] for p in out.pieces if p["axis"] == 0), default=None)
    if axis0_end is None:
        errors.append("no control piece acts on axis 0")
    else:
        after = out.t >= axis0_end
        worst_w0 = float(out.W[after, 0].max())
        if not worst_w0 <= eta + BOX_SLACK:
            errors.append(f"axis 0 regrew to W = {worst_w0:.9g} > eta = {eta:.9g} after its phase")
    return errors + check_terminal_certificate(scn, out)


def check_volume_1d(scn: dict, out: Outcome) -> list:
    x0, v0, _ = _initial(scn)
    c = scn["c"]
    errors = check_field(out) + _check_control_time(out, float(_extent(v0)[0]))
    for k, p in enumerate(out.pieces):
        eps, y0, w0 = p["params"]["eps"], p["params"]["y0"], p["params"]["w0"]
        area = (y0 + eps * w0 + 2.0 * eps) * 4.0 * eps
        if not area <= c:
            errors.append(f"step {k}: band area {area:.9g} exceeds c = {c}")
        i0, i1 = np.searchsorted(out.t, [p["t_start"], p["t_end"]])
        if i1 >= out.t.size or out.t[i0] != p["t_start"] or out.t[i1] != p["t_end"]:
            errors.append(f"step {k}: no sample at the step's start or end")
            continue
        w_before, w_after = float(out.W[i0, 0]), float(out.W[i1, 0])
        if not abs(w_before - w0) <= 1e-12 * max(1.0, w0):
            errors.append(f"step {k}: W at the step start {w_before!r} is not the piece's w0 {w0!r}")
        if not w_after <= w_before - eps + CONTRACTION_SLACK:
            errors.append(
                f"step {k}: W went {w_before:.9g} -> {w_after:.9g}, less than eps0 = {eps:.3g}"
            )
    return errors + check_terminal_certificate(scn, out)


def check_free_flight(scn: dict, out: Outcome) -> list:
    x0, v0, w = _initial(scn)
    kernel = scn["kernel"]
    errors = check_field(out)
    if out.pieces:
        errors.append("free flight carries control pieces")

    vbar0 = w @ v0
    drift = float(np.abs(out.vbar - vbar0[None, :]).max())
    if not drift <= VBAR_TOL:
        errors.append(f"velocity barycenter drifted by {drift:.3e} (limit {VBAR_TOL:g})")
    rise = float(np.diff(out.V).max(initial=0.0))
    if not rise <= MONOTONE_TOL:
        errors.append(f"V(t) increased by {rise:.3e} between samples")

    # Theorem 3: V0 < tail(X0), and X(t) stays below X_M where
    # int_{X0}^{X_M} phi(2x) dx = V0, in closed form for the exponential kernel
    if kernel["family"] != "exponential":
        return errors + ["free flight needs the exponential kernel for X_M"]
    K, lam = kernel["K"], kernel["lam"]
    X0 = float(np.linalg.norm(x0 - w @ x0, axis=1).max())
    V0 = float(np.linalg.norm(v0 - vbar0, axis=1).max())
    rest = math.exp(-2.0 * lam * X0) - 2.0 * lam * V0 / K
    if not rest > 0.0:
        return errors + ["initial cloud is outside the flocking region of Theorem 3"]
    x_m = -math.log(rest) / (2.0 * lam)
    if not float(out.X.max()) <= x_m:
        errors.append(f"X(t) reached {float(out.X.max()):.9g} > X_M = {x_m:.9g}")
    prog_xm = out.summary["verdict_before"]["X_M"]
    if prog_xm is None or not abs(prog_xm - x_m) <= 1e-8:
        errors.append(f"reported X_M {prog_xm!r} differs from the closed form {x_m!r}")
    return errors


CHECKS = {
    "mass_2d": check_mass_2d,
    "volume_1d": check_volume_1d,
    "free_flight": check_free_flight,
}
