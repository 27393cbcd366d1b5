"""The two control bands against the force and membership they replaced.

Each band once wrote its control set twice: as the ramps of its force, and
as the closed box its membership tested.  Both now read one geometry, the
signed distances into the band.  The earlier expressions are kept here as
references: on random bands at scales from 1e-12 to 1e12, and at points on
and one ulp beside every edge, the force must match bit for bit and the
membership must be equal.  A mirrored piece (sign -1) is the space band of
the reflected cloud: its force is the negated reference force at the
reflected, shifted coordinates, and its membership is the reference's there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockctrl import ControlPiece


def _clip(a):
    return np.minimum(np.maximum(a, 0.0), 1.0)


class _References:
    """The band force and membership as written before each band had one geometry."""

    @staticmethod
    def mass_band(p, xs, vs):
        eps, beta = p["eps"], p["beta"]
        s = vs - p["vbar"]
        abs_s = np.abs(s)
        band_inner = p["alpha"] + beta
        band_outer = p["alpha"] + 4.0 * beta
        psi_x = np.minimum((xs - p["x_lo"]) / eps, (p["x_hi"] - xs) / eps)
        psi_v = np.minimum(abs_s - band_inner, band_outer - abs_s) / beta
        force = -_clip(np.minimum(psi_x, psi_v)) * np.sign(s)
        in_x = (xs >= p["x_lo"]) & (xs <= p["x_hi"])
        in_v = (abs_s >= p["alpha"] + p["beta"]) & (abs_s <= p["alpha"] + 4.0 * p["beta"])
        return force, in_x & in_v

    @staticmethod
    def space_band(p, xs, vs):
        eps, y0, w0 = p["eps"], p["y0"], p["w0"]
        x_hi = y0 + eps * w0 + eps
        psi = _clip(np.minimum((xs + eps) / eps, (x_hi - xs) / eps))
        zeta = -_clip(np.minimum(vs - (w0 - 2.0 * eps), (w0 + 2.0 * eps) - vs) / eps)
        in_x = (xs >= -eps) & (xs <= y0 + eps * w0 + eps)
        in_v = (vs >= w0 - 2.0 * eps) & (vs <= w0 + 2.0 * eps)
        return psi * zeta, in_x & in_v


def _edges(kind, p):
    """(x edges, v edges): where the set and the plateau of its force begin and end."""
    if kind == "mass_band":
        eps, beta, a, vbar = p["eps"], p["beta"], p["alpha"], p["vbar"]
        xe = [p["x_lo"], p["x_lo"] + eps, p["x_hi"] - eps, p["x_hi"]]
        offsets = [a + beta, a + 2.0 * beta, a + 3.0 * beta, a + 4.0 * beta]
        return xe, [vbar + o for o in offsets] + [vbar - o for o in offsets] + [vbar]
    eps, y0, w0 = p["eps"], p["y0"], p["w0"]
    x_hi = y0 + eps * w0 + eps
    return [-eps, 0.0, x_hi - eps, x_hi], [w0 + k * eps for k in (-2.0, -1.0, 1.0, 2.0)]


def _near(values):
    """Each value and the doubles one ulp below and above it."""
    a = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf)])


_UNIT = st.floats(0.0, 1.0)


@st.composite
def _bands(draw):
    kind = draw(st.sampled_from(["mass_band", "space_band"]))
    scale = 10.0 ** draw(st.integers(-12, 12))
    pos = st.floats(1e-3, 10.0).map(lambda f: f * scale)
    if kind == "mass_band":
        x_lo = draw(st.floats(-10.0, 10.0)) * scale
        p = {"x_lo": x_lo, "x_hi": x_lo + draw(pos), "vbar": draw(st.floats(-10.0, 10.0)) * scale,
             "alpha": draw(_UNIT) * scale, "beta": draw(pos), "eps": draw(pos)}
    else:
        p = {"eps": draw(pos), "y0": draw(_UNIT) * 10.0 * scale, "w0": draw(_UNIT) * 10.0 * scale}
    return kind, p, scale, draw(st.integers(0, 2**32 - 1))


@given(band=_bands())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_force_and_membership_match_the_earlier_expressions(band):
    kind, p, scale, seed = band
    xe, ve = _edges(kind, p)
    lo, hi = min(xe + ve) - scale, max(xe + ve) + scale
    spread = np.random.default_rng(seed).uniform(lo, hi, 16)
    xs = np.concatenate([_near(xe), spread])
    vs = np.concatenate([_near(ve), spread])
    # every x against every v: points on, beside, inside and outside each edge
    x, v = (a.reshape(-1, 1) for a in np.meshgrid(xs, vs))
    piece = ControlPiece(0.0, 1.0, kind, axis=0, t_ref=0.0, x_shift=0.0, v_shift=0.0, params=p)
    force, member = getattr(_References, kind)(p, x[:, 0], v[:, 0])
    assert piece.force_axis(x, v, 0.0).tobytes() == force.tobytes()
    assert np.array_equal(piece.in_omega(x, v, 0.0), member)
    assert member.any() and not member.all()


def _reflected_space_band(p, x, v, t, x_shift, v_shift):
    """The reference space band on the cloud reflected by (x, v) -> (-x, -v),
    whose frame is shifted by x_shift + t v_shift and v_shift."""
    force, member = _References.space_band(p, -x - x_shift - t * v_shift, -v - v_shift)
    return -force, member


@given(band=_bands().filter(lambda b: b[0] == "space_band"),
       frame=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 1.0)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_mirrored_space_band_is_the_reference_band_of_the_reflected_cloud(band, frame):
    _, p, scale, seed = band
    x_shift, v_shift, t = frame[0] * scale, frame[1] * scale, frame[2]
    xe, ve = _edges("space_band", p)
    lo, hi = min(xe + ve) - scale, max(xe + ve) + scale
    spread = np.random.default_rng(seed).uniform(lo, hi, 16)
    # the reflected frame's edges, and one ulp beside them, mapped back to (x, v)
    xs = -(np.concatenate([_near(xe), spread]) + x_shift + t * v_shift)
    vs = -(np.concatenate([_near(ve), spread]) + v_shift)
    x, v = (a.reshape(-1, 1) for a in np.meshgrid(xs, vs))
    piece = ControlPiece(0.0, 1.0, "space_band", axis=0, t_ref=0.0, x_shift=x_shift,
                         v_shift=v_shift, params=p, sign=-1.0)
    force, member = _reflected_space_band(p, x[:, 0], v[:, 0], t, x_shift, v_shift)
    assert piece.force_axis(x, v, t).tobytes() == force.tobytes()
    assert np.array_equal(piece.in_omega(x, v, t), member)
    assert member.any() and not member.all()
    # a bottom-edge band pushes velocities up, never down
    assert force.max() > 0.0 and force.min() >= 0.0


def test_a_piece_sign_other_than_one_or_minus_one_is_refused():
    p = {"eps": 0.1, "y0": 1.0, "w0": 1.0}
    for sign in (0.0, 0.5, -2.0, float("nan")):
        with pytest.raises(ValueError, match="sign must be 1 or -1"):
            ControlPiece(0.0, 1.0, "space_band", axis=0, t_ref=0.0, x_shift=0.0, v_shift=0.0,
                         params=p, sign=sign)


def test_only_a_mirrored_piece_writes_its_sign():
    p = {"eps": 0.1, "y0": 1.0, "w0": 1.0}
    top, bottom = (ControlPiece(0.0, 1.0, "space_band", axis=0, t_ref=0.0, x_shift=0.0,
                                v_shift=0.0, params=p, sign=sign) for sign in (1.0, -1.0))
    assert "sign" not in top.to_dict()
    assert bottom.to_dict()["sign"] == -1.0
    assert ControlPiece.from_dict(top.to_dict()) == top
    assert ControlPiece.from_dict(bottom.to_dict()) == bottom
