"""The two step widths against the computations they replaced.

A volume step's band width was once a closed form repaired by a bisection on
the band area, and a mass step's floor test rebuilt the mass of every widened
column.  Both are kept here as references: on random clouds the step
geometries must give the same width, and take the same floor branch, bit for
bit.  The volume width search must also end within a few ulp steps across the
whole range of doubles that a scenario's validation lets through.
"""

import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from flockctrl import (
    DegenerateMeasureError,
    Ensemble,
    ExponentialKernel,
    PowerLawKernel,
    TabulatedKernel,
    axis_step_params,
    mass_quantile_cuts,
    normalized,
    space_step_params,
)
from flockctrl.control_mass import _MASS_TOL, _band_offsets, _largest_widening
from flockctrl.dynamics import SpaceBand


def _band_area(eps, Y0, W0):
    return SpaceBand.area({"eps": eps, "y0": Y0, "w0": W0})


class _References:
    """The earlier width computations, kept as references for the step geometries."""

    @staticmethod
    def space_eps0(kernel, e, c):
        """The volume width: min(beta0/2, (sqrt(Y0^2 + 2c(W0+1)) - Y0) / (2(W0+2))),
        bisected on the band area while that area exceeds c; 0.0 where no
        positive width fits.  beta0 takes the spread to the velocity edge
        farther from the barycenter, the edge the step acts on."""
        Y0, W0 = float(e.x[:, 0].max()), float(e.v[:, 0].max())
        vbar0 = float(e.w @ e.v[:, 0])
        beta0 = _band_offsets(kernel, Y0 + W0, max(W0 - vbar0, vbar0))[1]
        eps0 = min(
            beta0 / 2.0,
            (math.sqrt(Y0 * Y0 + 2.0 * c * (W0 + 1.0)) - Y0) / (2.0 * (W0 + 2.0)),
        )
        if _band_area(eps0, Y0, W0) > c:
            lo, hi = 0.0, eps0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if _band_area(mid, Y0, W0) <= c:
                    lo = mid
                else:
                    hi = mid
            eps0 = lo
        return eps0

    @staticmethod
    def mass_eps0(kernel, e, axis, c):
        """(eps0, floored) of a mass step whose floor test rebuilds the mass of
        every widened column [cuts[i-1] - 3 eps, cuts[i] + 3 eps]; eps0 is None
        where that test refused the floor, and where the step raised before."""
        Y, W = e.x.max(axis=0), e.v.max(axis=0)
        vbar0 = float(e.w @ e.v[:, axis])
        try:
            _band_offsets(kernel, float(np.linalg.norm(Y + W)), max(W[axis] - vbar0, vbar0))
        except DegenerateMeasureError:  # the barycenter sits on the support edge
            return None, False
        if float(e.w.max()) > c + _MASS_TOL:  # an atom heavier than c
            return None, False
        cuts = mass_quantile_cuts(e, axis, c / 2.0, math.ceil(2.0 / c))[0]
        coords = e.x[:, axis]
        eps0 = _largest_widening(coords, e.w, cuts, c)[0]
        gaps = np.diff(cuts)
        pos = gaps[gaps > 0]
        eps_floor = 0.5e-3 * float(pos.min()) if pos.size else 1e-12
        if math.isinf(eps0):
            return max(1.0, float(e.x[:, axis].max())), False
        if eps0 >= eps_floor:
            return eps0, False
        lo = cuts[:-1] - 3.0 * eps_floor
        hi = cuts[1:] + 3.0 * eps_floor
        inside = (coords[None, :] >= lo[:, None]) & (coords[None, :] <= hi[:, None])
        if np.any(inside @ e.w > c + _MASS_TOL):
            return None, True
        return eps_floor, True


_KERNELS = st.one_of(
    st.builds(PowerLawKernel, st.floats(0.5, 2.0), st.floats(0.6, 2.0)),
    st.builds(ExponentialKernel, st.floats(0.5, 2.0), st.floats(0.5, 3.0)),
)


@st.composite
def _steps(draw):
    """(kernel, normalized cloud, c): at most 60 weighted particles in dimension
    1 or 2, positions snapped to a grid of `cells` per unit when that is not 0,
    so that atoms may coincide, then moved by up to `jitter`, so that atoms
    may sit just past a column's edge, and c from 1e-4 to 2."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_high, v_high = draw(st.floats(0.01, 2.0)), draw(st.floats(0.01, 2.0))
    cells = draw(st.sampled_from([0, 4, 64]))
    x = x_high * rng.uniform(0.0, 1.0, (n, d))
    if cells:
        x = np.round(x * cells) / cells
    x += draw(st.sampled_from([0.0, 0.0, 1e-5, 1e-4, 1e-3])) * rng.uniform(0.0, 1.0, (n, d))
    v = v_high * rng.uniform(0.0, 1.0, (n, d))
    w = rng.uniform(0.2, 1.0, n)
    e = normalized(Ensemble(x=x, v=v, w=w / w.sum()))
    return draw(_KERNELS), e, 10.0 ** draw(st.floats(-4.0, math.log10(2.0)))


def _outcome(f, *args):
    """What f returns, or DegenerateMeasureError where it raises that."""
    try:
        return f(*args)
    except DegenerateMeasureError:
        return DegenerateMeasureError


# a mass step whose floor stays below the sweep's first violating breakpoint,
# so that the floor is taken, not refused: rare among the draws
_FLOOR_TAKEN = (
    PowerLawKernel(),
    normalized(Ensemble.from_points([0.5008, 0.5004, 0.251, 1.0006], [0.81, 0.73, 0.22, 0.02],
                                    [0.34, 0.21, 0.16, 0.29])),
    0.75,
)


@given(step=_steps())
# a fixed sample of draws keeps the suite reproducible
@settings(max_examples=800, deadline=None, derandomize=True)
@example(step=_FLOOR_TAKEN)
def test_step_widths_equal_their_references_bit_for_bit(step):
    kernel, e, c = step
    if e.d == 1 and e.v.max() > 0.0:
        ref = _outcome(_References.space_eps0, kernel, e, c)
        p = _outcome(space_step_params, kernel, e, c)
        if ref is DegenerateMeasureError or ref <= 0.0:
            assert p is DegenerateMeasureError
        else:
            assert p.eps0 == ref
            if p.eps0 < p.beta0 / 2.0:
                event("volume width set by the area")
    for axis in range(e.d):
        if e.v[:, axis].max() <= 0.0:
            continue  # a flat axis
        p = _outcome(axis_step_params, kernel, e, axis, c)
        ref, floored = _References.mass_eps0(kernel, e, axis, c)
        if floored:
            event("mass step through the floor branch")
        if ref is None:
            assert p is DegenerateMeasureError
        else:
            assert p.eps0 == ref


# phi = 1 at every distance, so two atoms at velocities 0 and W0 give beta0 = W0/12
_FLAT_KERNEL = TabulatedKernel((0.0, 1.0), (1.0, 1.0))
_SCALES = (1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300)


# validation bounds a volume c only by finiteness; a run's stderr stays empty
# where the squared diameter overflows
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", _SCALES + (1e308,))
def test_the_volume_width_search_ends_within_a_few_ulps_at_any_scale(monkeypatch, c):
    nextafter, calls = math.nextafter, []

    def counted(x, y):
        calls.append(x)
        return nextafter(x, y)

    monkeypatch.setattr(math, "nextafter", counted)
    for Y0 in _SCALES:
        for W0 in _SCALES:
            calls.clear()
            try:
                p = space_step_params(_FLAT_KERNEL, Ensemble.from_points([0.0, Y0], [0.0, W0]), c)
            except DegenerateMeasureError:  # no positive double's band fits in c
                assert _band_area(nextafter(0.0, 1.0), Y0, W0) > c
                continue
            assert _band_area(p.eps0, Y0, W0) <= c
            if p.eps0 != p.beta0 / 2.0:
                # the root lands within a few ulps of the width
                assert 1 <= len(calls) <= 8
                assert c < _band_area(nextafter(p.eps0, math.inf), Y0, W0)


def test_a_volume_width_of_zero_is_refused():
    # the area 4 Y0 eps of the smallest positive double is 2e-23, far above c
    e = Ensemble.from_points([0.0, 1e300], [0.0, 1.0])
    with pytest.raises(DegenerateMeasureError, match="no positive band width"):
        space_step_params(_FLAT_KERNEL, e, 1e-300)
