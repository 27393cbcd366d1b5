"""Arbitrary scenario and plan documents through the CLI.

Every input either runs (exit 0), is rejected with a message (exit 2) or ends
in a reported synthesis or flight failure (exit 3); none ends in a traceback.

A document is either any JSON value, or a valid document in which up to three
entries, nested ones included, are deleted or replaced by any JSON value.
The values that set how much work a run does are kept small, so that each
example takes milliseconds: at most 20 particles, horizons and plan times of
at most 2, at most 20 synthesis steps, and no deletion of the horizons or of
the step budget (their defaults are long).  Budgets c run from 1e-12 to 4: a
mass budget below the heaviest atom is rejected before any column is cut,
so a step cuts at most 2N columns.  Numbers in the replacements are small,
NaN, infinite, -0 or 1e-300, and strings may hold digits: a number that is a
string is a config error, never read as the number it spells.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from flockctrl.cli import main as cli_main

_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, -1.0, 0.0])
_TEXT = st.text(alphabet="abcxyz019 _-.", max_size=6)
_NUM = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), _SPECIAL)
_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUM, _TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)
    ),
    max_leaves=8,
)
# keys whose defaults would make a run long: replaced, never deleted
_KEEP = {"horizon", "post_horizon", "step_budget"}


def _paths(doc, prefix=()):
    for key, val in doc.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _paths(val, prefix + (key,))


@st.composite
def _corrupted(draw, valid):
    """A document from ``valid`` with up to three entries deleted or replaced."""
    doc = copy.deepcopy(draw(valid))
    paths = list(_paths(doc))
    for path in draw(st.lists(st.sampled_from(paths), max_size=3, unique=True)):
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue  # an outer entry was replaced already
        if path[-1] not in _KEEP and draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(_JUNK)
    return doc


def _vec(d, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=d, max_size=d)


_KERNEL = st.one_of(
    st.fixed_dictionaries(
        {"family": st.just("exponential"), "K": st.floats(0.1, 3.0), "lam": st.floats(0.1, 5.0)}
    ),
    st.fixed_dictionaries(
        {"family": st.just("power_law"), "K": st.floats(0.1, 3.0), "gamma": st.floats(0.0, 3.0)}
    ),
    st.just({"family": "custom", "radii": [0.0, 1.0], "values": [1.0, 0.5]}),
)


@st.composite
def _initial(draw, d):
    kind = draw(st.sampled_from(["uniform_box", "grid", "explicit"]))
    box = {"x_low": draw(_vec(d, -1.0, 0.0)), "x_high": draw(_vec(d, 0.0, 1.0)),
           "v_low": draw(_vec(d, -1.0, 0.0)), "v_high": draw(_vec(d, 0.0, 1.0))}
    if kind == "uniform_box":
        return dict(box, kind=kind, particles=draw(st.integers(1, 20)),
                    seed=draw(st.integers(0, 2**32)))
    if kind == "grid":
        counts = st.lists(st.integers(1, 2), min_size=d, max_size=d)
        return dict(box, kind=kind, counts_x=draw(counts), counts_v=draw(counts))
    n = draw(st.integers(1, 20))
    points = st.lists(_vec(d, -1.0, 1.0), min_size=n, max_size=n)
    doc = {"kind": kind, "x": draw(points), "v": draw(points)}
    if draw(st.booleans()):
        doc["w"] = [1.0 / n] * n
    return doc


# relative names land in the example's own working directory, where "plain"
# is a regular file
_OUT = st.sampled_from(["out", "a/b", "plain/out", "plain", "", "x\0y", 5, ["out"]])


@st.composite
def _scenario(draw):
    d = draw(st.integers(1, 2))
    mode = "volume" if d == 1 and draw(st.booleans()) else draw(st.sampled_from(["mass", "none"]))
    doc = {
        "schema_version": 1,
        "dimension": d,
        "mode": mode,
        "kernel": draw(_KERNEL),
        "initial": draw(_initial(d)),
        "horizon": draw(st.floats(0.0, 2.0)),
        "post_horizon": draw(st.floats(0.0, 2.0)),
        "step_budget": draw(st.integers(1, 20)),
    }
    if mode != "none" or draw(st.booleans()):
        doc["c"] = draw(st.floats(1e-12, 4.0))
    optional = {"eta": st.floats(1e-3, 1.0), "dt_max": st.floats(1e-2, 1.0),
                "safety_factor": st.floats(0.1, 1.0), "out": _OUT}
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        doc[key] = draw(optional[key])
    return doc


@st.composite
def _plan(draw):
    d = draw(st.integers(1, 2))
    times = draw(st.lists(st.sampled_from([0.05, 0.1, 0.2]), max_size=3))
    pieces, t = [], 0.0
    for dur in times:
        kind = draw(st.sampled_from(["mass_band", "space_band"]))
        params = (
            {"x_lo": 0.0, "x_hi": 0.3, "vbar": 0.15, "alpha": 0.01, "beta": 0.02, "eps": 0.01}
            if kind == "mass_band" else {"eps": 0.05, "y0": 1.0, "w0": 0.5}
        )
        piece = {
            "t_start": t, "t_end": t + dur, "kind": kind, "axis": draw(st.integers(0, d - 1)),
            "t_ref": t, "x_shift": 0.0, "v_shift": 0.0, "params": params,
            "dt": draw(st.sampled_from([None, 0.01, 0.05])),
        }
        # a space band on either velocity edge: no sign, 1 or -1
        sign = draw(st.sampled_from([None, 1.0, -1.0])) if kind == "space_band" else None
        if sign is not None:
            piece["sign"] = sign
        pieces.append(piece)
        t += dur
    return {"schema_version": 1, "dimension": d, "plan": {"pieces": pieces}}


_SCENARIOS = st.one_of(_corrupted(_scenario()), _corrupted(_scenario()), _JUNK)
# no replay, a replay file that does not exist, or a plan document
_REPLAYS = st.one_of(
    st.none(), st.none(), st.just("missing"),
    st.one_of(_corrupted(_plan()), _JUNK).map(lambda doc: ("doc", doc)),
)

_MINIMAL = {
    "schema_version": 1,
    "kernel": {"family": "exponential", "K": 1.0, "lam": 1.0},
    "initial": {"kind": "uniform_box", "particles": 10, "seed": 1,
                "x_low": 0.0, "x_high": 0.5, "v_low": 0.0, "v_high": 0.1},
    "horizon": 1.0,
    "post_horizon": 1.0,
    "step_budget": 5,
}
_PIECE_DOC = {
    "t_start": 0.0, "t_end": 0.1, "kind": "mass_band", "axis": 0, "t_ref": 0.0,
    "x_shift": 0.0, "v_shift": 0.0, "dt": 0.05,
    "params": {"x_lo": 0.0, "x_hi": 0.3, "vbar": 0.15, "alpha": 0.01, "beta": 0.02, "eps": 0.01},
}


def _run(scenario, replay):
    """cli.main on the documents, in a fresh working directory: (status, stderr)."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("plain", "w"):
                pass
            with open("config.json", "w") as fh:
                json.dump(scenario, fh)
            argv = ["--config", "config.json"]
            if replay == "missing":
                argv += ["--replay", "missing.json"]
            elif replay is not None:
                with open("plan.json", "w") as fh:
                    json.dump(replay[1], fh)
                argv += ["--replay", "plan.json"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                status = cli_main(argv)
        finally:
            os.chdir(cwd)
    return status, err.getvalue()


@given(scenario=_SCENARIOS, replay=_REPLAYS)
@settings(max_examples=150, deadline=None)
# the state overflows within the horizon
@example(
    scenario=dict(_MINIMAL, horizon=400.0, dt_max=1.0,
                  initial={"kind": "explicit", "x": [[0.0], [1.0]], "v": [[0.0], [1e308]]}),
    replay=None,
)
@example(scenario=_MINIMAL, replay="missing")
@example(scenario=_MINIMAL, replay=("doc", {"schema_version": 1, "dimension": 1}))
@example(
    scenario=_MINIMAL,
    replay=("doc", {"schema_version": 1, "dimension": 1,
                    "plan": {"pieces": [{k: v for k, v in _PIECE_DOC.items() if k != "t_end"}]}}),
)
@example(scenario=dict(_MINIMAL, out=5), replay=None)
@example(scenario=dict(_MINIMAL, out="plain/out"), replay=None)
# inputs this test found that once ended in a traceback
@example(scenario=dict(_MINIMAL, initial=dict(_MINIMAL["initial"], x_low=None)), replay=None)
@example(scenario=dict(_MINIMAL, initial=dict(_MINIMAL["initial"], seed=float("inf"))), replay=None)
@example(scenario=dict(_MINIMAL, initial={"kind": [], "x": [[0.0]], "v": [[0.0]]}), replay=None)
@example(scenario=dict(_MINIMAL, initial={"kind": "explicit", "x": None, "v": None}), replay=None)
@example(scenario=dict(_MINIMAL, initial={"kind": "explicit", "x": [], "v": []}), replay=None)
@example(scenario=dict(_MINIMAL, mode="mass", c=3.0), replay=None)
@example(scenario=dict(_MINIMAL, horizon=None), replay=None)
# a mass budget far below the heaviest atom, once 2e12 columns (the power law's
# slow tail keeps eta positive)
@example(scenario=dict(_MINIMAL, mode="mass", c=1e-12,
                       kernel={"family": "power_law", "K": 1.0, "gamma": 1.0}), replay=None)
# numbers in the initial measure that are strings, or a NaN weight
@example(scenario=dict(_MINIMAL, initial={"kind": "explicit", "x": ["0", "1"], "v": [0.0, 0.1]}),
         replay=None)
@example(scenario=dict(_MINIMAL, initial={"kind": "explicit", "x": [0.0, 0.5, 1.0],
                                          "v": [0.0, 0.1, 0.2], "w": [float("nan"), 0.5, 0.5]}),
         replay=None)
# a kernel parameter that is a string, once read as the number it spells
@example(
    scenario=dict(_MINIMAL,
                  kernel={"family": "custom", "radii": ["0", "1"], "values": [1.0, 0.5]}),
    replay=None,
)
# the certified threshold eta of so wide a support underflows to 0
@example(
    scenario=dict(_MINIMAL, dimension=2, mode="mass", c=0.125,
                  kernel={"family": "exponential", "K": 1.0, "lam": 4.0},
                  initial={"kind": "explicit", "x": [[0.0, 0.0], [0.0, 0.0]],
                           "v": [[0.0, -1.0], [1.0, 1.0]]}),
    replay=None,
)
# a 2-D scenario with 1-D explicit points, replaying a piece on axis 1
@example(
    scenario=dict(_MINIMAL, dimension=2,
                  initial={"kind": "explicit", "x": [0.0, 1.0], "v": [0.0, 0.5]}),
    replay=("doc", {"schema_version": 1, "dimension": 2, "plan": {"pieces": [
        dict(_PIECE_DOC, kind="space_band", axis=1, params={"eps": 0.1, "y0": 1.0, "w0": 0.5}),
    ]}}),
)
# a sign on a mass band
@example(scenario=_MINIMAL, replay=("doc", {"schema_version": 1, "dimension": 1, "plan": {
    "pieces": [dict(_PIECE_DOC, sign=-1.0)]}}))
# a replayed plan that ends before t = 0, once flown over a negative horizon
@example(scenario=_MINIMAL, replay=("doc", {"schema_version": 1, "dimension": 1, "plan": {
    "pieces": [dict(_PIECE_DOC, t_start=-2.0, t_end=-1.0, t_ref=-2.0)]}}))
def test_cli_exits_0_2_or_3_without_a_traceback(scenario, replay):
    status, err = _run(scenario, replay)
    event(f"exit {status}")
    assert status in (0, 2, 3), err
    assert "Traceback" not in err
