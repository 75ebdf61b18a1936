"""Serialization: deterministic bytes, exact float round-trips, NaN policy."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neoms.bifurcation import (BistabilityWindow, auto_power_grid,
                               bistability_window, family_sweep,
                               hysteresis_from_curve, power_sweep)
from neoms.model import LinewidthConvention, derive
from neoms.presets import PRESETS, get_preset
from neoms.stability import Method
from neoms.output import (CURVE_HEADER, FAMILY_HEADER, HYSTERESIS_HEADER,
                          curve_to_csv, curve_to_dict, dumps_json,
                          family_to_csv, family_to_dict, fields_to_csv,
                          threshold_to_csv, trace_to_csv, trace_to_dict,
                          window_json, window_to_csv, window_to_dict)
from curve_csv import parse_curve_csv
from draws import clean_system


def _setup(seed=211):
    rng = np.random.default_rng(seed)
    params, drives = clean_system(rng, min_detuning_kappa=2.5)
    derived = derive(params, drives)
    win = bistability_window(derived, drives)
    powers = auto_power_grid(win, n=21)
    curve = power_sweep(derived, drives, powers)
    from neoms.config import RunConfig
    snapshot = RunConfig(params=params, drives=drives).snapshot()
    return params, derived, drives, win, curve, snapshot


def test_curve_csv_shape_and_round_trip():
    params, derived, drives, win, curve, snap = _setup()
    text = curve_to_csv(curve, snap, comments=("context note",))
    lines = text.splitlines()
    assert lines[0] == "# context note"
    assert CURVE_HEADER in lines
    comments, rows = parse_curve_csv(text)
    assert comments[0] == "context note"
    assert len(rows) == sum(len(pt.branches) for pt in curve.points)
    it = iter(rows)
    for pt in curve.points:
        for i, b in enumerate(pt.branches):
            row = next(it)
            # repr round-trip is exact, not approximate
            assert row["power_W"] == pt.power
            assert row["photon_number"] == b.photon_number
            assert row["q1_m"] == b.fields.q_1s
            assert row["q2_m"] == b.fields.q_2s
            assert row["branch_index"] == i
            assert row["stable"] == b.stable


def test_identical_inputs_identical_bytes():
    a = _setup(seed=307)
    b = _setup(seed=307)
    assert curve_to_csv(a[4], a[5]) == curve_to_csv(b[4], b[5])
    assert dumps_json(curve_to_dict(a[4], a[5])) == \
        dumps_json(curve_to_dict(b[4], b[5]))


def test_curve_json_layout():
    params, derived, drives, win, curve, snap = _setup()
    doc = curve_to_dict(curve, snap, kind="mirror")
    assert doc["kind"] == "mirror"
    assert doc["method"] == "eigen"
    assert len(doc["points"]) == len(curve.points)
    pt = doc["points"][0]
    assert set(pt) == {"power_W", "eps_sq", "error", "branches"}
    payload = dumps_json(doc)
    assert json.loads(payload) == doc
    assert payload.endswith("\n")


def test_unsolved_points_reach_every_reader(fig2_cfg):
    """fig2 at 1e150-1e200 W: each such point records its ResidualError,
    has no branches, is listed as unsolved in the CSV preamble and the JSON
    and is skipped by the algebraic hysteresis trace."""
    derived = fig2_cfg.derive()
    solved = (1e-9, 2e-9, 3e-9, 4e-9)
    unsolved = (1e150, 1e175, 1e200)
    grid = solved[:3] + unsolved + solved[3:]
    curve = power_sweep(derived, fig2_cfg.drives, grid)
    msg = "root residual contract violated"
    points = curve.points
    assert [(pt.power, pt.error, pt.branches) for pt in points
            if pt.error is not None] == [(p, msg, ()) for p in unsolved]
    assert all(pt.branches for pt in points if pt.error is None)

    snap = fig2_cfg.snapshot()
    text = curve_to_csv(curve, snap)
    assert [ln for ln in text.splitlines() if ln.startswith("# unsolved")] \
        == [f"# unsolved point at power_W = {p!r}: {msg}" for p in unsolved]
    _, rows = parse_curve_csv(text)
    assert sorted({r["power_W"] for r in rows}) == list(solved)

    doc = json.loads(dumps_json(curve_to_dict(curve, snap)))
    assert [(p["power_W"], p["error"], p["branches"]) for p in doc["points"]
            if p["error"] is not None] == [(p, msg, []) for p in unsolved]
    assert all(p["branches"] for p in doc["points"] if p["error"] is None)

    trace = hysteresis_from_curve(curve)
    assert [p for p, _ in trace.up] == list(solved)
    assert [p for p, _ in trace.down] == list(solved[::-1])


def test_window_serialization_including_absent():
    params, derived, drives, win, curve, snap = _setup()
    doc = window_to_dict(win)
    assert doc["exists"] is True
    assert doc["power_up_W"] == win.power_up
    csv_text = window_to_csv(win, snap)
    assert "exists,true" in csv_text
    # sub-threshold window: NaN fields must serialize as nulls, not NaN
    low = derive(params._replace(delta_c=0.2 * params.kappa), drives)
    win_low = bistability_window(low, drives)
    doc_low = window_json(win_low, snap)
    assert doc_low["exists"] is False
    assert doc_low["fold_ratio"] is None
    assert doc_low["x_c_minus"] is None
    dumps_json(doc_low)   # allow_nan=False would raise on any leak
    assert "exists,false" in window_to_csv(win_low, snap)


def test_threshold_csv():
    params, derived, drives, win, curve, snap = _setup()
    text = threshold_to_csv(win.threshold, derived.kappa, snap)
    assert "in_kappa_units," in text
    value = [l for l in text.splitlines()
             if l.startswith("in_kappa_units,")][0].split(",")[1]
    assert float(value) == win.threshold.in_kappa_units


def test_trace_serialization():
    params, derived, drives, win, curve, snap = _setup()
    trace = hysteresis_from_curve(curve)
    text = trace_to_csv(trace, snap)
    lines = text.splitlines()
    assert HYSTERESIS_HEADER in lines
    assert any(l.startswith("# up_jump_powers_W") for l in lines)
    data = [l for l in lines if l.startswith(("up,", "down,"))]
    assert len(data) == len(trace.up) + len(trace.down)
    doc = trace_to_dict(trace, snap)
    assert doc["up_jump_powers_W"] == list(trace.up_jump_powers)
    assert doc["up"][0][0] == trace.up[0][0]
    dumps_json(doc)


def test_family_serialization():
    params, derived, drives, win, curve, snap = _setup()
    fam = family_sweep(params, drives, "g0",
                       (derived.g0, 1.2 * derived.g0), n_points=11)
    text = family_to_csv(fam, snap)
    lines = text.splitlines()
    assert FAMILY_HEADER in lines
    assert "# vary = g0" in lines
    first = [l for l in lines if not l.startswith("#")][1]
    assert float(first.split(",")[0]) == derived.g0
    doc = family_to_dict(fam, snap)
    assert doc["values"] == [derived.g0, 1.2 * derived.g0]
    assert len(doc["members"]) == 2
    dumps_json(doc)


def test_fields_csv():
    params, derived, drives, win, curve, snap = _setup()
    pt = curve.points[len(curve.points) // 2]
    f = pt.branches[0].fields
    text = fields_to_csv(f, pt.power, snap)
    line = [l for l in text.splitlines()
            if l.startswith("photon_number,")][0]
    assert float(line.split(",")[1]) == f.photon_number


def test_parse_curve_csv_rejects_garbage():
    with pytest.raises(ValueError):
        parse_curve_csv("not,a,curve\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_curve_csv("# only comments\n")


def test_float_repr_round_trip_synthetic():
    rng = np.random.default_rng(401)
    values = np.concatenate([
        rng.uniform(-1e30, 1e30, 300),
        10.0 ** rng.uniform(-300, 300, 300) * rng.choice([-1, 1], 300),
        np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308]),
    ])
    for v in values:
        assert float(repr(float(v))) == float(v)


def _stdlib_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


_TEXT = st.text(st.characters(codec="utf-8")
                | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                  '\u00e9\u2028\U0001f600'))
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]))
_ENUMS = st.sampled_from([*Method, *LinewidthConvention])
_LEAVES = (st.none() | st.booleans() | st.integers() | _FLOATS
           | _FLOATS.map(np.float64) | _TEXT | _ENUMS)
# keys that would break a %-template if written into it unescaped
_KEYS = _TEXT | st.sampled_from(["%", "%s", "%r", "%%", "%(x)s", "a%"])
# what one key holds across a list of records: mixed types on purpose
_COLUMNS = [_FLOATS, _FLOATS | st.none(), st.booleans() | st.integers(),
            _FLOATS | _FLOATS.map(np.float64), _TEXT | st.none() | _ENUMS,
            st.lists(_FLOATS, max_size=3)]


@st.composite
def _records(draw, inner, columns):
    """2 to 6 dicts with one key set, each key drawing from one of `columns`
    or from `inner`, so that lists of records nest."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    kinds = st.sampled_from([*columns, inner])
    row = st.fixed_dictionaries({key: draw(kinds) for key in keys})
    return draw(st.lists(row, min_size=2, max_size=6))


def _docs(leaves, columns):
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(_KEYS, inner, max_size=4)
                       | _records(inner, columns)),
        max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_docs(_LEAVES, _COLUMNS))
def test_dumps_json_equals_the_stdlib_encoder(doc):
    assert dumps_json(doc) == _stdlib_json(doc)


def _refusal(encode, doc):
    try:
        encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)
    return None


_BAD = st.sampled_from([math.nan, -math.inf, {1, 2}, np.int64(3)])


@settings(max_examples=200, deadline=None)
@given(_docs(_LEAVES | _BAD, [kind | _BAD for kind in _COLUMNS]))
def test_dumps_json_refuses_as_the_stdlib_encoder(doc):
    """A document with several bad values raises json's error: that of the
    first one in document order, though columns are rendered key by key."""
    assert _refusal(dumps_json, doc) is _refusal(_stdlib_json, doc)


def test_dumps_json_explicit_cases():
    for doc in ({}, [], (), "", {"a": {}, "b": [], "c": ()},
                {"x": np.float64(0.1), "y": [np.float64(-0.0)]},
                np.float64(1e-300),
                {"convention": LinewidthConvention.HALF_KAPPA,
                 "how": [Method.EIGEN, Method.SLOPE_RULE]},
                {"b": True, "a": [1, False, None, 2 ** 70, -3]}):
        assert dumps_json(doc) == _stdlib_json(doc), doc
    records = [{"x": 1.0, "y": [{"z": 2.0}]}, {"x": 3.0, "y": []},
               {"x": 4.0, "y": [{"z": 5.0}, {"z": math.nan}]}]
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan"),
                {"x": [1.0, math.inf]}, records,
                # column "a" holds a set, but the nan comes first
                [{"a": 1.0, "b": math.nan}, {"a": {1}, "b": 2.0}]):
        with pytest.raises(ValueError):
            _stdlib_json(bad)
        with pytest.raises(ValueError):
            dumps_json(bad)
    for bad in ({1, 2}, {"x": {1.0}}, np.int64(3)):
        with pytest.raises(TypeError):
            _stdlib_json(bad)
        with pytest.raises(TypeError):
            dumps_json(bad)
    # json would write the int key as "1"; results only ever have str keys
    for bad in ({1: "a"}, {"x": {2: 0}}, [{"a": 1.0}, {2: 1.0}],
                [{"a": 1.0, "b": 2.0}, {"a": 3.0, 4: 5.0}]):
        with pytest.raises(TypeError):
            dumps_json(bad)


def _fig_doc(name: str) -> dict:
    """The document `neoms fig NAME --format json` writes."""
    preset = get_preset(name)
    cfg = preset.config()
    if cfg.vary is not None:
        fam = family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                           convention=cfg.convention)
        return family_to_dict(fam, cfg.snapshot(), preset.assumptions)
    derived = cfg.derive()
    grid = auto_power_grid(bistability_window(derived, cfg.drives))
    return curve_to_dict(power_sweep(derived, cfg.drives, grid),
                         cfg.snapshot(), preset.assumptions)


def _fig2_doc(kind: str) -> dict:
    cfg = get_preset("fig2").config()
    derived = cfg.derive()
    window = bistability_window(derived, cfg.drives)
    if kind == "unsolved":      # null eps_sq, error strings, no branches
        grid = auto_power_grid(window, 3, 1e-9, 1e300)
        return curve_to_dict(power_sweep(derived, cfg.drives, grid),
                             cfg.snapshot())
    grid = auto_power_grid(window)
    curve = power_sweep(derived, cfg.drives, grid, Method.SLOPE_RULE)
    if kind == "slope":         # every margin is null
        return curve_to_dict(curve, cfg.snapshot())
    return trace_to_dict(hysteresis_from_curve(curve), cfg.snapshot())


@pytest.mark.parametrize("name", [
    *(pytest.param(name, id=name) for name in sorted(PRESETS)),
    *(pytest.param(kind, id=f"fig2-{kind}")
      for kind in ("slope", "trace", "unsolved"))])
def test_dumps_json_equals_the_stdlib_encoder_on_results(name):
    doc = _fig_doc(name) if name in PRESETS else _fig2_doc(name)
    assert dumps_json(doc) == _stdlib_json(doc)
