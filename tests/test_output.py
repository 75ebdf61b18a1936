"""Serialization: deterministic bytes, exact float round-trips, NaN policy."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neoms.bifurcation import (BistabilityWindow, auto_power_grid,
                               bistability_window, family_sweep,
                               hysteresis_from_curve, power_sweep)
from neoms.model import derive
from neoms.stability import Classification, Method
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


def test_window_serialization_including_absent():
    params, derived, drives, win, curve, snap = _setup()
    doc = window_to_dict(win)
    assert doc["exists"] is True
    assert doc["power_up_W"] == win.power_up
    csv_text = window_to_csv(win, snap)
    assert "exists,true" in csv_text
    # sub-threshold window: NaN fields must serialize as nulls, not NaN
    low = derive(replace(params, delta_c=0.2 * params.kappa), drives)
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
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
           | _TEXT)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_dumps_json_equals_the_stdlib_encoder(doc):
    assert dumps_json(doc) == _stdlib_json(doc)


def test_dumps_json_explicit_cases():
    for doc in ({}, [], (), "", {"a": {}, "b": [], "c": ()},
                {"x": np.float64(0.1), "y": [np.float64(-0.0)]},
                np.float64(1e-300),
                {"stable": Classification.STABLE, "how": [Method.EIGEN,
                                                          Method.SLOPE_RULE]},
                {"b": True, "a": [1, False, None, 2 ** 70, -3]}):
        assert dumps_json(doc) == _stdlib_json(doc), doc
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan"),
                {"x": [1.0, math.inf]}):
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
    for bad in ({1: "a"}, {"x": {2: 0}}):
        with pytest.raises(TypeError):
            dumps_json(bad)
