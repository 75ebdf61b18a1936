"""Deterministic CSV and JSON serialization of analysis results.

CSV files carry a `#`-commented preamble holding the canonical parameter
snapshot (and any preset assumptions), then a fixed header.  Floats are
written with repr, which round-trips exactly; booleans are true/false.
Neither format embeds timestamps, so equal inputs give equal bytes.
"""

from __future__ import annotations

import math
from itertools import chain, filterfalse, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .bifurcation import (BistabilityCurve, BistabilityWindow, FamilyResult,
                          HysteresisTrace)
from .stability import Method, margins
from .steady_state import SteadyStateFields, ThresholdDetuning

CURVE_HEADER = "power_W,branch_index,photon_number,stable,q1_m,q2_m"
FAMILY_HEADER = "value," + CURVE_HEADER
HYSTERESIS_HEADER = "direction,power_W,photon_number"
KEYVALUE_HEADER = "key,value"
_LITERALS = {None: "null", True: "true", False: "false"}


def _f(x: float) -> str:
    return repr(float(x))


def _b(x: bool) -> str:
    return "true" if x else "false"


def _preamble(snapshot: str, comments: tuple[str, ...] = ()) -> list[str]:
    lines = [f"# {c}" for c in comments]
    lines += [f"# {line}" for line in snapshot.rstrip("\n").splitlines()]
    return lines


def _envelope(kind: str, body: dict, snapshot: str,
              comments: tuple[str, ...] = ()) -> dict:
    """A JSON result: `body` plus its kind, the snapshot lines and the
    preset assumptions.  No other code sets those three keys."""
    return {**body, "kind": kind,
            "snapshot": snapshot.rstrip("\n").splitlines(),
            "assumptions": list(comments)}


def _none_if_nan(x: float | None) -> float | None:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return x


def dumps_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)` plus a
    newline, refusing what json refuses and any key that is not a str.
    Built a column at a time: a key's values across a list's records, or
    the items of all lists at one depth, are checked and rendered together,
    and each record is one `%` of its keys' template."""
    spec, (text,) = _render([obj], "\n")
    return (spec + "\n") % (text,)


def _render(col: list, pad: str) -> tuple[str, list]:
    """(spec, items): `spec % item` is the text of each value of `col`, and
    `pad` starts its nested lines.  A failing column is retried value by
    value, so the error raised is json's: that of the first bad value."""
    try:
        return _column(col, pad)
    except (TypeError, ValueError):
        for value in col:
            _column([value], pad)
        raise


def _column(col: list, pad: str) -> tuple[str, list]:
    types = set(map(type, col))
    if len(types) != 1:
        return _split(col, map(type, col), pad)
    (t,) = types
    if issubclass(t, str):      # json's order of tests: bool before int
        return "%s", list(map(_quote, col))
    if t is bool or t is type(None):
        return "%s", list(map(_LITERALS.__getitem__, col))
    if issubclass(t, int):
        return "%s", list(map(int.__repr__, col))
    if issubclass(t, float):
        for bad in filterfalse(math.isfinite, col):
            raise ValueError(f"float {bad!r} is not JSON compliant")
        if t is float:      # only for exact floats is %r float.__repr__
            return "%r", col
        return "%s", list(map(float.__repr__, col))
    inner, comma = pad + "  ", "," + pad + "  "
    if issubclass(t, (list, tuple)):
        spec, items = _render([*chain.from_iterable(col)], inner)
        forms = {n: f"[{inner}{comma.join([spec] * n)}{pad}]" if n else "[]"
                 for n in set(map(len, col))}
        rest = iter(items)
        return "%s", [forms[n] % tuple(islice(rest, n)) for n in map(len, col)]
    if not issubclass(t, dict):
        raise TypeError(f"{t.__name__} is not JSON serializable")
    if len(set(map(tuple, col))) > 1:
        return _split(col, map(tuple, col), pad)
    specs, cols = [], []
    for key in sorted(col[0]):      # a key that is not a str: TypeError
        spec, items = _render([*map(itemgetter(key), col)], inner)
        specs.append(_quote(key).replace("%", "%%") + ": " + spec)
        cols.append(items)
    form = f"{{{inner}{comma.join(specs)}{pad}}}" if specs else "{}"
    return "%s", [*map(form.__mod__, zip(*cols))] or [form] * len(col)


def _split(col: list, kinds, pad: str) -> tuple[str, list]:
    """Render `col` in groups of one kind (type or key set), each a column."""
    groups: dict = {}
    for i, kind in enumerate(kinds):
        groups.setdefault(kind, []).append(i)
    out = [""] * len(col)
    for rows in groups.values():
        spec, items = _render([col[i] for i in rows], pad)
        for i, item in zip(rows, items):
            out[i] = spec % (item,)
    return "%s", out


# ---------------------------------------------------------------- curves

def _curve_rows(curve: BistabilityCurve, prefix: str = "") -> list[str]:
    """One CSV row per root, in grid order, from the curve's columns."""
    x = map(float.__repr__, curve.photon_number)
    q1 = map(float.__repr__, curve.q_1s)
    q2 = map(float.__repr__, curve.q_2s)
    stable = map(_b, curve.stable)
    rows = []
    for power, branch_rows in zip(curve.power, curve.branch_rows):
        head = f"{prefix}{_f(power)},"
        rows += [f"{head}{i},{next(x)},{next(stable)},{next(q1)},{next(q2)}"
                 for i in range(len(branch_rows))]
    return rows


def _unsolved_lines(points, at: str = "") -> list[str]:
    """A comment for each (power, error) pair whose error is not None."""
    return [f"# unsolved point at {at}power_W = {_f(power)}: {error}"
            for power, error in points if error is not None]


def curve_to_csv(curve: BistabilityCurve, snapshot: str,
                 comments: tuple[str, ...] = ()) -> str:
    lines = _preamble(snapshot, comments)
    lines += _unsolved_lines(zip(curve.power, curve.error))
    lines.append(CURVE_HEADER)
    lines += _curve_rows(curve)
    return "\n".join(lines) + "\n"


def _points(curve: BistabilityCurve) -> list[dict]:
    """The JSON points of a curve, built from its columns, with each
    state's -max Re(eig) margin from one batched eigvals call; nan, so
    null, under the slope rule."""
    margin = ([math.nan] * len(curve.stable)
              if curve.method == Method.SLOPE_RULE else
              margins(curve.effective_detuning, curve.c_s, curve.derived))
    branches = [
        {
            "photon_number": x,
            "stable": s,
            "stability_margin": None if m != m else m,   # nan is not JSON
            "q1_m": q1,
            "q2_m": q2,
            "effective_detuning_rad_s": det,
        }
        for x, s, m, q1, q2, det in zip(
            curve.photon_number, curve.stable, margin, curve.q_1s,
            curve.q_2s, curve.effective_detuning)]
    return [
        {
            "power_W": p,
            # an overflowing drive (eps^2 = inf) leaves its point unsolved
            "eps_sq": e if math.isfinite(e) else None,
            "error": error,
            "branches": branches[rows.start:rows.stop],
        }
        for p, e, error, rows in zip(curve.power, curve.eps_sq, curve.error,
                                     curve.branch_rows)
    ]


def curve_to_dict(curve: BistabilityCurve, snapshot: str,
                  comments: tuple[str, ...] = (), kind: str = "curve") -> dict:
    return _envelope(kind, {
        "method": str(curve.method.value),
        "convention": str(curve.convention.value),
        "points": _points(curve),
    }, snapshot, comments)


# ---------------------------------------------------------------- families

def family_to_csv(family: FamilyResult, snapshot: str,
                  comments: tuple[str, ...] = ()) -> str:
    lines = _preamble(snapshot, comments)
    vary = f"# vary = {family.vary}"
    if vary not in lines:
        lines.append(vary)
    for m in family.members:
        lines += _unsolved_lines(zip(m.curve.power, m.curve.error),
                                 f"{family.vary} = {_f(m.value)}, ")
    lines.append(FAMILY_HEADER)
    for m in family.members:
        lines += _curve_rows(m.curve, prefix=_f(m.value) + ",")
    return "\n".join(lines) + "\n"


def window_to_dict(window: BistabilityWindow) -> dict:
    crit = window.critical
    return {
        "exists": window.exists,
        "reason": window.reason,
        "power_up_W": window.power_up,
        "power_down_W": window.power_down,
        "width_W": window.width if window.exists else None,
        "fold_ratio": _none_if_nan(window.fold_ratio),
        "x_c_minus": _none_if_nan(crit.x_c_minus),
        "x_c_plus": _none_if_nan(crit.x_c_plus),
        "x_inflection": _none_if_nan(crit.x_inf),
        "delta_tilde_rad_s": window.delta_tilde,
        "threshold_delta_tilde_rad_s": window.threshold.delta_tilde,
        "threshold_in_kappa_units": window.threshold.in_kappa_units,
    }


def family_to_dict(family: FamilyResult, snapshot: str,
                   comments: tuple[str, ...] = ()) -> dict:
    return _envelope("family", {
        "vary": family.vary,
        "values": list(family.values),
        "powers_W": list(family.powers),
        "members": [
            {
                "value": m.value,
                "window": window_to_dict(m.window),
                "curve": _points(m.curve),
            }
            for m in family.members
        ],
    }, snapshot, comments)


# ---------------------------------------------------------------- key/value

def _cell(value) -> str:
    if isinstance(value, bool):
        return _b(value)
    if isinstance(value, float):
        return _f(value)
    return "" if value is None else str(value)


def _keyvalue_csv(doc: dict) -> str:
    """A flat JSON result as `key,value` rows in key order.

    Its assumptions and snapshot become the preamble.  Booleans are written
    true/false, floats with repr, None as an empty cell and anything else
    with str.
    """
    lines = [f"# {line}" for line in (*doc["assumptions"], *doc["snapshot"])]
    lines.append(KEYVALUE_HEADER)
    lines += [f"{key},{_cell(value)}" for key, value in sorted(doc.items())
              if key not in ("snapshot", "assumptions")]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- windows

def window_to_csv(window: BistabilityWindow, snapshot: str,
                  comments: tuple[str, ...] = ()) -> str:
    doc = window_json(window, snapshot, comments)
    del doc["kind"]     # the window CSV has never had a kind row
    return _keyvalue_csv(doc)


def window_json(window: BistabilityWindow, snapshot: str,
                comments: tuple[str, ...] = ()) -> dict:
    return _envelope("window", window_to_dict(window), snapshot, comments)


# ---------------------------------------------------------------- threshold

def threshold_to_dict(thr: ThresholdDetuning, kappa: float, snapshot: str,
                      comments: tuple[str, ...] = ()) -> dict:
    return _envelope("threshold", {
        "convention": str(thr.convention.value),
        "delta_tilde_rad_s": thr.delta_tilde,
        "in_kappa_units": thr.in_kappa_units,
        "delta_c_rad_s": thr.delta_c,
        "kappa_rad_s": kappa,
    }, snapshot, comments)


def threshold_to_csv(thr: ThresholdDetuning, kappa: float, snapshot: str,
                     comments: tuple[str, ...] = ()) -> str:
    return _keyvalue_csv(threshold_to_dict(thr, kappa, snapshot, comments))


# ---------------------------------------------------------------- hysteresis

def trace_to_csv(trace: HysteresisTrace, snapshot: str,
                 comments: tuple[str, ...] = ()) -> str:
    lines = _preamble(snapshot, comments)
    ups = ", ".join(_f(p) for p in trace.up_jump_powers)
    downs = ", ".join(_f(p) for p in trace.down_jump_powers)
    lines.append(f"# up_jump_powers_W = [{ups}]")
    lines.append(f"# down_jump_powers_W = [{downs}]")
    lines += _unsolved_lines(trace.unsolved)
    lines.append(HYSTERESIS_HEADER)
    for name, seq in (("up", trace.up), ("down", trace.down)):
        for power, x in seq:
            lines.append(f"{name},{_f(power)},{_f(x)}")
    return "\n".join(lines) + "\n"


def trace_to_dict(trace: HysteresisTrace, snapshot: str,
                  comments: tuple[str, ...] = ()) -> dict:
    return _envelope("hysteresis", {
        "up": [[p, x] for p, x in trace.up],
        "down": [[p, x] for p, x in trace.down],
        "up_jump_powers_W": list(trace.up_jump_powers),
        "down_jump_powers_W": list(trace.down_jump_powers),
        "unsolved": [[p, error] for p, error in trace.unsolved],
    }, snapshot, comments)


# ---------------------------------------------------------------- fields

def fields_to_dict(fields: SteadyStateFields, power: float, snapshot: str,
                   comments: tuple[str, ...] = ()) -> dict:
    return _envelope("steady_fields", {
        "power_W": power,
        "photon_number": fields.photon_number,
        "cavity_re": fields.c_s.real,
        "cavity_im": fields.c_s.imag,
        "q1_m": fields.q_1s,
        "q2_m": fields.q_2s,
        "effective_detuning_rad_s": fields.effective_detuning,
    }, snapshot, comments)


def fields_to_csv(fields: SteadyStateFields, power: float, snapshot: str,
                  comments: tuple[str, ...] = ()) -> str:
    return _keyvalue_csv(fields_to_dict(fields, power, snapshot, comments))
