"""Deterministic CSV and JSON serialization of analysis results.

CSV files carry a `#`-commented preamble holding the canonical parameter
snapshot (and any preset assumptions), then a fixed header.  Floats are
written with repr, which round-trips exactly; booleans are true/false.
Neither format embeds timestamps, so equal inputs give equal bytes.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from .bifurcation import (BistabilityCurve, BistabilityWindow, FamilyResult,
                          HysteresisTrace)
from .steady_state import SteadyStateFields, ThresholdDetuning

CURVE_HEADER = "power_W,branch_index,photon_number,stable,q1_m,q2_m"
FAMILY_HEADER = "value," + CURVE_HEADER
HYSTERESIS_HEADER = "direction,power_W,photon_number"
KEYVALUE_HEADER = "key,value"


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
    newline, written directly: `indent` sends json to its slower pure-Python
    encoder.  Unlike json, a key that is not a str raises TypeError."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")   # joined once: a copy for the newline would add a peak
    return "".join(out)


def _write_json(obj, pad: str, out: list[str]) -> None:
    # json's order of tests; bools before ints, float.__repr__ for np.float64
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"float {obj!r} is not JSON compliant")
        out.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        # one separator string per container, not per item: peak memory
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = comma
        out.append(pad + "]" if obj else "[]")
    elif isinstance(obj, dict):
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, _quote(key), ": ")
            _write_json(obj[key], inner, out)
            sep = comma
        out.append(pad + "}" if obj else "{}")
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------- curves

def _curve_rows(curve: BistabilityCurve, prefix: str = "") -> list[str]:
    rows = []
    for pt in curve.points:
        for i, b in enumerate(pt.branches):
            rows.append(prefix + ",".join([
                _f(pt.power), str(i), _f(b.photon_number), _b(b.stable),
                _f(b.fields.q_1s), _f(b.fields.q_2s)]))
    return rows


def curve_to_csv(curve: BistabilityCurve, snapshot: str,
                 comments: tuple[str, ...] = ()) -> str:
    lines = _preamble(snapshot, comments)
    errors = [pt for pt in curve.points if pt.error is not None]
    for pt in errors:
        lines.append(f"# unsolved point at power_W = {_f(pt.power)}: "
                     f"{pt.error}")
    lines.append(CURVE_HEADER)
    lines += _curve_rows(curve)
    return "\n".join(lines) + "\n"


def _branch_dict(b) -> dict:
    return {
        "photon_number": b.photon_number,
        "stable": b.stable,
        "stability_margin": _none_if_nan(b.stability.margin),
        "q1_m": b.fields.q_1s,
        "q2_m": b.fields.q_2s,
        "effective_detuning_rad_s": b.fields.effective_detuning,
    }


def _points(curve: BistabilityCurve) -> list[dict]:
    return [
        {
            "power_W": pt.power,
            "eps_sq": pt.eps_sq,
            "error": pt.error,
            "branches": [_branch_dict(b) for b in pt.branches],
        }
        for pt in curve.points
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
