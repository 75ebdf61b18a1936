"""Plain-text run configuration: `key = value` lines with explicit units.

The grammar is deliberately small.  One assignment per line, `#` starts a
comment, units are mandatory for dimensionful keys, and the `2pi*` prefix
multiplies a frequency-family number by 2*pi so angular rates can be written
the way they are quoted.  Hz-family units convert 1:1 into rad/s: writing
`kappa = 215 kHz` means 2.15e5 rad/s, writing `kappa = 2pi*215 kHz` means
the angular rate usually quoted as "2 pi x 215 kHz".
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .bifurcation import FAMILY_KEYS
from .errors import ConfigError
from .model import (CoulombSpec, DerivedParams, DriveSpec,
                    LinewidthConvention, SystemParams, derive)

_UNITS: dict[str, dict[str, float]] = {
    "length": {"m": 1.0, "nm": 1e-9},
    "mass": {"kg": 1.0, "ng": 1e-12},
    "frequency": {"rad/s": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "power": {"W": 1.0, "mW": 1e-3},
    "voltage": {"V": 1.0},
    "capacitance": {"F": 1.0},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
}

_CANONICAL_UNIT = {"length": "m", "mass": "kg", "frequency": "rad/s",
                   "power": "W", "voltage": "V", "capacitance": "F",
                   "angle": "rad"}

KEY_DIMENSIONS: dict[str, str] = {
    "cavity_length": "length",
    "wavelength": "length",
    "spacing": "length",
    "mass1": "mass",
    "mass2": "mass",
    "omega1": "frequency",
    "omega2": "frequency",
    "gamma1": "frequency",
    "gamma2": "frequency",
    "kappa": "frequency",
    "delta_c": "frequency",
    "g0": "frequency",
    "gc": "frequency",
    "eps1": "frequency",
    "eps2": "frequency",
    "drive_power": "power",
    "volt1": "voltage",
    "volt2": "voltage",
    "cap1": "capacitance",
    "cap2": "capacitance",
    "phi1": "angle",
    "phi2": "angle",
    "delta_c_over_kappa": "dimensionless",
    "eps1_over_omega1": "dimensionless",
    "eps2_over_omega2": "dimensionless",
    "dwell_factor": "dimensionless",
}

_STRING_KEYS = ("convention", "vary")

#: SystemParams' scalar fields (all but coulomb), in snapshot order.
#: delta_c may be given as a ratio instead, and g0 may be left out to
#: derive it from the geometry.
_PARAM_KEYS = SystemParams._fields[:-1]

_REQUIRED = tuple(k for k in _PARAM_KEYS if k not in ("delta_c", "g0"))

#: CoulombSpec's geometric fields: every field but gc
_GEOMETRIC = CoulombSpec._fields[1:]

#: (key, rate): `key` may instead be given as `key_over_rate`, in units of
#: that rate; in this order, so that errors are raised in it
_RATIO_KEYS = (("delta_c", "kappa"), ("eps1", "omega1"), ("eps2", "omega2"))

_QUANT_RE = re.compile(r"^(2pi\*)?(\S+)(?:\s+(\S+))?$")


def _parse_quantity(text: str, dimension: str, key: str,
                    line: int | None) -> float:
    m = _QUANT_RE.match(text.strip())
    if m is None:
        raise ConfigError(f"cannot parse value {text!r} for {key}", line)
    prefix, number, unit = m.groups()
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(f"bad number {number!r} for {key}", line) from None
    if prefix:
        if dimension != "frequency":
            raise ConfigError(f"2pi* prefix only applies to frequency-family "
                              f"keys, not {key}", line)
        value *= 2.0 * math.pi
    if dimension == "dimensionless":
        if unit is not None:
            raise ConfigError(f"{key} is dimensionless; drop the unit "
                              f"{unit!r}", line)
        return value
    if unit is None:
        raise ConfigError(f"{key} needs a unit, one of "
                          f"{sorted(_UNITS[dimension])}", line)
    table = _UNITS[dimension]
    if unit not in table:
        raise ConfigError(f"unit {unit!r} is not valid for {key}; expected "
                          f"one of {sorted(table)}", line)
    return value * table[unit]


def _quantity(key: str, value) -> str:
    """`value` written in the canonical unit of `key`, if it has one."""
    unit = _CANONICAL_UNIT.get(KEY_DIMENSIONS[key])
    return f"{value!r} {unit}" if unit else repr(value)


def parse_scalar_for_key(key: str, text: str) -> float:
    """Parse one value with the unit rules of the named key."""
    dim = KEY_DIMENSIONS.get(key)
    if dim is None:
        raise ConfigError(f"unknown key {key!r}")
    return _parse_quantity(text, dim, key, None)


class RunConfig(NamedTuple):
    """Parsed configuration plus the sweep/convention extras."""

    params: SystemParams
    drives: DriveSpec
    convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA
    dwell_factor: float | None = None
    vary: str | None = None
    values: tuple[float, ...] | None = None

    def derive(self) -> DerivedParams:
        return derive(self.params, self.drives, self.convention)

    def snapshot(self) -> str:
        """Canonical SI re-serialization; parses back to the same config."""
        p, coulomb = self.params, self.params.coulomb
        keyed = [(k, getattr(p, k)) for k in _PARAM_KEYS
                 if getattr(p, k) is not None]
        keyed += [(k, getattr(coulomb, k)) for k in
                  (_GEOMETRIC if coulomb.is_geometric else ("gc",))]
        keyed += zip(DriveSpec._fields, self.drives)
        lines = [f"{k} = {_quantity(k, v)}" for k, v in keyed]
        lines.append(f"convention = {self.convention.value}")
        if self.dwell_factor is not None:
            lines.append(f"dwell_factor = {self.dwell_factor!r}")
        if self.vary is not None:
            lines.append(f"vary = {self.vary}")
            # `values = ` with nothing after it would not parse back
            if self.values is not None:
                entries = ", ".join(_quantity(self.vary, v)
                                    for v in self.values)
                lines.append(f"values = {entries}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> RunConfig:
    """Parse the grammar; every complaint carries its line number."""
    raw: dict[str, tuple[str, int]] = {}
    for i, full in enumerate(text.splitlines(), start=1):
        body = full.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected `key = value`", i)
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError("expected `key = value`", i)
        if key not in KEY_DIMENSIONS and key not in _STRING_KEYS \
                and key != "values":
            raise ConfigError(f"unknown key {key!r}", i)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", i)
        raw[key] = (val, i)

    scalars: dict[str, float] = {}
    for key, (val, i) in raw.items():
        if key in _STRING_KEYS or key == "values":
            continue
        scalars[key] = _parse_quantity(val, KEY_DIMENSIONS[key], key, i)
    dwell = scalars.get("dwell_factor")
    if dwell is not None and not (math.isfinite(dwell) and dwell > 0.0):
        raise ConfigError(f"dwell_factor must be finite and > 0, got "
                          f"{dwell!r}", raw["dwell_factor"][1])

    convention = LinewidthConvention.HALF_KAPPA
    if "convention" in raw:
        val, i = raw["convention"]
        try:
            convention = LinewidthConvention(val)
        except ValueError:
            raise ConfigError(
                f"convention must be one of "
                f"{[c.value for c in LinewidthConvention]}, got {val!r}",
                i) from None

    vary = None
    if "vary" in raw:
        val, i = raw["vary"]
        if val not in FAMILY_KEYS:
            raise ConfigError(f"vary must be one of {FAMILY_KEYS}, "
                              f"got {val!r}", i)
        vary = val

    values = None
    if "values" in raw:
        val, i = raw["values"]
        if vary is None:
            raise ConfigError("values requires a vary key", i)
        dim = KEY_DIMENSIONS[vary]
        entries = [e.strip() for e in val.split(",")]
        if not all(entries):
            raise ConfigError("empty entry in values list", i)
        values = tuple(_parse_quantity(e, dim, vary, i) for e in entries)

    missing = [k for k in _REQUIRED if k not in scalars]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")

    for key, rate in _RATIO_KEYS:
        ratio = f"{key}_over_{rate}"
        if ratio in scalars:
            if key in scalars:
                raise ConfigError(f"give {key} or {ratio}, not both",
                                  raw[ratio][1])
            scalars[key] = scalars[ratio] * scalars[rate]
        elif key not in scalars and key in _PARAM_KEYS:
            # a drive tone is off unless given; the detuning has no default
            raise ConfigError(f"missing required key(s): {key} (or {ratio})")

    geometric_given = [k for k in _GEOMETRIC if k in scalars]
    if geometric_given:
        if "gc" in scalars:
            raise ConfigError("give gc or the geometric keys, not both",
                              raw[geometric_given[0]][1])
        absent = [k for k in _GEOMETRIC if k not in scalars]
        if absent:
            raise ConfigError(f"geometric coupling needs all of "
                              f"{_GEOMETRIC}; missing {', '.join(absent)}",
                              raw[geometric_given[0]][1])
        coulomb = CoulombSpec.geometric(*(scalars[k] for k in _GEOMETRIC))
    else:
        coulomb = CoulombSpec.direct(scalars.get("gc", 0.0))

    params = SystemParams(**{k: scalars.get(k) for k in _PARAM_KEYS},
                          coulomb=coulomb)
    drives = DriveSpec(*(scalars.get(k, 0.0) for k in DriveSpec._fields))
    return RunConfig(params=params, drives=drives, convention=convention,
                     dwell_factor=scalars.get("dwell_factor"),
                     vary=vary, values=values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)
