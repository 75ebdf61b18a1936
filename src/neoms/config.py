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
from dataclasses import dataclass

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

_REQUIRED = ("cavity_length", "wavelength", "mass1", "mass2", "omega1",
             "omega2", "gamma1", "gamma2", "kappa", "drive_power")

_GEOMETRIC = ("cap1", "cap2", "volt1", "volt2", "spacing")

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


def parse_scalar_for_key(key: str, text: str) -> float:
    """Parse one value with the unit rules of the named key."""
    dim = KEY_DIMENSIONS.get(key)
    if dim is None:
        raise ConfigError(f"unknown key {key!r}")
    return _parse_quantity(text, dim, key, None)


@dataclass(frozen=True)
class RunConfig:
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
        p, d = self.params, self.drives
        lines = [
            f"cavity_length = {p.cavity_length!r} m",
            f"wavelength = {p.wavelength!r} m",
            f"mass1 = {p.mass1!r} kg",
            f"mass2 = {p.mass2!r} kg",
            f"omega1 = {p.omega1!r} rad/s",
            f"omega2 = {p.omega2!r} rad/s",
            f"gamma1 = {p.gamma1!r} rad/s",
            f"gamma2 = {p.gamma2!r} rad/s",
            f"kappa = {p.kappa!r} rad/s",
            f"delta_c = {p.delta_c!r} rad/s",
            f"drive_power = {p.drive_power!r} W",
        ]
        if p.g0 is not None:
            lines.append(f"g0 = {p.g0!r} rad/s")
        if p.coulomb.is_geometric:
            lines += [f"cap1 = {p.coulomb.cap1!r} F",
                      f"cap2 = {p.coulomb.cap2!r} F",
                      f"volt1 = {p.coulomb.volt1!r} V",
                      f"volt2 = {p.coulomb.volt2!r} V",
                      f"spacing = {p.coulomb.spacing!r} m"]
        else:
            lines.append(f"gc = {p.coulomb.gc!r} rad/s")
        lines += [
            f"eps1 = {d.eps1!r} rad/s",
            f"eps2 = {d.eps2!r} rad/s",
            f"phi1 = {d.phi1!r} rad",
            f"phi2 = {d.phi2!r} rad",
            f"convention = {self.convention.value}",
        ]
        if self.dwell_factor is not None:
            lines.append(f"dwell_factor = {self.dwell_factor!r}")
        if self.vary is not None:
            lines.append(f"vary = {self.vary}")
            # `values = ` with nothing after it would not parse back
            if self.values is not None:
                unit = _CANONICAL_UNIT.get(KEY_DIMENSIONS[self.vary])
                entries = ", ".join(f"{v!r} {unit}" if unit else repr(v)
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

    if "delta_c" in scalars and "delta_c_over_kappa" in scalars:
        raise ConfigError("give delta_c or delta_c_over_kappa, not both",
                          raw["delta_c_over_kappa"][1])
    if "delta_c" in scalars:
        delta_c = scalars["delta_c"]
    elif "delta_c_over_kappa" in scalars:
        delta_c = scalars["delta_c_over_kappa"] * scalars["kappa"]
    else:
        raise ConfigError("missing required key(s): delta_c (or "
                          "delta_c_over_kappa)")

    if "eps1" in scalars and "eps1_over_omega1" in scalars:
        raise ConfigError("give eps1 or eps1_over_omega1, not both",
                          raw["eps1_over_omega1"][1])
    if "eps2" in scalars and "eps2_over_omega2" in scalars:
        raise ConfigError("give eps2 or eps2_over_omega2, not both",
                          raw["eps2_over_omega2"][1])
    if "eps1_over_omega1" in scalars:
        eps1 = scalars["eps1_over_omega1"] * scalars["omega1"]
    else:
        eps1 = scalars.get("eps1", 0.0)
    if "eps2_over_omega2" in scalars:
        eps2 = scalars["eps2_over_omega2"] * scalars["omega2"]
    else:
        eps2 = scalars.get("eps2", 0.0)

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
        coulomb = CoulombSpec.geometric(scalars["cap1"], scalars["cap2"],
                                        scalars["volt1"], scalars["volt2"],
                                        scalars["spacing"])
    else:
        coulomb = CoulombSpec.direct(scalars.get("gc", 0.0))

    params = SystemParams(
        cavity_length=scalars["cavity_length"],
        wavelength=scalars["wavelength"],
        mass1=scalars["mass1"], mass2=scalars["mass2"],
        omega1=scalars["omega1"], omega2=scalars["omega2"],
        gamma1=scalars["gamma1"], gamma2=scalars["gamma2"],
        kappa=scalars["kappa"], delta_c=delta_c,
        drive_power=scalars["drive_power"],
        g0=scalars.get("g0"), coulomb=coulomb)
    drives = DriveSpec(eps1=eps1, eps2=eps2,
                       phi1=scalars.get("phi1", 0.0),
                       phi2=scalars.get("phi2", 0.0))
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
