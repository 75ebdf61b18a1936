"""Config grammar: units, prefixes, ratio keys, errors, snapshot round-trip."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neoms.config import (KEY_DIMENSIONS, RunConfig, load_config,
                          parse_config_text, parse_scalar_for_key)
from neoms.errors import ConfigError
from neoms.model import DriveSpec, LinewidthConvention
from neoms.presets import get_preset
from draws import REFERENCE, TWO_PI

BASE = """\
# minimal operating point
cavity_length = 0.25 m
wavelength = 1064 nm
mass1 = 145 ng
mass2 = 145 ng
omega1 = 2pi*947 kHz
omega2 = 2pi*947 kHz
gamma1 = 2pi*140 kHz
gamma2 = 2pi*140 kHz
kappa = 2pi*215 kHz
delta_c_over_kappa = 3.6
g0 = 2pi*5 kHz
drive_power = 9 mW
"""


def test_parse_base_config_exactly():
    cfg = parse_config_text(BASE)
    p = cfg.params
    assert p.cavity_length == 0.25
    assert p.wavelength == 1064e-9
    assert p.mass1 == p.mass2 == 145e-12
    assert p.omega1 == TWO_PI * 947e3
    assert p.kappa == TWO_PI * 215e3
    assert p.delta_c == 3.6 * (TWO_PI * 215e3)
    assert p.g0 == TWO_PI * 5e3
    assert p.drive_power == 9 * 1e-3
    assert p.coulomb.gc == 0.0 and not p.coulomb.is_geometric
    assert cfg.drives == DriveSpec()
    assert cfg.convention is LinewidthConvention.HALF_KAPPA
    assert cfg.vary is None and cfg.values is None


def test_hz_family_converts_one_to_one():
    cfg = parse_config_text(BASE.replace("kappa = 2pi*215 kHz",
                                         "kappa = 215 kHz"))
    assert cfg.params.kappa == 215e3
    cfg2 = parse_config_text(BASE.replace("kappa = 2pi*215 kHz",
                                          "kappa = 1350884.8410437671 rad/s"))
    assert cfg2.params.kappa == 1350884.8410437671


def test_degrees_convert_to_radians():
    text = BASE + "eps1 = 2pi*100 kHz\nphi1 = 90 deg\n"
    cfg = parse_config_text(text)
    assert math.isclose(cfg.drives.phi1, math.pi / 2.0, rel_tol=1e-15)


def test_ratio_drive_keys():
    text = BASE + "eps1_over_omega1 = 2\neps2_over_omega2 = 2.4\n"
    cfg = parse_config_text(text)
    assert cfg.drives.eps1 == 2.0 * cfg.params.omega1
    assert cfg.drives.eps2 == 2.4 * cfg.params.omega2


def test_vary_values_block():
    text = BASE + "vary = g0\nvalues = 2pi*5 kHz, 2pi*6 kHz, 2pi*7 kHz\n"
    cfg = parse_config_text(text)
    assert cfg.vary == "g0"
    assert cfg.values == (TWO_PI * 5e3, TWO_PI * 6e3, TWO_PI * 7e3)


def test_phase_family_values_in_radians():
    text = BASE + "vary = phi1\nvalues = 45 deg, 1.5707963267948966 rad\n"
    cfg = parse_config_text(text)
    assert math.isclose(cfg.values[0], math.pi / 4.0, rel_tol=1e-15)
    assert cfg.values[1] == math.pi / 2.0


def test_geometric_coulomb_block():
    text = BASE + ("cap1 = 100e-12 F\ncap2 = 100e-12 F\n"
                   "volt1 = 10 V\nvolt2 = 10 V\nspacing = 0.1e-3 m\n")
    cfg = parse_config_text(text)
    assert cfg.params.coulomb.is_geometric
    assert cfg.params.coulomb.volt1 == 10.0
    assert cfg.params.coulomb.spacing == 1e-4


@pytest.mark.parametrize("mutation, line, fragment", [
    ("kappa 2pi*215 kHz", 10, "key = value"),
    ("kappa = ", 10, "key = value"),
    ("quack = 1 Hz", 10, "unknown key"),
    ("probe_power = 1 mW", 10, "unknown key"),
    ("dwell_factor = -1", 10, "dwell_factor"),
    ("kappa = 2pi*215 furlongs", 10, "not valid"),
    ("kappa = 2pi*abc kHz", 10, "bad number"),
    ("kappa = 215", 10, "needs a unit"),
    ("kappa = 2pi*215 kHz extra", 10, "cannot parse value"),
])
def test_line_numbered_errors(mutation, line, fragment):
    text = BASE.replace("kappa = 2pi*215 kHz", mutation)
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert f"line {line}" in str(exc.value)
    assert fragment in str(exc.value)


def test_duplicate_key_rejected():
    text = BASE + "kappa = 1 Hz\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert "duplicate" in str(exc.value) and "line 14" in str(exc.value)


def test_2pi_prefix_restricted_to_frequency():
    text = BASE.replace("drive_power = 9 mW", "drive_power = 2pi*9 mW")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert "2pi*" in str(exc.value)


def test_dimensionless_key_rejects_unit():
    text = BASE.replace("delta_c_over_kappa = 3.6",
                        "delta_c_over_kappa = 3.6 rad/s")
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert "dimensionless" in str(exc.value)


def test_missing_required_keys_reported_together():
    text = "\n".join(l for l in BASE.splitlines()
                     if not l.startswith(("mass1", "gamma2")))
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    msg = str(exc.value)
    assert "mass1" in msg and "gamma2" in msg


def test_detuning_exclusive_or():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + "delta_c = 2pi*774 kHz\n")
    assert "not both" in str(exc.value)
    text = "\n".join(l for l in BASE.splitlines()
                     if not l.startswith("delta_c_over_kappa"))
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert "delta_c" in str(exc.value)


_NO_DETUNING = "".join(l for l in BASE.splitlines(keepends=True)
                       if not l.startswith("delta_c_over_kappa"))
_MISSING_DETUNING = "missing required key(s): delta_c (or delta_c_over_kappa)"


@pytest.mark.parametrize("text, message, line", [
    pytest.param(BASE + "delta_c = 2pi*774 kHz\n",
                 "give delta_c or delta_c_over_kappa, not both", 11,
                 id="delta_c"),
    pytest.param(BASE + "eps1_over_omega1 = 2\neps1 = 1 Hz\n",
                 "give eps1 or eps1_over_omega1, not both", 14, id="eps1"),
    pytest.param(BASE + "eps2 = 1 Hz\neps2_over_omega2 = 2\n",
                 "give eps2 or eps2_over_omega2, not both", 15, id="eps2"),
    pytest.param(BASE + "eps2 = 1 Hz\neps2_over_omega2 = 2\n"
                 "eps1 = 1 Hz\neps1_over_omega1 = 2\n",
                 "give eps1 or eps1_over_omega1, not both", 17,
                 id="eps1-before-eps2"),
    pytest.param(_NO_DETUNING, _MISSING_DETUNING, None,
                 id="missing-delta_c"),
    pytest.param(_NO_DETUNING + "eps1 = 1 Hz\neps1_over_omega1 = 2\n",
                 _MISSING_DETUNING, None, id="missing-delta_c-before-eps1"),
])
def test_key_or_ratio_errors_in_order(text, message, line):
    """The key/ratio pairs' refusals: each full message, the line of the
    ratio key, and which is raised first when several apply."""
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None
                              else f"line {line}: {message}")


def test_drive_ratio_exclusive_or():
    with pytest.raises(ConfigError):
        parse_config_text(BASE + "eps1 = 1 Hz\neps1_over_omega1 = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text(BASE + "eps2 = 1 Hz\neps2_over_omega2 = 2\n")


def test_geometric_block_all_or_nothing():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + "cap1 = 100e-12 F\n")
    assert "missing" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + "gc = 1 Hz\ncap1 = 1 F\ncap2 = 1 F\n"
                          "volt1 = 1 V\nvolt2 = 1 V\nspacing = 1 m\n")
    assert "not both" in str(exc.value)


def test_values_requires_vary():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + "values = 1 Hz\n")
    assert "vary" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config_text(BASE + "vary = g0\nvalues = 1 Hz,, 2 Hz\n")


def test_vary_restricted_to_family_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(BASE + "vary = kappa\n")
    assert "vary" in str(exc.value)


def test_convention_enum():
    cfg = parse_config_text(BASE + "convention = kappa\n")
    assert cfg.convention is LinewidthConvention.FULL_KAPPA
    with pytest.raises(ConfigError):
        parse_config_text(BASE + "convention = half\n")


def test_parse_scalar_for_key():
    assert parse_scalar_for_key("g0", "2pi*5 kHz") == TWO_PI * 5e3
    assert parse_scalar_for_key("phi1", "180 deg") == math.pi
    with pytest.raises(ConfigError):
        parse_scalar_for_key("nope", "1")


def test_snapshot_round_trip():
    full = BASE + ("eps1 = 2pi*100 kHz\nphi1 = 45 deg\n"
                   "convention = kappa\ndwell_factor = 25\n"
                   "vary = phi1\nvalues = 45 deg, 90 deg\n")
    # a vary key without values, as `family --values` can supply them
    vary_only = get_preset("fig2").text + "vary = g0\n"
    for text in (full, vary_only):
        cfg = parse_config_text(text)
        snap = cfg.snapshot()
        again = parse_config_text(snap)
        assert again == cfg
        assert again.snapshot() == snap


def test_snapshot_round_trip_geometric():
    text = BASE + ("cap1 = 100e-12 F\ncap2 = 120e-12 F\n"
                   "volt1 = 3 V\nvolt2 = 4 V\nspacing = 0.1e-3 m\n")
    cfg = parse_config_text(text)
    assert parse_config_text(cfg.snapshot()) == cfg


finite = st.floats(min_value=1e-8, max_value=1e8,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(kappa=finite, g0=finite, power=finite, phi=st.floats(0.0, TWO_PI - 1e-9))
def test_snapshot_round_trip_property(kappa, g0, phi, power):
    cfg = parse_config_text(BASE)
    cfg = RunConfig(params=cfg.params._replace(kappa=kappa, g0=g0,
                                               drive_power=power),
                    drives=DriveSpec(eps1=1.0, phi1=phi),
                    convention=cfg.convention)
    again = parse_config_text(cfg.snapshot())
    assert again == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(str(tmp_path / "nope.conf"))
    assert "cannot read" in str(exc.value)
    path = tmp_path / "ok.conf"
    path.write_text(BASE)
    assert load_config(str(path)) == parse_config_text(BASE)


def test_key_dimension_table_is_total():
    # every scalar key names a known dimension, whose first unit is the
    # canonical one that snapshots write: factor 1.0
    from neoms.config import _UNITS
    for key, dim in KEY_DIMENSIONS.items():
        assert dim == "dimensionless" or dim in _UNITS, key
    for dim, units in _UNITS.items():
        assert next(iter(units.values())) == 1.0, dim
