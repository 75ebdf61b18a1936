"""Parameter layer: constants, derived rates, validation, phase handling.

Expected numbers marked "extended precision" were computed independently
with 40-digit mpmath arithmetic from the same physical constants and frozen
here.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neoms.bifurcation import family_sweep
from neoms.errors import ParameterError
from neoms.model import (CODATA, CoulombSpec, DriveSpec, LinewidthConvention,
                         SystemParams, _coulomb_rate_per_area, canonical_phase,
                         derive, eps_for_power, power_for_eps_sq, validate,
                         zero_point_length)
from neoms.presets import get_preset
from draws import REFERENCE, TWO_PI


def test_constants():
    assert CODATA.light_speed == 299792458.0
    assert CODATA.hbar == 1.054571817e-34
    # k_e = c^2 * 1e-7 exactly
    assert CODATA.coulomb_constant == 299792458.0 ** 2 * 1e-7


def _omega_c(params):
    """Cavity angular frequency 2 pi c / wavelength, as derive forms it."""
    return TWO_PI * CODATA.light_speed / params.wavelength


def test_cavity_frequency_extended_precision():
    d = derive(REFERENCE)
    assert math.isclose(d.omega_l + REFERENCE.delta_c, 1770349217395538.8,
                        rel_tol=1e-13)
    assert d.omega_l == _omega_c(REFERENCE) - REFERENCE.delta_c


def test_zero_point_length_extended_precision():
    xz = zero_point_length(145e-12, TWO_PI * 947e3)
    assert math.isclose(xz, 2.4721462392828e-16, rel_tol=1e-12)
    d = derive(REFERENCE)
    assert d.x_zpf1 == xz and d.x_zpf2 == xz


def test_g0_falls_back_to_geometric_pull():
    params = REFERENCE._replace(g0=None)
    d = derive(params)
    assert math.isclose(d.g0, 1.7506248640006516, rel_tol=1e-12)
    assert d.g0 == _omega_c(params) / params.cavity_length * d.x_zpf1
    # an explicit g0 wins over the derived one
    assert derive(REFERENCE).g0 == TWO_PI * 5e3


def test_geometric_coulomb_rate_extended_precision():
    spec = CoulombSpec.geometric(cap1=100e-12, cap2=100e-12, volt1=1.0,
                                 volt2=1.0, spacing=1e-3)
    d = derive(REFERENCE._replace(coulomb=spec))
    assert math.isclose(d.gc, 52.08510698955119, rel_tol=1e-12)
    per_area = _coulomb_rate_per_area(spec)
    assert d.gc == per_area * d.x_zpf1 * d.x_zpf2
    assert math.isclose(per_area, 8.522465366972893e+32, rel_tol=1e-12)
    # direct form passes through untouched and reports no per-area rate
    direct = CoulombSpec.direct(12.5)
    dd = derive(REFERENCE._replace(coulomb=direct))
    assert dd.gc == 12.5 and _coulomb_rate_per_area(direct) is None


def test_drive_amplitude_extended_precision():
    d = derive(REFERENCE)
    assert math.isclose(eps_for_power(d, REFERENCE.drive_power),
                        360892507055.2617, rel_tol=1e-13)
    assert eps_for_power(d, 0.0) == 0.0
    # sqrt(-0.0) is -0.0, but no drive is +0.0 whatever the zero's sign
    assert math.copysign(1.0, eps_for_power(d, -0.0)) == 1.0


def test_power_amplitude_round_trip():
    d = derive(REFERENCE)
    for p in (1e-12, 3.7e-9, 9e-3, 2.0):
        eps = eps_for_power(d, p)
        assert math.isclose(power_for_eps_sq(d, eps * eps), p, rel_tol=1e-14)
    for bad in (-1e-3, math.nan, math.inf):
        with pytest.raises(ParameterError, match="^power: "):
            eps_for_power(d, bad)


def test_amplitude_decay_conventions():
    p = REFERENCE
    assert derive(p).kh == 0.5 * p.kappa
    assert derive(p, None, LinewidthConvention.FULL_KAPPA).kh == p.kappa
    # kh follows the convention, so a replaced convention cannot go stale
    half = derive(p, None, LinewidthConvention.FULL_KAPPA)._replace(
        convention=LinewidthConvention.HALF_KAPPA)
    assert half.kh == 0.5 * p.kappa


def test_derive_rejects_a_convention_that_is_not_the_enum():
    # a string, even a member's value, used to pass through: "bogus" gave
    # kh = kappa/2 and stored the string, which the writers cannot print
    for bad in ("bogus", "kappa", "half-kappa", None):
        with pytest.raises(ParameterError) as exc:
            derive(REFERENCE, None, bad)
        assert exc.value.field == "convention"
        assert str(exc.value) == ("convention: must be a LinewidthConvention, "
                                  f"got {bad!r}")


def test_canonical_phase_basics():
    assert canonical_phase(0.0) == 0.0
    assert canonical_phase(TWO_PI) == 0.0
    assert canonical_phase(-0.25) == pytest.approx(TWO_PI - 0.25, rel=1e-15)
    assert canonical_phase(7 * math.pi) == pytest.approx(math.pi, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_canonical_phase_in_range(phi):
    r = canonical_phase(phi)
    assert 0.0 <= r < TWO_PI
    # same angle modulo 2*pi
    assert math.isclose(math.cos(r), math.cos(phi), abs_tol=1e-7)
    assert math.isclose(math.sin(r), math.sin(phi), abs_tol=1e-7)


def test_drive_spec_stores_canonical_phases():
    d = DriveSpec(eps1=1.0, phi1=-math.pi, phi2=5 * TWO_PI + 0.5)
    assert 0.0 <= d.phi1 < TWO_PI
    assert d.phi2 == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("field", ["phi1", "phi2"])
@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_drive_spec_rejects_non_finite_phases(field, phi):
    with pytest.raises(ParameterError, match=f"^{field}: must be finite"):
        DriveSpec(eps1=1e6, **{field: phi})


@pytest.mark.parametrize("field", ["phi1", "phi2"])
def test_drive_spec_invariant_holds_on_every_construction_path(field):
    """Direct construction, `_replace` and a family sweep over the phase
    each store canonical_phase of the value, to the bit, and refuse a
    phase that is not finite, naming its field."""
    cfg = get_preset("fig6a").config()
    values = (-1.0, 7.0, 4 * math.pi + 0.5)
    fam = family_sweep(cfg.params, cfg.drives, field, values, n_points=2,
                       pmin=1e-3, pmax=2e-3)
    for value, member in zip(values, fam.members):
        for drives in (DriveSpec(eps1=1e6, **{field: value}),
                       cfg.drives._replace(**{field: value}),
                       member.drives):
            assert getattr(drives, field).hex() == \
                canonical_phase(value).hex()
    for bad in (math.inf, math.nan):
        for build in (lambda: DriveSpec(**{field: bad}),
                      lambda: cfg.drives._replace(**{field: bad}),
                      lambda: family_sweep(cfg.params, cfg.drives, field,
                                           (bad,), n_points=2, pmin=1e-3,
                                           pmax=2e-3)):
            with pytest.raises(ParameterError,
                               match=f"^{field}: must be finite") as exc:
                build()
            assert exc.value.field == field


def test_validate_flags_bad_fields():
    bad = REFERENCE._replace(mass1=-1.0)
    fields = {d.field for d in validate(bad) if d.level == "error"}
    assert "mass1" in fields
    with pytest.raises(ParameterError):
        derive(bad)


_GEOMETRIC = dict(cap1=1e-12, cap2=1e-12, volt1=10.0, volt2=10.0,
                  spacing=1e-3)


@pytest.mark.parametrize("field, changes", [
    ("drive_power", {"drive_power": -1e-3}),
    ("drive_power", {"drive_power": math.nan}),
    ("delta_c", {"delta_c": math.inf}),
    ("g0", {"g0": -1.0}),
    ("coulomb.gc", {"coulomb": CoulombSpec.direct(-1.0)}),
    ("coulomb.volt2", {"coulomb": CoulombSpec(gc=None, **{
        **_GEOMETRIC, "volt2": None})}),
    ("coulomb.spacing", {"coulomb": CoulombSpec.geometric(
        **{**_GEOMETRIC, "spacing": 0.0})}),
    ("coulomb.cap1", {"coulomb": CoulombSpec.geometric(
        **{**_GEOMETRIC, "cap1": -1e-12})}),
    ("coulomb.cap1", {"coulomb": CoulombSpec(gc=0.0, cap1=1e-12)}),
], ids=["power-negative", "power-nan", "delta_c-inf", "g0-negative",
        "gc-negative", "geometric-missing", "spacing-zero", "cap1-negative",
        "gc-with-cap1"])
def test_validate_names_each_bad_field(field, changes):
    bad = REFERENCE._replace(**changes)
    assert [d.field for d in validate(bad) if d.level == "error"] == [field]
    with pytest.raises(ParameterError) as exc:
        derive(bad)
    assert exc.value.field == field


def test_validate_warns_on_unresolved_sidebands():
    # linewidth above the mechanical frequency: warn, do not reject
    wide = REFERENCE._replace(kappa=TWO_PI * 2e6)
    diags = validate(wide)
    assert any(d.level == "warning" and d.field == "kappa" for d in diags)
    derive(wide)   # still derivable


def test_derive_rejects_negative_tones():
    with pytest.raises(ParameterError):
        derive(REFERENCE, DriveSpec(eps1=-1.0))


def test_derive_rejects_laser_below_zero():
    bad = REFERENCE._replace(delta_c=2e15 * 10)
    with pytest.raises(ParameterError):
        derive(bad)


def test_derive_is_deterministic():
    a = derive(REFERENCE, DriveSpec(eps1=1.0, phi1=0.3))
    b = derive(REFERENCE, DriveSpec(eps1=1.0, phi1=0.3))
    assert a == b

