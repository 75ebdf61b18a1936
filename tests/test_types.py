"""The package's result and input types are immutable values."""

from enum import Enum

import pytest

import neoms
from neoms import (auto_power_grid, bistability_window, critical_points,
                   cubic_coefficients, eps_for_power, family_sweep,
                   get_preset, hysteresis_from_curve, power_sweep,
                   solve_photon_roots, steady_fields, susceptibilities,
                   threshold_detuning)


def _fig2():
    cfg = get_preset("fig2").config()
    derived = cfg.derive()
    susc = susceptibilities(derived, cfg.drives)
    window = bistability_window(derived, cfg.drives)
    # at the middle of the window the cubic has three roots
    eps = eps_for_power(derived, 0.5 * (window.power_up + window.power_down))
    coeffs = cubic_coefficients(derived, susc, eps)
    curve = power_sweep(derived, cfg.drives, auto_power_grid(window, 5))
    return cfg, derived, susc, window, coeffs, eps, curve


def _fields(cfg, derived, susc, window, coeffs, eps, curve):
    x = solve_photon_roots(coeffs)[0]
    return steady_fields(x, derived, susc, cfg.drives, eps)


def _family():
    cfg = get_preset("fig5").config()
    return family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                        n_points=3)


# each exported type, and how to build one from the same inputs every time
BUILD = {
    "PhysicalConstants": neoms.PhysicalConstants,
    "Preset": lambda: get_preset("fig2")._replace(),
    "RunConfig": lambda: _fig2()[0],
    "SystemParams": lambda: _fig2()[0].params,
    "CoulombSpec": lambda: _fig2()[0].params.coulomb,
    "DriveSpec": lambda: _fig2()[0].drives,
    "DerivedParams": lambda: _fig2()[1],
    "Susceptibilities": lambda: _fig2()[2],
    "BistabilityWindow": lambda: _fig2()[3],
    "CubicCoefficients": lambda: _fig2()[4],
    "CriticalPoints": lambda: critical_points(_fig2()[4]),
    "ThresholdDetuning": lambda: threshold_detuning(*_fig2()[1:3]),
    "PhotonRoots": lambda: solve_photon_roots(_fig2()[4]),
    "SteadyStateFields": lambda: _fields(*_fig2()),
    "BistabilityCurve": lambda: _fig2()[6],
    "CurvePoint": lambda: _fig2()[6].points[2],
    "BranchSolution": lambda: _fig2()[6].points[2].branches[0],
    "HysteresisTrace": lambda: hysteresis_from_curve(_fig2()[6]),
    "FamilyResult": _family,
    "FamilyMember": lambda: _family().members[0],
    "MeanFieldState": lambda: neoms.MeanFieldState(0.5j, 1.0, 2j),
}


def test_every_exported_type_is_covered():
    exported = {name for name, obj in vars(neoms).items()
                if isinstance(obj, type) and not name.startswith("_")
                and not issubclass(obj, (Enum, Exception))}
    assert exported | {"MeanFieldState"} == set(BUILD)


@pytest.mark.parametrize("name", sorted(BUILD))
def test_types_are_immutable_values(name):
    """Fields cannot be assigned, nor new attributes added; instances built
    from equal fields compare and hash equal; a modified copy is
    `_replace`, and is a new value of the same type."""
    a, b = BUILD[name](), BUILD[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    fields = getattr(type(a), "_fields", ("roots",))
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, 1.0)
    if name == "PhotonRoots":
        assert len(a) == len(a.roots) == 3 and tuple(a) == a.roots
        return
    assert a._replace() == a and type(a._replace()) is type(a)
    changed = a._replace(**{fields[0]: -1.5})
    assert getattr(changed, fields[0]) == -1.5 and changed != a
