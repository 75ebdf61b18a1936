"""Preset catalog: every entry parses, derives, and matches its headline."""

import math

import pytest

from neoms.bifurcation import bistability_window, family_sweep
from neoms.model import derive
from neoms.presets import PRESETS, get_preset
from draws import TWO_PI


def test_catalog_names():
    assert sorted(PRESETS) == ["fig2", "fig3", "fig4", "fig5", "fig6a",
                               "fig6b", "fig6c", "fig6d", "fig7", "fig8a",
                               "fig8b", "fig8c", "fig8d"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_parses_and_derives(name):
    preset = get_preset(name)
    assert preset.assumptions
    cfg = preset.config()
    derived = derive(cfg.params, cfg.drives)
    assert derived.kappa > 0.0
    if cfg.vary is not None:
        assert cfg.values and len(cfg.values) >= 2


def test_fig2_operating_point():
    cfg = get_preset("fig2").config()
    p = cfg.params
    assert p.kappa == TWO_PI * 215e3
    assert p.delta_c == 3.6 * p.kappa
    assert p.g0 == TWO_PI * 5e3
    assert p.mass1 == p.mass2 == 145e-12
    assert p.omega1 == p.omega2 == TWO_PI * 947e3
    assert p.gamma1 == p.gamma2 == TWO_PI * 140e3
    assert p.drive_power == 9 * 1e-3
    assert derive(p, cfg.drives).gc == 0.0
    assert cfg.vary is None
    win = bistability_window(derive(p, cfg.drives), cfg.drives)
    assert win.exists


def test_family_presets_declare_expected_knobs():
    expect = {
        "fig3": ("g0", 3), "fig4": ("gc", 3), "fig5": ("delta_c", 4),
        "fig6a": ("phi1", 3), "fig6b": ("phi2", 3), "fig6c": ("eps1", 3),
        "fig6d": ("eps2", 3), "fig7": ("g0", 3), "fig8b": ("eps1", 3),
        "fig8d": ("eps2", 3),
    }
    for name, (vary, n) in expect.items():
        cfg = get_preset(name).config()
        assert cfg.vary == vary, name
        assert len(cfg.values) == n, name
    for name in ("fig2", "fig8a", "fig8c"):
        assert get_preset(name).config().vary is None, name


def test_fig5_detunings_in_kappa_units():
    cfg = get_preset("fig5").config()
    kappa = cfg.params.kappa
    ratios = [v / kappa for v in cfg.values]
    assert ratios == pytest.approx([1.8, 2.7, 3.6, 4.3], rel=1e-12)


def test_fig6_tone_scales():
    a = get_preset("fig6a").config()
    assert a.drives.eps1 == 2.0 * a.params.omega1
    assert [round(v, 15) for v in a.values] == \
        [round(x, 15) for x in (math.pi / 4, math.pi / 2, math.pi)]
    c = get_preset("fig6c").config()
    ratios = [v / c.params.omega1 for v in c.values]
    assert ratios == pytest.approx([2.0, 3.4, 4.8], rel=1e-3)


def test_unknown_preset_lists_catalog():
    with pytest.raises(KeyError) as exc:
        get_preset("fig99")
    assert "fig2" in str(exc.value)


def test_every_family_preset_sweeps_bistable():
    for name in ("fig3", "fig4", "fig7"):
        cfg = get_preset(name).config()
        fam = family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                           n_points=31)
        assert all(m.window.exists for m in fam.members), name
