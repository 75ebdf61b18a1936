"""Susceptibilities, the photon cubic, critical points, steady fields.

Frozen expectations marked "extended precision" come from the
mpmath polynomial-root oracle in oracles.py or from 40-digit closed-form
evaluation; they are independent of the package's trigonometric root path.
"""

import cmath
import math

import numpy as np
import pytest

from neoms.bifurcation import (_apply_family_value, auto_power_grid,
                               bistability_window, family_sweep)
from neoms.errors import ConsistencyError, NumericalError, ResidualError
from neoms.model import (DriveSpec, LinewidthConvention, derive,
                         eps_for_power, power_for_eps_sq)
from neoms.presets import PRESETS, get_preset
from neoms.stability import Method
from neoms.steady_state import (_polish_root, _real_cubic_roots,
                                critical_points, cubic_coefficients,
                                fold_powers_eps_sq, solve_photon_roots,
                                steady_fields, susceptibilities,
                                threshold_detuning)
from draws import (REFERENCE, TWO_PI, clean_point, clean_system,
                   reference_draw)
from oracles import (bistable_cubic_direct, cavity_field_direct,
                     cubic_roots_extended, cubic_value, fields_hex,
                     fold_powers_scan, mirror_fields_direct,
                     polish_root_reference, relative_residual,
                     steady_fields_reference, tone_responses)


def _cubic(params, drives=DriveSpec()):
    derived = derive(params, drives)
    return cubic_coefficients(derived, susceptibilities(derived, drives),
                              eps_for_power(derived, params.drive_power))


def test_alpha1_closed_form(fig2_derived):
    drives = DriveSpec()
    susc = susceptibilities(fig2_derived, drives)
    d1 = 0.5 * fig2_derived.gamma1 + 1j * fig2_derived.omega1
    d2 = 0.5 * fig2_derived.gamma2 + 1j * fig2_derived.omega2
    gc = fig2_derived.gc
    D = d1 * d2 + gc * gc
    expect = (2.0 * fig2_derived.g0
              * (fig2_derived.omega1 * abs(d2) ** 2
                 - fig2_derived.omega2 * gc ** 2) / abs(D) ** 2)
    assert math.isclose(susc.alpha1, expect, rel_tol=1e-12)


def _identity_cases():
    """Every preset and family member, then seeded draws of both kinds."""
    for name in sorted(PRESETS):
        cfg = get_preset(name).config()
        yield name, cfg.params, cfg.drives
        for v in cfg.values or ():
            yield (f"{name} {cfg.vary} = {v!r}",
                   *_apply_family_value(cfg.params, cfg.drives, cfg.vary, v))
    rng = np.random.default_rng(1501)
    for i in range(120):
        yield f"reference draw {i}", reference_draw(rng), DriveSpec()
    for i in range(120):
        yield (f"clean draw {i}", *clean_system(rng, with_tones=True))


def test_susceptibility_identities():
    """beta3 = -i beta1 / g0, and beta2 = -(gc / g0) beta1 / d2, to 1e-12,
    with beta2 and beta3 formed from d2, gc and the denominator."""
    n3 = n2 = 0
    for label, params, drives in _identity_cases():
        derived = derive(params, drives)
        s = susceptibilities(derived, drives)
        beta2, beta3 = tone_responses(derived)
        g0, gc = derived.g0, derived.gc
        if g0 > 0.0:
            alt3 = -1j * s.beta1 / g0
            assert abs(alt3 - beta3) <= 1e-12 * max(abs(beta3), 1e-300), \
                label
            n3 += 1
            if gc > 0.0:
                alt2 = -(gc / g0) * s.beta1 / s.d2
                assert abs(alt2 - beta2) <= \
                    1e-12 * max(abs(beta2), 1e-300), label
                n2 += 1
    assert n3 >= 250 and n2 >= 100, (n3, n2)


def test_alpha1_reduces_without_coulomb(fig2_derived):
    # gc = 0 already at this point: alpha1 = 2 g0 omega1 / |d1|^2
    susc = susceptibilities(fig2_derived, DriveSpec())
    d1 = 0.5 * fig2_derived.gamma1 + 1j * fig2_derived.omega1
    assert math.isclose(susc.alpha1,
                        2.0 * fig2_derived.g0 * fig2_derived.omega1 / abs(d1) ** 2,
                        rel_tol=1e-12)


def test_cubic_coefficients_recompute(fig2_cfg, fig2_derived):
    drives = DriveSpec()
    susc = susceptibilities(fig2_derived, drives)
    eps = eps_for_power(fig2_derived, fig2_cfg.params.drive_power)
    coeffs = cubic_coefficients(fig2_derived, susc, eps)
    chi = fig2_derived.g0 * susc.alpha1
    dt = fig2_derived.delta_c - fig2_derived.g0 * susc.offset
    kh = 0.5 * fig2_derived.kappa
    assert coeffs.a1 == chi * chi
    assert coeffs.a2 == -2.0 * chi * dt
    assert coeffs.a3 == kh * kh + dt * dt
    assert coeffs.a4 == -eps ** 2
    assert coeffs.delta_tilde == dt and coeffs.kerr_slope == chi


def test_cubic_coefficients_direct_rebuild_with_tones():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params, derived, drives, eps_sq, _ = clean_point(rng, with_tones=True)
        susc = susceptibilities(derived, drives)
        eps = math.sqrt(eps_sq)
        got = cubic_coefficients(derived, susc, eps)
        a1, a2, a3, a4 = bistable_cubic_direct(derived, drives, eps,
                                               0.5 * derived.kappa)
        assert math.isclose(got.a1, a1, rel_tol=1e-12)
        assert math.isclose(got.a2, a2, rel_tol=1e-12)
        assert math.isclose(got.a3, a3, rel_tol=1e-12)
        assert math.isclose(got.a4, a4, rel_tol=1e-12)


def test_full_kappa_convention_changes_only_linewidth(fig2_cfg, fig2_derived):
    drives = DriveSpec()
    susc = susceptibilities(fig2_derived, drives)
    power = fig2_cfg.params.drive_power
    half = cubic_coefficients(fig2_derived, susc,
                              eps_for_power(fig2_derived, power))
    full_derived = derive(fig2_cfg.params, drives,
                          LinewidthConvention.FULL_KAPPA)
    full = cubic_coefficients(full_derived, susc,
                              eps_for_power(full_derived, power))
    assert full.half_linewidth == 2.0 * half.half_linewidth
    assert full.a1 == half.a1 and full.a2 == half.a2 and full.a4 == half.a4
    k = fig2_derived.kappa
    assert math.isclose(full.a3 - half.a3, k * k - 0.25 * k * k, rel_tol=1e-12)


def test_roots_match_extended_precision_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        params = reference_draw(rng)
        coeffs = _cubic(params)
        roots = solve_photon_roots(coeffs)
        oracle = [r for r in cubic_roots_extended(coeffs.a1, coeffs.a2,
                                                  coeffs.a3, coeffs.a4)
                  if r >= -1e-12]
        assert len(roots) == len(oracle)
        for got, ref in zip(roots.roots, oracle):
            assert math.isclose(got, ref, rel_tol=1e-8, abs_tol=1e-30)


def test_roots_ascending_with_residual_contract():
    rng = np.random.default_rng(5)
    for _ in range(100):
        params = reference_draw(rng)
        coeffs = _cubic(params)
        roots = solve_photon_roots(coeffs)
        assert all(a < b for a, b in zip(roots.roots, roots.roots[1:]))
        assert all(r >= 0.0 for r in roots.roots)
        for x in roots.roots:
            assert relative_residual(coeffs, x) <= 1e-9


def test_nan_residual_fails_the_contract(fig2_derived):
    """At 1e300 W the drive amplitude overflows to inf, and so does the one
    seed root; its residual is NaN, which must not meet the contract."""
    eps = eps_for_power(fig2_derived, 1e300)
    assert eps == math.inf
    coeffs = _coefficients(fig2_derived, DriveSpec(), eps)
    with pytest.raises(ResidualError) as exc:
        solve_photon_roots(coeffs)
    assert math.isnan(exc.value.diagnostics["worst_residual"])


def test_near_fold_pair_merges_onto_the_lower_copy(fig2_cfg, fig2_derived):
    """At eps^2 1e-14 below fig2's downward fold, the closed form still
    gives three seeds, and two of them polish to 14595.373664216399 and
    14595.373654554223, 6.6e-10 apart relative.  They are one root, and
    the lower copy is kept."""
    shape = _coefficients(fig2_derived, fig2_cfg.drives, 0.0)
    coeffs = shape._replace(a4=-float.fromhex("0x1.7c62b3f181ab3p+52"))
    got = solve_photon_roots(coeffs).roots
    assert [x.hex() for x in got] == [
        x.hex() for x in (288.5668881614199, 14595.373654554223)]


def test_critical_points_extended_precision(fig2_derived):
    coeffs = _cubic(REFERENCE)
    crit = critical_points(coeffs)
    assert crit.exists
    assert math.isclose(crit.x_c_minus, 5057.502493711124, rel_tol=1e-12)
    assert math.isclose(crit.x_c_plus, 14595.373704810529, rel_tol=1e-12)
    assert math.isclose(crit.x_inf, 9826.438099260826, rel_tol=1e-12)
    # x_inf is the exact midpoint of the folds
    assert math.isclose(crit.x_inf, 0.5 * (crit.x_c_minus + crit.x_c_plus),
                        rel_tol=1e-12)


def test_critical_points_below_threshold():
    params = REFERENCE._replace(delta_c=0.5 * REFERENCE.kappa)
    coeffs = _cubic(params)
    crit = critical_points(coeffs)
    assert not crit.exists and crit.reason == "below_threshold"


def test_critical_points_without_nonlinearity():
    params = REFERENCE._replace(g0=0.0)
    coeffs = _cubic(params)
    assert coeffs.a1 == 0.0
    crit = critical_points(coeffs)
    assert not crit.exists and crit.reason == "no_cubic_nonlinearity"


def test_threshold_detuning_both_conventions(fig2_cfg, fig2_derived):
    susc = susceptibilities(fig2_derived, DriveSpec())
    thr = threshold_detuning(fig2_derived, susc)
    assert math.isclose(thr.delta_tilde, 1169900.5899310703, rel_tol=1e-12)
    assert math.isclose(thr.in_kappa_units, math.sqrt(3.0) / 2.0,
                        rel_tol=1e-15)
    full = threshold_detuning(derive(fig2_cfg.params, DriveSpec(),
                                     LinewidthConvention.FULL_KAPPA), susc)
    assert math.isclose(full.in_kappa_units, math.sqrt(3.0), rel_tol=1e-15)


def test_threshold_accounts_for_tone_offset(fig2_derived):
    drives = DriveSpec(eps1=2.0 * fig2_derived.omega1, phi1=0.25)
    susc = susceptibilities(fig2_derived, drives)
    # Gamma = alpha3 eps1 with alpha3 = 2 Re(beta3 e^{-i phi1})
    beta3 = tone_responses(fig2_derived)[1]
    gamma = 2.0 * (beta3 * cmath.exp(-0.25j)).real * drives.eps1
    assert gamma != 0.0
    assert math.isclose(susc.offset, gamma, rel_tol=1e-12)
    thr = threshold_detuning(fig2_derived, susc)
    assert math.isclose(thr.delta_c - fig2_derived.g0 * gamma,
                        thr.delta_tilde, rel_tol=1e-12)


def test_threshold_sits_on_the_kerr_slopes_side(fig2_derived):
    """The threshold is on the side where chi * delta_tilde > 0: negative
    only for chi < 0, with chi = -0.0 counted as chi >= 0.  Flipping the
    slope's sign flips the threshold's and moves no other bit."""
    drives = DriveSpec(eps1=2.0 * fig2_derived.omega1, phi1=0.25)
    susc = susceptibilities(fig2_derived, drives)
    assert susc.alpha1 > 0.0

    pos = threshold_detuning(fig2_derived, susc)
    neg = threshold_detuning(fig2_derived, susc._replace(alpha1=-susc.alpha1))
    zero = threshold_detuning(fig2_derived, susc._replace(alpha1=-0.0))
    assert pos.delta_tilde > 0.0 > neg.delta_tilde
    assert [neg.delta_tilde.hex(), neg.in_kappa_units.hex()] \
        == [(-pos.delta_tilde).hex(), (-pos.in_kappa_units).hex()]
    assert neg.delta_c.hex() == (neg.delta_tilde
                                 + fig2_derived.g0 * susc.offset).hex()
    assert zero == pos


def test_critical_points_on_the_wrong_side():
    """Above threshold, a detuning against the Kerr slope's sign has no
    folds, and says so apart from one below threshold."""
    coeffs = _cubic(REFERENCE)
    for chi, dt in ((-coeffs.kerr_slope, coeffs.delta_tilde),
                    (coeffs.kerr_slope, -coeffs.delta_tilde)):
        crit = critical_points(coeffs._replace(kerr_slope=chi,
                                               delta_tilde=dt))
        assert not crit.exists and crit.reason == "wrong_detuning_side"
        assert math.isnan(crit.x_c_minus) and math.isnan(crit.x_inf)


def test_fold_powers_match_dense_scan(fig2_derived):
    coeffs = _cubic(REFERENCE)
    crit = critical_points(coeffs)
    up, down = fold_powers_eps_sq(coeffs, crit)
    ref_up, ref_down = fold_powers_scan(coeffs.delta_tilde,
                                        coeffs.half_linewidth,
                                        coeffs.kerr_slope)
    assert math.isclose(up, ref_up, rel_tol=1e-9)
    assert math.isclose(down, ref_down, rel_tol=1e-9)
    assert up > down > 0.0
    # frozen extended-precision fold powers in W
    assert math.isclose(power_for_eps_sq(fig2_derived, up),
                        3.7258716992579795e-09, rel_tol=1e-12)
    assert math.isclose(power_for_eps_sq(fig2_derived, down),
                        4.62413610337995e-10, rel_tol=1e-12)


def test_fold_powers_require_existing_folds():
    params = REFERENCE._replace(delta_c=0.1 * REFERENCE.kappa)
    coeffs = _cubic(params)
    crit = critical_points(coeffs)
    with pytest.raises(NumericalError):
        fold_powers_eps_sq(coeffs, crit)


def test_steady_fields_against_direct_solve():
    rng = np.random.default_rng(31)
    for _ in range(25):
        params, derived, drives, eps_sq, roots = clean_point(rng,
                                                             with_tones=True)
        susc = susceptibilities(derived, drives)
        eps = math.sqrt(eps_sq)
        for x in roots.roots:
            f = steady_fields(x, derived, susc, drives, eps_l=eps)
            b1, b2 = mirror_fields_direct(x, derived, drives)
            assert cmath.isclose(f.b_1s, b1, rel_tol=1e-9)
            assert cmath.isclose(f.b_2s, b2, rel_tol=1e-9)
            c = cavity_field_direct(x, derived, b1, eps, 0.5 * derived.kappa)
            assert cmath.isclose(f.c_s, c, rel_tol=1e-8)
            assert math.isclose(abs(f.c_s) ** 2, x, rel_tol=1e-9)
            assert math.isclose(f.q_1s, derived.x_zpf1 * 2.0 * b1.real,
                                rel_tol=1e-9)
            assert math.isclose(f.q_2s, derived.x_zpf2 * 2.0 * b2.real,
                                rel_tol=1e-9)


def test_steady_fields_mirror_identity_every_branch():
    # q1 in zero-point units equals alpha1 x + Gamma on every branch
    rng = np.random.default_rng(47)
    for _ in range(25):
        params, derived, drives, eps_sq, roots = clean_point(rng,
                                                             with_tones=True)
        susc = susceptibilities(derived, drives)
        eps = math.sqrt(eps_sq)
        for x in roots.roots:
            f = steady_fields(x, derived, susc, drives, eps_l=eps)
            lhs = f.q_1s / derived.x_zpf1
            rhs = susc.alpha1 * x + susc.offset
            assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_cubic_value_at_roots_is_small(fig2_derived):
    coeffs = _cubic(REFERENCE)
    roots = solve_photon_roots(coeffs)
    scale = abs(coeffs.a4)
    for x in roots.roots:
        assert abs(cubic_value(coeffs, x)) <= 1e-9 * scale


def _preset_members():
    """(derived, drives, default grid, window) of every curve in the 13
    presets, one per family member."""
    for name in sorted(PRESETS):
        cfg = get_preset(name).config()
        if cfg.values is None:
            derived = cfg.derive()
            win = bistability_window(derived, cfg.drives)
            yield derived, cfg.drives, auto_power_grid(win, 201), win
            continue
        fam = family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                           n_points=201, method=Method.SLOPE_RULE,
                           convention=cfg.convention)
        for m in fam.members:
            yield m.derived, m.drives, fam.powers, m.window


def _coefficients(derived, drives, eps):
    susc = susceptibilities(derived, drives)
    return cubic_coefficients(derived, susc, eps)


def test_newton_cycle_exit_returns_the_uncut_polish():
    """The polish stops at its first repeated iterate; the float it returns,
    sign of zero included, is the one the 60-step loop returns."""
    cases = []          # (coefficients, seeds)
    for derived, drives, grid, win in _preset_members():
        for p in grid:
            c = _coefficients(derived, drives, eps_for_power(derived, p))
            cases.append((c, _real_cubic_roots(c.a1, c.a2, c.a3, c.a4)))
        if not win.exists:
            continue
        for fold in (win.power_up, win.power_down):
            for p in (fold * (1 - 1e-9), fold, fold * (1 + 1e-9)):
                c = _coefficients(derived, drives, eps_for_power(derived, p))
                seeds = _real_cubic_roots(c.a1, c.a2, c.a3, c.a4)
                cases.append((c, [math.nextafter(x, toward) for x in seeds
                                  for toward in (-math.inf, math.inf)]))
    rng = np.random.default_rng(1201)
    for _ in range(200):
        _, derived, drives, eps_sq, _ = clean_point(rng)
        c = _coefficients(derived, drives, math.sqrt(eps_sq))
        cases.append((c, _real_cubic_roots(c.a1, c.a2, c.a3, c.a4)))
    checked = 0
    for c, seeds in cases:
        for x in seeds:
            y, fy = _polish_root(c.a1, c.a2, c.a3, c.a4, x)
            assert y.hex() == polish_root_reference(c, x).hex(), (c, x)
            assert fy == abs(cubic_value(c, y)), (c, x)
            checked += 1
    assert checked > 10000


def test_hoisted_steady_fields_equal_the_per_root_form():
    """Taking the tone terms, d2 and the drive offset from Susceptibilities
    returns the same bits, or the same refusal, as recomputing them for
    every root."""
    def outcome(fn, *args):
        try:
            return fields_hex(fn(*args))
        except ConsistencyError as exc:
            return str(exc)

    cases = []          # (derived, drives, eps_l)
    for derived, drives, grid, _ in _preset_members():
        cases += [(derived, drives, eps_for_power(derived, p)) for p in grid]
    rng = np.random.default_rng(1402)
    for _ in range(50):
        _, derived, drives, eps_sq, _ = clean_point(rng, with_tones=True)
        cases.append((derived, drives, math.sqrt(eps_sq)))
    checked = 0
    for derived, drives, eps in cases:
        susc = susceptibilities(derived, drives)
        coeffs = cubic_coefficients(derived, susc, eps)
        for x in solve_photon_roots(coeffs).roots:
            args = (x, derived, susc, drives, eps)
            assert outcome(steady_fields, *args) == \
                outcome(steady_fields_reference, *args), (derived, x)
            checked += 1
    assert checked > 5000
