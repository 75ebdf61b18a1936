"""Linearized stability: Jacobian structure, spectra, slope rule, agreement.

The trace identity pins the Jacobian against bookkeeping mistakes: the sum
of eigenvalue real parts must equal minus the total dissipation regardless
of operating point.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from neoms.bifurcation import (auto_power_grid, bistability_window,
                               power_sweep, solve_point)
from neoms.errors import EigenvalueError
from neoms.model import DriveSpec, derive
from neoms.presets import get_preset
from neoms.stability import (EIGEN_TOL_KAPPA, Classification, Method,
                             classify, classify_batch, jacobian)
from neoms.steady_state import steady_fields, susceptibilities
from draws import clean_point, clean_system
from oracles import routh_hurwitz_stable


def _fields_at(derived, drives, eps_sq, x):
    susc = susceptibilities(derived, drives)
    return steady_fields(x, derived, susc, drives,
                         eps_l=math.sqrt(eps_sq))


def test_jacobian_shape_and_coupling_blocks():
    rng = np.random.default_rng(3)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    f = _fields_at(derived, drives, eps_sq, roots.roots[0])
    J = jacobian(f, derived)
    assert J.shape == (6, 6)
    # cavity damping on the diagonal, half linewidth convention
    assert J[0, 0] == J[1, 1] == -0.5 * derived.kappa
    # mirror 2 couples to mirror 1 only through the Coulomb rate
    assert J[4, 3] == derived.gc and J[5, 2] == -derived.gc
    # radiation pressure feeds mirror 1 momentum from both quadratures
    assert J[3, 0] == 2.0 * derived.g0 * f.c_s.real
    assert J[3, 1] == 2.0 * derived.g0 * f.c_s.imag


def test_trace_identity_every_branch():
    rng = np.random.default_rng(17)
    for _ in range(50):
        params, derived, drives, eps_sq, roots = clean_point(
            rng, with_tones=bool(rng.integers(2)))
        total = derived.kappa + derived.gamma1 + derived.gamma2
        for x in roots.roots:
            f = _fields_at(derived, drives, eps_sq, x)
            rep = classify(f, derived, method=Method.EIGEN)
            assert math.isclose(sum(rep.eigenvalue_real_parts), -total,
                                rel_tol=1e-9)
            assert math.isclose(np.trace(jacobian(f, derived)), -total,
                                rel_tol=1e-12)


def test_slope_rule_flags_middle_root():
    rng = np.random.default_rng(29)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    assert len(roots) == 3
    lo, mid, hi = roots.roots
    for x, expect in ((lo, Classification.STABLE),
                      (mid, Classification.UNSTABLE),
                      (hi, Classification.STABLE)):
        f = _fields_at(derived, drives, eps_sq, x)
        rep = classify(f, derived, method=Method.SLOPE_RULE,
                       all_roots=roots.roots)
        assert rep.classification is expect
        assert rep.eigenvalue_real_parts == ()
        assert math.isnan(rep.margin)


def test_slope_rule_requires_root_set():
    rng = np.random.default_rng(41)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    f = _fields_at(derived, drives, eps_sq, roots.roots[0])
    with pytest.raises(ValueError):
        classify(f, derived, method=Method.SLOPE_RULE)


def test_methods_agree_in_clean_region():
    rng = np.random.default_rng(53)
    for _ in range(40):
        params, derived, drives, eps_sq, roots = clean_point(
            rng, with_tones=bool(rng.integers(2)))
        if len(roots) != 3:
            continue
        for x in roots.roots:
            f = _fields_at(derived, drives, eps_sq, x)
            eig = classify(f, derived, method=Method.EIGEN)
            slope = classify(f, derived, method=Method.SLOPE_RULE,
                             all_roots=roots.roots)
            assert eig.classification is slope.classification


def test_routh_hurwitz_matches_eigen():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(20):
        params, derived, drives, eps_sq, roots = clean_point(rng)
        for x in roots.roots:
            f = _fields_at(derived, drives, eps_sq, x)
            rep = classify(f, derived, method=Method.EIGEN)
            if abs(rep.margin) < 1e-6 * derived.kappa:
                continue   # too close to the boundary for a sign criterion
            J = jacobian(f, derived)
            assert routh_hurwitz_stable(J) == (
                rep.classification is Classification.STABLE)
            checked += 1
    assert checked >= 30


def test_eigen_margin_sign_matches_classification():
    rng = np.random.default_rng(71)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    for x in roots.roots:
        f = _fields_at(derived, drives, eps_sq, x)
        rep = classify(f, derived, method=Method.EIGEN)
        if rep.classification is Classification.STABLE:
            assert rep.margin > 0.0
        else:
            assert rep.margin <= 1e-9 * derived.kappa


def test_wide_linewidth_upper_branch_disagreement(fig2_cfg, fig2_derived):
    """Regression anchor for the unresolved-sideband operating point.

    At the headline linewidth the upper branch carries a dynamical
    instability that the eigen method sees and the static slope rule cannot.
    """
    win = bistability_window(fig2_derived, fig2_cfg.drives)
    assert win.exists
    power = math.sqrt(win.power_up * win.power_down)
    pt_eig = solve_point(fig2_derived, fig2_cfg.drives, power,
                         method=Method.EIGEN)
    pt_slope = solve_point(fig2_derived, fig2_cfg.drives, power,
                           method=Method.SLOPE_RULE)
    assert len(pt_eig.branches) == len(pt_slope.branches) == 3
    upper_eig = pt_eig.branches[-1]
    upper_slope = pt_slope.branches[-1]
    assert upper_slope.stable
    assert not upper_eig.stable
    # oscillatory margin of a fraction of kappa, not a numerical whisker
    rel = upper_eig.stability.margin / fig2_derived.kappa
    assert -0.2 < rel < -0.01
    # lower branch and middle branch stay textbook
    assert pt_eig.branches[0].stable
    assert not pt_eig.branches[1].stable


def _bits(values):
    return [float(v).hex() for v in values]


def test_batched_classification_equals_per_root_eigvals():
    """Each report of a sweep's one batched eigvals call is bit for bit the
    one a per-root eigvals call on that root's Jacobian gives."""
    sweeps = []
    for name in ("fig2", "fig8a"):
        cfg = get_preset(name).config()
        derived = cfg.derive()
        win = bistability_window(derived, cfg.drives)
        sweeps.append((derived, power_sweep(
            derived, cfg.drives, auto_power_grid(win, 201), Method.EIGEN)))
    rng = np.random.default_rng(1203)
    for i in range(50):
        params, drives = clean_system(rng, with_tones=i % 2 == 1)
        derived = derive(params, drives)
        win = bistability_window(derived, drives)
        sweeps.append((derived,
                       power_sweep(derived, drives, auto_power_grid(win, 21))))
    checked = 0
    for derived, curve in sweeps:
        tol = EIGEN_TOL_KAPPA * derived.kappa
        for pt in curve.points:
            for b in pt.branches:
                eig = np.linalg.eigvals(jacobian(b.fields, derived))
                reals = sorted(float(v) for v in eig.real)
                rep = b.stability
                assert rep.eigenvalue_real_parts == tuple(reals)
                assert _bits(rep.eigenvalue_real_parts) == _bits(reals)
                assert _bits([rep.margin]) == _bits([-reals[-1]])
                assert (rep.classification is Classification.STABLE) == (
                    reals[-1] < -tol)
                checked += 1
    assert checked > 2000


def test_batch_eigen_failure_reports_first_failing_state(fig2_cfg,
                                                         fig2_derived):
    win = bistability_window(fig2_derived, fig2_cfg.drives)
    pt = solve_point(fig2_derived, fig2_cfg.drives,
                     math.sqrt(win.power_up * win.power_down))
    roots = tuple(b.photon_number for b in pt.branches)
    states = [(b.fields, roots) for b in pt.branches * 3]
    k = 4
    bad = replace(states[k][0], c_s=complex(math.nan, 1.0))
    later = replace(states[k + 2][0], effective_detuning=math.nan)
    states[k], states[k + 2] = (bad, roots), (later, roots)
    with pytest.raises(EigenvalueError) as exc:
        classify_batch(states, fig2_derived)
    want = jacobian(bad, fig2_derived)
    assert str(exc.value).startswith("eigenvalue computation failed")
    assert np.array_equal(exc.value.diagnostics["jacobian"], want,
                          equal_nan=True)
    try:
        cond = float(np.linalg.cond(want))
    except np.linalg.LinAlgError:
        cond = math.inf
    assert _bits([exc.value.diagnostics["condition"]]) == _bits([cond])
    # the states before k classify as they do alone
    good = classify_batch(states[:k], fig2_derived)
    assert good == [classify(f, fig2_derived) for f, _ in states[:k]]
