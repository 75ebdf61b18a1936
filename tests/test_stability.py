"""Linearized stability: Jacobian structure, spectra, slope rule, agreement.

The trace identity pins the Jacobian against bookkeeping mistakes: the sum
of eigenvalue real parts must equal minus the total dissipation regardless
of operating point.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from neoms.bifurcation import (auto_power_grid, bistability_window,
                               family_sweep, power_sweep, solve_point)
from neoms.dynamics import MeanFieldState, _make_system, relax_to_steady
from neoms.errors import EigenvalueError
from neoms.model import (CoulombSpec, DriveSpec, LinewidthConvention, derive,
                         eps_for_power)
from neoms.presets import PRESETS, get_preset
from neoms.stability import (EIGEN_TOL_KAPPA, Method, _sign_changes,
                             jacobians, margins, stability_column,
                             stability_intervals)
from neoms.steady_state import (critical_points, cubic_coefficients,
                                steady_fields, susceptibilities,
                                threshold_detuning)
from draws import REFERENCE, clean_point, clean_system
from oracles import (eigen_stable_mp, routh_hurwitz_stable,
                     stability_columns_reference)


def _fields_at(derived, drives, eps_sq, x):
    susc = susceptibilities(derived, drives)
    return steady_fields(x, derived, susc, drives,
                         eps_l=math.sqrt(eps_sq))


def _jacobian(f, derived):
    return jacobians((f.effective_detuning,), (f.c_s,), derived)[0]


def _columns(fields, derived, drives, method=Method.EIGEN, rows=None):
    """The lists (stable, margin) of steady fields: `stability_column`,
    and `margins` or nan under the slope rule.  `rows` defaults to one
    cubic whose roots are all of `fields`."""
    if rows is None:
        rows = (range(len(fields)),)
    shape = cubic_coefficients(derived, susceptibilities(derived, drives),
                               0.0)
    det = [f.effective_detuning for f in fields]
    c_s = [f.c_s for f in fields]
    stable = stability_column([f.photon_number for f in fields], rows,
                              derived, shape, method)
    if method == Method.SLOPE_RULE:
        return stable, [math.nan] * len(fields)
    return stable, margins(det, c_s, derived)


def test_jacobian_shape_and_coupling_blocks():
    rng = np.random.default_rng(3)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    f = _fields_at(derived, drives, eps_sq, roots.roots[0])
    J = _jacobian(f, derived)
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
            J = _jacobian(_fields_at(derived, drives, eps_sq, x), derived)
            parts = np.linalg.eigvals(J).real
            assert math.isclose(sum(parts), -total, rel_tol=1e-9)
            assert math.isclose(np.trace(J), -total, rel_tol=1e-12)


def test_slope_rule_flags_middle_root():
    rng = np.random.default_rng(29)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    assert len(roots) == 3
    fields = [_fields_at(derived, drives, eps_sq, x) for x in roots.roots]
    stable, margin = _columns(fields, derived, drives, Method.SLOPE_RULE)
    assert stable == [True, False, True]
    assert all(math.isnan(m) for m in margin)
    # a point's position among its own roots decides, not the batch's:
    # a one-root point, then the three roots, then two of them
    rows = (range(0, 1), range(1, 4), range(4, 6))
    stable, margin = _columns(fields[:1] + fields + fields[:2], derived,
                              drives, Method.SLOPE_RULE, rows)
    assert stable == [True, True, False, True, True, True]
    assert len(margin) == 6 and all(math.isnan(m) for m in margin)


def test_methods_agree_in_clean_region():
    rng = np.random.default_rng(53)
    for _ in range(40):
        params, derived, drives, eps_sq, roots = clean_point(
            rng, with_tones=bool(rng.integers(2)))
        if len(roots) != 3:
            continue
        fields = [_fields_at(derived, drives, eps_sq, x) for x in roots.roots]
        eig, _ = _columns(fields, derived, drives, Method.EIGEN)
        slope, _ = _columns(fields, derived, drives, Method.SLOPE_RULE)
        assert eig == slope


def test_routh_hurwitz_matches_eigen():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(20):
        params, derived, drives, eps_sq, roots = clean_point(rng)
        for x in roots.roots:
            f = _fields_at(derived, drives, eps_sq, x)
            (stable,), (margin,) = _columns([f], derived, drives)
            if abs(margin) < 1e-6 * derived.kappa:
                continue   # too close to the boundary for a sign criterion
            J = _jacobian(f, derived)
            assert routh_hurwitz_stable(J) == stable
            checked += 1
    assert checked >= 30


def test_eigen_margin_sign_matches_classification():
    rng = np.random.default_rng(71)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    for x in roots.roots:
        f = _fields_at(derived, drives, eps_sq, x)
        (stable,), (margin,) = _columns([f], derived, drives)
        if stable:
            assert margin > 0.0
        else:
            assert margin <= 1e-9 * derived.kappa


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
    (margin,) = margins((upper_eig.fields.effective_detuning,),
                        (upper_eig.fields.c_s,), fig2_derived)
    rel = margin / fig2_derived.kappa
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
        # the batched call the JSON writer makes
        margin = iter(margins(curve.effective_detuning, curve.c_s, derived))
        for pt in curve.points:
            for b in pt.branches:
                eig = np.linalg.eigvals(_jacobian(b.fields, derived))
                reals = sorted(float(v) for v in eig.real)
                assert _bits([next(margin)]) == _bits([-reals[-1]])
                assert b.stable == (reals[-1] < -tol)
                checked += 1
    assert checked > 2000


def test_batch_eigen_failure_reports_first_failing_state(fig2_cfg,
                                                         fig2_derived):
    win = bistability_window(fig2_derived, fig2_cfg.drives)
    pt = solve_point(fig2_derived, fig2_cfg.drives,
                     math.sqrt(win.power_up * win.power_down))
    states = [b.fields for b in pt.branches * 3]
    k = 4
    bad = states[k]._replace(c_s=complex(math.nan, 1.0))
    later = states[k + 2]._replace(effective_detuning=math.nan)
    states[k], states[k + 2] = bad, later
    with pytest.raises(EigenvalueError) as exc:
        _columns(states, fig2_derived, fig2_cfg.drives)
    want = _jacobian(bad, fig2_derived)
    assert str(exc.value).startswith("eigenvalue computation failed")
    assert np.array_equal(exc.value.diagnostics["jacobian"], want,
                          equal_nan=True)
    try:
        cond = float(np.linalg.cond(want))
    except np.linalg.LinAlgError:
        cond = math.inf
    assert _bits([exc.value.diagnostics["condition"]]) == _bits([cond])
    # the states before k classify as they do alone
    drives = fig2_cfg.drives
    good = list(zip(*_columns(states[:k], fig2_derived, drives)))
    assert good == [row for state in states[:k]
                    for row in zip(*_columns([state], fig2_derived,
                                             drives))]


def _default_curves(names, method=Method.EIGEN):
    """(derived, drives, curve) of each named preset's default grid, one
    per family member."""
    for name in names:
        cfg = get_preset(name).config()
        if cfg.values is None:
            derived = cfg.derive()
            grid = auto_power_grid(bistability_window(derived, cfg.drives))
            yield derived, cfg.drives, power_sweep(derived, cfg.drives, grid,
                                                   method)
            continue
        fam = family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                           method=method, convention=cfg.convention)
        yield from ((m.derived, m.drives, m.curve) for m in fam.members)


def test_jacobian_is_the_derivative_of_the_integrated_equations():
    """`jacobians` equals a central difference of the right-hand side that
    `dynamics` integrates, at every preset's roots at its default power.
    The right-hand side is quadratic, so only rounding separates them."""
    checked = 0
    for name in sorted(PRESETS):
        cfg = get_preset(name).config()
        power = cfg.params.drive_power
        for derived, drives, _ in _default_curves([name],
                                                  Method.SLOPE_RULE):
            rhs = _make_system(derived, drives,
                               eps_for_power(derived, power)).rhs
            for b in solve_point(derived, drives, power).branches:
                f = b.fields
                y = [f.c_s.real, f.c_s.imag, f.b_1s.real, f.b_1s.imag,
                     f.b_2s.real, f.b_2s.imag]
                diff = np.empty((6, 6))
                for j in range(6):
                    h = 1e-3 * max(abs(y[j]), 1.0)
                    up, down = list(y), list(y)
                    up[j] += h
                    down[j] -= h
                    diff[:, j] = ((np.array(rhs(0.0, up))
                                   - np.array(rhs(0.0, down)))
                                  / (up[j] - down[j]))
                jac = _jacobian(f, derived)
                assert np.abs(diff - jac).max() <= 1e-9 * np.abs(jac).max()
                checked += 1
    assert checked >= 13


def test_determinant_is_the_cubic_slope():
    """det J = |d1 d2 + gc^2|^2 * d(eps^2)/dx, with d_k = gamma_k/2 +
    i omega_k, along the default grids of fig2, fig5, fig6a and fig8a.  So
    det J has the sign of the cubic's slope, which is what the slope rule
    reads."""
    checked = 0
    for derived, drives, curve in _default_curves(
            ("fig2", "fig5", "fig6a", "fig8a")):
        shape = cubic_coefficients(derived,
                                   susceptibilities(derived, drives), 0.0)
        d1 = complex(0.5 * derived.gamma1, derived.omega1)
        d2 = complex(0.5 * derived.gamma2, derived.omega2)
        mirrors = abs(d1 * d2 + derived.gc ** 2) ** 2
        jacs = jacobians(curve.effective_detuning, curve.c_s, derived)
        for x, jac in zip(curve.photon_number, jacs):
            terms = (shape.a3, 2.0 * shape.a2 * x, 3.0 * shape.a1 * x * x)
            got = np.linalg.det(jac)
            assert abs(got - mirrors * sum(terms)) <= (
                1e-9 * mirrors * sum(map(abs, terms)))
            checked += 1
    assert checked > 2000


def _with_roots(*roots):
    """The monic polynomial with these roots, lowest degree first."""
    p = [1.0]
    for r in roots:
        p = [a - r * b for a, b in zip([0.0, *p], [*p, 0.0])]
    return p


def _fraction_crossings(p):
    """The floats t in (0, 1] at which the quadratic p, its float
    coefficients taken exactly, has p(t) > 0 unlike at the float below t:
    bisection over floats with Fraction signs, on each side of the exact
    vertex, where p is monotone."""
    c0, c1, c2 = map(Fraction, p)

    def up(t):
        return c0 + (c1 + c2 * Fraction(t)) * Fraction(t) > 0

    vertex = min(max(-c1 / (2 * c2), Fraction(0)), Fraction(1))
    below = float(vertex)
    if Fraction(below) > vertex:
        below = math.nextafter(below, 0.0)
    out, prev = [], None
    for lo, hi in ((0.0, below), (math.nextafter(below, 1.0), 1.0)):
        if lo > hi:
            continue
        if prev is not None and up(prev) != up(lo):
            out.append(lo)
        if up(lo) != up(hi):
            start, end = lo, hi
            while math.nextafter(start, end) != end:
                mid = 0.5 * (start + end)
                start, end = (start, mid) if up(mid) == up(hi) else (mid, end)
            out.append(end)
        prev = hi
    return out


def test_sign_changes_finds_every_crossing_in_the_unit_interval():
    """No crossing of a one-signed polynomial, simple roots to rounding,
    both roots of a pair 1e-6 apart, where the polynomial dips below zero
    by 2.5e-13 between them, to 1e-12; and for (t - 0.5)(t - 0.5 - delta),
    delta = 10^-k with k = 6..15 and 2^-j with j = 20, 30, 40, 50,
    exactly the floats at which its sign changes, from an exact Fraction
    search on the same float coefficients."""
    assert _sign_changes([1.0, 0.0, 1.0]) == []
    assert _sign_changes([-1.0, 0.5, -2.0, 0.25]) == []
    # zero is not positive: a root at 0 turns at the first float above it,
    # and the zero polynomial never turns
    assert _sign_changes([0.0, 1.0]) == _sign_changes([0.0, 0.0, 2.0]) == [
        math.nextafter(0.0, 1.0)]
    assert _sign_changes([0.0, -1.0]) == _sign_changes([0.0, 0.0]) == []
    # roots outside [0, 1] are not crossings in it
    assert _sign_changes(_with_roots(-0.5, 1.5, 2.0)) == []
    for roots in ((0.25, 0.75), (0.2, 0.5, 0.9), (0.1, 0.3, 0.6, 0.8)):
        got = _sign_changes(_with_roots(*roots))
        assert len(got) == len(roots)
        assert all(abs(t - r) <= 1e-15 for t, r in zip(got, roots))
    pair = (0.01, 0.01 + 1e-6)
    for p in (_with_roots(*pair), _with_roots(0.6, *pair)):
        got = [t for t in _sign_changes(p) if t < 0.5]
        assert len(got) == 2
        assert all(abs(t - r) <= 1e-12 for t, r in zip(got, pair))
    for k in range(6, 16):
        p = _with_roots(0.5, 0.5 + 10.0 ** -k)
        assert _sign_changes(p) == _fraction_crossings(p)
    # rounding the coefficients can take both roots away, as at k = 8, 13
    # and 15; with delta = 2^-j they are exact, and both are found, down to
    # delta = 8.9e-16
    for j in (20, 30, 40, 50):
        delta = 2.0 ** -j
        p = [0.25 + 0.5 * delta, -1.0 - delta, 1.0]
        want = [0.5, math.nextafter(0.5 + delta, 1.0)]
        assert _fraction_crossings(p) == _sign_changes(p) == want
    # roots near 1e-300, whose values there are below the smallest float
    for p in (_with_roots(1e-300, 2e-300), [0.0, -3.0 * 2.0 ** -1000, 1.0]):
        assert _sign_changes(p) == _fraction_crossings(p)


def test_intervals_equal_eigvals_everywhere():
    """The interval classification equals eigvals' max Re(eig) < -tol on
    every state of the presets' default grids, family members included,
    under both conventions; on the 2,001-point grids of fig2, fig8a and
    fig8c; on fig2 at detunings 1 + 10^-k times its threshold, k = 2..12,
    where the two folds merge into a cusp; and on 100 `clean_system` draws.
    No state is excused."""
    curves = []
    for name in sorted(PRESETS):
        cfg = get_preset(name).config()
        for conv in LinewidthConvention:
            if cfg.values is None:
                derived = derive(cfg.params, cfg.drives, conv)
                grid = auto_power_grid(bistability_window(derived,
                                                          cfg.drives))
                curves.append((derived, cfg.drives, power_sweep(
                    derived, cfg.drives, grid)))
                continue
            fam = family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                               convention=conv)
            curves += [(m.derived, m.drives, m.curve) for m in fam.members]
    for name in ("fig2", "fig8a", "fig8c"):
        cfg = get_preset(name).config()
        derived = cfg.derive()
        grid = auto_power_grid(bistability_window(derived, cfg.drives), 2001)
        curves.append((derived, cfg.drives,
                       power_sweep(derived, cfg.drives, grid)))
    # a 401-point grid around each window, and one across it while it still
    # has a width in floats: from k = 11 the two fold powers round together
    cfg = get_preset("fig2").config()
    cusp = threshold_detuning(cfg.derive(), susceptibilities(
        cfg.derive(), cfg.drives)).delta_c
    for k in range(2, 13):
        derived = derive(cfg.params._replace(delta_c=cusp * (1 + 10.0 ** -k)),
                         cfg.drives)
        window = bistability_window(derived, cfg.drives)
        grids = [auto_power_grid(window, 401)]
        if window.power_up > window.power_down:
            grids.append(auto_power_grid(window, 401, window.power_down,
                                         window.power_up))
        curves += [(derived, cfg.drives, power_sweep(derived, cfg.drives, g))
                   for g in grids]
    rng = np.random.default_rng(2027)
    for i in range(100):
        params, drives = clean_system(rng, with_tones=i % 2 == 1)
        derived = derive(params, drives)
        grid = auto_power_grid(bistability_window(derived, drives), 201)
        curves.append((derived, drives, power_sweep(derived, drives, grid)))
    states = 0
    for derived, drives, curve in curves:
        want, _ = stability_columns_reference(
            curve.effective_detuning, curve.c_s, curve.branch_rows, derived)
        assert list(curve.stable) == want
        states += len(want)
    print(f"\n{states} states")
    assert states > 50_000


def _eigen_bisection(derived, shape, lo, hi):
    """The photon number in [lo, hi] where eigvals' max Re(eig) crosses
    -EIGEN_TOL_KAPPA * kappa along the sweep's line Delta(x)."""
    tol = EIGEN_TOL_KAPPA * derived.kappa

    def stable(x):
        det = shape.delta_tilde - shape.kerr_slope * x
        c_s = math.sqrt(x) * complex(derived.kh, -det) / abs(
            complex(derived.kh, det))
        jac = jacobians((det,), (c_s,), derived)[0]
        return np.linalg.eigvals(jac).real.max() < -tol

    at_lo = stable(lo)
    assert stable(hi) != at_lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if stable(mid) == at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_fig2_has_two_folds_and_two_hopf_points(fig2_cfg, fig2_derived):
    """Up to x = 1e5, fig2's stability changes at four photon numbers: the
    two folds and the Hopf points of the upper branch, each to 1e-6 of an
    eigvals bisection."""
    shape = cubic_coefficients(
        fig2_derived, susceptibilities(fig2_derived, fig2_cfg.drives), 0.0)
    bounds, stable = stability_intervals(fig2_derived, shape, 1e5)
    switches = [b for b, left, right in zip(bounds, stable, stable[1:])
                if left != right]
    assert len(switches) == 4
    crit = critical_points(shape)
    for x, want in zip(switches, (crit.x_c_minus, crit.x_c_plus, 17_088.43,
                                  77_806.19)):
        assert math.isclose(x, want, rel_tol=1e-6)
        assert math.isclose(x, _eigen_bisection(
            fig2_derived, shape, 0.99 * x, 1.01 * x), rel_tol=1e-6)
    # stable below the lower fold and above the upper Hopf point
    assert stable[0] and stable[-1]


def test_upper_branch_lives_and_dies_as_the_intervals_predict(
        fig2_cfg, fig2_derived):
    """A start 1 % off fig2's upper root stays there at 1 nW, where the
    intervals call it stable, and falls to the lower root at 2 nW, inside
    the upper branch's Hopf interval."""
    for power, stays in ((1e-9, True), (2e-9, False)):
        lower, _, upper = solve_point(fig2_derived, fig2_cfg.drives,
                                      power).branches
        assert lower.stable and upper.stable == stays
        f = upper.fields
        settled = relax_to_steady(
            MeanFieldState(1.01 * f.c_s, 1.01 * f.b_1s, 1.01 * f.b_2s),
            fig2_derived, fig2_cfg.drives,
            eps_for_power(fig2_derived, power))
        target = upper if stays else lower
        assert math.isclose(settled.photon_number, target.photon_number,
                            rel_tol=1e-6)


def test_states_at_a_bound_get_the_exact_verdict_without_numpy(monkeypatch):
    """States at every bound of fig2 and fig8a up to x = 1e5, one and two
    floats either side of it, and 5e-10 relative either side, and the
    default eigen sweeps of both presets, are classified with numpy blocked
    and `margins` raising.  Every verdict equals eigvals', computed
    beforehand, where eigvals' margin clears 1e-13 of the Jacobian's
    largest entry.  At the bound and within two floats of it the margin is
    about 1e-15 kappa, below eigvals' own error; there the verdict equals
    that of 50-digit mpmath eigenvalues of the same Jacobian."""
    from neoms import stability

    cases = []
    for name in ("fig2", "fig8a"):
        cfg = get_preset(name).config()
        derived = cfg.derive()
        shape = cubic_coefficients(
            derived, susceptibilities(derived, cfg.drives), 0.0)
        bounds, _ = stability_intervals(derived, shape, 1e5)
        assert len(bounds) >= 4
        xs = []
        for b in bounds:
            near = [b]
            for _ in range(2):
                near = [math.nextafter(near[0], 0.0), *near,
                        math.nextafter(near[-1], math.inf)]
            xs += [*near, b * (1.0 - 5e-10), b * (1.0 + 5e-10)]
        det = [shape.delta_tilde - shape.kerr_slope * x for x in xs]
        c_s = [math.sqrt(x) * complex(derived.kh, -d)
               / abs(complex(derived.kh, d)) for x, d in zip(xs, det)]
        jacs = jacobians(det, c_s, derived)
        top = np.linalg.eigvals(jacs).real.max(1)
        tol = EIGEN_TOL_KAPPA * derived.kappa
        clear = np.abs(top + tol) > 1e-13 * np.abs(jacs).max((1, 2))
        want = [bool(t < -tol) if ok else eigen_stable_mp(derived, shape, x)
                for x, t, ok in zip(xs, top, clear)]
        # the five states at and within two floats of each bound
        assert (~clear).sum() == 5 * len(bounds)
        grid = auto_power_grid(bistability_window(derived, cfg.drives))
        curve = power_sweep(derived, cfg.drives, grid)
        sweep, _ = stability_columns_reference(
            curve.effective_detuning, curve.c_s, curve.branch_rows, derived)
        cases.append((derived, cfg.drives, shape, grid, xs, want, sweep))

    def no_margins(*args):
        raise AssertionError("classification called margins")

    monkeypatch.setattr(stability, "margins", no_margins)
    monkeypatch.setitem(sys.modules, "numpy", None)
    for derived, drives, shape, grid, xs, want, sweep in cases:
        assert stability_column(xs, (), derived, shape) == want
        assert list(power_sweep(derived, drives, grid).stable) == sweep


def test_a_state_only_d3_calls_unstable_is_unstable():
    """Two mechanical pairs can grow at once with a6 and D5 positive; then
    only the Hurwitz determinant D3 sees it.  At this drawn operating
    point and photon number eigvals finds a growing mode, and so must the
    intervals."""
    params = REFERENCE._replace(
        omega1=1.96077e6, omega2=3.78028e6, gamma1=1.66185e5,
        gamma2=1.88563e5, kappa=2.36970e6, delta_c=5.46160e6, g0=1.00466e4,
        coulomb=CoulombSpec.direct(5.76138e5))
    derived = derive(params, DriveSpec())
    shape = cubic_coefficients(derived,
                               susceptibilities(derived, DriveSpec()), 0.0)
    x = 84_066.5
    det = shape.delta_tilde - shape.kerr_slope * x
    c_s = math.sqrt(x) * complex(derived.kh, -det) / abs(
        complex(derived.kh, det))
    (top,) = np.linalg.eigvals(jacobians((det,), (c_s,), derived)).real.max(1)
    assert top > 0.1 * derived.kappa
    assert stability_column((x,), (range(1),), derived, shape) == [False]
