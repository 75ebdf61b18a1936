"""Root-solver edge cases on directly constructed coefficient sets.

The coefficient structure is always a1 = chi^2, a2 = -2 chi dt,
a3 = kh^2 + dt^2, a4 = -eps^2, so building from (chi, dt, kh, eps) spans
exactly the reachable family, including the degenerate chi = 0 and eps = 0
members.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from neoms.steady_state import (CubicCoefficients, critical_points,
                                photon_roots, solve_photon_roots)
from oracles import cubic_roots_extended, cubic_slope, cubic_value


def make_coeffs(chi: float, dt: float, kh: float, eps: float) -> CubicCoefficients:
    return CubicCoefficients(
        a1=chi * chi, a2=-2.0 * chi * dt, a3=kh * kh + dt * dt,
        a4=-(eps * eps), delta_tilde=dt, kerr_slope=chi,
        half_linewidth=kh)


def test_three_distinct_roots_inside_window():
    # dt = 3.6, kh = 0.5: deep bistable window at unit linewidth scale
    c = make_coeffs(1.0, 3.6, 0.5, math.sqrt(2.0))
    roots = solve_photon_roots(c)
    assert len(roots) == 3
    ref = cubic_roots_extended(c.a1, c.a2, c.a3, c.a4)
    for got, want in zip(roots.roots, ref):
        assert math.isclose(got, want, rel_tol=1e-10)


def test_single_root_below_threshold():
    c = make_coeffs(1.0, 0.3, 0.5, 1.0)
    roots = solve_photon_roots(c)
    assert len(roots) == 1


def test_single_root_weak_drive():
    c = make_coeffs(1.0, 3.6, 0.5, 1e-6)
    roots = solve_photon_roots(c)
    assert len(roots) == 1
    assert roots.roots[0] > 0.0


def test_zero_drive_gives_zero_root():
    c = make_coeffs(1.0, 3.6, 0.5, 0.0)
    roots = solve_photon_roots(c)
    assert 0.0 in roots.roots
    # kh^2 is lost in a3 = kh^2 + dt^2, yet x (kh^2 + (dt - chi x)^2) = 0
    # has no root but x = 0 while kh > 0
    assert solve_photon_roots(make_coeffs(1.0, 1.0, 1e-9, 0.0)).roots \
        == (0.0,)


def test_linear_case_without_nonlinearity():
    # chi = 0 collapses to a3 x + a4 = 0
    c = make_coeffs(0.0, 2.0, 0.5, 3.0)
    roots = solve_photon_roots(c)
    assert len(roots) == 1
    assert math.isclose(roots.roots[0], 9.0 / (0.25 + 4.0), rel_tol=1e-12)


def test_triple_root():
    # (x - 1)^3: p = q = 0, so the Cardano form has w = 0 and no cube root
    # to divide by
    assert photon_roots(1.0, -3.0, 3.0, -1.0) == (1.0,)


def test_near_fold_pair_meets_residual_contract():
    # drive just inside the upper fold: two roots nearly merge
    c0 = make_coeffs(1.0, 3.6, 0.5, 1.0)
    crit = critical_points(c0)
    x = crit.x_c_minus
    eps_sq_fold = x * (0.25 + (3.6 - x) ** 2)
    eps = math.sqrt(eps_sq_fold * (1.0 - 1e-12))
    c = make_coeffs(1.0, 3.6, 0.5, eps)
    roots = solve_photon_roots(c)
    scale = abs(c.a4)
    for r in roots.roots:
        assert abs(cubic_value(c, r)) <= 1e-9 * scale


positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(chi=st.floats(min_value=1e-170, max_value=1e3),
       dt=st.floats(min_value=-10.0, max_value=10.0),
       kh=positive, eps=st.floats(min_value=0.0, max_value=1e3))
# chi^2 underflows to 0, with and without a drive whose square does too
@example(chi=1e-170, dt=1.0, kh=1.0, eps=1.0)
@example(chi=1e-170, dt=1.0, kh=1.0, eps=0.0)
@example(chi=1e-120, dt=2.0, kh=0.5, eps=1e-300)
# the depressed form's ** overflows
@example(chi=1e-60, dt=3.6, kh=0.5, eps=1.0)
# the root is far below the inflection and x = t - shift cancels
@example(chi=1e-20, dt=-10.0, kh=1e-3, eps=1e-5)
@example(chi=1e-20, dt=5.0, kh=1.0, eps=1.0)
# inside the window: three roots, each of them the oracle's
@example(chi=1.0, dt=3.6, kh=0.5, eps=1.4)
def test_root_properties_hold_everywhere(chi, dt, kh, eps):
    c = make_coeffs(chi, dt, kh, eps)
    roots = solve_photon_roots(c)
    assert 1 <= len(roots) <= 3
    assert all(r >= 0.0 for r in roots.roots)
    assert all(a < b for a, b in zip(roots.roots, roots.roots[1:]))
    scale = max(abs(c.a4), 1.0)
    assert all(abs(cubic_value(c, r)) <= 1e-9 * scale for r in roots.roots)
    # Every root of x (kh^2 + (dt - chi x)^2) = eps^2 lies in
    # [0, eps^2/kh^2].  Once chi^2 underflows, the rounded coefficients can
    # have one more real root, near dt/chi, far outside: not the model's.
    oracle = [x for x in cubic_roots_extended(c.a1, c.a2, c.a3, c.a4)
              if 0.0 <= x <= 2.0 * (eps / kh) ** 2]
    # Within 1e-6 of a fold the residual contract admits a root that the
    # exact cubic has only as a complex pair, or as a pair the oracle
    # merges; such roots are checked by their residual alone.
    folds = cubic_roots_extended(0.0, 3.0 * c.a1, 2.0 * c.a2, c.a3)

    def at_fold(x):
        return any(math.isclose(x, f, rel_tol=1e-6) for f in folds)

    def near(r, x):
        # Within 1e-9, or within what rounding leaves of a root: Horner's
        # error bound on the cubic over its slope, wide where two roots
        # nearly meet.  Below 1e-300 a root has few significant bits left.
        terms = ((c.a1 * x + abs(c.a2)) * x + c.a3) * x + abs(c.a4)
        slope = abs(cubic_slope(c, x))
        fuzz = 1e-15 * terms / slope if slope else math.inf
        return abs(r - x) <= 1e-9 * x + fuzz + 1e-300

    for r in roots.roots:
        assert at_fold(r) or any(near(r, x) for x in oracle)
    for x in oracle:
        if not at_fold(x) and not any(math.isclose(x, y, rel_tol=1e-6)
                                      for y in oracle if y is not x):
            assert any(near(r, x) for r in roots.roots)


@settings(max_examples=200, deadline=None)
@given(chi=positive, kh=positive,
       ratio=st.floats(min_value=math.sqrt(3.0) * 1.05, max_value=20.0),
       frac=st.floats(min_value=0.05, max_value=0.95))
def test_window_interior_always_three_roots(chi, kh, ratio, frac):
    dt = ratio * kh
    c0 = make_coeffs(chi, dt, kh, 0.0)
    crit = critical_points(c0)
    assert crit.exists

    def drive_sq(x):
        return x * (kh * kh + (dt - chi * x) ** 2)

    lo, hi = drive_sq(crit.x_c_plus), drive_sq(crit.x_c_minus)
    eps_sq = lo * (hi / lo) ** frac
    if not (lo * 1.0001 < eps_sq < hi * 0.9999):
        return  # too close to a fold for a clean count
    c = make_coeffs(chi, dt, kh, math.sqrt(eps_sq))
    assert len(solve_photon_roots(c)) == 3


@settings(max_examples=300, deadline=None)
@given(chi=positive, dt=st.floats(min_value=-10.0, max_value=10.0),
       kh=positive)
def test_critical_points_mirror_with_the_kerr_slope(chi, dt, kh):
    """Negating chi and dt leaves eps^2(x) unchanged, and so every field
    of the critical points, bit for bit: x_c_minus < x_c_plus on both
    sides of the slope's sign change."""
    def fields(c):
        crit = critical_points(c)
        return (crit.x_c_minus.hex(), crit.x_c_plus.hex(), crit.x_inf.hex(),
                crit.exists, crit.reason)

    assert fields(make_coeffs(-chi, -dt, kh, 1.0)) \
        == fields(make_coeffs(chi, dt, kh, 1.0))
    crit = critical_points(make_coeffs(-chi, -dt, kh, 1.0))
    assert not crit.exists or crit.x_c_minus <= crit.x_c_plus
