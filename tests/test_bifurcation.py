"""Curves, windows, algebraic hysteresis, and parameter families."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neoms.bifurcation import (FAMILY_KEYS, auto_power_grid,
                               bistability_window, family_sweep,
                               hysteresis_from_curve, is_branch_jump,
                               power_sweep, solve_point)
from neoms.errors import NoBistabilityError, ParameterError
from neoms.model import CoulombSpec, DriveSpec, LinewidthConvention, derive
from neoms.stability import Method
from draws import REFERENCE, TWO_PI, clean_system


def _clean(seed=101, min_dt=2.5):
    rng = np.random.default_rng(seed)
    params, drives = clean_system(rng, min_detuning_kappa=min_dt)
    derived = derive(params, drives)
    win = bistability_window(derived, drives)
    assert win.exists
    return params, derived, drives, win


def test_window_matches_multiplicity_pattern():
    params, derived, drives, win = _clean()
    powers = auto_power_grid(win, n=101)
    curve = power_sweep(derived, drives, powers)
    for pt in curve.points:
        assert pt.error is None
        inside = win.power_down < pt.power < win.power_up
        if inside:
            assert len(pt.branches) == 3
        else:
            # points within one grid step of a fold may legitimately read 2
            near_fold = (abs(pt.power - win.power_down) <= powers[1] - powers[0]
                         or abs(pt.power - win.power_up) <= powers[1] - powers[0])
            assert len(pt.branches) == 1 or near_fold
    assert max(len(pt.branches) for pt in curve.points) == 3
    bistable = [pt.power for pt in curve.points if len(pt.branches) == 3]
    lo, hi = min(bistable), max(bistable)
    step = powers[1] - powers[0]
    assert win.power_down - step <= lo and hi <= win.power_up + step


def test_window_and_sweep_accept_only_the_derived_convention(fig2_cfg):
    """A convention passed to bistability_window or power_sweep must be the
    one the rates were derived under; repeating it changes nothing."""
    drives = fig2_cfg.drives
    for conv, other in ((LinewidthConvention.HALF_KAPPA,
                         LinewidthConvention.FULL_KAPPA),
                        (LinewidthConvention.FULL_KAPPA,
                         LinewidthConvention.HALF_KAPPA)):
        derived = derive(fig2_cfg.params, drives, conv)
        win = bistability_window(derived, drives)
        grid = auto_power_grid(win, 11)
        with pytest.raises(ParameterError, match="^convention: ") as exc:
            bistability_window(derived, drives, other)
        assert exc.value.field == "convention"
        with pytest.raises(ParameterError, match="^convention: ") as exc:
            power_sweep(derived, drives, grid, Method.EIGEN, other)
        assert exc.value.field == "convention"
        assert bistability_window(derived, drives, conv) == win
        curve = power_sweep(derived, drives, grid, Method.EIGEN, conv)
        assert curve == power_sweep(derived, drives, grid, Method.EIGEN)
        assert curve.convention is conv


def test_window_absent_below_threshold():
    params, derived, drives, _ = _clean()
    low = derive(replace(params, delta_c=0.5 * params.kappa), drives)
    win = bistability_window(low, drives)
    assert not win.exists and win.reason == "below_threshold"
    assert win.width == 0.0 and math.isnan(win.fold_ratio)
    with pytest.raises(NoBistabilityError):
        auto_power_grid(win)


def test_window_fold_ordering_and_ratio():
    params, derived, drives, win = _clean()
    assert win.power_up > win.power_down > 0.0
    assert win.fold_ratio > 1.0
    assert math.isclose(win.width, win.power_up - win.power_down,
                        rel_tol=1e-15)


def test_auto_grid_explicit_bounds_override():
    params, derived, drives, win = _clean()
    grid = auto_power_grid(win, n=11, pmin=1e-12, pmax=2e-12)
    assert grid[0] == 1e-12 and grid[-1] == 2e-12 and len(grid) == 11
    with pytest.raises(ValueError):
        auto_power_grid(win, n=1)
    with pytest.raises(ValueError):
        auto_power_grid(win, n=5, pmin=2e-12, pmax=1e-12)


def test_solve_point_zero_power():
    params, derived, drives, win = _clean()
    pt = solve_point(derived, drives, 0.0)
    assert len(pt.branches) == 1
    assert pt.branches[0].photon_number == 0.0
    assert pt.branches[0].fields.c_s == 0.0


def test_solve_point_orders_branches():
    params, derived, drives, win = _clean()
    p = math.sqrt(win.power_up * win.power_down)
    pt = solve_point(derived, drives, p)
    xs = [b.photon_number for b in pt.branches]
    assert xs == sorted(xs) and len(xs) == 3
    assert pt.branches[0].stable and not pt.branches[1].stable


def test_is_branch_jump_detector():
    # fine grid: pure 50% rule
    assert is_branch_jump(1.0, 100.0, 1.001, 151.0)
    assert not is_branch_jump(1.0, 100.0, 1.001, 149.0)
    # falling edge detected symmetrically
    assert is_branch_jump(1.0, 100.0, 1.001, 60.0)
    # coarse grid: the power step explains proportional growth
    assert not is_branch_jump(1.0, 100.0, 2.0, 250.0)
    assert is_branch_jump(1.0, 100.0, 2.0, 400.0)
    # degenerate inputs never jump
    assert not is_branch_jump(0.0, 100.0, 1.0, 200.0)
    assert not is_branch_jump(1.0, 0.0, 2.0, 200.0)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(min_value=1e-12, max_value=1e-2),
       x=st.floats(min_value=1e-3, max_value=1e12),
       sp=st.floats(min_value=1e-6, max_value=1e6),
       sx=st.floats(min_value=1e-6, max_value=1e6),
       fp=st.floats(min_value=1.0001, max_value=1.2),
       fx=st.floats(min_value=1.0, max_value=10.0))
def test_is_branch_jump_scale_invariant(p, x, sp, sx, fp, fx):
    base = is_branch_jump(p, x, p * fp, x * fx)
    assert base == is_branch_jump(p * sp, x * sx, p * fp * sp, x * fx * sx)


def test_algebraic_hysteresis_brackets_folds():
    params, derived, drives, win = _clean()
    powers = auto_power_grid(win, n=201)
    step = powers[1] - powers[0]
    curve = power_sweep(derived, drives, powers)
    trace = hysteresis_from_curve(curve)
    assert trace.loop_area_exists
    assert abs(trace.up_jump - win.power_up) <= 2.0 * step
    assert abs(trace.down_jump - win.power_down) <= 2.0 * step
    assert trace.down_jump < trace.up_jump
    # the up pass rides the lower branch until the fold
    for p, x in trace.up:
        if p < win.power_down:
            pt = solve_point(derived, drives, p)
            assert math.isclose(x, pt.branches[0].photon_number,
                                rel_tol=1e-12)
            break


def test_wide_linewidth_loop_narrows_under_eigen(fig2_cfg, fig2_derived):
    """With the upper branch Hopf-unstable mid-window, the stable-branch
    follower leaves it earlier on the way down than the slope rule does."""
    win = bistability_window(fig2_derived, fig2_cfg.drives)
    powers = auto_power_grid(win, n=201)
    eig = hysteresis_from_curve(power_sweep(fig2_derived, fig2_cfg.drives,
                                            powers, Method.EIGEN))
    slope = hysteresis_from_curve(power_sweep(fig2_derived, fig2_cfg.drives,
                                              powers, Method.SLOPE_RULE))
    step = powers[1] - powers[0]
    assert abs(slope.down_jump - win.power_down) <= 2.0 * step
    assert eig.down_jump > slope.down_jump + step


def test_family_applies_values_to_the_right_knob():
    params, derived, drives, win = _clean()
    for vary, values in (("g0", (derived.g0, 1.2 * derived.g0)),
                         ("delta_c", (derived.delta_c, 1.1 * derived.delta_c)),
                         ("gc", (0.0, TWO_PI * 0.2e6))):
        fam = family_sweep(params, drives, vary, values, n_points=31)
        assert fam.vary == vary and fam.values == tuple(values)
        for m, v in zip(fam.members, values):
            got = {"g0": m.derived.g0, "delta_c": m.derived.delta_c,
                   "gc": m.derived.gc}[vary]
            assert got == v
    fam = family_sweep(params, drives, "phi1", (0.0, 1.0), n_points=31)
    assert fam.members[1].drives.phi1 == 1.0
    with pytest.raises(ValueError):
        family_sweep(params, drives, "kappa", (1.0,))
    with pytest.raises(ValueError):
        family_sweep(params, drives, "g0", ())
    for n, bounds in ((0, {}), (1, {}),
                      (5, {"pmin": 2e-12, "pmax": 1e-12})):
        with pytest.raises(ValueError):
            family_sweep(params, drives, "g0", (derived.g0,), n_points=n,
                         **bounds)


def test_family_value_overrides_geometric_coulomb():
    params, derived, drives, win = _clean()
    geo = replace(params, coulomb=CoulombSpec.geometric(
        cap1=100e-12, cap2=100e-12, volt1=10.0, volt2=10.0, spacing=1e-4))
    fam = family_sweep(geo, drives, "gc", (0.0, 100.0), n_points=5,
                       pmin=win.power_down, pmax=win.power_up)
    assert fam.members[0].derived.gc == 0.0
    assert fam.members[1].derived.gc == 100.0
    assert not fam.members[0].derived.system.coulomb.is_geometric


def test_family_shares_one_grid():
    params, derived, drives, win = _clean()
    fam = family_sweep(params, drives, "g0",
                       (derived.g0, 1.3 * derived.g0), n_points=41)
    assert len(fam.powers) == 41
    for m in fam.members:
        assert tuple(pt.power for pt in m.curve.points) == fam.powers
    # grid spans every member's window with the factor-2 margin
    lo = 0.5 * min(m.window.power_down for m in fam.members)
    hi = 2.0 * max(m.window.power_up for m in fam.members)
    assert math.isclose(fam.powers[0], lo, rel_tol=1e-12)
    assert math.isclose(fam.powers[-1], hi, rel_tol=1e-12)


def test_family_without_bistable_member_needs_bounds():
    params, derived, drives, win = _clean()
    sub = replace(params, delta_c=0.3 * params.kappa)
    with pytest.raises(NoBistabilityError):
        family_sweep(sub, drives, "g0", (derived.g0,), n_points=5)
    fam = family_sweep(sub, drives, "g0", (derived.g0,), n_points=5,
                       pmin=1e-12, pmax=1e-11)
    assert fam.powers[0] == 1e-12


def test_mirror_displacement_rows_inherit_multiplicity():
    params, derived, drives, win = _clean()
    powers = auto_power_grid(win, n=51)
    curve = power_sweep(derived, drives, powers)
    rows = [(pt.power, i, b.fields.q_1s, b.fields.q_2s, b.stable)
            for pt in curve.points for i, b in enumerate(pt.branches)]
    assert len(rows) == sum(len(pt.branches) for pt in curve.points)
    by_power = {}
    for power, idx, q1, q2, stable in rows:
        by_power.setdefault(power, []).append((idx, q1, q2, stable))
    for pt in curve.points:
        entries = by_power[pt.power]
        assert len(entries) == len(pt.branches)
        # displacement bistability: distinct q1 per coexisting branch
        if len(pt.branches) == 3:
            q1s = [e[1] for e in entries]
            assert len({round(q, 25) for q in q1s}) == 3


def test_lower_branch_spread_sees_phase_push():
    params, derived, drives, win = _clean()
    tone = DriveSpec(eps1=2.0 * params.omega1, phi1=0.0)
    fam = family_sweep(params, tone, "phi1", (0.25 * math.pi, 0.5 * math.pi),
                       n_points=31)
    # a drive phase only shifts the branches at fixed power
    low0, low1 = ([pt.branches[0].photon_number for pt in m.curve.points]
                  for m in fam.members)
    assert len(low0) == len(low1) == 31
    assert max(abs(a - b) for a, b in zip(low0, low1)) > 0.0
    assert FAMILY_KEYS == ("g0", "gc", "delta_c", "eps1", "eps2",
                           "phi1", "phi2")
