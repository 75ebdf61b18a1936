"""Mean-field time evolution: integration, relaxation, ramps.

The linear limit (no optomechanical and no Coulomb coupling) has the exact
fixed point c = eps_l / (kh + i delta_c), which anchors the integrator
against an answer that needs no root solving at all.
"""

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from neoms import dynamics
from neoms.bifurcation import bistability_window
from neoms.errors import ConvergenceError, StiffnessError
from neoms.dynamics import (ORIGIN, MeanFieldState, _make_rhs,
                            hysteresis_loop, relax_to_steady, time_derivative)
from neoms.model import (CoulombSpec, DriveSpec, LinewidthConvention, derive,
                         eps_for_power)
from neoms.presets import get_preset
from neoms.steady_state import (solve_photon_roots, steady_fields,
                                susceptibilities, cubic_coefficients)
from draws import REFERENCE, clean_point, clean_system
from oracles import fields_hex, rhs_reference


def test_state_quadrature_round_trip():
    s = MeanFieldState(c=1.5 - 2.5j, b1=0.25j, b2=-3.0 + 0.125j, t=2.0)
    y = s.to_quadratures()
    assert y.tolist() == [1.5, -2.5, 0.0, 0.25, -3.0, 0.125]
    back = MeanFieldState.from_quadratures(y, t=2.0)
    assert back == s
    assert s.photon_number == 1.5 ** 2 + 2.5 ** 2


def test_linear_limit_settles_on_closed_form():
    params = replace(REFERENCE, g0=0.0, coulomb=CoulombSpec.direct(0.0),
                     drive_power=1e-9)
    derived = derive(params)
    f = relax_to_steady(ORIGIN, derived, DriveSpec())
    kh = 0.5 * derived.kappa
    expect = derived.eps_l / complex(kh, derived.delta_c)
    assert abs(f.c_s - expect) <= 1e-9 * abs(expect)
    assert f.b_1s == 0.0 and f.b_2s == 0.0
    assert math.isclose(f.photon_number, abs(expect) ** 2, rel_tol=1e-9)


def test_derivative_vanishes_at_algebraic_steady_state():
    rng = np.random.default_rng(13)
    for _ in range(10):
        params, derived, drives, eps_sq, roots = clean_point(
            rng, with_tones=bool(rng.integers(2)))
        eps = math.sqrt(eps_sq)
        susc = susceptibilities(derived, drives)
        scale = max(eps, derived.kappa)
        for x in roots.roots:
            f = steady_fields(x, derived, susc, drives, eps_l=eps)
            s = MeanFieldState(c=f.c_s, b1=f.b_1s, b2=f.b_2s)
            d = time_derivative(s, derived, drives, eps_l=eps)
            norm = math.sqrt(abs(d.c) ** 2 + abs(d.b1) ** 2 + abs(d.b2) ** 2)
            assert norm <= 1e-9 * scale


def _quadratures(rng, n):
    """n states whose parts span 1e-6 to 1e6 in magnitude with both signs,
    with exact zeros of both signs mixed in."""
    states = []
    for _ in range(n):
        parts = []
        for _ in range(6):
            k = rng.integers(10)
            parts.append(0.0 if k == 0 else -0.0 if k == 1 else
                         float(rng.choice((-1.0, 1.0))
                               * 10.0 ** rng.uniform(-6.0, 6.0)))
        states.append(np.array(parts))
    return states


def test_rhs_is_bit_identical_to_the_numpy_scalar_form(fig2_cfg,
                                                       fig2_derived):
    """The RHS unpacks its state to Python floats; every operation, and so
    every returned bit, is the one the numpy-scalar form computes."""
    rng = np.random.default_rng(1401)
    systems = [(fig2_derived, fig2_cfg.drives)]
    conventions = list(LinewidthConvention)
    for i in range(50):
        params, drives = clean_system(rng, with_tones=i % 2 == 0)
        systems.append((derive(params, drives,
                               conventions[i % len(conventions)]), drives))
    for derived, drives in systems:
        rhs = _make_rhs(derived, drives, derived.eps_l)
        ref = rhs_reference(derived, drives, derived.eps_l)
        for y in _quadratures(rng, 200):
            assert (np.array(rhs(0.0, y.tolist())).tobytes()
                    == ref(0.0, y).tobytes()), y


def test_relaxation_unchanged_under_the_numpy_scalar_rhs(monkeypatch):
    """The first three relaxations of acceptance criterion 5 settle on the
    same bits whichever form of the RHS the integrator calls."""
    def settle():
        rng = np.random.default_rng(1005)
        out = []
        for _ in range(3):
            _, derived, drives, eps_sq, _ = clean_point(rng)
            out.append(fields_hex(relax_to_steady(
                ORIGIN, derived, drives, eps_l=math.sqrt(eps_sq))))
        return out

    fast = settle()
    monkeypatch.setattr(dynamics, "_make_rhs", rhs_reference)
    assert settle() == fast


def test_vacuum_relaxes_to_lowest_root():
    rng = np.random.default_rng(19)
    for _ in range(5):
        params, derived, drives, eps_sq, roots = clean_point(rng)
        eps = math.sqrt(eps_sq)
        f = relax_to_steady(ORIGIN, derived, drives, eps_l=eps)
        assert math.isclose(f.photon_number, roots.roots[0], rel_tol=1e-6)


def test_upper_branch_start_stays_on_upper_root():
    rng = np.random.default_rng(37)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    eps = math.sqrt(eps_sq)
    susc = susceptibilities(derived, drives)
    top = steady_fields(roots.roots[-1], derived, susc, drives, eps_l=eps)
    start = MeanFieldState(c=top.c_s * 1.01, b1=top.b_1s, b2=top.b_2s)
    f = relax_to_steady(start, derived, drives, eps_l=eps)
    assert math.isclose(f.photon_number, roots.roots[-1], rel_tol=1e-6)


def test_middle_root_never_persists():
    rng = np.random.default_rng(43)
    params, derived, drives, eps_sq, roots = clean_point(rng)
    assert len(roots) == 3
    eps = math.sqrt(eps_sq)
    susc = susceptibilities(derived, drives)
    mid = steady_fields(roots.roots[1], derived, susc, drives, eps_l=eps)
    for factor in (0.99, 1.01):
        start = MeanFieldState(c=mid.c_s * factor, b1=mid.b_1s, b2=mid.b_2s)
        f = relax_to_steady(start, derived, drives, eps_l=eps)
        outer = (roots.roots[0], roots.roots[2])
        assert any(math.isclose(f.photon_number, r, rel_tol=1e-6)
                   for r in outer)
        assert not math.isclose(f.photon_number, roots.roots[1],
                                rel_tol=1e-3)


def test_wide_linewidth_upper_branch_never_settles(fig2_cfg, fig2_derived):
    """The eigen-unstable upper branch at the headline linewidth is a limit
    cycle: relaxation must refuse it rather than report a false fixed point."""
    win = bistability_window(fig2_derived, fig2_cfg.drives)
    power = math.sqrt(win.power_up * win.power_down)
    from neoms.model import eps_for_power
    eps = eps_for_power(fig2_derived, power)
    susc = susceptibilities(fig2_derived, fig2_cfg.drives)
    coeffs = cubic_coefficients(fig2_derived, susc, eps)
    roots = solve_photon_roots(coeffs)
    top = steady_fields(roots.roots[-1], fig2_derived, susc, fig2_cfg.drives,
                        eps_l=eps)
    start = MeanFieldState(c=top.c_s * 1.02, b1=top.b_1s, b2=top.b_2s)
    slow = min(fig2_derived.kappa, fig2_derived.gamma1, fig2_derived.gamma2)
    with pytest.raises(ConvergenceError) as exc:
        relax_to_steady(start, fig2_derived, fig2_cfg.drives, eps_l=eps,
                        t_max=120.0 / slow)
    assert exc.value.last_state is not None
    assert exc.value.diagnostics["derivative_norm"] > \
        exc.value.diagnostics["threshold"]


def test_hysteresis_loop_validation(fig2_derived):
    for powers, dwell in (((1e-10, 2e-10), -1.0), ((1e-10, 2e-10), 0.0),
                          ((1e-10, 2e-10), math.inf), ((1e-10,), None),
                          ((1e-10, 2e-10, 1e-10), None)):
        with pytest.raises(ValueError):
            hysteresis_loop(fig2_derived, DriveSpec(), powers, dwell=dwell)


def _clean_loop_inputs(seed=101):
    rng = np.random.default_rng(seed)
    params, drives = clean_system(rng, min_detuning_kappa=2.5)
    derived = derive(params, drives)
    win = bistability_window(derived, drives)
    assert win.exists
    powers = tuple(np.linspace(0.5 * win.power_down, 2.0 * win.power_up, 15))
    return derived, drives, win, powers


def test_single_direction_ramp_shape():
    derived, drives, win, powers = _clean_loop_inputs()
    trace = hysteresis_loop(derived, drives, powers)
    assert len(trace.up) == len(trace.down) == len(powers)
    assert [p for p, _ in trace.up] == list(powers)
    assert [p for p, _ in trace.down] == list(powers[::-1])
    assert trace.up_jump_powers and trace.down_jump_powers


def test_loop_jumps_bracket_the_folds():
    derived, drives, win, powers = _clean_loop_inputs()
    trace = hysteresis_loop(derived, drives, powers)
    step = powers[1] - powers[0]
    assert trace.loop_area_exists
    assert win.power_up - step <= trace.up_jump <= win.power_up + step
    assert win.power_down - step <= trace.down_jump <= win.power_down + step
    # hysteresis proper: the downward jump sits strictly below the upward one
    assert trace.down_jump < trace.up_jump


def test_tableau_is_scipys():
    """Every transcribed DOP853 coefficient equals scipy's, zeros included."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    n = ref.N_STAGES
    assert list(dynamics._C) == ref.C[:n].tolist()
    assert [list(row) for row in dynamics._A] == \
        [ref.A[s, :s].tolist() for s in range(1, n)]
    assert not ref.A[:n, :n][np.triu_indices(n)].any()
    assert list(dynamics._B) == ref.B.tolist() == ref.A[n, :n].tolist()
    assert list(dynamics._E3) == ref.E3.tolist()
    assert list(dynamics._E5) == ref.E5.tolist()


def _oracle_segments():
    """(rhs, t_span, y0, rtol, atol): one checkpoint of relax_to_steady each.

    fig2 at three powers (the last one a limit cycle) and 50 clean_point
    draws, each from vacuum at RTOL and from a random state at 1e-12.  The
    random starts begin one checkpoint in, so the step floor is not at t = 0.
    """
    cfg = get_preset("fig2").config()
    fig2 = derive(cfg.params, cfg.drives)
    cases = [(fig2, cfg.drives, eps_for_power(fig2, p) ** 2)
             for p in (1e-9, 2e-9, 1.2e-8)]
    rng = np.random.default_rng(1601)
    for i in range(50):
        _, derived, drives, eps_sq, _ = clean_point(rng, with_tones=i % 2 == 0)
        cases.append((derived, drives, eps_sq))
    for derived, drives, eps_sq in cases:
        eps = math.sqrt(eps_sq)
        rhs = _make_rhs(derived, drives, eps)
        coeffs = cubic_coefficients(derived, susceptibilities(derived, drives),
                                    eps)
        amp = math.sqrt(max(solve_photon_roots(coeffs).roots[-1], 1.0))
        step = 1.0 / min(derived.kappa, derived.gamma1, derived.gamma2)
        yield rhs, (0.0, step), [0.0] * 6, dynamics.RTOL, dynamics.RTOL * amp
        start = (rng.normal(size=6) * amp).tolist()
        yield rhs, (step, 2.0 * step), start, 1e-12, 1e-12 * amp


def test_solve_ivp_takes_scipys_steps():
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    segments = list(_oracle_segments())
    assert len(segments) >= 100
    for rhs, span, y0, rtol, atol in segments:
        ref = scipy_solve_ivp(lambda t, y: rhs(t, y.tolist()), span,
                              np.array(y0), method="DOP853",
                              rtol=rtol, atol=atol)
        assert ref.success
        got = dynamics.solve_ivp(rhs, span, y0, rtol, atol)
        assert got.nfev == ref.nfev
        assert got.t == ref.t[-1] == span[1]
        for mine, theirs in zip(got.y, ref.y[:, -1].tolist()):
            assert abs(mine - theirs) <= 1e-9 * max(abs(theirs), 1.0)


def test_solve_ivp_fails_where_scipys_step_underflows():
    """y' = y^2 from 1 blows up at t = 1: both integrators stop there."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    def blow_up(t, y):
        return tuple(v * v for v in y)

    ref = scipy_solve_ivp(lambda t, y: blow_up(t, y.tolist()), (0.0, 2.0),
                          np.ones(6), method="DOP853", rtol=1e-9, atol=1e-9)
    assert ref.status == -1
    with pytest.raises(StiffnessError) as exc:
        dynamics.solve_ivp(blow_up, (0.0, 2.0), [1.0] * 6, 1e-9, 1e-9)
    assert str(exc.value) == f"integration failed: {ref.message}"
    assert math.isclose(exc.value.diagnostics["t_reached"], ref.t[-1],
                        rel_tol=1e-12)


_BAD_BUDGETS = """
import json
from neoms.dynamics import ORIGIN, relax_to_steady
from neoms.errors import ParameterError
from neoms.model import eps_for_power
from neoms.presets import get_preset
cfg = get_preset("fig2").config()
fig2 = cfg.derive()
said = []
for name in ("checkpoint", "t_max"):
    for value in (0.0, -1.0, float("nan"), float("inf")):
        try:
            relax_to_steady(ORIGIN, fig2, cfg.drives,
                            eps_for_power(fig2, 2e-9), **{name: value})
        except ParameterError as exc:
            said.append(str(exc))
print(json.dumps(said))
"""


def test_relax_rejects_bad_checkpoint_and_t_max(subprocess_env):
    # in a subprocess with a timeout: a zero, negative or NaN checkpoint
    # used to integrate without end, and the test must fail, not hang
    proc = subprocess.run([sys.executable, "-c", _BAD_BUDGETS],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        f"{name}: must be finite and > 0, got {value}"
        for name in ("checkpoint", "t_max")
        for value in ("0.0", "-1.0", "nan", "inf")]


_LATE_STARTS = """
import json
from neoms.dynamics import MeanFieldState, relax_to_steady
from neoms.model import eps_for_power
from neoms.presets import get_preset
cfg = get_preset("fig2").config()
fig2 = cfg.derive()
settled = []
for t0 in (0.0, 1e11, 1e20):
    f = relax_to_steady(MeanFieldState(0j, 0j, 0j, t=t0), fig2, cfg.drives,
                        eps_for_power(fig2, 2e-9))
    settled.append([v.hex() for v in (f.photon_number, f.c_s.real, f.c_s.imag,
                                      f.b_1s.real, f.b_2s.real)])
print(json.dumps(settled))
"""


def test_relaxation_does_not_depend_on_the_start_time(subprocess_env):
    # in a subprocess with a timeout: from t = 1e11 each checkpoint used to
    # add nothing to t, so the relaxation never ended, and from t = 1e20 it
    # refused at once without integrating
    proc = subprocess.run([sys.executable, "-c", _LATE_STARTS],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    first, *later = json.loads(proc.stdout)
    assert later == [first, first]
