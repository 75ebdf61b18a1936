"""Mean-field time evolution: integration, relaxation, ramps.

The linear limit (no optomechanical and no Coulomb coupling) has the exact
fixed point c = eps_l / (kh + i delta_c), which anchors the integrator
against an answer that needs no root solving at all.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from neoms import dynamics
from neoms.bifurcation import bistability_window
from neoms.errors import ConvergenceError, StiffnessError
from neoms.dynamics import (ORIGIN, MeanFieldState, _make_system,
                            hysteresis_loop, relax_to_steady)
from neoms.model import (CoulombSpec, DriveSpec, LinewidthConvention, derive,
                         eps_for_power)
from neoms.presets import get_preset
from neoms.steady_state import (solve_photon_roots, steady_fields,
                                susceptibilities, cubic_coefficients)
from draws import REFERENCE, clean_point, clean_system
from oracles import (dop853_step_reference, fields_hex,
                     relax_restarting_reference, rhs_reference)


def test_state_quadrature_round_trip():
    s = MeanFieldState(c=1.5 - 2.5j, b1=0.25j, b2=-3.0 + 0.125j)
    y = s.to_quadratures()
    assert y == [1.5, -2.5, 0.0, 0.25, -3.0, 0.125]
    back = MeanFieldState.from_quadratures(y)
    assert back == s
    assert s.photon_number == 1.5 ** 2 + 2.5 ** 2


def test_linear_limit_settles_on_closed_form():
    params = REFERENCE._replace(g0=0.0, coulomb=CoulombSpec.direct(0.0),
                                drive_power=1e-9)
    derived = derive(params)
    eps = eps_for_power(derived, params.drive_power)
    f = relax_to_steady(ORIGIN, derived, DriveSpec(), eps)
    kh = 0.5 * derived.kappa
    expect = eps / complex(kh, derived.delta_c)
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
        rhs = _make_system(derived, drives, eps).rhs
        for x in roots.roots:
            f = steady_fields(x, derived, susc, drives, eps_l=eps)
            s = MeanFieldState(c=f.c_s, b1=f.b_1s, b2=f.b_2s)
            d = rhs(0.0, s.to_quadratures())
            norm = math.sqrt(sum(v * v for v in d))
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
    systems = [(fig2_derived, fig2_cfg.drives, fig2_cfg.params.drive_power)]
    conventions = list(LinewidthConvention)
    for i in range(50):
        params, drives = clean_system(rng, with_tones=i % 2 == 0)
        systems.append((derive(params, drives,
                               conventions[i % len(conventions)]), drives,
                        params.drive_power))
    for derived, drives, power in systems:
        eps = eps_for_power(derived, power)
        rhs = _make_system(derived, drives, eps).rhs
        ref = rhs_reference(derived, drives, eps)
        for y in _quadratures(rng, 200):
            assert (np.array(rhs(0.0, y.tolist())).tobytes()
                    == ref(0.0, y).tobytes()), y


def test_relaxation_unchanged_under_the_numpy_scalar_rhs(monkeypatch):
    """The first three relaxations of acceptance criterion 5 settle on the
    same bits under the fused step as under the stage loop on the
    numpy-scalar form of the RHS."""
    def settle():
        rng = np.random.default_rng(1005)
        out = []
        for _ in range(3):
            _, derived, drives, eps_sq, _ = clean_point(rng)
            out.append(fields_hex(relax_to_steady(
                ORIGIN, derived, drives, eps_l=math.sqrt(eps_sq))))
        return out

    fast = settle()
    monkeypatch.setattr(dynamics, "_make_system",
                        lambda *args: _reference_system(rhs_reference(*args)))
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
    assert [list(row) for row in dynamics._A] == \
        [ref.A[s, :s].tolist() for s in range(1, n)]
    assert not ref.A[:n, :n][np.triu_indices(n)].any()
    assert list(dynamics._B) == ref.B.tolist() == ref.A[n, :n].tolist()
    assert list(dynamics._E3) == ref.E3.tolist()
    assert list(dynamics._E5) == ref.E5.tolist()


def _step_hex(out):
    return [[v.hex() for v in part] for part in out]


_X = tuple(f"x{i}" for i in range(6))

# -0.0 where a component has its sign bit set, c elsewhere.  From a -0.0
# state every stage sum is of -0.0 terms only, and the sign that sum takes
# decides the next stage's value.
_sign_of_zero = dynamics._system_factory(
    _X, ("copysign", "c"), (),
    tuple(f"-0.0 if copysign(1.0, {x}) < 0.0 else c" for x in _X))


def _reference_system(rhs):
    """A system whose step is the stage loop on rhs, followed by the error
    sums the fused step adds inline."""
    def step(h, y, f, rtol, atol):
        y_new, f_new, e5, e3 = dop853_step_reference(rhs, 0.0, h, y, f)
        scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
        return (y_new, f_new, dynamics._scaled_squares(e5, scale),
                dynamics._scaled_squares(e3, scale))

    return dynamics.System(rhs, step)


def test_step_is_bit_identical_to_the_stage_loop(fig2_cfg, fig2_derived):
    """The fused step returns the floats of the running sums over the full
    tableau on its system's rhs, signs of zero included, and the sums of the
    scaled squares of their error estimates: random states, steps and
    tolerances, all-zero states and states with -0.0 entries, on fig2 and
    clean_system systems, each driven and undriven, and on _sign_of_zero."""
    rng = np.random.default_rng(1801)
    systems = [(fig2_derived, fig2_cfg.drives, fig2_cfg.params.drive_power)]
    for i in range(20):
        params, drives = clean_system(rng, with_tones=i % 2 == 0)
        systems.append((derive(params, drives), drives, params.drive_power))
    zeros = [np.zeros(6), np.full(6, -0.0)]
    checked = 0
    for derived, drives, power in systems:
        rate = max(derived.kappa, derived.omega1, derived.omega2,
                   derived.gamma1, derived.gamma2, abs(derived.delta_c))
        eps = eps_for_power(derived, power)
        for system_at in (
                lambda t: _make_system(derived, drives, eps),
                lambda t: _make_system(derived, DriveSpec(), 0.0),
                lambda t: _sign_of_zero(math.copysign, t)):
            for y in zeros + _quadratures(rng, 40):
                y = y.tolist()
                # at most one inverse rate, the nonlinear one included, so
                # no stage overflows and every sum is finite
                h = 10.0 ** rng.uniform(-3.0, 0.0) / (
                    rate + 2.0 * derived.g0 * max(abs(v) for v in y))
                t = float(rng.choice((0.0, 1e-3 * rng.uniform())))
                rtol = 10.0 ** rng.uniform(-13.0, -6.0)
                atol = rtol * 10.0 ** rng.uniform(-2.0, 4.0)
                rhs, step = system_at(t)
                f = rhs(t, y)
                ref = dop853_step_reference(rhs, t, h, y, f)
                assert all(math.isfinite(v) for part in ref for v in part)
                got = step(h, y, f, rtol, atol)
                assert _step_hex(got[:2]) == _step_hex(ref[:2]), (y, t, h)
                fused = _reference_system(rhs).step(h, y, f, rtol, atol)[2:]
                assert all(math.isfinite(v) for v in fused)
                assert ([v.hex() for v in got[2:]]
                        == [v.hex() for v in fused]), (y, t, h, rtol, atol)
                checked += 1
    assert checked == 21 * 3 * 42


def test_scaled_squares_add_left_to_right():
    """The builtin sum compensates from Python 3.12 on; _scaled_squares must
    not, so that it keeps the fused sums' bits on every version."""
    # each 1e-16 square is below half a spacing of 1.0, so adding them one
    # at a time leaves 1.0; a compensated sum gives 1.0 plus two spacings
    values = [1.0] + [1e-8] * 5
    assert math.fsum(v * v for v in values) == 1.0 + 2.0 * 2.0 ** -52
    assert dynamics._scaled_squares(values, [1.0] * 6) == 1.0


def test_relaxation_unchanged_under_the_reference_step(monkeypatch):
    """Ten relaxations of clean draws settle on the same bits whether the
    integrator takes the fused step or the stage loop on the same rhs."""
    def settle():
        rng = np.random.default_rng(1802)
        out = []
        for _ in range(10):
            _, derived, drives, eps_sq, _ = clean_point(rng)
            out.append(fields_hex(relax_to_steady(
                ORIGIN, derived, drives, eps_l=math.sqrt(eps_sq))))
        return out

    fast = settle()
    make = dynamics._make_system
    monkeypatch.setattr(dynamics, "_make_system",
                        lambda *args: _reference_system(make(*args).rhs))
    assert settle() == fast


def _oracle_segments():
    """(system, t_span, y0, rtol, atol): one checkpoint of relax_to_steady
    each.

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
        system = _make_system(derived, drives, eps)
        coeffs = cubic_coefficients(derived, susceptibilities(derived, drives),
                                    eps)
        amp = math.sqrt(max(solve_photon_roots(coeffs).roots[-1], 1.0))
        step = 1.0 / min(derived.kappa, derived.gamma1, derived.gamma2)
        yield (system, (0.0, step), [0.0] * 6, dynamics.RTOL,
               dynamics.RTOL * amp)
        start = (rng.normal(size=6) * amp).tolist()
        yield system, (step, 2.0 * step), start, 1e-12, 1e-12 * amp


def test_solve_ivp_takes_scipys_steps():
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    segments = list(_oracle_segments())
    assert len(segments) >= 100
    for system, span, y0, rtol, atol in segments:
        ref = scipy_solve_ivp(lambda t, y: system.rhs(t, y.tolist()), span,
                              np.array(y0), method="DOP853",
                              rtol=rtol, atol=atol)
        assert ref.success
        got = dynamics.solve_ivp(system, span, y0, rtol, atol)
        assert got.nfev == ref.nfev
        assert got.t == ref.t[-1] == span[1]
        for mine, theirs in zip(got.y, ref.y[:, -1].tolist()):
            assert abs(mine - theirs) <= 1e-9 * max(abs(theirs), 1.0)


def test_solve_ivp_on_a_zero_derivative(fig2_derived):
    """y' = 0 takes the first-step rule's flat branch and a zero error norm
    on every step, and makes scipy's RHS calls; with no drive and no tone a
    relaxation from vacuum stays exactly there."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    zero = dynamics._system_factory(_X, (), (), ("0.0",) * 6)()
    ref = scipy_solve_ivp(lambda t, y: zero.rhs(t, y.tolist()), (0.0, 1.0),
                          np.zeros(6), method="DOP853", rtol=1e-9, atol=1e-9)
    got = dynamics.solve_ivp(zero, (0.0, 1.0), [0.0] * 6, 1e-9, 1e-9)
    assert got.nfev == ref.nfev == 86
    assert got.t == 1.0 and got.y == [0.0] * 6
    f = relax_to_steady(ORIGIN, fig2_derived, DriveSpec(), 0.0)
    assert (f.photon_number, f.c_s, f.b_1s, f.b_2s, f.q_1s, f.q_2s) == \
        (0.0, 0j, 0j, 0j, 0.0, 0.0)
    assert f.effective_detuning == fig2_derived.delta_c


_BLOW_UP = """
import json
import numpy as np
from scipy.integrate import solve_ivp as scipy_solve_ivp
from neoms import dynamics
from neoms.errors import StiffnessError

x = tuple(f"x{i}" for i in range(6))
blow_up = dynamics._system_factory(x, (), (), tuple(f"{v} * {v}" for v in x))()
ref = scipy_solve_ivp(lambda t, y: blow_up.rhs(t, y.tolist()), (0.0, 2.0),
                      np.ones(6), method="DOP853", rtol=1e-9, atol=1e-9)
try:
    dynamics.solve_ivp(blow_up, (0.0, 2.0), [1.0] * 6, 1e-9, 1e-9)
    said = None
except StiffnessError as exc:
    said = [str(exc), exc.diagnostics["t_reached"]]
print(json.dumps([ref.status, ref.message, float(ref.t[-1]), said]))
"""


def test_solve_ivp_fails_where_scipys_step_underflows(subprocess_env):
    """y' = y^2 from 1 blows up at t = 1: both integrators stop there."""
    # in a subprocess with a timeout, since the test has no bound of its
    # own: an integrator that misses the blow-up could step on for minutes
    proc = subprocess.run([sys.executable, "-c", _BLOW_UP],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    status, message, t_stop, said = json.loads(proc.stdout)
    assert status == -1
    assert said is not None
    assert said[0] == f"integration failed: {message}"
    assert math.isclose(said[1], t_stop, rel_tol=1e-12)


_BAD_SPANS = """
import json
from neoms import dynamics
from neoms.errors import ParameterError
nan, inf = float("nan"), float("inf")
x = tuple(f"x{i}" for i in range(6))
identity = dynamics._system_factory(x, (), (), x)()
said = []
for span in ((1.0, 0.0), (0.0, nan), (nan, 1.0), (0.0, inf), (-inf, 0.0)):
    try:
        dynamics.solve_ivp(identity, span, [1.0] * 6, 1e-9, 1e-9)
    except ParameterError as exc:
        said.append([exc.field, str(exc)])
done = dynamics.solve_ivp(identity, (0.0, 1.0), [1.0] * 6, 1e-9, 1e-9)
try:
    dynamics.solve_ivp(identity, (2.0, 3.0), done, 1e-9, 1e-9)
except ParameterError as exc:
    said.append([exc.field, str(exc)])
print(json.dumps(said))
"""


def test_solve_ivp_refuses_a_bad_t_span(subprocess_env):
    # in a subprocess with a timeout: (0, inf) used to integrate without
    # end, and a reversed or NaN span returned the start state unmoved
    proc = subprocess.run([sys.executable, "-c", _BAD_SPANS],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    said = json.loads(proc.stdout)
    assert [field for field, _ in said] == ["t_span"] * 6
    assert [msg for _, msg in said[:5]] == [
        f"t_span: must be finite and not decreasing, got {span}"
        for span in ("(1.0, 0.0)", "(0.0, nan)", "(nan, 1.0)", "(0.0, inf)",
                     "(-inf, 0.0)")]
    assert said[5][1] == ("t_span: must start at the continued segment's "
                          "end, t = 1.0, got (2.0, 3.0)")


def test_continued_segment_makes_no_start_up_call(fig2_cfg, fig2_derived):
    """A segment given the last one's result makes no rhs call, counts
    twelve evaluations per attempted step, and picks up where the last one
    stopped."""
    rhs, fused = _make_system(fig2_derived, fig2_cfg.drives,
                              eps_for_power(fig2_derived, 2e-9))
    calls, steps = [], []

    def counted_rhs(t, y):
        calls.append(t)
        return rhs(t, y)

    def counted_step(h, *args):
        steps.append(h)
        return fused(h, *args)

    counted = dynamics.System(counted_rhs, counted_step)
    step = 1.0 / fig2_derived.kappa
    first = dynamics.solve_ivp(counted, (0.0, step), [0.0] * 6, 1e-9, 1e-7)
    assert len(calls) == 2 and first.nfev == 2 + 12 * len(steps)
    assert first.f == rhs(first.t, first.y)
    assert first.h_next > 0.0
    same = dynamics.solve_ivp(counted, (step, step), first, 1e-9, 1e-7)
    assert same == first._replace(nfev=0)
    del calls[:], steps[:]
    later = dynamics.solve_ivp(counted, (step, 2.0 * step), first,
                               1e-12, 1e-10)
    assert not calls and later.nfev == 12 * len(steps) > 0
    # the first attempt is the step first proposed, clipped to the segment
    assert steps[0] == min(step + first.h_next, 2.0 * step) - step
    assert later.t == 2.0 * step and later.f == rhs(later.t, later.y)


def _counting_solve_ivp(monkeypatch):
    """Count the RHS calls of every solve_ivp segment relax_to_steady runs."""
    seen = []
    inner = dynamics.solve_ivp

    def counted(*args, **kwargs):
        sol = inner(*args, **kwargs)
        seen.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    return seen


def _settle_cases():
    """(start, derived, drives, eps_l): 30 clean_point draws, each from
    vacuum and from 1 % above the middle and upper roots' cavity fields,
    and fig2 from vacuum at 1 and 2 nW."""
    rng = np.random.default_rng(1901)
    for i in range(30):
        _, derived, drives, eps_sq, roots = clean_point(
            rng, with_tones=i % 2 == 0)
        eps = math.sqrt(eps_sq)
        susc = susceptibilities(derived, drives)
        yield ORIGIN, derived, drives, eps
        for x in roots.roots[1:]:
            f = steady_fields(x, derived, susc, drives, eps_l=eps)
            yield (MeanFieldState(c=f.c_s * 1.01, b1=f.b_1s, b2=f.b_2s),
                   derived, drives, eps)
    cfg = get_preset("fig2").config()
    fig2 = derive(cfg.params, cfg.drives)
    for power in (1e-9, 2e-9):
        yield ORIGIN, fig2, cfg.drives, eps_for_power(fig2, power)


def test_continued_relaxation_settles_where_restarts_do(monkeypatch):
    """Relaxing through continued segments lands on the root the
    restart-per-checkpoint loop lands on, within 1e-9, with no more RHS
    calls in its segments."""
    seen = _counting_solve_ivp(monkeypatch)
    cases = list(_settle_cases())
    assert len(cases) == 30 * 3 + 2
    for start, derived, drives, eps in cases:
        y, ref_nfev = relax_restarting_reference(start, derived, drives, eps)
        del seen[:]
        got = relax_to_steady(start, derived, drives, eps_l=eps)
        ref_x = y[0] * y[0] + y[1] * y[1]
        roots = solve_photon_roots(cubic_coefficients(
            derived, susceptibilities(derived, drives), eps)).roots
        nearest = [min(range(len(roots)), key=lambda i: abs(roots[i] - x))
                   for x in (got.photon_number, ref_x)]
        assert nearest[0] == nearest[1]
        assert math.isclose(got.photon_number, ref_x, rel_tol=1e-9)
        assert sum(seen) <= ref_nfev


def test_unsettled_relaxation_reports_its_work(monkeypatch, fig2_cfg,
                                               fig2_derived):
    """On fig2's limit cycle the error names the simulated time reached and
    the RHS calls of all its segments."""
    seen = _counting_solve_ivp(monkeypatch)
    eps = eps_for_power(fig2_derived, 1.2e-8)
    slow = min(fig2_derived.kappa, fig2_derived.gamma1, fig2_derived.gamma2)
    t_max = 12.5 / slow
    with pytest.raises(ConvergenceError) as exc:
        relax_to_steady(ORIGIN, fig2_derived, fig2_cfg.drives, eps_l=eps,
                        t_max=t_max)
    diag = exc.value.diagnostics
    assert str(exc.value) == "did not settle within the time budget"
    assert diag["t_reached"] == diag["t_max"] == t_max
    assert len(seen) == 13
    assert diag["nfev"] == sum(seen) > 0
    assert diag["derivative_norm"] > diag["threshold"]


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


_NON_FINITE = """
import json
from neoms import dynamics
from neoms.dynamics import ORIGIN, MeanFieldState, relax_to_steady
from neoms.errors import ParameterError, StiffnessError
from neoms.model import eps_for_power
from neoms.presets import get_preset
cfg = get_preset("fig2").config()
fig2 = cfg.derive()
eps = eps_for_power(fig2, 2e-9)
nan, inf = float("nan"), float("inf")
said = []
x = tuple(f"x{i}" for i in range(6))
identity = dynamics._system_factory(x, (), (), x)()
for y0, atol in (([nan] * 6, 1e-9), ([inf] * 6, 1e-9), ([0.0] * 6, nan)):
    try:
        dynamics.solve_ivp(identity, (0.0, 1.0), y0, 1e-9, atol)
    except StiffnessError as exc:
        said.append([str(exc), exc.diagnostics["t_reached"]])
for start, eps_l in ((MeanFieldState(complex(nan, 0.0), 0j, 0j), eps),
                     (MeanFieldState(0j, 0j, complex(0.0, -inf)), eps),
                     (ORIGIN, nan), (ORIGIN, inf)):
    try:
        relax_to_steady(start, fig2, cfg.drives, eps_l)
    except ParameterError as exc:
        said.append([exc.field, str(exc)])
print(json.dumps(said))
"""


def test_non_finite_start_or_drive_is_refused(subprocess_env):
    # in a subprocess with a timeout: a NaN or infinite state, or a NaN
    # tolerance (a NaN drive makes one), gave a NaN first step that the
    # step floor never caught, so all but the infinite drive used to
    # integrate without end; that one raised StiffnessError
    proc = subprocess.run([sys.executable, "-c", _NON_FINITE],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    said = json.loads(proc.stdout)
    stiff = ("integration failed: Required step size is less than spacing "
             "between numbers.")
    assert said[:3] == [[stiff, 0.0]] * 3
    assert [field for field, _ in said[3:]] == [
        "initial", "initial", "eps_l", "eps_l"]
    assert said[3][1] == ("initial: must be finite, got MeanFieldState("
                          "c=(nan+0j), b1=0j, b2=0j)")
    assert [msg for _, msg in said[5:]] == [
        "eps_l: must be finite, got nan", "eps_l: must be finite, got inf"]
