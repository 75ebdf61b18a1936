"""Mean-field time evolution of the driven cavity and mirror pair.

Integrates the coupled first-moment equations with an adaptive explicit
Runge-Kutta scheme (DOP853), stepped on six Python floats.  This module is
the time-domain cross-check of the steady-state algebra: relaxations must land
on cubic roots, quasi-static power ramps must jump at the fold powers.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .bifurcation import HysteresisTrace, jump_powers
from .errors import (ConsistencyError, ConvergenceError, ParameterError,
                     StiffnessError)
from .model import DerivedParams, DriveSpec, eps_for_power
from .steady_state import (SteadyStateFields, cubic_coefficients,
                           solve_photon_roots, susceptibilities)


class MeanFieldState(NamedTuple):
    """First moments of cavity and mirror modes at one instant."""

    c: complex
    b1: complex
    b2: complex

    def to_quadratures(self) -> list[float]:
        return [self.c.real, self.c.imag, self.b1.real, self.b1.imag,
                self.b2.real, self.b2.imag]

    @classmethod
    def from_quadratures(cls, y) -> "MeanFieldState":
        return cls(c=complex(y[0], y[1]), b1=complex(y[2], y[3]),
                   b2=complex(y[4], y[5]))

    @property
    def photon_number(self) -> float:
        return abs(self.c) ** 2


ORIGIN = MeanFieldState(0j, 0j, 0j)

# Relaxation settings, described in relax_to_steady.
RTOL = 1e-9
SETTLE_TOL = 1e-10
SETTLED_CHECKPOINTS = 3
ROOT_TOL = 1e-6

# The DOP853 tableau of Hairer, Norsett & Wanner, "Solving Ordinary
# Differential Equations I" (2nd ed., 1993), sections II.5 and II.10, with the
# digits of scipy.integrate's dop853_coefficients.py.  _A[s - 1] holds the
# coefficients of stage s on stages 0 .. s-1, zeros included; _B gives the
# 8th-order solution, and the 5th- and 3rd-order error estimates use _E5 and
# _E3 on the twelve stages plus the derivative at the step's end.
_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2,),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2,),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1,),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1,),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2,),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1,),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2,),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022,),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1,),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0,
)
_E3 = tuple(b - d for b, d in zip(_B + (0.0,), (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1, 0.0)))


class System(NamedTuple):
    """y' = F(y) on six floats, built by _system_factory: rhs(t, y) returns
    F(y) as a tuple, whatever t, and step is the fused DOP853 step."""

    rhs: Callable[[float, list[float]], tuple[float, ...]]
    step: Callable[..., tuple]


def _system_factory(state, constants, lets, exprs):
    """Compile `factory(*constants) -> System` for y' = exprs.

    The arguments are Python source: `state` names the six components,
    `constants` the values a system binds, and `lets` assignments that the
    six derivatives `exprs` share; none may reuse a name of rhs or step
    (t, y*, k*_*, s*, h, f, rtol, atol).  step(h, y, f, rtol, atol) -> (y_new,
    f_new, err5, err3) is one DOP853 step of size h from y with derivative
    f: the 8th-order state, its derivative, and the sums of squares of the
    5th- and 3rd-order error estimates, each component divided by its scale
    atol + max(|y|, |y_new|) * rtol.  Its twelve derivatives run the lets
    and exprs inline on local floats: no call, no container, no stage time.

    The operation order keeps the bits of rhs and of a running sum over the
    full tableau (dop853_step_reference in tests/oracles.py): a stage's
    state is y + (sum) * h and y_new is y + h * (sum); each sum starts at
    0.0 and adds its terms in stage order, leaving out zero coefficients,
    which moves no bit of a finite sum, since a sum that starts at +0.0 can
    only become -0.0 when every term is -0.0; the lets and exprs run as
    written, as in rhs; and the scaled squares add left to right, as
    _scaled_squares adds them.
    """
    names = ", ".join(state)

    def combine(coeffs, i):
        return "0.0" + "".join(f" + {a!r} * k{j}_{i}"
                               for j, a in enumerate(coeffs) if a != 0.0)

    def squares(coeffs):
        return " + ".join(f"(({combine(coeffs, i)}) / s{i}) ** 2"
                          for i in range(6))

    step = [", ".join(f"y{i}" for i in range(6)) + " = y",
            ", ".join(f"k0_{i}" for i in range(6)) + " = f"]
    for s, a in enumerate(_A + (_B,), start=1):
        step += [f"{x} = y{i} + ({combine(a, i)}) * h" if s <= len(_A) else
                 f"{x} = y{i} + h * ({combine(a, i)})"
                 for i, x in enumerate(state)]
        step += [*lets, *(f"k{s}_{i} = {e}" for i, e in enumerate(exprs))]
    step += [f"s{i} = atol + max(abs(y{i}), abs({x})) * rtol"
             for i, x in enumerate(state)]
    f_new = ", ".join(f"k{s}_{i}" for i in range(6))
    step.append(f"return [{names}], ({f_new}), {squares(_E5)}, "
                f"{squares(_E3)}")
    source = "\n".join([f"def factory({', '.join(constants)}):",
                        "    def rhs(t, y):",
                        f"        {names} = y",
                        *(f"        {line}" for line in lets),
                        f"        return ({', '.join(exprs)},)",
                        "    def step(h, y, f, rtol, atol):",
                        *(f"        {line}" for line in step),
                        "    return System(rhs, step)\n"])
    namespace = {"System": System}
    exec(compile(source, "<dop853 system>", "exec"), namespace)
    return namespace["factory"]


# Step-size control.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0


class IvpResult(NamedTuple):
    """End of an integration segment: its time t, its state y, the nfev RHS
    evaluations it took, the derivative f = rhs(t, y), and h_next, the step
    size the controller proposed next (None when no step was taken).  Passed as
    the start of the next segment, it continues the integration."""

    t: float
    y: list[float]
    nfev: int
    f: tuple[float, ...]
    h_next: float | None


def _scaled_squares(values, scale) -> float:
    # added left to right, as a system's step adds its error terms; the
    # builtin sum compensates float additions from Python 3.12 on
    total = 0.0
    for v, s in zip(values, scale):
        total += (v / s) ** 2
    return total


def _rms(values, scale) -> float:
    return math.sqrt(_scaled_squares(values, scale) / len(scale))


def _initial_step(rhs, t, y, f, interval, rtol, atol) -> float:
    """First step size by Hairer, Norsett & Wanner's rule (section II.4)."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms(y, scale)
    d1 = _rms(f, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t + h0, [v + h0 * dv for v, dv in zip(y, f)])
    d2 = _rms([b - a for a, b in zip(f, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval)


def solve_ivp(system: System, t_span: tuple[float, float], y0, rtol: float,
              atol: float) -> IvpResult:
    """Integrate y' = system.rhs(t, y) for six floats forward over t_span.

    y0 is six floats, or the IvpResult of a segment that ended at
    t_span[0].  From six floats the integration starts fresh: it calls rhs
    once at the start and once more to choose the first step, as scipy's
    DOP853 does, and takes scipy's steps.  From a result it continues with
    that result's derivative and proposed step, and calls rhs for neither;
    if the tolerances tightened, the controller rejects and shrinks the
    step by itself.  Each attempted step is one call of system.step, which
    evaluates the RHS twelve times inline and sums the scaled squares of
    its error estimates.  The last step is clipped to end on t_span[1].

    Raises ParameterError (a ValueError) unless both ends of t_span are
    finite and t_span[1] >= t_span[0], and StiffnessError when the step the
    error control asks for falls below ten float spacings of t or is NaN,
    as a non-finite state or tolerance makes it.
    """
    # The first-step rule, error norm, step controller and step floor are
    # those of scipy.integrate's DOP853, so a fresh start takes scipy's
    # steps and counts scipy's RHS calls; tests/test_dynamics.py checks both.
    rhs, step = system
    t, t_end = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t) and math.isfinite(t_end) and t_end >= t):
        raise ParameterError(
            "t_span", f"must be finite and not decreasing, got {t_span!r}")
    if isinstance(y0, IvpResult):
        if y0.t != t:
            raise ParameterError(
                "t_span", "must start at the continued segment's end, "
                          f"t = {y0.t!r}, got {t_span!r}")
        y, f, h_abs, nfev = y0.y, y0.f, y0.h_next, 0
    else:
        y = [float(v) for v in y0]
        f = rhs(t, y)
        h_abs, nfev = None, 1
    if t == t_end:
        return IvpResult(t, y, nfev, f, h_abs)
    if h_abs is None:
        h_abs = _initial_step(rhs, t, y, f, t_end - t, rtol, atol)
        nfev += 1
    while t < t_end:
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StiffnessError(
                    "integration failed: Required step size is less than "
                    "spacing between numbers.", {"t_reached": t})
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err5, err3 = step(h, y, f, rtol, atol)
            nfev += 12
            # the 5th-order error estimate, damped where the 3rd-order one
            # is larger (Hairer, Norsett & Wanner, section II.10)
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3)
                                                      * 6)
            if error_norm < 1.0:
                factor = (_MAX_FACTOR if error_norm == 0.0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return IvpResult(t, y, nfev, f, h_abs)


# The mean-field equations in the quadratures c = cr + i ci and b_k = u_k +
# i v_k, written once: the rhs and the fused step of every system are
# generated from these lines, and _make_system binds their constants.
_mean_field = _system_factory(
    "cr ci u1 v1 u2 v2".split(),
    "kh dc g0 gc w1 w2 h1 h2 f1r f1i f2r f2i el".split(),
    ("det = dc - 2.0 * g0 * u1",),
    ("det * ci - kh * cr + el",
     "-det * cr - kh * ci",
     "-h1 * u1 + w1 * v1 + gc * v2 + f1r",
     "g0 * (cr * cr + ci * ci) - w1 * u1 - h1 * v1 - gc * u2 - f1i",
     "-h2 * u2 + w2 * v2 + gc * v1 + f2r",
     "-w2 * u2 - h2 * v2 - gc * u1 - f2i"))


def _make_system(derived: DerivedParams, drives: DriveSpec,
                 eps_l: float) -> System:
    # the tone phases are static, so each tone is a constant force
    return _mean_field(
        kh=derived.kh, dc=derived.delta_c, g0=derived.g0, gc=derived.gc,
        w1=derived.omega1, w2=derived.omega2, h1=0.5 * derived.gamma1,
        h2=0.5 * derived.gamma2, f1r=drives.eps1 * math.cos(drives.phi1),
        f1i=drives.eps1 * math.sin(drives.phi1),
        f2r=drives.eps2 * math.cos(drives.phi2),
        f2i=drives.eps2 * math.sin(drives.phi2), el=float(eps_l))


def _nearest_root(x: float, roots: tuple[float, ...]) -> tuple[float, float]:
    best = min(roots, key=lambda r: abs(r - x))
    return best, abs(x - best) / max(abs(best), abs(x), 1e-300)


def relax_to_steady(initial: MeanFieldState, derived: DerivedParams,
                    drives: DriveSpec, eps_l: float,
                    checkpoint: float | None = None,
                    t_max: float | None = None) -> SteadyStateFields:
    """Integrate at drive amplitude eps_l until the derivative norm stays
    below threshold.

    Settled means ||d(state)/dt|| < SETTLE_TOL * max(eps_l, kappa) at
    SETTLED_CHECKPOINTS consecutive checkpoint times.  The bulk of the
    approach runs at tolerance RTOL; once the derivative norm is
    within 1e4 of the threshold the remaining checkpoints run at a much
    tighter tolerance, because the settled residual floor is set by
    integrator noise and the loose stage's floor sits above the threshold.

    The settled photon number must lie within ROOT_TOL (relative) of a
    cubic root for the same drive; the result is the settled state
    re-expressed as SteadyStateFields.  Raises ConvergenceError when t_max
    is exhausted, for example when the attractor is a limit cycle rather
    than a fixed point; it carries the last state, and its diagnostics
    give t_max, the simulated time reached (t_reached), the RHS calls of
    all segments (nfev), the last derivative norm and the threshold.
    Raises ParameterError (a ValueError) unless checkpoint and t_max are
    finite and positive and eps_l and every quadrature of initial are
    finite.
    """
    slow = min(derived.kappa, derived.gamma1, derived.gamma2)
    if checkpoint is None:
        checkpoint = 1.0 / slow
    if t_max is None:
        t_max = 1000.0 / slow
    for name, value in (("checkpoint", checkpoint), ("t_max", t_max)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(name,
                                 f"must be finite and > 0, got {value!r}")
    if not math.isfinite(eps_l):
        raise ParameterError("eps_l", f"must be finite, got {eps_l!r}")
    y = initial.to_quadratures()
    if not all(math.isfinite(v) for v in y):
        raise ParameterError("initial", f"must be finite, got {initial!r}")
    system = _make_system(derived, drives, eps_l)
    norm_scale = max(eps_l, derived.kappa)
    strict = SETTLE_TOL * norm_scale
    loose = 1e4 * strict

    # absolute tolerance keyed to the largest root amplitude at this drive
    susc = susceptibilities(derived, drives)
    coeffs = cubic_coefficients(derived, susc, eps_l)
    roots = solve_photon_roots(coeffs)
    amp = math.sqrt(max(roots.roots[-1], 1.0)) if roots.roots else 1.0

    # The equations are autonomous, so a state carries no clock and every
    # relaxation starts at t = 0.  Each segment continues the last one,
    # across the switch to the tight tolerance too, and the derivative it
    # carries at its end is the one the settle test reads.
    t = 0.0
    sol = y
    nfev = 0
    streak = 0
    fine = False
    while t < t_max:
        t_next = min(t + checkpoint, t_max)
        rt = 1e-12 if fine else RTOL
        sol = solve_ivp(system, (t, t_next), sol, rtol=rt, atol=rt * amp)
        t = sol.t
        nfev += sol.nfev
        norm = math.sqrt(sum(d * d for d in sol.f))
        if fine and norm < strict:
            streak += 1
            if streak >= SETTLED_CHECKPOINTS:
                break
        elif not fine and norm < loose:
            fine = True
            streak = 0
        else:
            streak = 0
    else:
        raise ConvergenceError(
            "did not settle within the time budget",
            last_state=MeanFieldState.from_quadratures(sol.y),
            diagnostics={"t_max": t_max, "t_reached": t, "nfev": nfev,
                         "derivative_norm": norm, "threshold": strict})

    state = MeanFieldState.from_quadratures(sol.y)
    x = state.photon_number
    if roots.roots:
        root, rel = _nearest_root(x, roots.roots)
        if rel > ROOT_TOL:
            raise ConsistencyError(
                "settled photon number matches no cubic root",
                {"settled": x, "nearest_root": root, "relative": rel})
    det = derived.delta_c - 2.0 * derived.g0 * state.b1.real
    return SteadyStateFields(
        photon_number=x, c_s=state.c, b_1s=state.b1, b_2s=state.b2,
        q_1s=derived.x_zpf1 * 2.0 * state.b1.real,
        q_2s=derived.x_zpf2 * 2.0 * state.b2.real,
        effective_detuning=det)


def _ramp(powers: tuple[float, ...], dwell: float, derived: DerivedParams,
          drives: DriveSpec, initial: MeanFieldState,
          ) -> tuple[tuple[tuple[float, float], ...], MeanFieldState]:
    """Relax at each power in order, starting each step where the last ended."""
    state = initial
    seq: list[tuple[float, float]] = []
    for p in powers:
        eps = eps_for_power(derived, p)
        try:
            fields = relax_to_steady(state, derived, drives, eps,
                                     checkpoint=dwell / 4.0,
                                     t_max=400.0 * dwell)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"ramp step at {p!r} W did not settle; the occupied branch "
                f"may be dynamically unstable at this linewidth",
                last_state=exc.last_state,
                diagnostics={**exc.diagnostics, "power_W": p}) from exc
        state = MeanFieldState(c=fields.c_s, b1=fields.b_1s, b2=fields.b_2s)
        seq.append((p, fields.photon_number))
    return tuple(seq), state


def hysteresis_loop(derived: DerivedParams, drives: DriveSpec,
                    powers: tuple[float, ...],
                    dwell: float | None = None) -> HysteresisTrace:
    """Full quasi-static loop: ramp up, then back down from the settled top.

    Each power is held for at least `dwell` seconds, by default ten times
    the slowest decay time.  Branch jumps are found as in the algebraic loop
    (see jump_powers in the bifurcation module).  Raises ParameterError (a
    ValueError) unless there are at least two powers, none repeated, and
    dwell is finite and positive.
    """
    ps = tuple(sorted(float(p) for p in powers))
    if len(ps) < 2 or not all(a < b for a, b in zip(ps, ps[1:])):
        raise ParameterError("powers", "a ramp needs at least two powers, "
                                       "none repeated")
    if dwell is None:
        dwell = 10.0 / min(derived.kappa, derived.gamma1, derived.gamma2)
    if not (math.isfinite(dwell) and dwell > 0.0):
        raise ParameterError("dwell", f"must be finite and > 0, got {dwell!r}")
    up, top = _ramp(ps, dwell, derived, drives, ORIGIN)
    down, _ = _ramp(ps[::-1], dwell, derived, drives, top)
    return HysteresisTrace(up=up, down=down, up_jump_powers=jump_powers(up),
                           down_jump_powers=jump_powers(down))
