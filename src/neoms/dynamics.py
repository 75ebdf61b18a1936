"""Mean-field time evolution of the driven cavity and mirror pair.

Integrates the coupled first-moment equations with an adaptive explicit
Runge-Kutta scheme (DOP853).  This module is the time-domain cross-check of
the steady-state algebra: relaxations must land on cubic roots, quasi-static
power ramps must jump at the fold powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .bifurcation import HysteresisTrace, jump_powers
from .errors import (ConsistencyError, ConvergenceError, ParameterError,
                     StiffnessError)
from .model import (DerivedParams, DriveSpec, LinewidthConvention,
                    amplitude_decay, eps_for_power)
from .steady_state import (SteadyStateFields, cubic_coefficients,
                           drive_offset, solve_photon_roots, susceptibilities)


@dataclass(frozen=True)
class MeanFieldState:
    """First moments of cavity and mirror modes at one instant."""

    c: complex
    b1: complex
    b2: complex
    t: float = 0.0

    def to_quadratures(self) -> np.ndarray:
        return np.array([self.c.real, self.c.imag, self.b1.real, self.b1.imag,
                         self.b2.real, self.b2.imag])

    @classmethod
    def from_quadratures(cls, y: np.ndarray, t: float = 0.0) -> "MeanFieldState":
        return cls(c=complex(y[0], y[1]), b1=complex(y[2], y[3]),
                   b2=complex(y[4], y[5]), t=t)

    @property
    def photon_number(self) -> float:
        return abs(self.c) ** 2


ORIGIN = MeanFieldState(0j, 0j, 0j)


@dataclass(frozen=True)
class Trajectory:
    """Accepted integrator steps: strictly increasing times, complex states."""

    times: np.ndarray            # (n,)
    states: np.ndarray           # (n, 3) complex: c, b1, b2
    rtol: float
    atol: float
    nfev: int

    @property
    def final_state(self) -> MeanFieldState:
        c, b1, b2 = self.states[-1]
        return MeanFieldState(c=complex(c), b1=complex(b1), b2=complex(b2),
                              t=float(self.times[-1]))

    def photon_numbers(self) -> np.ndarray:
        return np.abs(self.states[:, 0]) ** 2


def _make_rhs(derived: DerivedParams, drives: DriveSpec, eps_l,
              convention: LinewidthConvention):
    kh = amplitude_decay(derived.kappa, convention)
    dc = derived.delta_c
    g0, gc = derived.g0, derived.gc
    w1, w2 = derived.omega1, derived.omega2
    h1, h2 = 0.5 * derived.gamma1, 0.5 * derived.gamma2
    # the tone phases are static, so each tone is a constant force
    f1r = drives.eps1 * math.cos(drives.phi1)
    f1i = drives.eps1 * math.sin(drives.phi1)
    f2r = drives.eps2 * math.cos(drives.phi2)
    f2i = drives.eps2 * math.sin(drives.phi2)
    eps_fn = eps_l if callable(eps_l) else None
    eps_const = 0.0 if eps_fn else float(eps_l)

    def rhs(t, y):
        cr, ci, u1, v1, u2, v2 = y
        el = eps_fn(t) if eps_fn is not None else eps_const
        det = dc - 2.0 * g0 * u1
        return np.array([
            det * ci - kh * cr + el,
            -det * cr - kh * ci,
            -h1 * u1 + w1 * v1 + gc * v2 + f1r,
            g0 * (cr * cr + ci * ci) - w1 * u1 - h1 * v1 - gc * u2 - f1i,
            -h2 * u2 + w2 * v2 + gc * v1 + f2r,
            -w2 * u2 - h2 * v2 - gc * u1 - f2i,
        ])

    return rhs


def time_derivative(state: MeanFieldState, derived: DerivedParams,
                    drives: DriveSpec, eps_l: float | None = None,
                    convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
                    ) -> MeanFieldState:
    """Instantaneous d(state)/dt, returned in the same container."""
    if eps_l is None:
        eps_l = derived.eps_l
    rhs = _make_rhs(derived, drives, eps_l, convention)
    dy = rhs(state.t, state.to_quadratures())
    return MeanFieldState.from_quadratures(dy, t=state.t)


def integrate(initial: MeanFieldState, derived: DerivedParams,
              drives: DriveSpec, eps_l, t_final: float,
              rtol: float = 1e-9, atol: float | None = None,
              convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
              ) -> Trajectory:
    """Integrate from `initial.t` to `t_final`.

    `eps_l` is a constant amplitude or a callable of time.  Raises
    StiffnessError if the explicit stepper's step size collapses; there is no
    implicit fallback.
    """
    if t_final <= initial.t:
        raise ValueError("t_final must exceed the initial time")
    y0 = initial.to_quadratures()
    if atol is None:
        atol = rtol * max(1.0, float(np.max(np.abs(y0))))
    rhs = _make_rhs(derived, drives, eps_l, convention)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (initial.t, t_final), y0, method="DOP853",
                        rtol=rtol, atol=atol)
    if not sol.success:
        raise StiffnessError(f"integration failed: {sol.message}",
                             {"t_reached": float(sol.t[-1]) if sol.t.size else initial.t,
                              "rtol": rtol, "atol": atol})
    states = np.empty((sol.t.size, 3), dtype=complex)
    states[:, 0] = sol.y[0] + 1j * sol.y[1]
    states[:, 1] = sol.y[2] + 1j * sol.y[3]
    states[:, 2] = sol.y[4] + 1j * sol.y[5]
    return Trajectory(times=sol.t.copy(), states=states, rtol=rtol,
                      atol=atol, nfev=int(sol.nfev))


def _nearest_root(x: float, roots: tuple[float, ...]) -> tuple[float, float]:
    best = min(roots, key=lambda r: abs(r - x))
    rel = abs(x - best) / max(abs(best), abs(x), 1e-300)
    if best == 0.0 and x == 0.0:
        rel = 0.0
    return best, rel


def relax_to_steady(initial: MeanFieldState, derived: DerivedParams,
                    drives: DriveSpec, eps_l: float | None = None,
                    rtol: float = 1e-9,
                    settle_tol: float = 1e-10,
                    required_checkpoints: int = 3,
                    checkpoint: float | None = None,
                    t_max: float | None = None,
                    validate_tol: float = 1e-6,
                    convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
                    ) -> SteadyStateFields:
    """Integrate until the derivative norm stays below threshold.

    Settled means ||d(state)/dt|| < settle_tol * max(eps_l, kappa) at
    `required_checkpoints` consecutive checkpoint times.  The bulk of the
    approach runs at the caller's tolerance; once the derivative norm is
    within 1e4 of the threshold the remaining checkpoints run at a much
    tighter tolerance, because the settled residual floor is set by
    integrator noise and the loose stage's floor sits above the threshold.

    The settled photon number is validated against the cubic roots for the
    same drive; the result is the settled state re-expressed as
    SteadyStateFields.  Raises ConvergenceError (carrying the last state)
    when t_max is exhausted, for example when the attractor is a limit cycle
    rather than a fixed point.
    """
    if eps_l is None:
        eps_l = derived.eps_l
    slow = min(derived.kappa, derived.gamma1, derived.gamma2)
    if checkpoint is None:
        checkpoint = 1.0 / slow
    if t_max is None:
        t_max = 1000.0 / slow
    rhs = _make_rhs(derived, drives, eps_l, convention)
    norm_scale = max(eps_l, derived.kappa)
    strict = settle_tol * norm_scale
    loose = 1e4 * strict
    rtol_fine = min(rtol, 1e-12)

    # absolute tolerance keyed to the largest root amplitude at this drive
    susc = susceptibilities(derived, drives)
    gamma = drive_offset(susc, drives)
    coeffs = cubic_coefficients(derived, susc, gamma, eps_l, convention)
    roots = solve_photon_roots(coeffs)
    amp = math.sqrt(max(roots.roots[-1], 1.0)) if roots.roots else 1.0

    t = initial.t
    y = initial.to_quadratures()
    streak = 0
    fine = False
    while t < initial.t + t_max:
        t_next = min(t + checkpoint, initial.t + t_max)
        rt = rtol_fine if fine else rtol
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(rhs, (t, t_next), y, method="DOP853",
                            rtol=rt, atol=rt * amp)
        if not sol.success:
            raise StiffnessError(f"integration failed: {sol.message}",
                                 {"t_reached": float(sol.t[-1])})
        t, y = float(sol.t[-1]), sol.y[:, -1]
        norm = float(np.linalg.norm(rhs(t, y)))
        if fine and norm < strict:
            streak += 1
            if streak >= required_checkpoints:
                break
        elif not fine and norm < loose:
            fine = True
            streak = 0
        else:
            streak = 0
    else:
        raise ConvergenceError(
            "did not settle within the time budget",
            last_state=MeanFieldState.from_quadratures(y, t=t),
            diagnostics={"t_max": t_max,
                         "derivative_norm": float(np.linalg.norm(rhs(t, y))),
                         "threshold": strict})

    state = MeanFieldState.from_quadratures(y, t=t)
    x = state.photon_number
    if roots.roots:
        root, rel = _nearest_root(x, roots.roots)
        if rel > validate_tol:
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
          drives: DriveSpec, initial: MeanFieldState, rtol: float,
          settle_tol: float, convention: LinewidthConvention,
          ) -> tuple[tuple[tuple[float, float], ...], MeanFieldState]:
    """Relax at each power in order, starting each step where the last ended."""
    state = initial
    seq: list[tuple[float, float]] = []
    for p in powers:
        eps = eps_for_power(derived, p)
        try:
            fields = relax_to_steady(state, derived, drives, eps, rtol=rtol,
                                     settle_tol=settle_tol,
                                     checkpoint=dwell / 4.0,
                                     t_max=400.0 * dwell,
                                     convention=convention)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"ramp step at {p!r} W did not settle; the occupied branch "
                f"may be dynamically unstable at this linewidth",
                last_state=exc.last_state,
                diagnostics={**exc.diagnostics, "power_W": p}) from exc
        state = MeanFieldState(c=fields.c_s, b1=fields.b_1s, b2=fields.b_2s,
                               t=0.0)
        seq.append((p, fields.photon_number))
    return tuple(seq), state


def hysteresis_loop(derived: DerivedParams, drives: DriveSpec,
                    powers: tuple[float, ...], dwell: float | None = None,
                    rtol: float = 1e-9,
                    settle_tol: float = 1e-10,
                    convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
                    ) -> HysteresisTrace:
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
    up, top = _ramp(ps, dwell, derived, drives, ORIGIN, rtol, settle_tol,
                    convention)
    down, _ = _ramp(ps[::-1], dwell, derived, drives, top, rtol, settle_tol,
                    convention)
    return HysteresisTrace(up=up, down=down, up_jump_powers=jump_powers(up),
                           down_jump_powers=jump_powers(down))
