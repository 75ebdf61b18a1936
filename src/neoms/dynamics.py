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
                           solve_photon_roots, susceptibilities)


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

# Relaxation settings, described in relax_to_steady.
RTOL = 1e-9
SETTLE_TOL = 1e-10
SETTLED_CHECKPOINTS = 3
ROOT_TOL = 1e-6


def _make_rhs(derived: DerivedParams, drives: DriveSpec, eps_l: float,
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
    el = float(eps_l)

    def rhs(t, y):
        cr, ci, u1, v1, u2, v2 = y.tolist()   # floats: same bits, cheaper
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


def _nearest_root(x: float, roots: tuple[float, ...]) -> tuple[float, float]:
    best = min(roots, key=lambda r: abs(r - x))
    return best, abs(x - best) / max(abs(best), abs(x), 1e-300)


def relax_to_steady(initial: MeanFieldState, derived: DerivedParams,
                    drives: DriveSpec, eps_l: float | None = None,
                    checkpoint: float | None = None,
                    t_max: float | None = None,
                    convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
                    ) -> SteadyStateFields:
    """Integrate until the derivative norm stays below threshold.

    Settled means ||d(state)/dt|| < SETTLE_TOL * max(eps_l, kappa) at
    SETTLED_CHECKPOINTS consecutive checkpoint times.  The bulk of the
    approach runs at tolerance RTOL; once the derivative norm is
    within 1e4 of the threshold the remaining checkpoints run at a much
    tighter tolerance, because the settled residual floor is set by
    integrator noise and the loose stage's floor sits above the threshold.

    The settled photon number must lie within ROOT_TOL (relative) of a
    cubic root for the same drive; the result is the settled state
    re-expressed as SteadyStateFields.  Raises ConvergenceError (carrying
    the last state) when t_max is exhausted, for example when the attractor
    is a limit cycle rather than a fixed point.
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
    strict = SETTLE_TOL * norm_scale
    loose = 1e4 * strict

    # absolute tolerance keyed to the largest root amplitude at this drive
    susc = susceptibilities(derived, drives)
    coeffs = cubic_coefficients(derived, susc, eps_l, convention)
    roots = solve_photon_roots(coeffs)
    amp = math.sqrt(max(roots.roots[-1], 1.0)) if roots.roots else 1.0

    t = initial.t
    y = initial.to_quadratures()
    streak = 0
    fine = False
    while t < initial.t + t_max:
        t_next = min(t + checkpoint, initial.t + t_max)
        rt = 1e-12 if fine else RTOL
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
            last_state=MeanFieldState.from_quadratures(y, t=t),
            diagnostics={"t_max": t_max,
                         "derivative_norm": float(np.linalg.norm(rhs(t, y))),
                         "threshold": strict})

    state = MeanFieldState.from_quadratures(y, t=t)
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
          convention: LinewidthConvention,
          ) -> tuple[tuple[tuple[float, float], ...], MeanFieldState]:
    """Relax at each power in order, starting each step where the last ended."""
    state = initial
    seq: list[tuple[float, float]] = []
    for p in powers:
        eps = eps_for_power(derived, p)
        try:
            fields = relax_to_steady(state, derived, drives, eps,
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
    up, top = _ramp(ps, dwell, derived, drives, ORIGIN, convention)
    down, _ = _ramp(ps[::-1], dwell, derived, drives, top, convention)
    return HysteresisTrace(up=up, down=down, up_jump_powers=jump_powers(up),
                           down_jump_powers=jump_powers(down))
