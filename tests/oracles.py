"""Independent numerical oracles used to pin test expectations.

Every routine here deliberately avoids the package's own closed-form paths:
roots come from Cardano's formula in complex arithmetic at hundreds of
bits, not the package's double-precision forms, refined by
extended-precision Newton steps, fold powers from a dense scan with
parabolic refinement, steady fields from a direct complex 2x2 solve of
the zero-derivative conditions, and stability from the Routh array of the
Jacobian's characteristic polynomial.  The cubic and its slope are
evaluated here by Horner (`cubic_value`, `cubic_slope`,
`relative_residual`), not by the package.

Four references keep earlier forms of hot code, verbatim, to pin that a
faster form returns the same floats: `polish_root_reference` is the Newton
polish before it learned to stop at a repeated iterate,
`steady_fields_reference` the field reconstruction before its per-sweep
constants moved into `Susceptibilities`, `rhs_reference` the mean-field
right-hand side when it still did its arithmetic on numpy scalars, and
`dop853_step_reference` the DOP853 step when it looped over the tableau.
A fifth, `relax_restarting_reference`, is the relaxation loop before its
segments continued one another; it pins where a relaxation settles, not
its bits.  A sixth, `power_sweep_reference`, is the sweep when it built
one cubic, one root set and one field object per point and root, before
curves kept their roots as columns.  A seventh,
`stability_columns_reference`, is the classifier when it called eigvals on
every state, before the eigen method read stability off intervals in the
photon number.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from neoms.bifurcation import BranchSolution, CurvePoint
from neoms.dynamics import (_A, _B, _E3, _E5, RTOL, SETTLE_TOL,
                            SETTLED_CHECKPOINTS, _make_system, solve_ivp)
from neoms.errors import ConsistencyError, EigenvalueError, ResidualError
from neoms.model import LinewidthConvention, eps_for_power
from neoms.stability import EIGEN_TOL_KAPPA, Method, jacobians
from neoms.steady_state import (SteadyStateFields, cubic_coefficients,
                                solve_photon_roots, steady_fields,
                                susceptibilities)


def _closed_form_roots(coeffs: list) -> list:
    """Complex roots of a polynomial of degree 1 to 3, coefficients first
    to last, the first nonzero, by the closed forms at mpmath's working
    precision: the quadratic formula, and Cardano's for a cubic."""
    if len(coeffs) == 2:
        return [-coeffs[1] / coeffs[0]]
    if len(coeffs) == 3:
        p, q, r = coeffs
        s = mp.sqrt(mp.mpc(q * q - 4 * p * r))
        t = q + s if abs(q + s) >= abs(q - s) else q - s
        return [-t / (2 * p), -2 * r / t] if t != 0 else [mp.mpf(0)] * 2
    a, b, c, d = coeffs
    d0 = b * b - 3 * a * c
    d1 = 2 * b ** 3 - 9 * a * b * c + 27 * a * a * d
    s = mp.sqrt(mp.mpc(d1 * d1 - 4 * d0 ** 3))
    big = mp.cbrt((d1 + s if abs(d1 + s) >= abs(d1 - s) else d1 - s) / 2)
    if big == 0:        # d0 = d1 = 0: a triple root
        return [-b / (3 * a)] * 3
    turn = mp.mpc(-0.5, mp.sqrt(3) / 2)
    return [-(b + u + d0 / u) / (3 * a)
            for u in (big, big * turn, big * turn * turn)]


def cubic_roots_extended(a: float, b: float, c: float, d: float,
                         dps: int = 50) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d, polished at `dps` digits.

    The closed forms, evaluated with `dps` digits plus three times as many
    bits as the coefficients' binary exponents span, seed
    extended-precision Newton iterations; complex pairs are discarded,
    near-duplicates merged.  The extra bits keep the seeds accurate when
    the terms cancel, as for a small root beside a huge pair when chi^2 is
    near underflow.
    """
    coeffs = [a, b, c, d]
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    if not coeffs or len(coeffs) == 1:
        return []
    exponents = [math.frexp(v)[1] for v in coeffs if v != 0.0]
    spread = max(exponents) - min(exponents)
    with mp.workprec(int(3.33 * dps) + 3 * spread + 64):
        seeds = _closed_form_roots([mp.mpf(v) for v in coeffs])
        real_seeds = [mp.re(z) for z in seeds
                      if abs(mp.im(z)) <= 1e-8 * max(1, abs(z))]
    with mp.workdps(dps):
        am, bm, cm, dm = (mp.mpf(v) for v in (a, b, c, d))

        def f(x):
            return ((am * x + bm) * x + cm) * x + dm

        def df(x):
            return (3 * am * x + 2 * bm) * x + cm

        polished = []
        for s in real_seeds:
            x = mp.mpf(s)
            for _ in range(200):
                fx = f(x)
                dfx = df(x)
                if dfx == 0:
                    break
                step = fx / dfx
                x -= step
                if abs(step) <= abs(x) * mp.mpf(10) ** (-dps + 5):
                    break
            polished.append(x)
        polished.sort()
        merged: list = []
        for x in polished:
            if merged and abs(x - merged[-1]) <= 1e-9 * max(1, abs(x)):
                continue
            merged.append(x)
        return [float(x) for x in merged]


def fold_powers_scan(delta_tilde: float, half_linewidth: float,
                     kerr_slope: float = 1.0,
                     n: int = 4_000_001) -> tuple[float, float]:
    """Fold drive strengths of P(x) = x (kh^2 + (dt - chi x)^2) by dense scan.

    Returns (local maximum, local minimum) refined with a parabola through
    the three bracketing samples.  Requires the folds to exist.
    """
    x_hi = 2.0 * delta_tilde / kerr_slope
    xs = np.linspace(x_hi / n, x_hi, n)
    P = xs * (half_linewidth ** 2 + (delta_tilde - kerr_slope * xs) ** 2)
    dP = np.diff(P)
    s = np.sign(dP)
    turns = np.nonzero(s[1:] * s[:-1] < 0)[0] + 1
    if len(turns) != 2:
        raise AssertionError(f"expected 2 extrema, found {len(turns)}")
    out = []
    for i in turns:
        y0, y1, y2 = P[i - 1], P[i], P[i + 1]
        denom = y0 - 2.0 * y1 + y2
        out.append(y1 - 0.125 * (y0 - y2) ** 2 / denom)
    return out[0], out[1]


def mirror_fields_direct(x: float, derived, drives) -> tuple[complex, complex]:
    """Mirror amplitudes from the zero-derivative 2x2 complex system."""
    d1 = 0.5 * derived.gamma1 + 1j * derived.omega1
    d2 = 0.5 * derived.gamma2 + 1j * derived.omega2
    gc = derived.gc
    A = np.array([[d1, 1j * gc], [1j * gc, d2]])
    rhs = np.array([
        1j * derived.g0 * x + drives.eps1 * np.exp(-1j * drives.phi1),
        drives.eps2 * np.exp(-1j * drives.phi2),
    ])
    b1, b2 = np.linalg.solve(A, rhs)
    return complex(b1), complex(b2)


def cavity_field_direct(x: float, derived, b1: complex, eps_l: float,
                        half_linewidth: float) -> complex:
    """Cavity amplitude from its own zero-derivative condition."""
    det = derived.delta_c - 2.0 * derived.g0 * b1.real
    return eps_l / (half_linewidth + 1j * det)


def bistable_cubic_direct(derived, drives, eps_l: float,
                          half_linewidth: float) -> tuple[float, float, float, float]:
    """Cubic coefficients rebuilt from scratch for cross-checking.

    Uses only the mirror roots and the drive tones, no package
    susceptibility code.
    """
    d1 = 0.5 * derived.gamma1 + 1j * derived.omega1
    d2 = 0.5 * derived.gamma2 + 1j * derived.omega2
    gc, g0 = derived.gc, derived.g0
    D = d1 * d2 + gc * gc
    beta1 = 1j * g0 * d2 / D
    beta2 = -1j * gc / D
    beta3 = d2 / D
    alpha1 = 2.0 * beta1.real
    alpha2 = 2.0 * (beta2 * np.exp(-1j * drives.phi2)).real
    alpha3 = 2.0 * (beta3 * np.exp(-1j * drives.phi1)).real
    gamma = alpha2 * drives.eps2 + alpha3 * drives.eps1
    chi = g0 * alpha1
    dt = derived.delta_c - g0 * gamma
    return (chi * chi, -2.0 * chi * dt,
            half_linewidth ** 2 + dt * dt, -eps_l * eps_l)


def routh_hurwitz_stable(jac: np.ndarray, rel_tol: float = 1e-12) -> bool:
    """Stability from the characteristic polynomial, without eigenvalues.

    Builds the Routh array of det(sI - J) and checks the first column for
    sign changes.  Raises EigenvalueError on a degenerate (near-zero) pivot,
    where the criterion is inconclusive.
    """
    # the polynomial coefficients carry mixed powers of rate; normalizing
    # the matrix makes them comparable so the pivot test is meaningful
    rate = float(np.max(np.abs(jac)))
    if rate == 0.0:
        raise EigenvalueError("zero Jacobian", {"jacobian": jac})
    coeffs = np.poly(jac / rate)     # leading coefficient 1
    n = len(coeffs)
    scale = float(np.max(np.abs(coeffs)))
    rows = [coeffs[0::2].astype(float), coeffs[1::2].astype(float)]
    width = len(rows[0])
    rows[1] = np.pad(rows[1], (0, width - len(rows[1])))
    first_col = [rows[0][0], rows[1][0]]
    for _ in range(n - 2):
        top, bot = rows[-2], rows[-1]
        if abs(bot[0]) < rel_tol * scale:
            raise EigenvalueError("degenerate Routh pivot",
                                  {"pivot": float(bot[0]), "scale": scale})
        nxt = np.zeros(width)
        for j in range(width - 1):
            nxt[j] = (bot[0] * top[j + 1] - top[0] * bot[j + 1]) / bot[0]
        rows.append(nxt)
        first_col.append(nxt[0])
        scale = max(scale, float(np.max(np.abs(nxt))))
    return all(v > 0.0 for v in first_col)


def math_isclose_rel(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def cubic_value(coeffs, x: float) -> float:
    """a1 x^3 + a2 x^2 + a3 x + a4 of a CubicCoefficients, by Horner."""
    return ((coeffs.a1 * x + coeffs.a2) * x + coeffs.a3) * x + coeffs.a4


def cubic_slope(coeffs, x: float) -> float:
    """The derivative 3 a1 x^2 + 2 a2 x + a3, by Horner."""
    return (3.0 * coeffs.a1 * x + 2.0 * coeffs.a2) * x + coeffs.a3


def relative_residual(coeffs, x: float) -> float:
    """|cubic(x)| / max(|a4|, 1), the quantity the residual contract bounds."""
    return abs(cubic_value(coeffs, x)) / max(abs(coeffs.a4), 1.0)


def polish_root_reference(coeffs, x: float) -> float:
    """Newton-polish a root for up to 60 steps, without the cycle exit."""
    best_x, best_f = x, abs(cubic_value(coeffs, x))
    scale = max(abs(x), 1.0)
    for _ in range(60):
        f = cubic_value(coeffs, x)
        fp = cubic_slope(coeffs, x)
        if fp == 0.0:
            break
        step = f / fp
        if abs(step) > 0.5 * scale:   # diverging; keep the best seen
            break
        x -= step
        af = abs(cubic_value(coeffs, x))
        if af < best_f:
            best_x, best_f = x, af
        # relative to x itself: tiny roots need steps far below 1 ulp of 1.0
        if abs(step) <= 1e-16 * abs(x):
            break
    return best_x


def _kh(derived) -> float:
    """kh from kappa and the convention, without reading `derived.kh`."""
    if derived.convention is LinewidthConvention.FULL_KAPPA:
        return derived.kappa
    return 0.5 * derived.kappa


def tone_responses(derived) -> tuple[complex, complex]:
    """(beta2, beta3) = (-i gc / D, d2 / D), D = d1 d2 + gc^2: how the tones
    on mirrors 2 and 1 move b_1s, in `susceptibilities`' operation order."""
    d1 = complex(0.5 * derived.gamma1, derived.omega1)
    d2 = complex(0.5 * derived.gamma2, derived.omega2)
    den = d1 * d2 + derived.gc * derived.gc
    return -1j * derived.gc / den, d2 / den


def steady_fields_reference(x, derived, susc, drives, eps_l):
    """`steady_fields` recomputing its drive terms on every call."""
    kh = _kh(derived)
    beta2, beta3 = tone_responses(derived)
    d2 = complex(0.5 * derived.gamma2, derived.omega2)
    phase1, phase2 = cmath.exp(-1j * drives.phi1), cmath.exp(-1j * drives.phi2)
    tone1, tone2 = drives.eps1 * phase1, drives.eps2 * phase2

    b1 = susc.beta1 * x + beta3 * tone1 + beta2 * tone2
    b2 = (-1j * derived.gc * b1 + tone2) / d2

    # Gamma from the betas, never from the `susc.offset` under test
    gamma = (2.0 * (beta2 * phase2).real * drives.eps2
             + 2.0 * (beta3 * phase1).real * drives.eps1)
    det = derived.delta_c - derived.g0 * (susc.alpha1 * x + gamma)
    c_s = eps_l / complex(kh, det)

    xc = abs(c_s) ** 2
    if x == 0.0:
        if xc != 0.0:
            raise ConsistencyError("nonzero field at zero photon number",
                                   {"photon_number": x, "field_sq": xc})
    elif abs(xc - x) > 1e-9 * x:
        raise ConsistencyError(
            "cavity field inconsistent with photon-number root",
            {"photon_number": x, "field_sq": xc,
             "relative": abs(xc - x) / x})

    q1 = derived.x_zpf1 * 2.0 * b1.real
    q2 = derived.x_zpf2 * 2.0 * b2.real
    return SteadyStateFields(photon_number=x, c_s=c_s, b_1s=b1, b_2s=b2,
                             q_1s=q1, q_2s=q2, effective_detuning=det)


def rhs_reference(derived, drives, eps_l):
    """The mean-field right-hand side with its arithmetic on numpy scalars."""
    kh = _kh(derived)
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
        cr, ci, u1, v1, u2, v2 = y
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


def fields_hex(f: SteadyStateFields) -> tuple[str, ...]:
    """Every float of `f` as float.hex, so equality is bit for bit."""
    return tuple(v.hex() for v in (
        f.photon_number, f.c_s.real, f.c_s.imag, f.b_1s.real, f.b_1s.imag,
        f.b_2s.real, f.b_2s.imag, f.q_1s, f.q_2s, f.effective_detuning))


def _combine(coeffs, stages):
    """sum_j coeffs[j] * stages[j] for a list of six-component stages."""
    s0 = s1 = s2 = s3 = s4 = s5 = 0.0
    for a, (k0, k1, k2, k3, k4, k5) in zip(coeffs, stages):
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
        s3 += a * k3
        s4 += a * k4
        s5 += a * k5
    return s0, s1, s2, s3, s4, s5


def dop853_step_reference(fun, t, h, y, f):
    """A system's fused DOP853 step (`dynamics._system_factory`) as a
    running sum over every tableau entry, zeros included, calling fun(t, ...)
    at every stage: a system's equations are autonomous, so no stage reads
    its own time."""
    stages = [f]
    for a in _A:
        stages.append(fun(t, [v + d * h for v, d in
                              zip(y, _combine(a, stages))]))
    y_new = [v + h * d for v, d in zip(y, _combine(_B, stages))]
    f_new = fun(t, y_new)
    stages.append(f_new)
    return y_new, f_new, _combine(_E5, stages), _combine(_E3, stages)


def relax_restarting_reference(initial, derived, drives, eps_l):
    """`dynamics.relax_to_steady` at its default checkpoint and t_max, as it
    was when every checkpoint started `solve_ivp` afresh from the last state
    and the settle test called the RHS.  Returns the settled quadratures and
    the RHS calls of all segments, the settle tests' calls not counted."""
    slow = min(derived.kappa, derived.gamma1, derived.gamma2)
    checkpoint, t_max = 1.0 / slow, 1000.0 / slow
    system = _make_system(derived, drives, eps_l)
    strict = SETTLE_TOL * max(eps_l, derived.kappa)
    roots = solve_photon_roots(cubic_coefficients(
        derived, susceptibilities(derived, drives), eps_l)).roots
    amp = math.sqrt(max(roots[-1], 1.0)) if roots else 1.0
    y = initial.to_quadratures()
    t, nfev, streak, fine = 0.0, 0, 0, False
    while t < t_max:
        rt = 1e-12 if fine else RTOL
        sol = solve_ivp(system, (t, min(t + checkpoint, t_max)), y, rt,
                        rt * amp)
        t, y = sol.t, sol.y
        nfev += sol.nfev
        norm = math.sqrt(sum(d * d for d in system.rhs(t, y)))
        if fine and norm < strict:
            streak += 1
            if streak >= SETTLED_CHECKPOINTS:
                return y, nfev
        elif not fine and norm < 1e4 * strict:
            fine, streak = True, 0
        else:
            streak = 0
    raise AssertionError(f"did not settle within t_max = {t_max!r}")


def power_sweep_reference(derived, drives, powers, method=Method.EIGEN):
    """`bifurcation.power_sweep` as a per-point loop over objects:
    cubic_coefficients, solve_photon_roots and steady_fields for each
    point, then one `stability_columns_reference` call over every root's
    fields.  Returns the CurvePoints and the list of every root's margin,
    in grid order."""
    susc = susceptibilities(derived, drives)
    solved = []     # (power, eps, error, fields per root) in grid order
    every, rows = [], []    # fields of every root; each point's range
    for p in powers:
        p = float(p)
        eps = eps_for_power(derived, p)
        coeffs = cubic_coefficients(derived, susc, eps)
        try:
            roots = solve_photon_roots(coeffs)
        except ResidualError as exc:
            solved.append((p, eps, str(exc), ()))
            continue
        fields = [steady_fields(x, derived, susc, drives, eps_l=eps)
                  for x in roots.roots]
        solved.append((p, eps, None, fields))
        rows.append(range(len(every), len(every) + len(fields)))
        every += fields
    stable, margin = stability_columns_reference(
        [f.effective_detuning for f in every], [f.c_s for f in every],
        rows, derived, method)
    classified = iter(stable)
    return tuple(CurvePoint(
        power=p, eps_sq=eps * eps, error=error,
        branches=tuple(BranchSolution(f.photon_number, f, next(classified))
                       for f in fields))
        for p, eps, error, fields in solved), margin


def stability_columns_reference(detuning, c_s, branch_rows, derived,
                                method=Method.EIGEN):
    """The lists (stable, margin) of n states given as columns, as the
    classifier gave them with eigvals on every state.  The slope rule marks
    the middle state of each three-state range in `branch_rows` unstable,
    with nan margins; the eigen method makes one eigvals call and gives
    the margin -max Re(eig), stable when that exceeds
    EIGEN_TOL_KAPPA * kappa."""
    if method == Method.SLOPE_RULE:
        stable = [True] * len(detuning)
        for r in branch_rows:
            if len(r) == 3:
                stable[r[1]] = False
        return stable, [math.nan] * len(stable)
    top = np.linalg.eigvals(jacobians(detuning, c_s, derived)).real.max(
        axis=1)
    tol = EIGEN_TOL_KAPPA * derived.kappa
    return (top < -tol).tolist(), (-top).tolist()
