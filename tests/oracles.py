"""Independent numerical oracles used to pin test expectations.

Every routine here deliberately avoids the package's own closed-form paths:
roots come from a double-precision companion matrix refined by
extended-precision Newton steps, fold powers from a dense scan with
parabolic refinement, steady fields from a direct complex 2x2 solve of
the zero-derivative conditions, and stability from the Routh array of the
Jacobian's characteristic polynomial.

Three references keep earlier forms of hot code, verbatim, to pin that a
faster form returns the same floats: `polish_root_reference` is the Newton
polish before it learned to stop at a repeated iterate,
`steady_fields_reference` the field reconstruction before its per-sweep
constants moved into `Susceptibilities`, and `rhs_reference` the mean-field
right-hand side when it still did its arithmetic on numpy scalars.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from neoms.errors import ConsistencyError, EigenvalueError
from neoms.model import LinewidthConvention
from neoms.steady_state import SteadyStateFields, cubic_slope, cubic_value


def cubic_roots_extended(a: float, b: float, c: float, d: float,
                         dps: int = 50) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d, polished at `dps` digits.

    Companion-matrix eigenvalues (np.roots) seed extended-precision Newton
    iterations; complex pairs are discarded, near-duplicates merged.
    """
    coeffs = [a, b, c, d]
    while coeffs and coeffs[0] == 0.0:
        coeffs = coeffs[1:]
    if not coeffs or len(coeffs) == 1:
        return []
    seeds = np.roots(coeffs)
    real_seeds = [z.real for z in seeds
                  if abs(z.imag) <= 1e-8 * max(1.0, abs(z))]
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


def steady_fields_reference(x, derived, susc, drives, eps_l=None):
    """`steady_fields` recomputing its drive terms on every call."""
    if eps_l is None:
        eps_l = derived.eps_l
    kh = _kh(derived)
    d2 = complex(0.5 * derived.gamma2, derived.omega2)
    phase1, phase2 = cmath.exp(-1j * drives.phi1), cmath.exp(-1j * drives.phi2)
    tone1, tone2 = drives.eps1 * phase1, drives.eps2 * phase2

    b1 = susc.beta1 * x + susc.beta3 * tone1 + susc.beta2 * tone2
    b2 = (-1j * derived.gc * b1 + tone2) / d2

    # Gamma from the betas, never from the `susc.offset` under test
    gamma = (2.0 * (susc.beta2 * phase2).real * drives.eps2
             + 2.0 * (susc.beta3 * phase1).real * drives.eps1)
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
