"""Linear stability of steady states via the quadrature Jacobian.

A state is stable when every eigenvalue of the Jacobian in (Re c, Im c,
Re b1, Im b1, Re b2, Im b2) has real part below -EIGEN_TOL_KAPPA * kappa.
The eigen method reads that off intervals in the photon number x, whose
bounds come from exact signs; eigvals runs only for the margins.  The slope
rule (middle root of three is unstable) is blind to the dynamical (Hopf)
instabilities of the upper branch at unresolved-sideband linewidths.
"""

from __future__ import annotations

import math
from bisect import bisect
from enum import Enum

from .errors import EigenvalueError
from .model import DerivedParams
from .steady_state import CubicCoefficients


class Method(str, Enum):
    EIGEN = "eigen"
    SLOPE_RULE = "slope-rule"


#: classification threshold on max Re(eigenvalue), in units of kappa
EIGEN_TOL_KAPPA = 1e-9


def jacobians(detuning, c_s, derived: DerivedParams):
    """(n, 6, 6) real Jacobians at n steady operating points, given by
    their effective detunings and cavity fields."""
    import numpy as np

    kh = derived.kh
    g0, gc = derived.g0, derived.gc
    w1, w2 = derived.omega1, derived.omega2
    h1, h2 = 0.5 * derived.gamma1, 0.5 * derived.gamma2
    det = np.array(detuning, dtype=float)
    c_s = np.array(c_s, dtype=complex)
    cr, ci = c_s.real, c_s.imag
    rows = [
        [-kh,           det,      -2.0 * g0 * ci, 0.0,  0.0,  0.0],
        [-det,          -kh,       2.0 * g0 * cr, 0.0,  0.0,  0.0],
        [0.0,           0.0,      -h1,            w1,   0.0,  gc],
        [2.0 * g0 * cr, 2.0 * g0 * ci, -w1,      -h1,  -gc,   0.0],
        [0.0,           0.0,       0.0,           gc,  -h2,   w2],
        [0.0,           0.0,      -gc,            0.0, -w2,  -h2],
    ]
    flat = np.empty((36, len(det)))
    for k, v in enumerate(v for row in rows for v in row):
        flat[k] = v
    return np.ascontiguousarray(flat.T).reshape(len(det), 6, 6)


def _check_eigvals(jac) -> None:
    """Raise EigenvalueError, with the condition number, if eigvals fails."""
    import numpy as np

    try:
        np.linalg.eigvals(jac)
    except np.linalg.LinAlgError as exc:
        try:
            cond = float(np.linalg.cond(jac))
        except np.linalg.LinAlgError:
            cond = math.inf
        raise EigenvalueError("eigenvalue computation failed",
                              {"condition": cond, "jacobian": jac}) from exc


def margins(detuning, c_s, derived: DerivedParams) -> list[float]:
    """-max Re(eig) of each state's Jacobian, from one batched eigvals call.
    If that call fails, the EigenvalueError is the one of the first state
    whose own Jacobian fails."""
    import numpy as np

    jacs = jacobians(detuning, c_s, derived)
    try:
        eig = np.linalg.eigvals(jacs)
    except np.linalg.LinAlgError:
        for jac in jacs:
            _check_eigvals(jac)
        raise
    return (-eig.real.max(axis=1)).tolist()


# A polynomial is a list of its integer coefficients, lowest degree first.

def _comb(*terms):
    """The sum of c * p over the (c, p) pairs."""
    out = [0] * max(len(p) for _, p in terms)
    for c, p in terms:
        for i, v in enumerate(p):
            out[i] += c * v
    return out


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly(values):
    """(c, f, k) of numbers: the integers c proportional to them, by one
    power of two, and f = c / 2**k, each rounded once, with |f| < 1."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    c = [n * (den // d) for n, d in ratios]
    k = max(map(abs, c)).bit_length()
    return c, [v / (1 << k) for v in c], k


def _shift(p):
    """p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _value(p, t: float) -> tuple[float, float]:
    """(v, d) for p = (c, f, k) at 0 <= t <= 1: v has the sign of c(t), by
    Horner on f where that clears its rounding bound (Higham, Accuracy and
    Stability of Numerical Algorithms, eq. 5.3, times 4), else exactly,
    rounded to a float but not to zero; d is Horner's derivative on f."""
    c, f, k = p
    v = d = 0.0
    for a in reversed(f):
        d = d * t + v
        v = v * t + a
    if abs(v) > len(f) * 2.0 ** -49 * sum(map(abs, f)) + 1e-300:
        return v, d
    m, q = t.as_integer_ratio()
    j, acc, s = q.bit_length() - 1, 0, 0
    for a in reversed(c):
        acc, s = acc * m + (a << s), s + j
    v = acc / (1 << (s - j + k))
    if not v and acc:               # below the smallest float
        v = 5e-324 if acc > 0 else -5e-324
    return v, d


def _crossing(p, lo: float, hi: float, up: bool) -> float:
    """The float in (lo, hi] from which on c > 0 is `up`, given one change:
    Newton steps on f in a bracket narrowed by exact signs.  A step out goes
    one float in, or halves the bracket if the step before went out too."""
    t, out = 0.5 * (lo + hi), False
    while True:
        v, d = _value(p, t)
        lo, hi = (lo, t) if (v > 0.0) == up else (t, hi)
        first, last = math.nextafter(lo, hi), math.nextafter(hi, lo)
        if first == hi:
            return hi
        t = t - v / d if d else lo
        inside = first <= t <= last
        t = (t if inside else 0.5 * (lo + hi) if out
             else min(max(t, first), last))
        out = not (inside or out)


def _isolate(p, local, a: float, b: float) -> list[float]:
    """The floats in (a, b] at which c > 0 differs from the float below,
    for p = (c, f, k) and `local` proportional to c(a + (b - a) s).  Below
    two, the sign changes of local's Bernstein coefficients count c's roots
    in (a, b) (Descartes' rule; Collins and Akritas, SYMSAC 1976); from
    two on, (a, b) is halved.  A root at a is divided out."""
    bern = _shift(local[::-1])      # times binomials, the end at b first
    signs = [v > 0 for v in bern if v]
    if not signs:                   # c = 0
        return []
    if not local[0]:                # c(a) = 0: c / (t - a) has c's signs
        out, first = _isolate(p, local[1:], a, b), math.nextafter(a, b)
        rest = [t for t in out if t != first]
        # c(a) > 0 is false: c turns at the float above a if c / (t - a)
        # is positive there
        return [first, *rest] if (local[1] > 0) != (rest != out) else rest
    turns = sum(x != y for x, y in zip(signs, signs[1:]))
    if bern[0] and turns < 2:
        return [_crossing(p, a, b, bern[0] > 0)] if turns else []
    m, n = 0.5 * (a + b), len(local) - 1
    if m == a or m == b:
        return [b] if (local[0] > 0) != (bern[0] > 0) else []
    left = [v << (n - i) for i, v in enumerate(local)]
    return _isolate(p, left, a, m) + _isolate(p, _shift(left), m, b)


def _sign_changes(p) -> list[float]:
    """The floats t in (0, 1] at which p(t) > 0 differs from its value at
    the float below, for the numbers p, lowest degree first, taken exactly."""
    p = _poly(p)
    return _isolate(p, p[0], 0.0, 1.0)


def stability_intervals(derived: DerivedParams, shape: CubicCoefficients,
                        x_max: float) -> tuple[list[float], list[bool]]:
    """(bounds, stable) over photon numbers 0..x_max of the sweep whose
    cubic has `shape`: the sorted floats x at which stability may change,
    and whether the states from each one (and from 0) up to the next are.

    With rates shifted by tol = EIGEN_TOL_KAPPA * kappa, det(mu - tol - J)
    = mu^6 + a1 mu^5 + ... + a6 = ((mu + kh)^2 + Delta^2) Q4 - 4 g0^2
    Delta x R3, where Q4 = |A|^2, R3 = -Im((mu + d2) conj(A)), A = (mu +
    d1)(mu + d2) + gc^2 and d_k = gamma_k/2 + i omega_k.  Delta is affine
    in x, so each a_i and each Lienard-Chipart condition (a2, a4, a6 and the
    Hurwitz determinants D1 = a1, D3, D5 positive; Gantmacher, The Theory
    of Matrices, vol. 2, ch. XV) is a polynomial in x.  A root crosses Re mu
    = 0 only where a6 (at mu = 0) or D5 (at mu = +-i w) vanishes, so only
    their sign changes bound the intervals.  The polynomials are built in
    integers from the float rates, tol and Delta's coefficients, in t = x
    over a power of two, so every sign is exact: each bound is a float at
    which a6 or D5 changes sign, and each verdict is the float model's.
    """
    scale = math.ldexp(1.0, max(0, math.frexp(x_max)[1]))
    kh, h1, h2, w1, w2, gc, g0, tol, u, v = _poly([
        derived.kh, 0.5 * derived.gamma1, 0.5 * derived.gamma2,
        derived.omega1, derived.omega2, derived.gc, derived.g0,
        EIGEN_TOL_KAPPA * derived.kappa, shape.delta_tilde,
        -shape.kerr_slope * scale])[0]
    kh, h1, h2 = kh - tol, h1 - tol, h2 - tol
    # A = ar + i ai for real mu, so Q4 = ar^2 + ai^2, R3 = (mu + h2) ai -
    # w2 ar; Delta = u + v t, so kh^2 + Delta^2 = e(t), 4 g0^2 x Delta = f(t)
    ar, ai = [h1 * h2 - w1 * w2 + gc * gc, h1 + h2, 1], [h1 * w2 + h2 * w1,
                                                        w1 + w2]
    q4 = _comb((1, _mul(ar, ar)), (1, _mul(ai, ai)))
    r3 = _comb((1, _mul([h2, 1], ai)), (-w2, ar))
    g = 4 * g0 * g0 * int(scale)
    e, f = [kh * kh + u * u, 2 * u * v, v * v], [0, g * u, g * v]
    # a_i, of mu^(6 - i), from (mu^2 + 2 kh mu) Q4 + e Q4 - f R3
    a = [_comb((c, [1]), (q, e), (-r, f)) for c, q, r in zip(
        _mul([0, 2 * kh, 1], q4)[::-1], (q4 + [0] * 2)[::-1],
        (r3 + [0] * 4)[::-1])]
    # with a0 = 1, Routh's third row starting b, c: D1 = a1, D3, D4, D5
    a1, a2, a3, a4, a5, a6 = a[1][0], *a[2:]
    b, c = _comb((a1, a2), (-1, a3)), _comb((a1, a4), (-1, a5))
    d3 = _comb((1, _mul(a3, b)), (-a1, c))
    d4 = _comb((1, _mul(a4, d3)), (a1, _mul(a6, b)),
               (-1, _mul(a5, _comb((1, _mul(a2, b)), (-1, c)))))
    d5 = _comb((1, _mul(a5, d4)), (-1, _mul(a6, _comb(
        (1, _mul(a3, d3)), (a1 * a1 * a1, a6), (-a1, _mul(a5, b))))))
    conds = [_poly(p) for p in (a2, a4, a6, [a1], d3, d5)]
    ends = sorted(t for p in (a6, d5) for t in _sign_changes(p))
    return ([t * scale for t in ends],
            [all(_value(p, t)[0] > 0.0 for p in conds) for t in [0.0, *ends]])


def stability_column(xs, branch_rows, derived: DerivedParams,
                     shape: CubicCoefficients,
                     method: Method = Method.EIGEN) -> list[bool]:
    """Whether each of n steady states, given by photon numbers, is stable.

    `branch_rows` are the ranges of the states that share one cubic, each
    in ascending photon number.  The slope rule reads only those: the
    middle state of three is unstable.  The eigen method looks each photon
    number up in the sweep's stability intervals.
    """
    if method == Method.SLOPE_RULE:
        stable = [True] * len(xs)
        for r in branch_rows:
            if len(r) == 3:
                stable[r[1]] = False
        return stable
    bounds, flags = stability_intervals(derived, shape, max(xs, default=0.0))
    return [flags[bisect(bounds, x)] for x in xs]
