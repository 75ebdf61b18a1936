"""Linear stability of steady states via the quadrature Jacobian.

A state is stable when every eigenvalue of the Jacobian in (Re c, Im c,
Re b1, Im b1, Re b2, Im b2) has real part below -EIGEN_TOL_KAPPA * kappa.
The eigen method reads that off intervals in the photon number x, and runs
eigvals only for states at an interval's bound and for the margins.  The
slope rule (middle root of three is unstable) is blind to the dynamical
(Hopf) instabilities of the upper branch at unresolved-sideband linewidths.
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
#: a state this close to an interval's bound, relative, is left to eigvals
BOUNDARY_GUARD = 1e-9


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


# A polynomial is a list of its float coefficients, lowest degree first.

def _comb(*terms):
    """The sum of c * p over the (c, p) pairs."""
    out = [0.0] * max(len(p) for _, p in terms)
    for c, p in terms:
        for i, v in enumerate(p):
            out[i] += c * v
    return out


def _mul(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _at(p, t: float) -> tuple[float, float]:
    """p(t) and p'(t), by Horner."""
    v = d = 0.0
    for c in reversed(p):
        d = d * t + v
        v = v * t + c
    return v, d


def _sign_changes(p) -> list[float]:
    """Where p changes sign in [0, 1]: the roots of p' bracket monotone
    pieces, and safeguarded Newton finds each piece's root."""
    dp = [i * c for i, c in enumerate(p)][1:]
    ends = [0.0, *(_sign_changes(dp) if any(dp[1:]) else ()), 1.0]
    out = []
    for a, b in zip(ends, ends[1:]):
        positive = _at(p, a)[0] > 0.0
        if (_at(p, b)[0] > 0.0) == positive:
            continue
        t = 0.5 * (a + b)
        for _ in range(100):
            f, d = _at(p, t)
            a, b = (t, b) if (f > 0.0) == positive else (a, t)
            step = t - f / d if d else a
            step = step if a < step < b else 0.5 * (a + b)
            if step == t or not a < step < b:
                break
            t = step
        out.append(t)
    return out


def stability_intervals(derived: DerivedParams, shape: CubicCoefficients,
                        x_max: float) -> tuple[list[float], list[bool]]:
    """(bounds, stable) over photon numbers 0..x_max of the sweep whose
    cubic has `shape`: the sorted x where stability may change, and whether
    the states between consecutive ones, with 0 and x_max at the ends, are.

    In kappa units, with rates shifted by tol = EIGEN_TOL_KAPPA, det(mu -
    tol - J) = mu^6 + a1 mu^5 + ... + a6 = ((mu + kh)^2 + Delta^2) Q4 - 4
    g0^2 Delta x R3, where Q4 = |A|^2, R3 = -Im((mu + d2) conj(A)), A =
    (mu + d1)(mu + d2) + gc^2 and d_k = gamma_k/2 + i omega_k.  Delta is
    affine in x, so each a_i and each Lienard-Chipart condition (a2, a4,
    a6 and the Hurwitz determinants D1 = a1, D3, D5 positive; Gantmacher,
    The Theory of Matrices, vol. 2, ch. XV) is a polynomial in x.  A root
    crosses Re mu = 0 only where a6 (at mu = 0) or D5 (at mu = +-i w)
    vanishes, so only their sign changes bound the intervals.
    """
    scale = x_max if x_max > 0.0 else 1.0
    k, s = derived.kappa, EIGEN_TOL_KAPPA
    kh = derived.kh / k - s
    d1 = complex(0.5 * derived.gamma1 / k - s, derived.omega1 / k)
    d2 = complex(0.5 * derived.gamma2 / k - s, derived.omega2 / k)
    m = [(d1 * d2 + (derived.gc / k) ** 2).conjugate(),
         (d1 + d2).conjugate(), 1.0]
    q4 = [z.real for z in _mul(m, [z.conjugate() for z in m])]
    r3 = [-z.imag for z in _mul(m, [d2, 1.0])]
    # Delta = u + v t, so kh^2 + Delta^2 = e(t) and 4 g0^2 x Delta = f(t)
    u, v = shape.delta_tilde / k, -shape.kerr_slope / k * scale
    g = 4.0 * (derived.g0 / k) ** 2 * scale
    e, f = [kh * kh + u * u, 2.0 * u * v, v * v], [0.0, g * u, g * v]
    # a_i, of mu^(6 - i), from (mu^2 + 2 kh mu) Q4 + e Q4 - f R3
    a = [_comb((c, [1.0]), (q, e), (-r, f)) for c, q, r in zip(
        _mul([0.0, 2.0 * kh, 1.0], q4)[::-1], (q4 + [0.0] * 2)[::-1],
        (r3 + [0.0] * 3)[::-1])]
    # with a0 = 1: D1 = a1, D3, and D5 grouped over its factors a6 and a5
    a1, a2, a3, a4, a5, a6 = a[1][0], *a[2:]
    a33, a25, a34 = _mul(a3, a3), _mul(a2, a5), _mul(a3, a4)
    d3 = _comb((a1, _mul(a2, a3)), (-a1 * a1, a4), (a1, a5), (-1.0, a33))
    by_a6 = _comb((-a1 ** 3, a6), (2.0 * a1 * a1, a25), (a1 * a1, a34),
                  (-a1, _mul(a2, a33)), (-3.0 * a1, _mul(a3, a5)),
                  (1.0, _mul(a3, a33)))
    by_a5 = _comb((-a1 * a1, _mul(a4, a4)), (-a1, _mul(a2, a25)),
                  (a1, _mul(a2, a34)), (2.0 * a1, _mul(a4, a5)),
                  (1.0, _mul(a3, a25)), (-1.0, _mul(a33, a4)),
                  (-1.0, _mul(a5, a5)))
    d5 = _comb((1.0, _mul(a6, by_a6)), (1.0, _mul(a5, by_a5)))
    conds = [a2, a4, a6, [a1], d3, d5]
    ends = sorted(t for p in (a6, d5) for t in _sign_changes(p))
    return ([t * scale for t in ends],
            [all(_at(p, 0.5 * (lo + hi))[0] > 0.0 for p in conds)
             for lo, hi in zip([0.0, *ends], [*ends, 1.0])])


def stability_column(xs, detuning, c_s, branch_rows, derived: DerivedParams,
                     shape: CubicCoefficients,
                     method: Method = Method.EIGEN) -> list[bool]:
    """Whether each of n steady states, given as columns, is stable.

    `branch_rows` are the ranges of the states that share one cubic, each
    in ascending photon number.  The slope rule reads only those: the
    middle state of three is unstable.  The eigen method looks each photon
    number up in the sweep's stability intervals; a state within
    BOUNDARY_GUARD of a bound, relative, is decided by eigvals on its own
    Jacobian.
    """
    if method == Method.SLOPE_RULE:
        stable = [True] * len(xs)
        for r in branch_rows:
            if len(r) == 3:
                stable[r[1]] = False
        return stable
    bounds, flags = stability_intervals(derived, shape, max(xs, default=0.0))
    # an odd place among the edges is within the guard band of a bound
    edges = [b * (1.0 + g) for b in bounds
             for g in (-BOUNDARY_GUARD, BOUNDARY_GUARD)]
    places = [bisect(edges, x) for x in xs]
    stable = [flags[k // 2] for k in places]
    near = [i for i, k in enumerate(places) if k % 2]
    if near:
        tol = EIGEN_TOL_KAPPA * derived.kappa
        for i, m in zip(near, margins([detuning[i] for i in near],
                                      [c_s[i] for i in near], derived)):
            stable[i] = m > tol
    return stable
