"""Linear stability of steady states via the quadrature Jacobian.

The mean-field equations are linearized about a fixed point in the six real
quadratures (Re c, Im c, Re b1, Im b1, Re b2, Im b2).  Eigenvalue analysis is
the authoritative classifier; the slope rule (middle root of three is
unstable) is a fast path that matches it on the static S-curve but is blind
to dynamical (Hopf) instabilities, which do occur on the upper branch for
unresolved-sideband linewidths.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import EigenvalueError
from .model import DerivedParams


class Method(str, Enum):
    EIGEN = "eigen"
    SLOPE_RULE = "slope-rule"


#: classification threshold on max Re(eigenvalue), in units of kappa
EIGEN_TOL_KAPPA = 1e-9


def jacobians(detuning, c_s, derived: DerivedParams) -> np.ndarray:
    """(n, 6, 6) real Jacobians at n steady operating points, given by
    their effective detunings and cavity fields."""
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


def _check_eigvals(jac: np.ndarray) -> None:
    """Raise EigenvalueError, with the condition number, if eigvals fails."""
    try:
        np.linalg.eigvals(jac)
    except np.linalg.LinAlgError as exc:
        try:
            cond = float(np.linalg.cond(jac))
        except np.linalg.LinAlgError:
            cond = math.inf
        raise EigenvalueError("eigenvalue computation failed",
                              {"condition": cond, "jacobian": jac}) from exc


def stability_columns(detuning, c_s, branch_rows, derived: DerivedParams,
                      method: Method = Method.EIGEN):
    """Classify n steady states given as columns, in order.

    Returns the lists (stable, margin), one entry per state.
    `branch_rows` are the ranges of the states that share one cubic, each
    in ascending photon number.  The slope rule reads only those: the
    middle state of three is unstable, and its margin is nan.  The eigen
    method reads the effective detunings and cavity fields, makes one
    eigvals call for the whole batch and gives the margin -max Re(eig).
    If that call fails, the EigenvalueError is the one of the first state
    whose own Jacobian fails.
    """
    if method == Method.SLOPE_RULE:
        stable = [True] * len(detuning)
        for r in branch_rows:
            if len(r) == 3:
                stable[r[1]] = False
        return stable, [math.nan] * len(stable)
    jacs = jacobians(detuning, c_s, derived)
    try:
        eig = np.linalg.eigvals(jacs)
    except np.linalg.LinAlgError:
        for jac in jacs:
            _check_eigvals(jac)
        raise
    top = eig.real.max(axis=1)
    tol = EIGEN_TOL_KAPPA * derived.kappa
    return (top < -tol).tolist(), (-top).tolist()
