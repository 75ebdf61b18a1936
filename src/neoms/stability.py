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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EigenvalueError
from .model import DerivedParams
from .steady_state import SteadyStateFields


class Classification(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


class Method(str, Enum):
    EIGEN = "eigen"
    SLOPE_RULE = "slope-rule"


#: classification threshold on max Re(eigenvalue), in units of kappa
EIGEN_TOL_KAPPA = 1e-9


def jacobians(fields, derived: DerivedParams) -> np.ndarray:
    """(n, 6, 6) real Jacobians at a sequence of n steady operating points."""
    kh = derived.kh
    g0, gc = derived.g0, derived.gc
    w1, w2 = derived.omega1, derived.omega2
    h1, h2 = 0.5 * derived.gamma1, 0.5 * derived.gamma2
    det = np.array([f.effective_detuning for f in fields], dtype=float)
    c_s = np.array([f.c_s for f in fields], dtype=complex)
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


def jacobian(fields: SteadyStateFields, derived: DerivedParams) -> np.ndarray:
    """6x6 real Jacobian at a steady operating point."""
    return jacobians([fields], derived)[0]


@dataclass(frozen=True)
class StabilityReport:
    classification: Classification
    method: Method
    eigenvalue_real_parts: tuple[float, ...]   # ascending; empty for slope rule
    margin: float                              # -max Re(eig); nan for slope rule


def _slope_rule(x: float, all_roots: tuple[float, ...]) -> Classification:
    if len(all_roots) == 3:
        mid = sorted(all_roots)[1]
        near = min(all_roots, key=lambda r: abs(r - x))
        if near == mid:
            return Classification.UNSTABLE
    return Classification.STABLE


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


def classify_batch(states, derived: DerivedParams,
                   method: Method = Method.EIGEN) -> list[StabilityReport]:
    """Classify steady states given as (fields, all_roots) pairs, in order.

    The slope rule needs each state's full ascending root set of the same
    cubic; the eigen method needs only the fields and makes one eigvals
    call for the whole batch.  If that call fails, the EigenvalueError is
    the one of the first state whose own Jacobian fails.
    """
    if method == Method.SLOPE_RULE:
        if any(roots is None for _, roots in states):
            raise ValueError("slope rule requires the full root set")
        return [StabilityReport(_slope_rule(f.photon_number, tuple(roots)),
                                method, (), math.nan) for f, roots in states]
    jacs = jacobians([f for f, _ in states], derived)
    try:
        eig = np.linalg.eigvals(jacs)
    except np.linalg.LinAlgError:
        for jac in jacs:
            _check_eigvals(jac)
        raise
    tol = EIGEN_TOL_KAPPA * derived.kappa
    # a stable sort keeps ties in LAPACK's order, as sorted() did per root
    rows = np.sort(eig.real, axis=1, kind="stable").tolist()
    return [StabilityReport(Classification.STABLE if r[-1] < -tol
                            else Classification.UNSTABLE, method, tuple(r),
                            -r[-1]) for r in rows]


def classify(fields: SteadyStateFields, derived: DerivedParams,
             method: Method = Method.EIGEN,
             all_roots: tuple[float, ...] | None = None) -> StabilityReport:
    """Classify one steady state: `classify_batch` of one."""
    return classify_batch([(fields, all_roots)], derived, method)[0]
