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
from .model import DerivedParams, LinewidthConvention, amplitude_decay
from .steady_state import SteadyStateFields


class Classification(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


class Method(str, Enum):
    EIGEN = "eigen"
    SLOPE_RULE = "slope-rule"


#: classification threshold on max Re(eigenvalue), in units of kappa
EIGEN_TOL_KAPPA = 1e-9


def jacobian(fields: SteadyStateFields, derived: DerivedParams,
             convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
             ) -> np.ndarray:
    """6x6 real Jacobian at a steady operating point."""
    kh = amplitude_decay(derived.kappa, convention)
    g0, gc = derived.g0, derived.gc
    w1, w2 = derived.omega1, derived.omega2
    h1, h2 = 0.5 * derived.gamma1, 0.5 * derived.gamma2
    det = fields.effective_detuning
    cr, ci = fields.c_s.real, fields.c_s.imag
    return np.array([
        [-kh,           det,      -2.0 * g0 * ci, 0.0,  0.0,  0.0],
        [-det,          -kh,       2.0 * g0 * cr, 0.0,  0.0,  0.0],
        [0.0,           0.0,      -h1,            w1,   0.0,  gc],
        [2.0 * g0 * cr, 2.0 * g0 * ci, -w1,      -h1,  -gc,   0.0],
        [0.0,           0.0,       0.0,           gc,  -h2,   w2],
        [0.0,           0.0,      -gc,            0.0, -w2,  -h2],
    ])


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


def classify(fields: SteadyStateFields, derived: DerivedParams,
             method: Method = Method.EIGEN,
             all_roots: tuple[float, ...] | None = None,
             convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
             ) -> StabilityReport:
    """Classify one steady state.

    The slope rule needs the full ascending root set of the same cubic; the
    eigen method needs only the fields.
    """
    if method == Method.SLOPE_RULE:
        if all_roots is None:
            raise ValueError("slope rule requires the full root set")
        cls = _slope_rule(fields.photon_number, tuple(all_roots))
        return StabilityReport(classification=cls, method=method,
                               eigenvalue_real_parts=(), margin=math.nan)

    jac = jacobian(fields, derived, convention)
    try:
        eig = np.linalg.eigvals(jac)
    except np.linalg.LinAlgError as exc:
        try:
            cond = float(np.linalg.cond(jac))
        except np.linalg.LinAlgError:
            cond = math.inf
        raise EigenvalueError("eigenvalue computation failed",
                              {"condition": cond, "jacobian": jac}) from exc
    reals = tuple(sorted(float(v) for v in eig.real))
    tol = EIGEN_TOL_KAPPA * derived.kappa
    worst = reals[-1]
    cls = Classification.STABLE if worst < -tol else Classification.UNSTABLE
    return StabilityReport(classification=cls, method=method,
                           eigenvalue_real_parts=reals, margin=-worst)

