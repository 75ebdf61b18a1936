"""Bistability curves, fold windows, hysteresis, and parameter families.

Everything here is algebraic: roots of the steady-state cubic classified by
the linearized spectrum, folds from the closed-form critical points.  The
time-domain counterpart lives in the dynamics module and is deliberately
kept as an independent route to the same numbers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoBistabilityError, ParameterError, ResidualError
from .model import (CoulombSpec, DerivedParams, DriveSpec,
                    LinewidthConvention, SystemParams, derive, eps_for_power,
                    power_for_eps_sq)
from .stability import Method, stability_column
from .steady_state import (CriticalPoints, SteadyStateFields,
                           ThresholdDetuning, critical_points,
                           cubic_coefficients, fold_powers_eps_sq,
                           photon_roots, steady_columns, susceptibilities,
                           threshold_detuning)


class BranchSolution(NamedTuple):
    """One steady-state root, classified: a row of the per-root columns."""

    photon_number: float
    fields: SteadyStateFields
    stable: bool


class CurvePoint(NamedTuple):
    """All coexisting steady states at one drive power."""

    power: float                              # W
    eps_sq: float                             # (rad/s)^2
    branches: tuple[BranchSolution, ...]      # ascending photon number
    error: str | None = None


class BistabilityCurve(NamedTuple):
    """Steady-state response over a power grid, stored as columns.

    Point k of the grid has power[k], eps_sq[k] and error[k] (None unless
    its roots failed to solve); its branches are the rows branch_rows[k] of
    the per-root columns, in ascending photon number.  An unsolved point
    has no rows.  The per-root columns hold the photon number, mirror
    displacements, effective detuning, the fields c_s, b_1s and b_2s and
    the classification (stable).  `points` is built on access from the
    columns.
    """

    power: tuple[float, ...]                  # W
    eps_sq: tuple[float, ...]                 # (rad/s)^2
    error: tuple[str | None, ...]
    branch_rows: tuple[range, ...]
    photon_number: tuple[float, ...]
    q_1s: tuple[float, ...]                   # m
    q_2s: tuple[float, ...]                   # m
    effective_detuning: tuple[float, ...]     # rad/s
    c_s: tuple[complex, ...]
    b_1s: tuple[complex, ...]
    b_2s: tuple[complex, ...]
    stable: tuple[bool, ...]
    method: Method
    derived: DerivedParams

    @property
    def convention(self) -> LinewidthConvention:
        return self.derived.convention

    @property
    def points(self) -> tuple[CurvePoint, ...]:
        """Every grid point as a CurvePoint, built from the columns."""
        branches = [
            BranchSolution(x, SteadyStateFields(x, c, b1, b2, q1, q2, det), s)
            for x, c, b1, b2, q1, q2, det, s in zip(
                self.photon_number, self.c_s, self.b_1s, self.b_2s,
                self.q_1s, self.q_2s, self.effective_detuning, self.stable)]
        return tuple(
            CurvePoint(p, e, tuple(branches[rows.start:rows.stop]), error)
            for p, e, rows, error in zip(self.power, self.eps_sq,
                                         self.branch_rows, self.error))


class BistabilityWindow(NamedTuple):
    """Fold powers bracketing the multivalued region, if it exists."""

    exists: bool
    reason: str | None
    power_up: float | None        # W at the lower-branch fold (upward jump)
    power_down: float | None      # W at the upper-branch fold (downward jump)
    critical: CriticalPoints
    delta_tilde: float            # rad/s
    threshold: ThresholdDetuning

    @property
    def width(self) -> float:
        if not self.exists:
            return 0.0
        return self.power_up - self.power_down

    @property
    def fold_ratio(self) -> float:
        if not self.exists:
            return math.nan
        return self.power_up / self.power_down


class HysteresisTrace(NamedTuple):
    """Photon number along the up and down power sweeps with jump markers.

    Jump powers are the first grid point after the response moved by more
    than half of its previous value, so they sit one grid spacing past the
    underlying fold at worst.  Grid points that failed to solve are left
    out of both passes and listed in `unsolved`, with their errors.
    """

    up: tuple[tuple[float, float], ...]      # (power, photon number)
    down: tuple[tuple[float, float], ...]
    up_jump_powers: tuple[float, ...]
    down_jump_powers: tuple[float, ...]
    unsolved: tuple[tuple[float, str], ...] = ()    # (power, error)

    @property
    def up_jump(self) -> float | None:
        return self.up_jump_powers[0] if self.up_jump_powers else None

    @property
    def down_jump(self) -> float | None:
        return self.down_jump_powers[0] if self.down_jump_powers else None

    @property
    def loop_area_exists(self) -> bool:
        return bool(self.up_jump_powers) and bool(self.down_jump_powers)


def _check_convention(derived: DerivedParams,
                      convention: LinewidthConvention | None) -> None:
    # perfbench still passes one positionally; it may only repeat derive's
    if convention not in (None, derived.convention):
        raise ParameterError("convention", f"must be the derived rates' "
                             f"{derived.convention.value!r}")


def bistability_window(derived: DerivedParams, drives: DriveSpec,
                       convention: LinewidthConvention | None = None,
                       ) -> BistabilityWindow:
    """Closed-form fold powers for the given operating point."""
    _check_convention(derived, convention)
    susc = susceptibilities(derived, drives)
    # the folds do not depend on the drive strength, only on the curve shape
    coeffs = cubic_coefficients(derived, susc, eps_l=0.0)
    crit = critical_points(coeffs)
    thr = threshold_detuning(derived, susc)
    power_up = power_down = None
    if crit.exists:
        power_up, power_down = (power_for_eps_sq(derived, e2) for e2 in
                                fold_powers_eps_sq(coeffs, crit))
        # at the cusp, rounding can put the up fold ulps below the down fold
        power_up = max(power_up, power_down)
    return BistabilityWindow(
        exists=crit.exists, reason=crit.reason, power_up=power_up,
        power_down=power_down, critical=crit,
        delta_tilde=coeffs.delta_tilde, threshold=thr)


def _power_grid(pmin: float, pmax: float, n: int) -> tuple[float, ...]:
    """n evenly spaced powers from pmin to pmax, with the bits of
    np.linspace: entry i is i * step + pmin, and the last is pmax.

    Raises ParameterError (a ValueError) unless n >= 2, both bounds are
    finite and pmax > pmin.
    """
    for name, p in (("pmin", pmin), ("pmax", pmax)):
        if not math.isfinite(p):
            raise ParameterError(name, f"must be finite, got {p!r}")
    if n < 2:
        raise ParameterError("points", f"a power grid needs at least 2, "
                                       f"got {n!r}")
    if not pmax > pmin:
        raise ParameterError("pmax", f"must exceed pmin, got pmin = "
                                     f"{pmin!r}, pmax = {pmax!r}")
    pmin, pmax, div = float(pmin), float(pmax), n - 1
    delta = pmax - pmin
    step = delta / div
    if step == 0.0:     # a subnormal span: numpy scales i before delta
        return (*(i / div * delta + pmin for i in range(div)), pmax)
    return (*(i * step + pmin for i in range(div)), pmax)


def _default_bounds(windows, pmin: float | None, pmax: float | None,
                    refusal: str) -> tuple[float, float]:
    """(pmin, pmax), each that is None taken from the bistable windows:
    half the lowest downward fold and twice the highest upward fold.
    Without a bistable window, NoBistabilityError names `refusal`."""
    if pmin is None or pmax is None:
        bistable = [w for w in windows if w.exists]
        if not bistable:
            raise NoBistabilityError(f"{refusal}; give explicit power bounds")
        if pmin is None:
            pmin = 0.5 * min(w.power_down for w in bistable)
        if pmax is None:
            pmax = 2.0 * max(w.power_up for w in bistable)
    return pmin, pmax


def auto_power_grid(window: BistabilityWindow, n: int = 201,
                    pmin: float | None = None, pmax: float | None = None,
                    ) -> tuple[float, ...]:
    """Linear power grid spanning the window with a factor-2 margin."""
    return _power_grid(*_default_bounds((window,), pmin, pmax,
                                        window.reason), n)


def solve_point(derived: DerivedParams, drives: DriveSpec, power: float,
                method: Method = Method.EIGEN) -> CurvePoint:
    """All steady branches at one power, classified."""
    return power_sweep(derived, drives, [power], method).points[0]


def power_sweep(derived: DerivedParams, drives: DriveSpec,
                powers, method: Method = Method.EIGEN,
                convention: LinewidthConvention | None = None,
                ) -> BistabilityCurve:
    """Solve and classify every root over a power grid, in grid order.

    Root-solve failures are recorded on the offending point rather than
    aborting the sweep.  Only a4 = -eps^2 of the cubic changes from point
    to point; the fields of all roots are then built in one batch, and
    all roots classified by the sweep's stability intervals.
    """
    _check_convention(derived, convention)
    susc = susceptibilities(derived, drives)
    shape = cubic_coefficients(derived, susc, eps_l=0.0)
    a1, a2, a3 = shape.a1, shape.a2, shape.a3
    power, eps_sq, error, branch_rows = [], [], [], []
    xs, eps_of = [], []     # per root
    for p in powers:
        p = float(p)
        eps = eps_for_power(derived, p)
        e2 = eps * eps
        try:
            roots = photon_roots(a1, a2, a3, -e2)
            err = None
        except ResidualError as exc:
            roots, err = (), str(exc)
        power.append(p)
        eps_sq.append(e2)
        error.append(err)
        branch_rows.append(range(len(xs), len(xs) + len(roots)))
        xs += roots
        eps_of += [eps] * len(roots)
    c_s, b_1s, b_2s, q_1s, q_2s, det = steady_columns(xs, eps_of, derived,
                                                      susc)
    stable = stability_column(xs, det, c_s, branch_rows, derived, shape,
                              method)
    return BistabilityCurve(
        power=tuple(power), eps_sq=tuple(eps_sq), error=tuple(error),
        branch_rows=tuple(branch_rows), photon_number=tuple(xs),
        q_1s=tuple(q_1s), q_2s=tuple(q_2s), effective_detuning=tuple(det),
        c_s=tuple(c_s), b_1s=tuple(b_1s), b_2s=tuple(b_2s),
        stable=tuple(stable), method=method, derived=derived)


_JUMP_LOG_MARGIN = math.log(1.5)


def is_branch_jump(p_prev: float, x_prev: float, p: float, x: float) -> bool:
    """Discontinuity test for consecutive sweep samples.

    The response moved by more than 50% beyond what the power step itself
    explains: |log(x/x_prev)| > |log(p/p_prev)| + log(1.5).  On a fine grid
    the power term vanishes and this is a plain 50% change detector; on a
    coarse grid it keeps the near-proportional growth of a single branch
    from masquerading as a fold jump.
    """
    if x_prev <= 0.0 or x <= 0.0 or p_prev <= 0.0 or p <= 0.0:
        return False
    log_x = abs(math.log(x / x_prev))
    log_p = abs(math.log(p / p_prev))
    return log_x > log_p + _JUMP_LOG_MARGIN


def jump_powers(seq: tuple[tuple[float, float], ...]) -> tuple[float, ...]:
    """Powers of a (power, photon number) sequence that follow a jump."""
    return tuple(p for (p_prev, x_prev), (p, x) in zip(seq, seq[1:])
                 if is_branch_jump(p_prev, x_prev, p, x))


def _follow(curve: BistabilityCurve,
            order) -> tuple[tuple[float, float], ...]:
    """Trace the occupied branch through the points in `order`."""
    xs, stable = curve.photon_number, curve.stable
    seq: list[tuple[float, float]] = []
    for k in order:
        rows = curve.branch_rows[k]
        if not rows:      # an unsolved point, or one without roots
            continue
        pool = [i for i in rows if stable[i]] or rows
        if not seq:
            pick = min(pool, key=xs.__getitem__)
        else:
            px = seq[-1][1]
            pick = min(pool, key=lambda i: (abs(xs[i] - px), xs[i]))
        seq.append((curve.power[k], xs[pick]))
    return tuple(seq)


def hysteresis_from_curve(curve: BistabilityCurve) -> HysteresisTrace:
    """Quasi-static loop read directly off the classified curve.

    Upward pass starts on the lowest branch and keeps the stable branch
    nearest the previous state (ties to the lower one); downward pass is the
    same in reverse.  Points that failed to solve are skipped, and listed
    as unsolved in grid order.
    """
    ordered = sorted(range(len(curve.power)), key=curve.power.__getitem__)
    up, down = _follow(curve, ordered), _follow(curve, ordered[::-1])
    unsolved = tuple((p, e) for p, e in zip(curve.power, curve.error)
                     if e is not None)
    return HysteresisTrace(up=up, down=down, up_jump_powers=jump_powers(up),
                           down_jump_powers=jump_powers(down),
                           unsolved=unsolved)


FAMILY_KEYS = ("g0", "gc", "delta_c") + DriveSpec._fields


class FamilyMember(NamedTuple):
    value: float
    derived: DerivedParams
    drives: DriveSpec
    window: BistabilityWindow
    curve: BistabilityCurve


class FamilyResult(NamedTuple):
    vary: str
    values: tuple[float, ...]
    members: tuple[FamilyMember, ...]
    powers: tuple[float, ...]       # shared grid across members


def _apply_family_value(params: SystemParams, drives: DriveSpec, vary: str,
                        value: float) -> tuple[SystemParams, DriveSpec]:
    if vary == "g0":
        return params._replace(g0=value), drives
    if vary == "gc":
        return params._replace(coulomb=CoulombSpec.direct(value)), drives
    if vary == "delta_c":
        return params._replace(delta_c=value), drives
    return params, drives._replace(**{vary: value})


def family_sweep(params: SystemParams, drives: DriveSpec, vary: str,
                 values, n_points: int = 201,
                 method: Method = Method.EIGEN,
                 convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
                 pmin: float | None = None, pmax: float | None = None,
                 ) -> FamilyResult:
    """Sweep one parameter and solve every member on a shared power grid.

    Each member is derived under `convention`.  The grid, unless given,
    spans half the smallest downward fold power to twice the largest upward
    fold power over the bistable members; with no bistable member explicit
    bounds are required.
    """
    if vary not in FAMILY_KEYS:
        raise ValueError(f"vary must be one of {FAMILY_KEYS}, got {vary!r}")
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("values must be non-empty")
    prepared = []
    for v in vals:
        p_v, d_v = _apply_family_value(params, drives, vary, v)
        derived_v = derive(p_v, d_v, convention)
        prepared.append((v, derived_v, d_v,
                         bistability_window(derived_v, d_v)))
    powers = _power_grid(*_default_bounds(
        [w for (_, _, _, w) in prepared], pmin, pmax,
        "no family member is bistable"), n_points)
    members = []
    for v, derived_v, d_v, win in prepared:
        curve = power_sweep(derived_v, d_v, powers, method)
        members.append(FamilyMember(value=v, derived=derived_v, drives=d_v,
                                    window=win, curve=curve))
    return FamilyResult(vary=vary, values=vals, members=tuple(members),
                        powers=powers)

