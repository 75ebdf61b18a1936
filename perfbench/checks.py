"""Correctness checks on program outputs, recomputed in the benchmark.

Each check raises `WrongOutput` with the reason.  The cubic is rebuilt here
from the derived rates with plain numpy, so a root's residual does not rest
on the package's own `relative_residual`.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

RESIDUAL_LIMIT = 1e-9
FOLD_EXEMPT = 1e-9        # relative distance in eps^2 treated as "at a fold"
SETTLE_LIMIT = 1e-6
WINDOW_LIMIT = 1e-9       # relative, printed fold powers and threshold


class WrongOutput(Exception):
    pass


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise WrongOutput(reason)


class Cubic:
    """eps^2 = x (kh^2 + (dt - chi x)^2) for one operating point."""

    def __init__(self, derived, drives, convention):
        self.derived = derived
        d1 = complex(0.5 * derived.gamma1, derived.omega1)
        d2 = complex(0.5 * derived.gamma2, derived.omega2)
        g0, gc = derived.g0, derived.gc
        den = d1 * d2 + gc * gc
        beta1 = 1j * g0 * d2 / den
        beta2 = -1j * gc / den
        beta3 = d2 / den
        offset = (2.0 * (beta2 * np.exp(-1j * drives.phi2)).real * drives.eps2
                  + 2.0 * (beta3 * np.exp(-1j * drives.phi1)).real
                  * drives.eps1)
        self.chi = g0 * 2.0 * beta1.real
        self.dt = derived.delta_c - g0 * offset
        self.kh = (derived.kappa if convention.value == "kappa"
                   else 0.5 * derived.kappa)

    def eps_sq(self, power: float) -> float:
        """Squared drive at `power` W, from the program's derived rates."""
        from neoms.model import eps_for_power

        return eps_for_power(self.derived, power) ** 2

    def _coefficients(self):
        return (self.chi ** 2, -2.0 * self.chi * self.dt,
                self.kh ** 2 + self.dt ** 2)

    def residuals(self, x, eps_sq):
        """Relative residuals |p(x)| / max(eps^2, 1) of the expanded cubic."""
        x = np.asarray(x, dtype=float)
        eps_sq = np.asarray(eps_sq, dtype=float)
        a1, a2, a3 = self._coefficients()
        p = ((a1 * x + a2) * x + a3) * x - eps_sq
        return np.abs(p) / np.maximum(eps_sq, 1.0)

    def roots(self, eps_sq: float) -> list[float]:
        """The real roots at one squared drive, in increasing order."""
        r = np.roots([*self._coefficients(), -eps_sq])
        return sorted(float(z.real) for z in r
                      if abs(z.imag) <= 1e-9 * abs(z))

    def fold_eps_sq(self):
        """(lower, upper) squared drive at the folds, or None without folds.

        The folds are the extrema of eps^2(x) at positive photon number.
        """
        disc = self.dt ** 2 - 3.0 * self.kh ** 2
        if self.chi == 0.0 or disc <= 0.0:
            return None
        xs = (2.0 * self.dt + np.array([1.0, -1.0]) * math.sqrt(disc)) \
            / (3.0 * self.chi)
        if xs.min() <= 0.0:
            return None
        e = xs * (self.kh ** 2 + (self.dt - self.chi * xs) ** 2)
        return float(e.min()), float(e.max())


def check_roots(cubic: Cubic, points) -> None:
    """Residual of every root and root count against the closed-form window.

    `points` holds (power, eps^2, photon numbers) for each grid point.
    """
    folds = cubic.fold_eps_sq()
    xs, es = [], []
    for power, eps_sq, roots in points:
        m = len(roots)
        if folds is not None:
            lo, hi = folds
            near = min(abs(eps_sq - lo) / lo, abs(eps_sq - hi) / hi)
            if near > FOLD_EXEMPT:
                want = 3 if lo < eps_sq < hi else 1
                require(m == want, f"{m} roots at {power!r} W, closed-form "
                                   f"window says {want}")
        else:
            require(m == 1, f"{m} roots at {power!r} W below threshold")
        xs += roots
        es += [eps_sq] * m
    worst = float(cubic.residuals(xs, es).max()) if xs else 0.0
    require(worst <= RESIDUAL_LIMIT, f"root residual {worst:.3e} above "
                                     f"{RESIDUAL_LIMIT:g}")


def check_curve(curve, derived, drives) -> int:
    """`check_roots` on a curve object; returns the number of power points."""
    for pt in curve.points:
        require(pt.error is None, f"unsolved point at {pt.power!r} W: "
                                  f"{pt.error}")
    check_roots(Cubic(derived, drives, curve.convention),
                [(pt.power, pt.eps_sq, [b.photon_number for b in pt.branches])
                 for pt in curve.points])
    return len(curve.points)


def _check_printed(cubics, points) -> None:
    """`check_roots` on printed (family value, power, photon numbers).

    `cubics` maps each family value, or None for a single curve, to its
    cubic; eps^2 is recomputed from the printed power.
    """
    by_value: dict = {}
    for value, power, roots in points:
        require(value in cubics, f"unexpected family value {value!r}")
        cubic = cubics[value]
        by_value.setdefault(value, []).append(
            (power, cubic.eps_sq(power), roots))
    for value, pts in by_value.items():
        check_roots(cubics[value], pts)


def check_jumps(trace, lo_power, hi_power, step) -> None:
    """Loop jumps within one grid step of the folds (lo_power < hi_power)."""
    require(trace.loop_area_exists, "loop has no upward and downward jump")
    require(abs(trace.up_jump - hi_power) <= step,
            f"upward jump {trace.up_jump!r} W not within a step of the fold "
            f"{hi_power!r} W")
    require(abs(trace.down_jump - lo_power) <= step,
            f"downward jump {trace.down_jump!r} W not within a step of the "
            f"fold {lo_power!r} W")


def settled_on(x: float, root: float) -> bool:
    return abs(x - root) <= SETTLE_LIMIT * abs(root)


def _data_rows(text: str) -> list[list[str]]:
    """CSV rows after the `#` preamble, header first."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def check_csv_points(text: str, header: str, n_points: int, cubics) -> int:
    """A curve or family CSV: every grid point once, branches numbered 0..m-1,
    and the printed roots checked against `cubics` (see `_check_printed`).

    Returns the number of power points.
    """
    rows = _data_rows(text)
    require(bool(rows) and ",".join(rows[0]) == header,
            f"header is not {header!r}")
    names = header.split(",")
    key_len = names.index("branch_index")
    x_col = names.index("photon_number")
    branches: dict[tuple[str, ...], list[int]] = {}
    roots: dict[tuple[str, ...], list[float]] = {}
    for row in rows[1:]:
        require(len(row) == len(rows[0]), f"row of {len(row)} fields")
        key = tuple(row[:key_len])
        branches.setdefault(key, []).append(int(row[key_len]))
        roots.setdefault(key, []).append(float(row[x_col]))
    require(len(branches) == n_points,
            f"{len(branches)} power points, expected {n_points}")
    for idx in branches.values():
        require(idx == list(range(len(idx))) and 1 <= len(idx) <= 3,
                f"branch indices {idx}")
    _check_printed(cubics, [
        (float(key[0]) if key_len == 2 else None, float(key[-1]), xs)
        for key, xs in roots.items()])
    return n_points


def check_csv_keys(text: str, n_keys: int) -> dict[str, str]:
    """A key,value CSV with `n_keys` rows, as a dict."""
    rows = _data_rows(text)
    require(bool(rows) and rows[0] == ["key", "value"], "no key,value header")
    require(len(rows) - 1 == n_keys,
            f"{len(rows) - 1} key rows, expected {n_keys}")
    return dict(rows[1:])


def check_window(text: str, cubic: Cubic) -> int:
    """The printed fold powers agree with the closed-form folds."""
    keys = check_csv_keys(text, 12)
    folds = cubic.fold_eps_sq()
    require(keys["exists"] == "true" and folds is not None,
            "no window printed or none in closed form")
    per_watt = cubic.eps_sq(1.0)
    for key, eps_sq in (("power_down_W", folds[0]), ("power_up_W", folds[1])):
        want = eps_sq / per_watt
        require(math.isclose(float(keys[key]), want, rel_tol=WINDOW_LIMIT),
                f"{key} = {keys[key]}, closed form gives {want!r}")
    return 0


def check_threshold(text: str, cubic: Cubic) -> int:
    """The printed threshold detuning is sqrt(3) times the half linewidth."""
    keys = check_csv_keys(text, 6)
    want = math.sqrt(3.0) * cubic.kh
    got = float(keys["delta_tilde_rad_s"])
    require(math.isclose(got, want, rel_tol=WINDOW_LIMIT),
            f"threshold detuning {got!r}, closed form gives {want!r}")
    return 0


def check_relaxed(text: str, cubic: Cubic) -> int:
    """A relaxation from vacuum printed the lowest root at its power."""
    keys = check_csv_keys(text, 8)
    power, x = float(keys["power_W"]), float(keys["photon_number"])
    lowest = cubic.roots(cubic.eps_sq(power))[0]
    require(settled_on(x, lowest), f"settled at {x!r}, not within "
                                   f"{SETTLE_LIMIT:g} of the lowest root "
                                   f"{lowest!r}")
    return 1


def check_csv_trace(text: str, n_points: int, cubic: Cubic) -> int:
    """An algebraic hysteresis trace: every grid power up and down, each
    printed photon number a root at its power."""
    rows = _data_rows(text)
    require(bool(rows) and rows[0] == ["direction", "power_W",
                                       "photon_number"],
            "no hysteresis header")
    dirs = [r[0] for r in rows[1:]]
    require(dirs.count("up") == n_points and dirs.count("down") == n_points,
            f"{dirs.count('up')} up and {dirs.count('down')} down rows, "
            f"expected {n_points} each")
    powers = [float(r[1]) for r in rows[1:]]
    worst = float(cubic.residuals([float(r[2]) for r in rows[1:]],
                                  [cubic.eps_sq(p) for p in powers]).max())
    require(worst <= RESIDUAL_LIMIT, f"trace residual {worst:.3e} above "
                                     f"{RESIDUAL_LIMIT:g}")
    return n_points


def _json_points(value, points):
    for p in points:
        require(p["error"] is None and 1 <= len(p["branches"]) <= 3,
                f"JSON point at {p['power_W']!r} W")
        yield value, p["power_W"], [b["photon_number"] for b in p["branches"]]


def check_json_curve(text: str, n_points: int, cubics) -> int:
    doc = json.loads(text)
    points = doc["points"]
    require(len(points) == n_points,
            f"{len(points)} JSON points, expected {n_points}")
    _check_printed(cubics, _json_points(None, points))
    return n_points


def check_json_family(text: str, n_members: int, n_points: int,
                      cubics) -> int:
    doc = json.loads(text)
    members = doc["members"]
    require(len(members) == n_members,
            f"{len(members)} JSON members, expected {n_members}")
    for m in members:
        require(len(m["curve"]) == n_points,
                f"{len(m['curve'])} JSON points, expected {n_points}")
        _check_printed(cubics, _json_points(m["value"], m["curve"]))
    return n_members * n_points
