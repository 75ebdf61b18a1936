"""Steady-state algebra: susceptibilities, photon-number cubic, folds.

Eliminating the mirror amplitudes from the fixed-point equations leaves a
single relation between the intracavity photon number x = |c_s|^2 and the
squared drive amplitude:

    eps_l^2 = x * (kh^2 + (dt - chi * x)^2)

with kh the cavity amplitude decay, dt the drive-offset-shifted detuning and
chi the photon-number pull of the detuning (an effective Kerr slope).
Expanded, that is the cubic a1 x^3 + a2 x^2 + a3 x + a4 = 0 solved here in
closed form and polished by Newton iteration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (ConsistencyError, NumericalError, ResidualError,
                     SingularDenominatorError)
from .model import DerivedParams, DriveSpec, LinewidthConvention

RESIDUAL_CONTRACT = 1e-9          # |cubic(x)| / max(|a4|, 1) for every root


@dataclass(frozen=True)
class Susceptibilities:
    """Linear response of the mirror pair entering the cavity line.

    beta1 maps photon number into b_1s, beta2 and beta3 map the two drive
    tones; alpha1 is the real projection of beta1 onto b_1s + conj(b_1s).
    The rest are fixed per sweep and read by steady_fields in place of its
    `drives`: mirror root d2, tone2 = eps2 e^{-i phi2}, beta3 eps1 e^{-i phi1},
    beta2 tone2 and the static drive offset Gamma = alpha2 eps2 + alpha3 eps1,
    with alpha2/alpha3 the real projections of the two phased tone terms.
    """

    beta1: complex
    beta2: complex
    beta3: complex
    alpha1: float
    d2: complex
    tone2: complex
    tone1_term: complex
    tone2_term: complex
    offset: float


def susceptibilities(derived: DerivedParams, drives: DriveSpec) -> Susceptibilities:
    """Compute the beta/alpha response layer for the given drives."""
    d1 = complex(0.5 * derived.gamma1, derived.omega1)
    d2 = complex(0.5 * derived.gamma2, derived.omega2)
    gc = derived.gc
    den = d1 * d2 + gc * gc
    if abs(den) < 1e-300:
        raise SingularDenominatorError(
            "mirror response denominator vanished",
            {"denominator": den, "gc": gc})

    beta1 = 1j * derived.g0 * d2 / den
    beta2 = -1j * gc / den
    beta3 = d2 / den
    phase1, phase2 = cmath.exp(-1j * drives.phi1), cmath.exp(-1j * drives.phi2)
    alpha2 = 2.0 * (beta2 * phase2).real
    alpha3 = 2.0 * (beta3 * phase1).real
    tone1, tone2 = drives.eps1 * phase1, drives.eps2 * phase2
    return Susceptibilities(
        beta1=beta1, beta2=beta2, beta3=beta3, alpha1=2.0 * beta1.real, d2=d2,
        tone2=tone2, tone1_term=beta3 * tone1, tone2_term=beta2 * tone2,
        offset=alpha2 * drives.eps2 + alpha3 * drives.eps1)


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of the photon-number cubic plus its building blocks."""

    a1: float
    a2: float
    a3: float
    a4: float
    delta_tilde: float       # delta_c - g0 * Gamma
    kerr_slope: float        # chi = g0 * alpha1
    half_linewidth: float    # cavity amplitude decay used in a3


def cubic_coefficients(derived: DerivedParams, susc: Susceptibilities,
                       eps_l: float) -> CubicCoefficients:
    """Expand eps_l^2 = x (kh^2 + (dt - chi x)^2) into polynomial form."""
    kh = derived.kh
    chi = derived.g0 * susc.alpha1
    dt = derived.delta_c - derived.g0 * susc.offset
    return CubicCoefficients(
        a1=chi * chi,
        a2=-2.0 * chi * dt,
        a3=kh * kh + dt * dt,
        a4=-(eps_l * eps_l),
        delta_tilde=dt,
        kerr_slope=chi,
        half_linewidth=kh,
    )


def cubic_value(coeffs: CubicCoefficients, x: float) -> float:
    return ((coeffs.a1 * x + coeffs.a2) * x + coeffs.a3) * x + coeffs.a4


def cubic_slope(coeffs: CubicCoefficients, x: float) -> float:
    return (3.0 * coeffs.a1 * x + 2.0 * coeffs.a2) * x + coeffs.a3


def relative_residual(coeffs: CubicCoefficients, x: float) -> float:
    return abs(cubic_value(coeffs, x)) / max(abs(coeffs.a4), 1.0)


def _real_cubic_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d, trigonometric/Cardano form."""
    if d == 0.0 and (a != 0.0 or b != 0.0 or c != 0.0):
        # zero root is exact; factoring keeps it from drifting negative
        return sorted([0.0] + _real_cubic_roots(0.0, a, b, c))
    if a == 0.0:
        if b == 0.0:
            if c == 0.0:
                return []          # constant; no isolated roots
            return [-d / c]
        disc = c * c - 4.0 * b * d
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        q = -0.5 * (c + math.copysign(s, c)) if c != 0.0 else 0.5 * s
        roots = []
        if q != 0.0:
            roots.append(q / b)
            if d != 0.0:
                roots.append(d / q)
            else:
                roots.append(0.0)
        else:
            roots.extend([0.0, -c / b])
        return sorted(roots)

    # depressed form t^3 + p t + q with x = t - b/(3a)
    bn, cn, dn = b / a, c / a, d / a
    shift = bn / 3.0
    p = cn - bn * bn / 3.0
    q = 2.0 * bn ** 3 / 27.0 - bn * cn / 3.0 + dn
    disc = -4.0 * p ** 3 - 27.0 * q * q

    if disc > 0.0:
        # three real roots, p < 0 guaranteed
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        return sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift
                      for k in range(3))

    if p == 0.0 and q == 0.0:
        return [-shift]

    # single real root via the cancellation-safe Cardano form
    s = math.sqrt(max(q * q / 4.0 + p ** 3 / 27.0, 0.0))
    w = -0.5 * q - math.copysign(s, q)
    if w == 0.0:   # only p == q == 0 reaches here, handled above
        return [-shift]
    u = math.copysign(abs(w) ** (1.0 / 3.0), w)
    t = u - p / (3.0 * u)
    return [t - shift]


def _polish_root(coeffs: CubicCoefficients, x: float) -> float:
    """Newton-polish a root; near folds fall back to the slope extremum."""
    f = cubic_value(coeffs, x)
    best_x, best_f = x, abs(f)
    scale = max(abs(x), 1.0)
    seen = set()
    for _ in range(60):
        fp = cubic_slope(coeffs, x)
        if fp == 0.0:
            break
        step = f / fp
        if abs(step) > 0.5 * scale:   # diverging; keep the best seen
            break
        x -= step
        f = cubic_value(coeffs, x)   # the next pass's step reuses it
        if abs(f) < best_f:
            best_x, best_f = x, abs(f)
        # relative to x itself: tiny roots need steps far below 1 ulp of 1.0
        if abs(step) <= 1e-16 * abs(x):
            break
        # a repeat means a cycle of iterates already scored: best_x is final
        if x in seen:
            break
        seen.add(x)
    return best_x


def _polish_fold(coeffs: CubicCoefficients, x: float) -> float:
    """Newton on the cubic slope, locating the extremum near a double root."""
    for _ in range(60):
        fp = cubic_slope(coeffs, x)
        fpp = 6.0 * coeffs.a1 * x + 2.0 * coeffs.a2
        if fpp == 0.0:
            break
        step = fp / fpp
        x -= step
        if abs(step) <= 1e-16 * max(abs(x), 1.0):
            break
    return x


@dataclass(frozen=True)
class PhotonRoots:
    """Nonnegative real roots of the photon-number cubic, ascending."""

    roots: tuple[float, ...]
    residuals: tuple[float, ...]   # relative, per root

    def __len__(self) -> int:
        return len(self.roots)


def solve_photon_roots(coeffs: CubicCoefficients) -> PhotonRoots:
    """All physical roots, each meeting the residual contract.

    Generic parameters give 1 or 3 roots; exact folds give 2.  Raises
    ResidualError with the worst offender if polishing cannot meet the
    contract.
    """
    raw = _real_cubic_roots(coeffs.a1, coeffs.a2, coeffs.a3, coeffs.a4)
    polished = []
    for x in raw:
        y = _polish_root(coeffs, x)
        if (ry := relative_residual(coeffs, y)) > RESIDUAL_CONTRACT:
            # stalled on a flat near-fold pair: retarget the extremum
            z = _polish_fold(coeffs, y)
            if relative_residual(coeffs, z) < ry:
                y = z
        polished.append(y)

    polished.sort()
    merged: list[float] = []
    for x in polished:
        if merged and abs(x - merged[-1]) <= 1e-9 * max(abs(x), abs(merged[-1]), 1.0):
            continue
        merged.append(x)

    scale = max((abs(r) for r in merged), default=1.0)
    result = []
    for x in merged:
        if x < 0.0:
            if abs(x) <= 1e-12 * scale:
                x = 0.0
            else:
                continue   # negative roots are unphysical (x = |c|^2)
        result.append(x)

    residuals = tuple(relative_residual(coeffs, x) for x in result)
    worst = max(residuals, default=0.0)
    if worst > RESIDUAL_CONTRACT:
        raise ResidualError(
            "root residual contract violated",
            {"worst_residual": worst, "roots": tuple(result),
             "coefficients": (coeffs.a1, coeffs.a2, coeffs.a3, coeffs.a4)})
    return PhotonRoots(roots=tuple(result), residuals=residuals)


@dataclass(frozen=True)
class CriticalPoints:
    """Fold locations of the S-curve in photon number."""

    x_c_minus: float
    x_c_plus: float
    x_inf: float
    exists: bool
    reason: str | None = None


def critical_points(coeffs: CubicCoefficients) -> CriticalPoints:
    """Extrema of the drive power along the steady-state curve.

    The folds exist when the shifted detuning exceeds sqrt(3) times the
    amplitude decay; below that the response is single valued.
    """
    nan = math.nan
    if coeffs.a1 == 0.0:
        return CriticalPoints(nan, nan, nan, False, "no_cubic_nonlinearity")
    chi, dt, kh = coeffs.kerr_slope, coeffs.delta_tilde, coeffs.half_linewidth
    disc = dt * dt - 3.0 * kh * kh
    x_inf = 2.0 * dt / (3.0 * chi)
    if disc < 0.0 or x_inf <= 0.0:
        return CriticalPoints(nan, nan, x_inf if x_inf > 0.0 else nan,
                              False, "below_threshold")
    half = math.sqrt(disc) / (3.0 * chi)
    return CriticalPoints(x_c_minus=x_inf - half, x_c_plus=x_inf + half,
                          x_inf=x_inf, exists=True)


@dataclass(frozen=True)
class ThresholdDetuning:
    """Detuning at which the folds first exist, under the run's convention."""

    delta_tilde: float       # rad/s
    in_kappa_units: float
    delta_c: float           # the raw detuning producing that delta_tilde
    convention: LinewidthConvention


def threshold_detuning(derived: DerivedParams,
                       susc: Susceptibilities) -> ThresholdDetuning:
    """Closed-form existence threshold sqrt(3) * (amplitude decay)."""
    dt = math.sqrt(3.0) * derived.kh
    return ThresholdDetuning(delta_tilde=dt,
                             in_kappa_units=dt / derived.kappa,
                             delta_c=dt + derived.g0 * susc.offset,
                             convention=derived.convention)


@dataclass(frozen=True)
class SteadyStateFields:
    """Per-root steady operating point of cavity and mirrors."""

    photon_number: float
    c_s: complex
    b_1s: complex
    b_2s: complex
    q_1s: float              # m
    q_2s: float              # m
    effective_detuning: float  # rad/s


def steady_fields(
    x: float,
    derived: DerivedParams,
    susc: Susceptibilities,
    drives: DriveSpec,
    eps_l: float | None = None,
) -> SteadyStateFields:
    """Reconstruct all steady fields from a photon-number root.

    Cross-checks |c_s|^2 against x to 1e-9 relative; a violation means the
    supplied x does not solve the cubic for this drive.
    """
    if eps_l is None:
        eps_l = derived.eps_l
    b1 = susc.beta1 * x + susc.tone1_term + susc.tone2_term
    b2 = (-1j * derived.gc * b1 + susc.tone2) / susc.d2
    det = derived.delta_c - derived.g0 * (susc.alpha1 * x + susc.offset)
    c_s = eps_l / complex(derived.kh, det)

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


def fold_powers_eps_sq(coeffs: CubicCoefficients,
                       crit: CriticalPoints) -> tuple[float, float]:
    """Squared drive amplitudes at the two folds (up fold, down fold)."""
    if not crit.exists:
        raise NumericalError("no folds below threshold", {"crit": crit})

    def eps_sq(x):
        dt, chi, kh = coeffs.delta_tilde, coeffs.kerr_slope, coeffs.half_linewidth
        return x * (kh * kh + (dt - chi * x) ** 2)

    return eps_sq(crit.x_c_minus), eps_sq(crit.x_c_plus)
