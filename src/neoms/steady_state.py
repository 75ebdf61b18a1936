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
from operator import itemgetter

from .errors import (ConsistencyError, NumericalError, ResidualError,
                     SingularDenominatorError)
from .model import DerivedParams, DriveSpec, LinewidthConvention

RESIDUAL_CONTRACT = 1e-9          # |cubic(x)| / max(|a4|, 1) for every root


@dataclass(frozen=True)
class Susceptibilities:
    """Linear response of the mirror pair entering the cavity line.

    beta1 maps photon number into b_1s, beta2 and beta3 map the two drive
    tones; alpha1 is the real projection of beta1 onto b_1s + conj(b_1s).
    The rest are fixed per sweep and read by steady_columns in place of the
    drives: mirror root d2, tone2 = eps2 e^{-i phi2}, beta3 eps1 e^{-i phi1},
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


def _real_cubic_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d, trigonometric/Cardano form,
    for the photon-number cubic: with no drive x = 0 is its one root."""
    if d == 0.0:
        return [0.0]
    # depressed form t^3 + p t + q with x = t - b/(3a)
    try:
        bn, cn, dn = b / a, c / a, d / a
        shift = bn / 3.0
        p = cn - bn * bn / 3.0
        q = 2.0 * bn ** 3 / 27.0 - bn * cn / 3.0 + dn
        disc = -4.0 * p ** 3 - 27.0 * q * q
    except (ZeroDivisionError, OverflowError):
        # a = chi^2 is 0, or so small that ** overflows: c x + d seeds it
        return [-d / c] if c != 0.0 else []

    if disc > 0.0:
        # three real roots, p < 0 guaranteed
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        return sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift
                      for k in range(3))

    # single real root via the cancellation-safe Cardano form
    s = math.sqrt(max(q * q / 4.0 + p ** 3 / 27.0, 0.0))
    w = -0.5 * q - math.copysign(s, q)
    if w == 0.0:   # p == q == 0: a triple root
        return [-shift]
    u = math.copysign(abs(w) ** (1.0 / 3.0), w)
    t = u - p / (3.0 * u)
    return [t - shift]


def _polish_root(a1: float, a2: float, a3: float, a4: float,
                 x: float) -> tuple[float, float]:
    """Newton-polish a root of a1 x^3 + a2 x^2 + a3 x + a4.

    Returns the best iterate and its |cubic| value.
    """
    f = ((a1 * x + a2) * x + a3) * x + a4
    best_x, best_f = x, abs(f)
    scale = max(abs(x), 1.0)
    seen = set()
    for _ in range(60):
        fp = (3.0 * a1 * x + 2.0 * a2) * x + a3
        if fp == 0.0:
            break
        step = f / fp
        if abs(step) > 0.5 * scale:   # diverging; keep the best seen
            break
        x -= step
        # the next pass's step reuses it
        f = ((a1 * x + a2) * x + a3) * x + a4
        if abs(f) < best_f:
            best_x, best_f = x, abs(f)
        # relative to x itself: tiny roots need steps far below 1 ulp of 1.0
        if abs(step) <= 1e-16 * abs(x):
            break
        # a repeat means a cycle of iterates already scored: best_x is final
        if x in seen:
            break
        seen.add(x)
    return best_x, best_f


@dataclass(frozen=True)
class PhotonRoots:
    """Nonnegative real roots of the photon-number cubic, ascending."""

    roots: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.roots)


def photon_roots(a1: float, a2: float, a3: float,
                 a4: float) -> tuple[float, ...]:
    """Real roots of the photon-number cubic a1 x^3 + a2 x^2 + a3 x + a4.

    The roots are ascending, each meeting the residual contract
    |cubic(x)| / max(|a4|, 1) <= RESIDUAL_CONTRACT; none is negative, as
    the cubic is at most a4 = -eps^2 for x <= 0.  Generic parameters give
    1 or 3 roots; exact folds give 2.  Raises ResidualError with the worst
    offender if polishing cannot meet the contract; a NaN residual never
    meets it.
    """
    scale = max(abs(a4), 1.0)
    polished = []       # (root, its relative residual)
    for x in _real_cubic_roots(a1, a2, a3, a4):
        y, fy = _polish_root(a1, a2, a3, a4, x)
        ry = fy / scale
        if not ry <= RESIDUAL_CONTRACT and a3 != 0.0:
            # a root far below the inflection -a2/(3 a1) is lost to
            # cancellation in x = t - shift; there the cubic is linear
            z, fz = _polish_root(a1, a2, a3, a4, -a4 / a3)
            if fz / scale <= RESIDUAL_CONTRACT:
                y, ry = z, fz / scale
        polished.append((y, ry))
    polished.sort(key=itemgetter(0))

    # a near-fold pair can polish onto one root: keep the lower copy
    roots, worst = [], 0.0
    for x, r in polished:
        if roots and abs(x - roots[-1]) <= 1e-9 * max(abs(x), abs(roots[-1]),
                                                       1.0):
            continue
        roots.append(x)
        if r > worst or math.isnan(r):   # a NaN stays the worst
            worst = r
    if not worst <= RESIDUAL_CONTRACT:
        raise ResidualError(
            "root residual contract violated",
            {"worst_residual": worst, "roots": tuple(roots),
             "coefficients": (a1, a2, a3, a4)})
    return tuple(roots)


def solve_photon_roots(coeffs: CubicCoefficients) -> PhotonRoots:
    """All physical roots of one cubic: `photon_roots` of its coefficients."""
    return PhotonRoots(photon_roots(coeffs.a1, coeffs.a2, coeffs.a3,
                                    coeffs.a4))


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
    amplitude decay and has the sign of the Kerr slope; below that the
    response is single valued ("below_threshold"), and above it on the
    other side it is too ("wrong_detuning_side").  x_c_minus < x_c_plus
    whatever the slope's sign.
    """
    nan = math.nan
    if coeffs.a1 == 0.0:
        return CriticalPoints(nan, nan, nan, False, "no_cubic_nonlinearity")
    chi, dt, kh = coeffs.kerr_slope, coeffs.delta_tilde, coeffs.half_linewidth
    disc = dt * dt - 3.0 * kh * kh
    x_inf = 2.0 * dt / (3.0 * chi)
    if disc < 0.0 or x_inf <= 0.0:
        reason = "below_threshold" if disc < 0.0 else "wrong_detuning_side"
        return CriticalPoints(nan, nan, x_inf if x_inf > 0.0 else nan,
                              False, reason)
    half = math.sqrt(disc) / (3.0 * abs(chi))
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
    """Closed-form existence threshold sqrt(3) * (amplitude decay), on the
    side of the Kerr slope's sign: negative only when the slope is."""
    dt = math.sqrt(3.0) * derived.kh
    if derived.g0 * susc.alpha1 < 0.0:
        dt = -dt
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


def steady_columns(xs, eps, derived: DerivedParams, susc: Susceptibilities):
    """Steady fields of photon-number roots, as columns.

    `xs` are roots and `eps[i]` the drive amplitude at which xs[i] solves
    the cubic.  Returns the lists (c_s, b_1s, b_2s, q_1s, q_2s, effective
    detuning), one entry per root.  Cross-checks |c_s|^2 against each x to
    1e-9 relative; a violation means that x does not solve the cubic for
    its drive.
    """
    beta1, tone1_term = susc.beta1, susc.tone1_term
    tone2_term, tone2, d2 = susc.tone2_term, susc.tone2, susc.d2
    delta_c, g0, alpha1, offset = (derived.delta_c, derived.g0, susc.alpha1,
                                   susc.offset)
    kh = derived.kh
    # x_zpf * 2.0 * re(b) and -1j * gc * b1 associate left to right, so
    # taking the constant products out of the loop keeps every bit
    gc_term = -1j * derived.gc
    zpf1, zpf2 = derived.x_zpf1 * 2.0, derived.x_zpf2 * 2.0
    cs, b1s, b2s, q1s, q2s, dets = [], [], [], [], [], []
    for x, eps_l in zip(xs, eps):
        b1 = beta1 * x + tone1_term + tone2_term
        b2 = (gc_term * b1 + tone2) / d2
        det = delta_c - g0 * (alpha1 * x + offset)
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

        cs.append(c_s)
        b1s.append(b1)
        b2s.append(b2)
        q1s.append(zpf1 * b1.real)
        q2s.append(zpf2 * b2.real)
        dets.append(det)
    return cs, b1s, b2s, q1s, q2s, dets


def steady_fields(
    x: float,
    derived: DerivedParams,
    susc: Susceptibilities,
    drives: DriveSpec,
    eps_l: float | None = None,
) -> SteadyStateFields:
    """Reconstruct all steady fields from one photon-number root:
    `steady_columns` of one.  `eps_l` defaults to the derived drive."""
    if eps_l is None:
        eps_l = derived.eps_l
    (c_s,), (b1,), (b2,), (q1,), (q2,), (det,) = steady_columns(
        (x,), (eps_l,), derived, susc)
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
