"""Physical model layer: SI parameters, validation, derived rates.

Unit conventions used throughout the package:
    lengths in m, masses in kg, powers in W, voltages in V, capacitances in F,
    angular frequencies and decay rates in rad/s, phases in rad.

The cavity is driven through one fixed mirror; the near mirror moves and is
charged, and couples electrostatically to a second charged mirror outside the
cavity.  Everything downstream (steady state, stability, dynamics) consumes
the frozen `DerivedParams` snapshot produced by `derive`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import ParameterError

TWO_PI = 2.0 * math.pi


class PhysicalConstants(NamedTuple):
    """Fundamental constants (SI, CODATA 2018)."""

    hbar: float = 1.054571817e-34          # J s
    light_speed: float = 299792458.0       # m / s  (exact)
    coulomb_constant: float = 8.9875517873681764e9  # N m^2 / C^2  (c^2 * 1e-7)


CODATA = PhysicalConstants()


class LinewidthConvention(str, Enum):
    """Cavity amplitude-decay convention used in the steady-state algebra.

    HALF_KAPPA: amplitude decays at kappa/2 (the default; kappa is the full
    width of the Lorentzian response).  FULL_KAPPA: amplitude decays at kappa.
    The alternate form exists to probe how the bistability threshold scales.
    """

    HALF_KAPPA = "half-kappa"
    FULL_KAPPA = "kappa"


def canonical_phase(phi: float) -> float:
    """Map a phase to [0, 2*pi) using exact float remainder arithmetic."""
    r = math.fmod(phi, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # guard the rounding of r + 2*pi for tiny negative r
        r = 0.0
    return r


class CoulombSpec(NamedTuple):
    """Electrostatic mirror-mirror coupling, either direct or geometric.

    Direct form: `gc` is the coupling rate G_c in rad/s.  Geometric form:
    `gc` is None and the bias capacitances, voltages and equilibrium mirror
    spacing determine the rate.
    """

    gc: float | None = 0.0
    cap1: float | None = None   # F
    cap2: float | None = None   # F
    volt1: float | None = None  # V
    volt2: float | None = None  # V
    spacing: float | None = None  # m

    @classmethod
    def direct(cls, gc: float) -> "CoulombSpec":
        return cls(gc=gc)

    @classmethod
    def geometric(cls, cap1: float, cap2: float, volt1: float, volt2: float,
                  spacing: float) -> "CoulombSpec":
        return cls(gc=None, cap1=cap1, cap2=cap2, volt1=volt1, volt2=volt2,
                   spacing=spacing)

    @property
    def is_geometric(self) -> bool:
        return self.gc is None


class _Drives(NamedTuple):
    eps1: float = 0.0
    eps2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0


def _phase(name: str, phi: float) -> float:
    if not math.isfinite(phi):
        raise ParameterError(name, f"must be finite, got {phi!r}")
    return canonical_phase(phi)


class DriveSpec(_Drives):
    """Mechanical drive tones on the two mirrors.

    Amplitudes eps1/eps2 in rad/s, static phases phi1/phi2 in rad (stored
    canonically in [0, 2*pi)).  Every construction checks and canonicalizes
    the phases, `_replace` included.
    """

    __slots__ = ()

    def __new__(cls, eps1: float = 0.0, eps2: float = 0.0, phi1: float = 0.0,
                phi2: float = 0.0) -> "DriveSpec":
        return super().__new__(cls, eps1, eps2, _phase("phi1", phi1),
                               _phase("phi2", phi2))

    @classmethod
    def _make(cls, iterable) -> "DriveSpec":
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)


class SystemParams(NamedTuple):
    """Raw system inputs in SI units.

    `g0` is the single-photon optomechanical coupling rate in rad/s, or None
    to derive it from the cavity geometry.  `delta_c` is the cavity-laser
    detuning omega_c - omega_l (positive means the laser is red of the
    cavity).
    """

    cavity_length: float
    wavelength: float
    mass1: float
    mass2: float
    omega1: float
    omega2: float
    gamma1: float
    gamma2: float
    kappa: float
    delta_c: float
    drive_power: float
    g0: float | None = None
    coulomb: CoulombSpec = CoulombSpec.direct(0.0)


class Diagnostic(NamedTuple):
    level: str   # "error" or "warning"
    field: str
    message: str


_POSITIVE_FIELDS = ("cavity_length", "wavelength", "mass1", "mass2",
                    "omega1", "omega2", "gamma1", "gamma2", "kappa")


def validate(params: SystemParams) -> list[Diagnostic]:
    """Report every parameter problem without raising.

    Errors make `derive` fail; warnings flag physically suspect but legal
    inputs (for example an unresolved mechanical sideband).
    """
    out: list[Diagnostic] = []

    def err(field, msg):
        out.append(Diagnostic("error", field, msg))

    for name in _POSITIVE_FIELDS:
        v = getattr(params, name)
        if not math.isfinite(v) or v <= 0.0:
            err(name, f"must be finite and > 0, got {v!r}")
    v = params.drive_power
    if not math.isfinite(v) or v < 0.0:
        err("drive_power", f"must be finite and >= 0, got {v!r}")
    if not math.isfinite(params.delta_c):
        err("delta_c", "must be finite")
    if params.g0 is not None and (not math.isfinite(params.g0) or params.g0 < 0.0):
        err("g0", f"must be finite and >= 0 when given, got {params.g0!r}")

    cs = params.coulomb
    if cs.is_geometric:
        for name in CoulombSpec._fields[1:]:
            v = getattr(cs, name)
            if v is None or not math.isfinite(v):
                err(f"coulomb.{name}", "geometric coupling needs a finite value")
            elif name == "spacing" and v <= 0.0:
                err("coulomb.spacing", f"must be > 0, got {v!r}")
            elif name != "spacing" and v < 0.0:
                err(f"coulomb.{name}", f"must be >= 0, got {v!r}")
    else:
        if not math.isfinite(cs.gc) or cs.gc < 0.0:
            err("coulomb.gc", f"must be finite and >= 0, got {cs.gc!r}")
        for name in CoulombSpec._fields[1:]:
            if getattr(cs, name) is not None:
                err(f"coulomb.{name}", "conflicts with a direct gc value")

    if not out and params.kappa >= params.omega1:
        out.append(Diagnostic("warning", "kappa",
                              "cavity linewidth exceeds the mechanical "
                              "frequency; sidebands are unresolved"))
    return out


def zero_point_length(mass: float, omega: float) -> float:
    """Mechanical zero-point length sqrt(hbar / (2 m omega)) in m."""
    return math.sqrt(CODATA.hbar / (2.0 * mass * omega))


def _coulomb_rate_per_area(spec: CoulombSpec) -> float | None:
    """Per-area rate k_e C1 V1 C2 V2 / (hbar r0^3) for geometric input.

    Multiplied by the two zero-point lengths, it gives the mirror-mirror
    rate G_c in rad/s.  The r0^-3 law is the leading dipole term of the expanded Coulomb
    interaction between the biased mirrors.  None for direct input.
    """
    if not spec.is_geometric:
        return None
    return (CODATA.coulomb_constant * spec.cap1 * spec.volt1
            * spec.cap2 * spec.volt2 / (CODATA.hbar * spec.spacing ** 3))


class DerivedParams(NamedTuple):
    """Frozen snapshot of the rates that everything downstream reads.

    omega_l: laser angular frequency; g0 the single-photon optomechanical
    rate; gc the mirror-mirror rate; x_zpf1/x_zpf2 the mirrors' zero-point
    lengths; kappa, delta_c, omega1, omega2, gamma1 and gamma2 as in
    SystemParams.  `convention` fixes the cavity amplitude decay `kh` for
    the whole run.
    """

    omega_l: float
    g0: float
    gc: float
    x_zpf1: float
    x_zpf2: float
    kappa: float
    delta_c: float
    omega1: float
    omega2: float
    gamma1: float
    gamma2: float
    convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA

    @property
    def kh(self) -> float:
        """Cavity amplitude decay: kappa/2, or kappa under FULL_KAPPA."""
        if self.convention == LinewidthConvention.FULL_KAPPA:
            return self.kappa
        return 0.5 * self.kappa


def derive(params: SystemParams, drives: DriveSpec | None = None,
           convention: LinewidthConvention = LinewidthConvention.HALF_KAPPA,
           ) -> DerivedParams:
    """Resolve every derived quantity, rejecting invalid inputs.

    Raises ParameterError naming the first offending field, or
    "convention" unless convention is a LinewidthConvention.  The result is
    deterministic and frozen; calling derive twice on equal inputs yields
    equal snapshots.
    """
    for diag in validate(params):
        if diag.level == "error":
            raise ParameterError(diag.field, diag.message)
    if not isinstance(convention, LinewidthConvention):
        raise ParameterError("convention", "must be a LinewidthConvention, "
                                           f"got {convention!r}")
    if drives is not None:
        for name in ("eps1", "eps2"):
            v = getattr(drives, name)
            if not math.isfinite(v) or v < 0.0:
                raise ParameterError(name, f"must be finite and >= 0, got {v!r}")

    omega_c = TWO_PI * CODATA.light_speed / params.wavelength
    omega_l = omega_c - params.delta_c
    if omega_l <= 0.0:
        raise ParameterError("delta_c", "detuning places the laser at or "
                                        "below zero frequency")
    g_per_len = omega_c / params.cavity_length
    xz1 = zero_point_length(params.mass1, params.omega1)
    xz2 = zero_point_length(params.mass2, params.omega2)
    g0 = params.g0 if params.g0 is not None else g_per_len * xz1

    gc_per_area = _coulomb_rate_per_area(params.coulomb)
    gc = params.coulomb.gc if gc_per_area is None else gc_per_area * xz1 * xz2

    return DerivedParams(omega_l=omega_l, g0=g0, gc=gc, x_zpf1=xz1,
                         x_zpf2=xz2, kappa=params.kappa,
                         delta_c=params.delta_c, omega1=params.omega1,
                         omega2=params.omega2, gamma1=params.gamma1,
                         gamma2=params.gamma2, convention=convention)


def eps_for_power(derived: DerivedParams, power: float) -> float:
    """Input drive amplitude sqrt(2 kappa P / (hbar omega_l)) in 1/s at an
    arbitrary input power, same laser frequency."""
    if not math.isfinite(power):
        raise ParameterError("power", f"must be finite, got {power!r}")
    if power < 0.0:
        raise ParameterError("power", f"must be >= 0, got {power!r}")
    if power == 0.0:
        # -0.0 W gives +0.0, where sqrt(-0.0) would give -0.0
        return 0.0
    return math.sqrt(2.0 * derived.kappa * power
                     / (CODATA.hbar * derived.omega_l))


def power_for_eps_sq(derived: DerivedParams, eps_sq: float) -> float:
    """Input power in W that produces a given squared drive amplitude."""
    return eps_sq * CODATA.hbar * derived.omega_l / (2.0 * derived.kappa)
