"""Random operating points for property and acceptance tests.

Two families:

* `reference_draw` scatters log-uniformly around the headline operating
  point; used where only the algebra matters (root solving, stability
  bookkeeping), and permits the narrow-linewidth regime.
* `clean_system` stays in a sideband-resolved window where every stable
  branch is dynamically attracting, so time-domain relaxation and ramps
  have a well-defined target.  The window was mapped empirically:
  linewidths of 2pi*20..60 kHz against mechanical frequencies near
  2pi*947 kHz keep the fold margins comfortably away from the
  self-oscillation threshold.
"""

from __future__ import annotations

import math

import numpy as np

from neoms.model import CoulombSpec, DriveSpec, SystemParams, derive
from neoms.steady_state import (
    critical_points,
    cubic_coefficients,
    fold_powers_eps_sq,
    solve_photon_roots,
    susceptibilities,
)

TWO_PI = 2.0 * math.pi

REFERENCE = SystemParams(
    cavity_length=0.25,
    wavelength=1064e-9,
    mass1=145e-12,
    mass2=145e-12,
    omega1=TWO_PI * 947e3,
    omega2=TWO_PI * 947e3,
    gamma1=TWO_PI * 140e3,
    gamma2=TWO_PI * 140e3,
    kappa=TWO_PI * 215e3,
    delta_c=3.6 * TWO_PI * 215e3,
    g0=TWO_PI * 5e3,
    coulomb=CoulombSpec.direct(0.0),
    drive_power=9e-3,
)


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def reference_draw(rng: np.random.Generator, span: float = 3.0) -> SystemParams:
    """Log-uniform scatter of a factor `span` around the reference point."""

    def j(v):
        return log_uniform(rng, v / span, v * span)

    kappa = j(REFERENCE.kappa)
    return REFERENCE._replace(
        omega1=j(REFERENCE.omega1),
        omega2=j(REFERENCE.omega2),
        gamma1=j(REFERENCE.gamma1),
        gamma2=j(REFERENCE.gamma2),
        kappa=kappa,
        delta_c=rng.uniform(1.8, 5.0) * kappa,
        g0=j(REFERENCE.g0),
        coulomb=CoulombSpec.direct(
            0.0 if rng.random() < 0.5
            else log_uniform(rng, TWO_PI * 0.05e6, TWO_PI * 0.6e6)),
        drive_power=j(REFERENCE.drive_power),
    )


def random_tones(rng: np.random.Generator, params: SystemParams) -> DriveSpec:
    return DriveSpec(
        eps1=rng.uniform(0.0, 3.0) * params.omega1,
        eps2=rng.uniform(0.0, 3.0) * params.omega2,
        phi1=rng.uniform(0.0, TWO_PI),
        phi2=rng.uniform(0.0, TWO_PI),
    )


def clean_system(rng: np.random.Generator,
                 with_tones: bool = False,
                 min_detuning_kappa: float = 2.0,
                 max_detuning_kappa: float = 4.5,
                 ) -> tuple[SystemParams, DriveSpec]:
    """Sideband-resolved draw whose stable branches relax cleanly.

    The returned detuning is aimed so the shifted detuning (after the
    static tone offset) lands uniformly in the requested window.
    """
    kappa = TWO_PI * rng.uniform(20e3, 60e3)
    params = REFERENCE._replace(
        kappa=kappa,
        delta_c=kappa,   # placeholder, re-aimed below
        g0=TWO_PI * log_uniform(rng, 2e3, 10e3),
        gamma1=TWO_PI * rng.uniform(70e3, 280e3),
        gamma2=TWO_PI * rng.uniform(70e3, 280e3),
        coulomb=CoulombSpec.direct(
            0.0 if rng.random() < 0.5
            else TWO_PI * rng.uniform(0.05e6, 0.6e6)),
    )
    drives = random_tones(rng, params) if with_tones else DriveSpec()
    # The tone offset Gamma does not involve delta_c, so the bare detuning
    # hitting a target shifted detuning can be set exactly in one shot.
    target = rng.uniform(min_detuning_kappa, max_detuning_kappa) * kappa
    probe = derive(params, drives)
    offs = susceptibilities(probe, drives).offset
    return params._replace(delta_c=target + probe.g0 * offs), drives


def clean_point(rng: np.random.Generator,
                with_tones: bool = False,
                fraction: float | None = None,
                min_detuning_kappa: float = 2.0):
    """A clean draw plus a drive strength strictly inside its fold window.

    Returns (params, derived, drives, eps_sq, roots).  `fraction` places
    the drive geometrically between the folds; defaults to uniform in
    [0.15, 0.85].
    """
    params, drives = clean_system(rng, with_tones=with_tones,
                                  min_detuning_kappa=min_detuning_kappa)
    derived = derive(params, drives)
    susc = susceptibilities(derived, drives)
    shape = cubic_coefficients(derived, susc, eps_l=0.0)
    crit = critical_points(shape)
    assert crit.exists, "clean draw must sit above threshold"
    up, down = fold_powers_eps_sq(shape, crit)
    if fraction is None:
        fraction = rng.uniform(0.15, 0.85)
    eps_sq = down * (up / down) ** fraction
    coeffs = cubic_coefficients(derived, susc, eps_l=math.sqrt(eps_sq))
    roots = solve_photon_roots(coeffs)
    return params, derived, drives, eps_sq, roots
