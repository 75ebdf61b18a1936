"""Bistability of a driven cavity with two charged, coupled mirrors.

Steady-state photon numbers come from a cubic in closed form, branches are
classified by the linearized spectrum, folds and their detuning threshold in
closed form, and an independent mean-field integrator cross-checks all of it
in the time domain.
"""

from .bifurcation import (BistabilityCurve, BistabilityWindow, BranchSolution,
                          CurvePoint, FamilyMember, FamilyResult,
                          HysteresisTrace, auto_power_grid,
                          bistability_window, family_sweep,
                          hysteresis_from_curve, power_sweep, solve_point)
from .config import RunConfig, load_config, parse_config_text
from .errors import (ConfigError, ConsistencyError, ConvergenceError,
                     EigenvalueError, NeomsError, NoBistabilityError,
                     NumericalError, ParameterError, ResidualError,
                     SingularDenominatorError, StiffnessError)
from .model import (CODATA, CoulombSpec, DerivedParams, DriveSpec,
                    LinewidthConvention, PhysicalConstants, SystemParams,
                    canonical_phase, derive, eps_for_power, power_for_eps_sq,
                    validate)
from .presets import PRESETS, Preset, get_preset
from .stability import Method
from .steady_state import (CriticalPoints, CubicCoefficients, PhotonRoots,
                           SteadyStateFields, Susceptibilities,
                           ThresholdDetuning, critical_points,
                           cubic_coefficients, fold_powers_eps_sq,
                           solve_photon_roots, steady_fields,
                           susceptibilities, threshold_detuning)

__version__ = "0.1.0"

# `dynamics` is imported on first use: only time-domain runs need it, and
# loading it eagerly would add its import time to every algebraic command.
_DYNAMICS_NAMES = frozenset({"ORIGIN", "MeanFieldState", "hysteresis_loop",
                             "relax_to_steady"})


def __getattr__(name: str):
    """Serve the `dynamics` names on first use."""
    if name in _DYNAMICS_NAMES:
        from . import dynamics
        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
