"""Command line front end.

Exit codes: 0 success, 2 configuration problems (including argparse usage
errors and an --out file that cannot be written), 3 when an operation
required a bistability window the operating point does not have, 4
numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import output
from .bifurcation import (FAMILY_KEYS, auto_power_grid, bistability_window,
                          family_sweep, hysteresis_from_curve, power_sweep)
from .config import RunConfig, load_config, parse_scalar_for_key
from .errors import (ConfigError, NeomsError, NoBistabilityError,
                     NumericalError, ParameterError, ResidualError)
from .model import LinewidthConvention, eps_for_power
from .presets import PRESETS, get_preset
from .stability import Method
from .steady_state import susceptibilities, threshold_detuning

_MIRROR_PANELS = {"fig7", "fig8a", "fig8b", "fig8c", "fig8d"}


class _Result(NamedTuple):
    """What a command computed, with the CSV/JSON writer pair for it.

    Both writers take `*data`, the snapshot of `cfg` and the preset
    assumptions.  A `refusal` is printed to stderr, as it is, after the
    output is written, and exits 3.
    """

    cfg: RunConfig
    data: tuple
    to_csv: Callable[..., str]
    to_json: Callable[..., dict]
    refusal: str | None = None


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _add_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to a run configuration file")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="named built-in operating point")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pmin", type=float,
                   help="lowest drive power in W (default: half the "
                        "downward fold)")
    p.add_argument("--pmax", type=float,
                   help="highest drive power in W (default: twice the "
                        "upward fold)")
    p.add_argument("--points", type=int, default=201,
                   help="number of power grid points (default 201)")


def _add_method(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("eigen", "slope"), default="eigen",
                   help="stability classifier (default eigen)")


def _add_convention(p: argparse.ArgumentParser) -> None:
    p.add_argument("--convention",
                   choices=[c.value for c in LinewidthConvention],
                   help="cavity linewidth convention (default: from config)")


def _load_cfg(args) -> RunConfig:
    if args.preset is not None:
        cfg = get_preset(args.preset).config()
    else:
        cfg = load_config(args.config)
    conv = getattr(args, "convention", None)
    if conv is not None:
        cfg = cfg._replace(convention=LinewidthConvention(conv))
    return cfg


def _method(args) -> Method:
    return Method.EIGEN if args.method == "eigen" else Method.SLOPE_RULE


def _emit(args, result: _Result) -> None:
    """Write `result` as --format asks, to --out or stdout."""
    snap = result.cfg.snapshot()
    notes = get_preset(args.preset).assumptions if args.preset else ()
    if args.format == "csv":
        text = result.to_csv(*result.data, snap, notes)
    else:
        text = output.dumps_json(result.to_json(*result.data, snap, notes))
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output {args.out}: {exc}") from None


def _grid(cfg: RunConfig, args):
    """(derived, power grid) for sweep commands."""
    derived = cfg.derive()
    window = bistability_window(derived, cfg.drives)
    return derived, auto_power_grid(window, args.points, args.pmin, args.pmax)


def _cmd_curve(args, cfg: RunConfig) -> _Result:
    derived, grid = _grid(cfg, args)
    curve = power_sweep(derived, cfg.drives, grid, _method(args))
    return _Result(cfg, (curve,), output.curve_to_csv,
                   functools.partial(output.curve_to_dict, kind=args.kind))


def _cmd_window(args, cfg: RunConfig) -> _Result:
    window = bistability_window(cfg.derive(), cfg.drives)
    refusal = (None if window.exists
               else f"no bistability window: {window.reason}")
    return _Result(cfg, (window,), output.window_to_csv, output.window_json,
                   refusal)


def _cmd_threshold(args, cfg: RunConfig) -> _Result:
    derived = cfg.derive()
    susc = susceptibilities(derived, cfg.drives)
    thr = threshold_detuning(derived, susc)
    return _Result(cfg, (thr, derived.kappa), output.threshold_to_csv,
                   output.threshold_to_dict)


def _cmd_hysteresis(args, cfg: RunConfig) -> _Result:
    factor = args.dwell_factor
    if factor is None:
        factor = cfg.dwell_factor if cfg.dwell_factor is not None else 10.0
    # a bad option is a usage error (exit 2) in both modes, grid or none
    if not (math.isfinite(factor) and factor > 0):
        raise ParameterError("dwell_factor", f"must be finite and > 0, "
                                             f"got {factor!r}")
    derived, grid = _grid(cfg, args)
    if args.mode == "algebraic":
        curve = power_sweep(derived, cfg.drives, grid, _method(args))
        trace = hysteresis_from_curve(curve)
    else:
        from .dynamics import hysteresis_loop
        slow = min(derived.kappa, derived.gamma1, derived.gamma2)
        trace = hysteresis_loop(derived, cfg.drives, grid,
                                dwell=factor / slow)
    return _Result(cfg, (trace,), output.trace_to_csv, output.trace_to_dict)


def _resolve_family(cfg: RunConfig, args) -> RunConfig:
    """`cfg` with the vary key and values of --vary/--values applied."""
    vary = args.vary if args.vary is not None else cfg.vary
    if vary is None:
        raise ConfigError("family needs a vary key, from --vary or the "
                          "config")
    if args.values is not None:
        entries = [e.strip() for e in args.values.split(",")]
        if not all(entries):
            raise ConfigError("empty entry in --values")
        values = tuple(parse_scalar_for_key(vary, e) for e in entries)
    elif cfg.values is not None and cfg.vary == vary:
        values = cfg.values
    else:
        raise ConfigError("family needs values, from --values or the config")
    return cfg._replace(vary=vary, values=values)


def _cmd_family(args, cfg: RunConfig) -> _Result:
    cfg = _resolve_family(cfg, args)
    fam = family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                       n_points=args.points, method=_method(args),
                       convention=cfg.convention,
                       pmin=args.pmin, pmax=args.pmax)
    return _Result(cfg, (fam,), output.family_to_csv, output.family_to_dict)


def _cmd_dynamics(args, cfg: RunConfig) -> _Result:
    from .dynamics import ORIGIN, relax_to_steady
    derived = cfg.derive()
    power = args.power if args.power is not None else cfg.params.drive_power
    eps = eps_for_power(derived, power)
    if not math.isfinite(eps):
        raise ParameterError("power", f"drive amplitude overflows at "
                                      f"{power!r} W")
    try:
        fields = relax_to_steady(ORIGIN, derived, cfg.drives, eps)
    except ResidualError as exc:
        # a finite drive whose cubic overflows leaves a residual of inf or nan
        if math.isfinite(exc.diagnostics.get("worst_residual", 0.0)):
            raise
        raise ParameterError("power", f"steady-state cubic overflows at "
                                      f"{power!r} W") from exc
    return _Result(cfg, (fields, power), output.fields_to_csv,
                   output.fields_to_dict)


def _cmd_fig(args, cfg: RunConfig) -> _Result:
    if cfg.vary is not None:
        return _cmd_family(args, cfg)
    args.kind = "mirror" if args.preset in _MIRROR_PANELS else "curve"
    return _cmd_curve(args, cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neoms",
        description="Steady-state bistability and mean-field dynamics of a "
                    "driven cavity with two charged mirrors")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, text in (("curve", "photon-number response over a power "
                                 "grid, all branches classified"),
                       ("mirror", "same sweep, displacement-centric output")):
        p = sub.add_parser(kind, help=text)
        _add_source(p); _add_grid(p); _add_method(p); _add_convention(p)
        _add_output(p)
        p.set_defaults(func=_cmd_curve, kind=kind)

    p = sub.add_parser("window", help="closed-form fold powers")
    _add_source(p); _add_convention(p); _add_output(p)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("threshold", help="detuning threshold for fold "
                                         "existence")
    _add_source(p); _add_convention(p); _add_output(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("hysteresis", help="up/down sweep with jump powers")
    _add_source(p); _add_grid(p); _add_method(p); _add_convention(p)
    _add_output(p)
    p.add_argument("--mode", choices=("algebraic", "dynamic"),
                   default="algebraic",
                   help="read jumps off the classified curve, or ramp the "
                        "mean-field equations quasi-statically")
    p.add_argument("--dwell-factor", type=float, dest="dwell_factor",
                   help="dynamic mode: hold time per step in units of the "
                        "slowest decay time (default 10)")
    p.set_defaults(func=_cmd_hysteresis)

    p = sub.add_parser("family", help="curve family over one parameter")
    _add_source(p); _add_grid(p); _add_method(p); _add_convention(p)
    _add_output(p)
    p.add_argument("--vary", choices=FAMILY_KEYS,
                   help="parameter to vary (overrides config)")
    p.add_argument("--values",
                   help="comma-separated values in config-grammar form, "
                        "for example '2pi*5 kHz, 2pi*7 kHz'")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("dynamics", help="relax the mean-field equations to "
                                        "steady state at one power")
    _add_source(p); _add_convention(p); _add_output(p)
    p.add_argument("--power", type=float,
                   help="drive power in W (default: config drive_power)")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("fig", help="run a named preset end to end")
    p.add_argument("preset", choices=sorted(PRESETS))
    _add_grid(p); _add_method(p); _add_convention(p); _add_output(p)
    p.set_defaults(func=_cmd_fig, config=None, vary=None, values=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args, _load_cfg(args))
        _emit(args, result)
    except (ConfigError, ParameterError) as exc:
        _err(f"configuration error: {exc}")
        return 2
    except NoBistabilityError as exc:
        _err(f"no bistability: {exc}")
        return 3
    except NumericalError as exc:
        _err(f"numerical failure: {exc}")
        return 4
    except NeomsError as exc:
        _err(f"error: {exc}")
        return 4
    if result.refusal is not None:
        _err(result.refusal)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
