"""Probe the detuning threshold for fold existence, both conventions.

Scans the shifted detuning through the critical value and prints whether
the closed-form window exists at each step, then compares the analytic
threshold against a bisection on the existence flag. Useful when deciding
which linewidth convention a data set was taken under: the two thresholds
differ by a factor of 2 (sqrt(3)/2 vs sqrt(3) in units of kappa).
"""

import argparse
from dataclasses import replace

from neoms.bifurcation import bistability_window
from neoms.model import DriveSpec, LinewidthConvention, derive
from neoms.presets import get_preset
from neoms.steady_state import (critical_points, cubic_coefficients,
                                susceptibilities, threshold_detuning)


def bisect_threshold(params, drives, convention, tol_kappa=1e-9):
    kappa = params.kappa

    def exists(delta_c):
        d = derive(replace(params, delta_c=delta_c), drives, convention)
        s = susceptibilities(d, drives)
        c = cubic_coefficients(d, s, d.eps_l)
        return critical_points(c).exists

    lo, hi = 0.05 * kappa, 4.0 * kappa
    if exists(lo) or not exists(hi):
        raise SystemExit("bracketing failed; widen the scan")
    while hi - lo > tol_kappa * kappa:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if exists(mid) else (mid, hi)
    return 0.5 * (lo + hi)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="fig2")
    ap.add_argument("--steps", type=int, default=9,
                    help="scan points between 0.5 and 2.5 kappa")
    args = ap.parse_args()

    cfg = get_preset(args.preset).config()
    params, drives = cfg.params, cfg.drives or DriveSpec()
    kappa = params.kappa

    print(f"preset {args.preset}: kappa/2pi = "
          f"{kappa / (2 * 3.141592653589793):.6g} Hz")
    print(f"{'delta_c/kappa':>14} {'half-kappa':>12} {'kappa':>12}")
    for i in range(args.steps):
        ratio = 0.5 + 2.0 * i / (args.steps - 1)
        row = []
        for conv in LinewidthConvention:
            d = derive(replace(params, delta_c=ratio * kappa), drives, conv)
            row.append("bistable" if bistability_window(d, drives).exists
                       else "-")
        print(f"{ratio:>14.4f} {row[0]:>12} {row[1]:>12}")

    print()
    for conv in LinewidthConvention:
        d = derive(params, drives, conv)
        s = susceptibilities(d, drives)
        analytic = threshold_detuning(d, s)
        bisected = bisect_threshold(params, drives, conv)
        print(f"{conv.value:>12}: analytic {analytic.delta_c / kappa:.9f} "
              f"kappa ({analytic.in_kappa_units:.9f} before tone shift), "
              f"bisected {bisected / kappa:.9f} kappa, "
              f"difference {abs(bisected - analytic.delta_c) / kappa:.2e}")


if __name__ == "__main__":
    main()
