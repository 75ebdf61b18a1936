"""Run one fixed list of CLI invocations on two source trees and compare them.

    python3 scripts/cli_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout or a `git archive` copy holding `src/neoms`.  Every
invocation in INVOCATIONS runs as `python -m neoms ...` with that tree's
`src` on PYTHONPATH, from a temporary directory that holds the config files
below.  For each invocation whose exit code, stdout or stderr differs, one
line names it and one line per differing stream says how: the line counts
and, when only numbers moved, how many and the largest relative gap between
them.  An invocation still running after TIMEOUT_S seconds is stopped and
its exit code reads "timeout".  The exit status is 0 when nothing differs
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile

# A clean_system draw (tests/draws.py, seed 509, min_detuning_kappa=2.5)
# whose stable branches relax to fixed points, driven inside its window.
CLEAN_CONF = """\
cavity_length = 0.25 m
wavelength = 1.064e-06 m
mass1 = 1.45e-10 kg
mass2 = 1.45e-10 kg
omega1 = 5950176.485899068 rad/s
omega2 = 5950176.485899068 rad/s
gamma1 = 1265380.7509227188 rad/s
gamma2 = 1282760.1397571797 rad/s
kappa = 220507.2589037142 rad/s
delta_c = 602812.3499680425 rad/s
drive_power = 5.993422330046648e-12 W
g0 = 57560.67005281393 rad/s
gc = 902911.9514072869 rad/s
convention = half-kappa
"""

# fig2 at half a linewidth of detuning: below the fold threshold.
SUB_THRESHOLD_CONF = """\
cavity_length = 0.25 m
wavelength = 1064 nm
mass1 = 145 ng
mass2 = 145 ng
omega1 = 2pi*947 kHz
omega2 = 2pi*947 kHz
gamma1 = 2pi*140 kHz
gamma2 = 2pi*140 kHz
kappa = 2pi*215 kHz
delta_c_over_kappa = 0.5
g0 = 2pi*5 kHz
drive_power = 9 mW
"""

# The fig2 preset with a vary key and no values: its snapshot must parse back.
VARY_CONF = """\
cavity_length = 0.25 m
wavelength = 1064 nm
mass1 = 145 ng
mass2 = 145 ng
omega1 = 2pi*947 kHz
omega2 = 2pi*947 kHz
gamma1 = 2pi*140 kHz
gamma2 = 2pi*140 kHz
kappa = 2pi*215 kHz
delta_c_over_kappa = 3.6
drive_power = 9 mW
g0 = 2pi*5 kHz
gc = 0 rad/s
vary = g0
"""

# fig2 with gc = 2pi*1 MHz, past gc = 2pi*949.6 kHz where the Kerr slope
# changes sign: the window sits at negative detuning ...
REVERSED_CONF = """\
cavity_length = 0.25 m
wavelength = 1064 nm
mass1 = 145 ng
mass2 = 145 ng
omega1 = 2pi*947 kHz
omega2 = 2pi*947 kHz
gamma1 = 2pi*140 kHz
gamma2 = 2pi*140 kHz
kappa = 2pi*215 kHz
delta_c_over_kappa = -3.6
drive_power = 9 mW
g0 = 2pi*5 kHz
gc = 2pi*1 MHz
"""

# ... and the same config at +3.6 kappa is on the wrong side for one.
WRONG_SIDE_CONF = REVERSED_CONF.replace("= -3.6", "= 3.6")

CONFIGS = {"clean": CLEAN_CONF, "sub": SUB_THRESHOLD_CONF, "vary": VARY_CONF,
           "reversed": REVERSED_CONF, "wrong_side": WRONG_SIDE_CONF}
TIMEOUT_S = 120
PANELS = ("fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c",
          "fig6d", "fig7", "fig8a", "fig8b", "fig8c", "fig8d")
FORMATS = (["--format", "csv"], ["--format", "json"])
CONVENTIONS = (["--convention", "half-kappa"], ["--convention", "kappa"])

# Invocations that argparse itself refuses (exit 2 before any command runs).
USAGE_ERRORS = [
    ["curve"],
    ["no-such-command"],
]

# {clean}, {sub}, {vary}, {reversed} and {wrong_side} stand for the paths
# of the configs above.  A
# relative path is taken from the temporary directory, which has no
# `missing` subdirectory.
INVOCATIONS = (
    [["fig", p, *f] for p in PANELS for f in FORMATS]
    + [[cmd, "--preset", p, *f, *c]
       for cmd in ("curve", "mirror", "window", "threshold", "hysteresis")
       for p in ("fig2", "fig8a") for f in FORMATS for c in CONVENTIONS]
    + [["family", "--preset", p, "--points", "2001", *f]
       for p in ("fig5", "fig6c") for f in FORMATS]
    + [["dynamics", "--preset", "fig2", "--power", "2e-9", *f]
       for f in FORMATS]
    # the fused step on a Coulomb-coupled preset and on one driven by a
    # mirror tone, both inside their windows, each settling in under 1 s
    + [["dynamics", "--preset", p, "--power", "1e-9"]
       for p in ("fig8a", "fig6a")]
    + [["dynamics", "--config", "{clean}"],
       ["curve", "--config", "{vary}", "--points", "5"],
       ["hysteresis", "--config", "{clean}", "--mode", "dynamic",
        "--points", "21"],
       # refusals and failures: exit 3 and exit 4
       ["window", "--config", "{sub}"],
       ["curve", "--config", "{sub}"],
       ["dynamics", "--preset", "fig2", "--power", "1.2e-8"],
       # a reversed Kerr slope: the window, threshold and default grid at
       # negative detuning, the refusal at positive detuning, and a gc
       # family whose second member is past the sign change (its JSON
       # holds each member's window)
       ["window", "--config", "{reversed}"],
       ["threshold", "--config", "{reversed}"],
       ["curve", "--config", "{reversed}", "--points", "21"],
       ["window", "--config", "{wrong_side}"],
       ["family", "--preset", "fig4", "--values", "2pi*0.2 MHz,2pi*1 MHz",
        "--format", "json"],
       # a drive amplitude that overflows to inf: unsolved points, exit 0
       *([cmd, "--preset", "fig2", "--pmin", "1e-9", "--pmax", "1e300",
          "--points", "3", *f]
         for cmd in ("curve", "hysteresis") for f in FORMATS),
       *(["family", "--preset", "fig3", "--pmin", "1e-9", "--pmax", "1e300",
          "--points", "3", *f] for f in FORMATS),
       # ... and refused as a single power, exit 2, as is a finite drive
       # amplitude whose steady-state cubic overflows
       ["dynamics", "--preset", "fig2", "--power", "1e300"],
       ["dynamics", "--preset", "fig2", "--power", "1e150"],
       # usage errors and non-finite inputs: exit 2
       ["curve", "--preset", "fig2", "--points", "1"],
       ["curve", "--preset", "fig2", "--pmin", "1e-9", "--pmax", "1e-10"],
       ["family", "--preset", "fig3", "--points", "0"],
       ["family", "--preset", "fig2"],
       ["hysteresis", "--preset", "fig2", "--mode", "dynamic",
        "--dwell-factor", "-1", "--points", "3"],
       ["hysteresis", "--config", "{sub}", "--mode", "dynamic",
        "--dwell-factor", "-1"],
       ["window", "--config", "missing.conf"],
       ["window", "--preset", "fig2", "--out", "missing/x.csv"],
       ["family", "--preset", "fig6a", "--vary", "phi1",
        "--values", "inf rad", "--points", "3"],
       ["curve", "--preset", "fig2", "--pmin", "nan", "--pmax", "1",
        "--points", "3"],
       ["curve", "--preset", "fig2", "--pmin", "0", "--pmax", "inf",
        "--points", "3"],
       ["dynamics", "--preset", "fig2", "--power", "nan"],
       ["dynamics", "--preset", "fig2", "--power", "inf"]]
    + USAGE_ERRORS
)

NL = "\n"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def run(tree: str, argv: list[str], cwd: str) -> tuple[int | str, str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree),
                                                   "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "neoms", *argv],
                              cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return proc.returncode, proc.stdout, proc.stderr


def _relative_gap(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not math.isfinite(x - y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(before: str, after: str) -> str | None:
    """None when equal, else how the two texts differ."""
    if before == after:
        return None
    lines = f"{before.count(NL)} -> {after.count(NL)} lines"
    if _NUMBER.sub("#", before) != _NUMBER.sub("#", after):
        return f"{lines}; text differs"
    pairs = [(a, b) for a, b in zip(_NUMBER.findall(before),
                                     _NUMBER.findall(after)) if a != b]
    worst = max(_relative_gap(a, b) for a, b in pairs)
    return (f"{lines}; numbers only: {len(pairs)} differ, largest relative "
            f"gap {worst:.3g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in CONFIGS.items():
            paths[name] = os.path.join(tmp, f"{name}.conf")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        for template in INVOCATIONS:
            argv = [a.format(**paths) for a in template]
            before = run(args.parent, argv, tmp)
            after = run(args.change, argv, tmp)
            if before == after:
                continue
            differing += 1
            print(" ".join(template))
            if before[0] != after[0]:
                print(f"  exit code: {before[0]} -> {after[0]}")
            for stream, a, b in (("stdout", before[1], after[1]),
                                 ("stderr", before[2], after[2])):
                how = compare(a, b)
                if how is not None:
                    print(f"  {stream}: {how}")
    print(f"{differing} of {len(INVOCATIONS)} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
