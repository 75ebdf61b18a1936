"""Byte-for-byte pins on the CSV the figure script and the CLI write.

The files under tests/golden/ were written by

    python3 scripts/run_figures.py --points 51 --out-dir tests/golden
    python3 -m neoms window --preset fig2 --out tests/golden/window_fig2.csv
    python3 -m neoms threshold --preset fig2 --out tests/golden/threshold_fig2.csv

JSON and `dynamics` output are left out: their eigenvalue margins and the
last bits of the adaptive integrator depend on the LAPACK and scipy builds.
"""

import importlib.util
from pathlib import Path

from neoms.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _run_figures():
    spec = importlib.util.spec_from_file_location(
        "run_figures", ROOT / "scripts" / "run_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden_bytes(tmp_path):
    written = [Path(p) for p in _run_figures().run(str(tmp_path), "csv", 51)]
    for command in ("window", "threshold"):
        path = tmp_path / f"{command}_fig2.csv"
        assert main([command, "--preset", "fig2", "--out", str(path)]) == 0
        written.append(path)
    assert sorted(p.name for p in written) == \
        sorted(p.name for p in GOLDEN.iterdir())
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), \
            path.name
