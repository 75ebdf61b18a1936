"""Byte-for-byte pins on the CSV and JSON the figure script and the CLI write.

The files under tests/golden/ were written by

    python3 scripts/run_figures.py --points 51 --out-dir tests/golden

plus one `python3 -m neoms <argv> --out tests/golden/<name>` per entry of
CLI_GOLDENS below.  The JSON files use the slope rule, which writes the
eigen margin as null, so none of them depends on the LAPACK build.
`dynamics` output is left out: the integrator's step sizes go through the
C library's `pow`, whose last bit can differ between platforms.
"""

import importlib.util
from pathlib import Path

from neoms.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_SLOPE_JSON = ["--points", "21", "--method", "slope", "--format", "json"]
CLI_GOLDENS = {
    "window_fig2.csv": ["window", "--preset", "fig2"],
    "threshold_fig2.csv": ["threshold", "--preset", "fig2"],
    "window_fig2.json": ["window", "--preset", "fig2", "--format", "json"],
    "threshold_fig2.json": ["threshold", "--preset", "fig2",
                            "--format", "json"],
    "curve_fig2.json": ["curve", "--preset", "fig2", *_SLOPE_JSON],
    "mirror_fig8a.json": ["mirror", "--preset", "fig8a", *_SLOPE_JSON],
    "hysteresis_fig2.json": ["hysteresis", "--preset", "fig2", *_SLOPE_JSON],
    "family_fig3.json": ["family", "--preset", "fig3", *_SLOPE_JSON],
}


def _run_figures():
    spec = importlib.util.spec_from_file_location(
        "run_figures", ROOT / "scripts" / "run_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden_bytes(tmp_path):
    written = [Path(p) for p in _run_figures().run(str(tmp_path), "csv", 51)]
    for name, argv in CLI_GOLDENS.items():
        path = tmp_path / name
        assert main([*argv, "--out", str(path)]) == 0, name
        written.append(path)
    assert sorted(p.name for p in written) == \
        sorted(p.name for p in GOLDEN.iterdir())
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), \
            path.name
