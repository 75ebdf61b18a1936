"""README's examples run as written."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_window_and_every_grid_point(subprocess_env):
    """The ```python block runs in a fresh interpreter and prints one line
    for the window and one per point of its 201-point grid."""
    (code,) = re.findall(r"```python\n(.*?)```",
                         README.read_text(encoding="utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 202
