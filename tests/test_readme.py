"""README's examples run as written."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start(env, prelude=""):
    (code,) = re.findall(r"```python\n(.*?)```",
                         README.read_text(encoding="utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_quick_start_prints_the_window_and_every_grid_point(subprocess_env):
    """The ```python block runs in a fresh interpreter and prints one line
    for the window and one per point of its 201-point grid."""
    assert len(_quick_start(subprocess_env)) == 202


def test_quick_start_runs_without_numpy(subprocess_env):
    """With numpy blocked, the quick start prints the same 202 lines: a
    sweep and its `points` need no eigenvalues."""
    blocked = _quick_start(subprocess_env,
                           "import sys; sys.modules['numpy'] = None\n")
    assert len(blocked) == 202
    assert blocked == _quick_start(subprocess_env)
