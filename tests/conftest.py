import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import neoms
from neoms.model import derive
from neoms.presets import get_preset


@pytest.fixture(scope="session")
def subprocess_env():
    """This environment with the package's source directory importable."""
    src = str(Path(neoms.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def fig2_cfg():
    return get_preset("fig2").config()


@pytest.fixture(scope="session")
def fig2_derived(fig2_cfg):
    return derive(fig2_cfg.params, fig2_cfg.drives)
