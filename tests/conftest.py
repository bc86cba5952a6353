import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surftrace import scenarios

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def scenario_results():
    """Run each scenario at most once per test session."""
    cache = {}

    def get(sid: str):
        if sid not in cache:
            cache[sid] = scenarios.run_scenario(sid)
        return cache[sid]

    return get


@pytest.fixture(scope="session")
def corpus():
    return scenarios.corpus()


@pytest.fixture(scope="session")
def fixture_reports():
    return scenarios.fixture_reports()


def interior_grid(surface, nt=10, nz=10, inset=0.1):
    dom = surface.domain.inset(inset)
    ts = np.linspace(dom.t_min, dom.t_max, nt)
    zs = np.linspace(dom.z_min, dom.z_max, nz)
    return [(float(t), float(z)) for t in ts for z in zs]


def run_python(args, cwd, timeout):
    """Run a fresh interpreter that imports surftrace from this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
