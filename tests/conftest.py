import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from surftrace import scenarios

ROOT = Path(__file__).resolve().parents[1]

# one Hypothesis profile for every property test: the same examples on every
# run, no example database on disk, and no per-example deadline (a loaded
# host must not turn a slow example into a failure)
settings.register_profile("surftrace", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("surftrace")
# Hypothesis also caches the constants it reads from local modules; keep that
# cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "surftrace-hypothesis")


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


def assert_curve_data_equal(a, b):
    """Assert that two CurveData agree in every field bit for bit: equal
    values with equal sign bits (-0.0 is not 0.0), and NaN where NaN."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y, equal_nan=True), field.name
        assert np.array_equal(np.signbit(x), np.signbit(y)), field.name


def run_python(args, cwd, timeout):
    """Run a fresh interpreter that imports surftrace from this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)
