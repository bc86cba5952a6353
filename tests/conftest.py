import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

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


def rk45_reference(fun, y0, end, atol, rtol, events=None):
    """scipy's RK45 on y' = fun(s, y) from s = 0 to ``end``, started as
    `stepper.integrate` starts a branch: h_start is scipy's initial step
    along +s with no span to clip it, and one RK45 step of h_start sizes
    h* = h_start min(100, 0.9 err^(-1/5)) from its error norm err.  Toward
    +s an accepted trial that fits is scipy's first step of its own
    (``first_step=h_start``) and scipy restarts at its end; each side goes
    on with ``first_step`` h*, clipped to the span left.

    Returns t, y (n, m) and t_events at scipy's step points, ``sol`` (the
    dense output), ``status`` and ``nfev`` as the stepper counts it: the
    start's f(0), probe and trial, then 6 a step attempt.
    """
    from scipy.integrate import RK45, solve_ivp
    from scipy.integrate._ivp.rk import rk_step

    y0 = np.asarray(y0, dtype=float)
    probe = RK45(fun, 0.0, y0, np.inf, atol=atol, rtol=rtol)
    h_start = max(probe.h_abs, 10 * np.nextafter(0.0, 1.0))
    y1, _ = rk_step(fun, 0.0, y0, probe.f, h_start, probe.A, probe.B,
                    probe.C, probe.K)
    # the trial's error norm, its stages combined in the stepper's order:
    # on a nearly constant field the norm is rounding alone, and scipy's
    # BLAS order would move h* by a factor of up to 100^(1/5)
    K, E = probe.K, probe.E
    est = (K[0] * E[0] + K[2] * E[2] + K[3] * E[3] + K[4] * E[4]
           + K[5] * E[5] + K[6] * E[6]) * h_start
    scale = probe.atol + np.maximum(np.abs(y0), np.abs(y1)) * probe.rtol
    err = float(np.sqrt(np.sum((est / scale) ** 2) / len(y0)))
    factor = 0.9 * err ** -0.2 if err else 100.0
    h_star = h_start * (min(100.0, factor) if err < 1 else max(0.2, factor))
    pieces = []
    if err < 1 and h_start <= end:
        pieces.append(solve_ivp(fun, (0.0, h_start), y0, method="RK45",
                                dense_output=True, events=events,
                                first_step=h_start, atol=atol, rtol=rtol))
    start, y = (pieces[0].t[-1], pieces[0].y[:, -1]) if pieces else (0.0, y0)
    if not pieces or (pieces[0].status == 0 and start != end):
        pieces.append(solve_ivp(fun, (start, end), y, method="RK45",
                                dense_output=True, events=events,
                                first_step=min(h_star, abs(end - start)),
                                atol=atol, rtol=rtol))
    joints = [p.t[-1] for p in pieces[:-1]]

    def sol(s):
        s = np.asarray(s, dtype=float)
        piece = np.searchsorted(np.abs(joints), np.abs(s), side="left")
        out = np.empty((len(y0), len(s)))
        for k, p in enumerate(pieces):
            out[:, piece == k] = p.sol(s[piece == k])
        return out

    return SimpleNamespace(
        t=np.concatenate([pieces[0].t] + [p.t[1:] for p in pieces[1:]]),
        y=np.hstack([pieces[0].y] + [p.y[:, 1:] for p in pieces[1:]]),
        t_events=pieces[-1].t_events, sol=sol, status=pieces[-1].status,
        nfev=2 + sum(p.nfev - 1 for p in pieces) + 6 * (len(pieces) == 1
                                                         and start == 0.0))
