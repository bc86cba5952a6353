"""The float Dormand-Prince stepper against scipy's RK45 from the same
start, and its event root bisection against scipy's brentq, their
references; its branch arrays and dense output bit for bit against the
per-step forms they replaced; and the start that both branches share."""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from surftrace import make_enneper, tracer
from surftrace.stepper import C2, C3, C4, C5, EPS, P, _bisect, integrate
from surftrace.tracer import PseudoGeodesicMode, TraceRequest

from conftest import rk45_reference

ATOL, RTOL = tracer.DEFAULT_ATOL, tracer.DEFAULT_RTOL


def one_sided(rhs, y0, s_end, event, atol, rtol):
    """The branch toward s_end of a call that integrates only that side."""
    span = (min(s_end, 0.0), max(s_end, 0.0))
    return integrate(rhs, y0, span, event, atol, rtol)[int(s_end < 0)]


def oscillator(s, y, ref):
    x1, x2, v1, v2 = y
    return (v1, v2, -x1, -4.0 * x2)


def van_der_pol(s, y, ref):
    return (y[1], 5.0 * (1.0 - y[0] * y[0]) * y[1] - y[0])


def reference(rhs, y0, s_end, event=None, atol=ATOL, rtol=RTOL):
    """scipy's RK45 on the same problem from the stepper's start
    (`conftest.rk45_reference`), arrays in and out."""
    def terminal(ev):
        def g(s, y):
            return ev(s, tuple(y))
        g.terminal, g.direction = True, -1
        return g

    return rk45_reference(lambda s, y: np.array(rhs(s, tuple(y), None)),
                          y0, s_end, atol, rtol,
                          events=terminal(event) if event else None)


def rel_gap(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


#: step points may differ this much, relative: the step controller divides
#: by an error estimate that cancels to about 1e-8 of the stage values, so
#: the order in which scipy's BLAS sums the stages (with fused multiply-adds)
#: moves step sizes at the 1e-10 to 1e-8 level (at most 4e-8 over 60 random
#: 4-D problems); the solution itself agrees to rounding
STEP_POINT_TOL = 1e-6


def assert_matches(br, sol):
    """Same step and RHS counts, step points within STEP_POINT_TOL, and the
    states at scipy's step points and the dense output on a 501-point grid
    within 1e-12 (relative to max(1, |value|))."""
    points = np.r_[br.starts, br.s]
    assert len(points) == len(sol.t)
    assert br.stats.steps == len(sol.t) - 1
    assert br.stats.nfev == sol.nfev
    assert rel_gap(points, sol.t) < STEP_POINT_TOL
    assert rel_gap(br.sample(sol.t), sol.y.T) < 1e-12
    grid = np.linspace(0.0, br.s, 501)
    assert rel_gap(br.sample(grid), sol.sol(grid).T) < 1e-12


@pytest.mark.parametrize("s_end", [5.0, -5.0])
def test_oscillator_matches_rk45(s_end):
    y0 = (1.0, 0.0, 0.0, 1.0)
    br = one_sided(oscillator, y0, s_end, None, ATOL, RTOL)
    sol = reference(oscillator, y0, s_end)
    assert br.status == sol.status == 0 and br.s == s_end
    assert_matches(br, sol)


def test_pseudogeodesic_rhs_matches_rk45(monkeypatch):
    # the tracer's own right-hand side and domain event, both branches
    calls = []

    def spy(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(tracer, "integrate", spy)
    tracer.trace(TraceRequest(make_enneper(), (0.2, 0.3),
                              PseudoGeodesicMode(0.3, 0.4),
                              s_span=(-0.6, 0.6)))
    ((rhs, y0, span, event, atol, rtol),) = calls
    assert span == (-0.6, 0.6)
    for br, s_end in zip(integrate(*calls[0]), (0.6, -0.6)):
        sol = reference(rhs, y0, s_end, event, atol, rtol)
        assert br.status == sol.status == 0
        assert_matches(br, sol)


def test_rejected_steps_match_rk45():
    br = one_sided(van_der_pol, (2.0, 0.0), 3.0, None, 1e-8, 1e-6)
    sol = reference(van_der_pol, (2.0, 0.0), 3.0, atol=1e-8, rtol=1e-6)
    accepted = len(sol.t) - 1
    assert br.stats.rejected > 0
    assert br.stats.rejected == (sol.nfev - 2) // 6 - accepted
    assert_matches(br, sol)


def decay(s, y, ref):
    return (-0.5 * y[0],)


def line(s, y, ref):
    return (1.0, 0.5)


@pytest.mark.parametrize("rhs, y0, span, tol", [
    (oscillator, (1.0, 0.0, 0.0, 1.0), (-5.0, 3.0), (ATOL, RTOL)),
    (van_der_pol, (2.0, 0.0), (-3.0, 3.0), (1e-8, 1e-6)),
    (van_der_pol, (2.0, 0.0), (-3.0, 1e-4), (1e-8, 1e-6)),  # no trial step
    (decay, (1.0,), (-5.0, 5.0), (ATOL, RTOL)),   # h* = 16 h_start
    (line, (0.0, 0.0), (-5.0, 5.0), (ATOL, RTOL)),   # err0 = 0: x100
], ids=["oscillator", "van-der-pol", "van-der-pol-short-forward", "decay",
        "line"])
def test_both_branches_share_one_start(rhs, y0, span, tol):
    # one f(0) for both branches, each branch bit for bit its one-sided
    # call, and both against scipy from the shared start
    calls = []

    def logged(s, y, ref):
        calls.append(s)
        return rhs(s, y, ref)

    fwd, bwd = integrate(logged, y0, span, None, *tol)
    assert calls.count(0.0) == 1 and calls[0] == 0.0
    assert fwd.stats.shared == bwd.stats.shared == 8
    assert len(calls) == fwd.stats.nfev + bwd.stats.nfev - 8
    assert bwd.stats.nfev == 8 + 6 * (bwd.stats.steps + bwd.stats.rejected)
    for br, s_end in ((fwd, span[1]), (bwd, span[0])):
        alone = one_sided(rhs, y0, s_end, None, *tol)
        assert alone.stats == br.stats
        for name in ("starts", "h", "y_old", "Q"):
            assert _bits(getattr(alone, name)) == _bits(getattr(br, name))
        assert_matches(br, reference(rhs, y0, s_end, None, *tol))


def test_terminal_event_root_matches_rk45():
    def falls_to_half(s, y):
        return y[0] - 0.5

    y0 = (1.0, 0.0, 0.0, 1.0)
    br = one_sided(oscillator, y0, 3.0, falls_to_half, ATOL, RTOL)
    sol = reference(oscillator, y0, 3.0, falls_to_half, atol=ATOL, rtol=RTOL)
    assert br.status == sol.status == 1
    assert abs(br.s - sol.t_events[0][0]) < 1e-12
    assert abs(br.s - np.pi / 3) < 1e-8
    assert_matches(br, sol)


def test_too_small_step_fails_like_rk45():
    # y' = y^2 from y(0) = 1 blows up at s = 1
    def blow_up(s, y, ref):
        return (y[0] * y[0],)

    br = one_sided(blow_up, (1.0,), 2.0, None, 1e-8, 1e-6)
    sol = reference(blow_up, (1.0,), 2.0, atol=1e-8, rtol=1e-6)
    assert br.status == sol.status == -1
    assert abs(br.s - sol.t[-1]) < 1e-12
    assert br.stats.nfev == sol.nfev


def test_nfev_counts_every_rhs_call():
    count = [0]

    def counted(s, y, ref):
        count[0] += 1
        return oscillator(s, y, ref)

    # f(0), the probe and the trial step are the forward branch's start
    # and first step; a backward branch pays for them too, 8 evaluations
    for s_end, start in ((2.0, 2), (-2.0, 8)):
        count[0] = 0
        br = one_sided(counted, (1.0, 0.0, 0.0, 1.0), s_end, None, ATOL, RTOL)
        assert br.stats.nfev == count[0]
        stats = br.stats
        assert stats.nfev == start + 6 * (stats.steps + stats.rejected)


ROOT_TOL = 4 * EPS   # scipy's xtol and rtol for event roots

BRACKETS = {
    "polynomial": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "trig": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "root at bracket end": (lambda x: x - 1.0, 1.0, 2.0),
    "nearly flat": (lambda x: math.atan(1e-6 * (x - 0.7)), 0.0, 2.0),
    "tiny values": (lambda x: 1e-30 * (x - 0.25), -1.0, 3.0),
}


@pytest.mark.parametrize("name", BRACKETS)
def test_bisect_matches_brentq(name):
    # g >= 0 first, with the bracket either way round
    f, a, b = BRACKETS[name]
    ref = brentq(f, a, b, xtol=ROOT_TOL, rtol=ROOT_TOL)
    pos, neg = (a, b) if f(a) > f(b) else (b, a)
    for root in (_bisect(f, pos, neg), _bisect(lambda x: -f(x), neg, pos)):
        assert abs(root - ref) <= 2 * ROOT_TOL * (1 + abs(root))


def test_bisect_places_a_root_brentq_gives_up_on():
    # a fifth-order root: brentq runs out of its 100 iterations at this
    # tolerance, bisection halves down to it
    def f(x):
        return (x - 0.5) ** 5

    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 1.3, xtol=ROOT_TOL, rtol=ROOT_TOL)
    root = _bisect(lambda x: -f(x), 0.0, 1.3)
    assert f(root) >= 0 and abs(root - 0.5) <= ROOT_TOL * (1 + abs(root))


def test_flat_crossing_ends_the_branch_at_its_root():
    # the flat crossing above as a terminal event
    br = one_sided(lambda s, y, ref: (1.0,), (0.0,), 1.3,
                   lambda s, y: (0.5 - y[0]) ** 5, 1e-10, 1e-9)
    assert br.status == 1
    assert abs(br.s - 0.5) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rhs_at_start_ends_the_branch(bad):
    # a NaN derivative once made a NaN step that no test refused, and the
    # branch spent its whole RHS budget on rejections
    count = [0]

    def broken(s, y, ref):
        count[0] += 1
        return (bad, 0.0)

    br = one_sided(broken, (0.5, 0.0), 1.0, None, ATOL, RTOL)
    assert br.status == -1 and br.s == 0.0
    assert count[0] == br.stats.nfev <= 2
    assert br.stats.steps == br.stats.rejected == 0
    assert br.starts.shape == br.h.shape == (0,)
    assert br.y_old.shape == (0, 2) and br.Q.shape == (0, 2, 4)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("s_end", [5.0, -5.0])
def test_sample_matches_the_cumprod_form(s_end):
    # the dense output as it was written before its powers were unrolled
    br = one_sided(oscillator, (1.0, 0.0, 0.0, 1.0), s_end, None, ATOL, RTOL)
    s = np.r_[np.linspace(0.0, s_end, 997), br.starts, br.s]
    forward = br.h[0] > 0
    sign = 1.0 if forward else -1.0
    seg = np.clip(np.searchsorted(sign * br.starts, sign * s,
                                  side="right" if forward else "left") - 1,
                  0, len(br.starts) - 1)
    h = br.h[seg]
    p = np.cumprod(np.tile((s - br.starts[seg]) / h, (4, 1)), axis=0).T
    old = h[:, None] * np.einsum("mnj,mj->mn", br.Q[seg], p) + br.y_old[seg]
    assert _bits(br.sample(s)) == _bits(old)


def per_step_build(rhs, y0, s_end, event, atol, rtol):
    """The branch, and its four arrays built as the stepper once built them:
    from one (s, h, y, K) tuple per accepted step, with y and K read off
    the RHS calls and s, h checked against the stage points."""
    calls = []

    def logged(s, y, ref):
        out = rhs(s, y, ref)
        calls.append((s, list(y), ref, out))
        return out

    br = one_sided(logged, y0, s_end, event, atol, rtol)
    # calls[0] is f at s = 0 and calls[1] the initial-step probe; every
    # attempt after them is six calls (k2..k7) passed the step's k1 as ref,
    # and the last attempt with a given k1 is the accepted one: the shared
    # trial step, along +s with f as k1, is the first step of a forward
    # branch, and a backward branch's first attempt follows it with that k1
    attempts = [calls[i:i + 6] for i in range(2, len(calls), 6)]
    accepted = [a for a, b in zip(attempts, attempts[1:] + [None])
                if b is None or b[0][2] is not a[0][2]]
    assert len(accepted) == br.stats.steps
    steps, y = [], [float(v) for v in y0]
    for (s, h), attempt in zip(zip(br.starts.tolist(), br.h.tolist()),
                               accepted):
        k1 = attempt[0][2]
        assert [c[0] for c in attempt] == [s + C2 * h, s + C3 * h, s + C4 * h,
                                           s + C5 * h, s + h, s + h]
        steps.append((s, h, y, (k1, *(c[3] for c in attempt))))
        y = attempt[5][1]
    ends = np.r_[br.starts[1:], br.s]
    assert _bits(ends - br.starts) == _bits(br.h)
    m, n = len(steps), len(y0)
    Ks = np.array([st[3] for st in steps]).reshape(m, 7, n)
    return br, (np.array([st[0] for st in steps]),
                np.array([st[1] for st in steps]),
                np.array([st[2] for st in steps]).reshape(m, n),
                np.einsum("mkn,kj->mnj", Ks, P))


def assert_per_step_build(rhs, y0, s_end, *options):
    br, arrays = per_step_build(rhs, y0, s_end, *options)
    assert br.status == 0 and br.stats.steps > 10
    for new, old in zip((br.starts, br.h, br.y_old, br.Q), arrays):
        assert new.shape == old.shape and _bits(new) == _bits(old)


@pytest.mark.parametrize("rhs, y0, s_end, tol", [
    (oscillator, (1.0, 0.0, 0.0, 1.0), 5.0, (ATOL, RTOL)),
    (oscillator, (1.0, 0.0, 0.0, 1.0), -5.0, (ATOL, RTOL)),
    (van_der_pol, (2.0, 0.0), 3.0, (1e-8, 1e-6)),   # with rejected steps
], ids=["oscillator", "oscillator-backward", "van-der-pol"])
def test_branch_arrays_match_the_per_step_build(rhs, y0, s_end, tol):
    assert_per_step_build(rhs, y0, s_end, None, *tol)


def test_branch_arrays_match_the_per_step_build_tracer(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(tracer, "integrate", spy)
    tracer.trace(TraceRequest(make_enneper(), (0.2, 0.3),
                              PseudoGeodesicMode(0.3, 0.4),
                              s_span=(-0.6, 0.6)))
    ((rhs, y0, span, *options),) = calls
    for s_end in span:   # each side as a one-sided call: the same branch
        assert_per_step_build(rhs, y0, s_end, *options)
