"""Dormand-Prince 5(4) on Python floats: both branches from s = 0 in one call.

Each branch is scipy's RK45, step for step, from its first step on
(Dormand & Prince, *J. Comput. Appl. Math.* 6 (1980); Hairer, Norsett &
Wanner, *Solving ODEs I*, sections II.4-II.6): the 5(4) tableau with local
extrapolation, the quartic dense output of Shampine (1986), the RMS error
norm with scale ``atol + max(|y|, |y_new|) rtol``, step factors
``0.9 err^(-1/5)`` clamped to [0.2, 10] (no growth right after a rejection)
and a minimum step of 10 ulp of s.  States are lists of floats, one list
comprehension of tableau expressions per stage; norms sum squares left to
right on any Python.  A step appends its s, h, state and 7 stages to four
flat lists, one array each at the end: with a trivial 4-state RHS and an
event, a step costs 12.3 us (13.9 before) and a branch 13 us more.

The start is made once, from the RHS, y0 and the tolerances, never from
the span, and both branches share it: one f(0); scipy's initial-step rule
(error-estimator order 4) with its probe along +s and no span clip, giving
h_start; and one trial step of h_start along +s, whose error norm err0
sizes h* = h_start min(100, 0.9 err0^(-1/5)) (x100 at err0 = 0, and the
usual max(0.2, ...) shrink from err0 = 1 on, a NaN err0 included).  A
first step may so grow a hundredfold where later ones grow at most tenfold
(CVODE lets it grow 10^4; Hindmarsh et al., *ACM TOMS* 31 (2005)), which
saves the climb from h_start to the settled step.  The forward branch
takes an accepted trial that fits in its span as its first step (the event
is checked after it as after any step); each branch then goes on, or
starts, at h* clipped to the span it has left.  A budget too small for the
trial starts both branches at h_start.  A one-sided call makes the same
start, the trial included, so a branch is bit for bit the same whether or
not the other side is integrated with it.

The right-hand side is called as ``rhs(s, y, ref)``: ``ref`` is the
derivative at the current step's start (the first-same-as-last stage k1),
or None on the first call, so a pure function can orient a line field
against it.

A branch ends early in one way, at its event: a terminal function
``g(s, y)`` evaluated at step ends.  Where it falls through zero
(``g >= 0`` before, ``g <= 0`` after), `_bisect` places the root on that
step's dense output (Hairer, Norsett & Wanner, section II.6; CVODE's
rootfinding does the same) to within 4 EPS (1 + |s|), the tolerance
``solve_ivp`` gives ``brentq``, and the branch ends there.  A zero that
only a step's interior stages see is not an end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: right-hand side evaluations allowed per branch, the shared start's
#: included; a branch that would exceed it stops at its last accepted step
#: with status -1 (the largest count over every branch of ``surftrace
#: verify all`` is 3,848, as before the start was shared)
MAX_NFEV = 150_000

#: samples a trace grid or an exported mesh may ask for; requests above it
#: are refused before anything is allocated (the largest count in the
#: scenarios, demos and tests is about 4,100, and an isogonal
#: ``surftrace trace`` of 200,000 samples peaks near 400 MB RSS with
#: numpy 2.4 on x86-64)
MAX_SAMPLES = 200_000

EPS = float(np.finfo(float).eps)
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)
#: dense output: y(s_old + x h) = y_old + h sum_k K_k (P_k . (x, x^2, x^3, x^4))
P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


@dataclass(frozen=True)
class BranchStats:
    """What the stepper did on one branch.

    ``nfev`` counts the shared start's evaluations too, so each branch of a
    two-sided call reads as it would alone; the call made the sum of its
    branches' ``nfev`` less one ``shared``.
    """

    nfev: int       # right-hand side evaluations
    steps: int      # accepted steps, the forward branch's trial step too
    rejected: int   # rejected step attempts
    shared: int     # evaluations of the start both branches share


@dataclass(frozen=True)
class Branch:
    """One integration from s = 0 toward ``s_end``.

    ``status`` is 0 when s_end was reached, 1 when the event ended the
    branch at ``s``, and -1 when the step fell below 10 ulp or the RHS
    budget ran out (``s`` is then the start of the step that failed).
    """

    status: int
    s: float
    stats: BranchStats
    starts: np.ndarray   # (m,) s at the start of each accepted step
    h: np.ndarray        # (m,) signed step
    y_old: np.ndarray    # (m, n) state at each step start
    Q: np.ndarray        # (m, n, 4) dense-output coefficients K^T P

    def sample(self, s: np.ndarray) -> np.ndarray:
        """(len(s), n) states on the points s, all on this branch's side;
        a point on a step boundary takes the step scipy's OdeSolution
        would pick."""
        s = np.asarray(s, dtype=float)
        forward = self.h[0] > 0
        sign = 1.0 if forward else -1.0
        # each point's step: how many step starts after the first it passed
        seg = np.searchsorted(sign * self.starts[1:], sign * s,
                              side="right" if forward else "left")
        h = self.h[seg]
        x = (s - self.starts[seg]) / h   # x^1..x^4 in a cumprod's layout:
        p = np.array([x, x2 := x * x, x3 := x2 * x, x3 * x]).T
        return (h[:, None] * np.einsum("mnj,mj->mn", self.Q.take(seg, 0), p)
                + self.y_old.take(seg, 0))


def _bisect(g, a: float, b: float) -> float:
    """A root of g between a and b, where g(a) >= 0 >= g(b) (a > b too).

    Halves the bracket, keeping that order, until it is at most
    4 EPS (1 + |b|) wide or a midpoint repeats an end, and returns its
    g <= 0 end.
    """
    while abs(b - a) > 4 * EPS * (1 + abs(b)):
        m = a + (b - a) / 2
        if m == a or m == b:
            break
        if g(m) > 0:
            a = m
        else:
            b = m
    return b


def _rms(v) -> float:
    sq = 0.0
    for x in v:
        sq += x * x
    return math.sqrt(sq) / len(v) ** 0.5


def _factor(err: float, most: float) -> float:
    """scipy's step factor for an error norm ``err``: 0.9 err^(-1/5), at
    most ``most`` (``most`` itself at err = 0) below 1 and at least 0.2 from
    1 on (0.2 for a NaN err too)."""
    if err == 0:
        return most
    factor = 0.9 * err ** -0.2
    return min(most, factor) if err < 1 else max(0.2, factor)


def _initial_step(rhs, y, f, atol, rtol) -> float:
    """scipy's initial step (Hairer, Norsett & Wanner II.4, scipy
    ``select_initial_step``, error-estimator order 4) from s = 0, where
    f = rhs(0, y), along +s and unclipped; one RHS call, the probe."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, scale)])
    d1 = _rms([v / sc for v, sc in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = rhs(h0, [v + h0 * fv for v, fv in zip(y, f)], f)
    # as scipy's numpy division: an h0 that underflowed to 0 gives inf
    d2 = (_rms([(a - b) / sc for a, b, sc in zip(f1, f, scale)]) / h0
          if h0 else math.inf)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1)


def _attempt(rhs, s, y, k1, h, atol, rtol):
    """One Dormand-Prince step of h from (s, y), where k1 = f(s, y).

    Returns (y_new, (k1, ..., k7), err), err the RMS error norm with scale
    ``atol + max(|y|, |y_new|) rtol``.
    """
    k2 = rhs(s + C2 * h, [v + (a * A21) * h for v, a in zip(y, k1)], k1)
    k3 = rhs(s + C3 * h, [
        v + (a * A31 + b * A32) * h for v, a, b in zip(y, k1, k2)], k1)
    k4 = rhs(s + C4 * h, [
        v + (a * A41 + b * A42 + c * A43) * h
        for v, a, b, c in zip(y, k1, k2, k3)], k1)
    k5 = rhs(s + C5 * h, [
        v + (a * A51 + b * A52 + c * A53 + d * A54) * h
        for v, a, b, c, d in zip(y, k1, k2, k3, k4)], k1)
    k6 = rhs(s + h, [
        v + (a * A61 + b * A62 + c * A63 + d * A64 + e * A65) * h
        for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)], k1)
    y_new = [v + h * (a * B1 + c * B3 + d * B4 + e * B5 + q * B6)
             for v, a, c, d, e, q in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(s + h, y_new, k1)
    sq = 0.0   # `_rms` inlined, max(|v|, |w|) as its conditional
    for v, w, a, c, d, e, q, r in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        x = ((a * E1 + c * E3 + d * E4 + e * E5 + q * E6 + r * E7) * h
             / (atol + (aw if (aw := abs(w)) > (av := abs(v)) else av) * rtol))
        sq += x * x
    return y_new, (k1, k2, k3, k4, k5, k6, k7), math.sqrt(sq) / len(y) ** 0.5


def integrate(rhs, y0, span, event, atol, rtol):
    """Integrate y' = rhs(s, y, ref) from s = 0 to both ends of
    ``span`` = (s_lo, s_hi), s_lo <= 0 <= s_hi.

    Returns the branches (forward, backward), None for an end at 0 (both
    None, with no RHS call, for a span (0, 0)).  ``rhs`` takes a list and
    returns a sequence of floats, both of y0's length; ``event`` is a
    terminal function g(s, y), or None (see the module docstring for both
    and for the shared start).  A branch
    fails (status -1) only where the step falls below 10 ulp of s, or is
    NaN (a non-finite derivative at s = 0 makes it so at once), or the RHS
    budget `MAX_NFEV` runs out.  Nothing but the error control and the span
    bounds a step: a caller that needs a finer dense output asks for
    smaller ``atol`` and ``rtol``.
    """
    s_lo, s_hi = (float(v) for v in span)
    if s_lo == s_hi == 0.0:
        return None, None
    y = [float(v) for v in y0]
    n = len(y)
    rtol = max(rtol, 100 * EPS)
    f = rhs(0.0, y, None)
    g = event(0.0, y) if event is not None else None
    shared = 1

    def branch(s_end, nfev, h_abs, first) -> Branch:
        """The branch toward s_end, nfev RHS calls in, at a step of h_abs
        or, given ``first`` = (h, y_new, stages), after that step."""
        direction = 1.0 if s_end > 0 else -1.0
        s, y_, f_, g_ = 0.0, y, f, g
        rejected = 0
        starts, hs, ys, ks = [], [], [], []   # per step: s, h, y, k1..k7
        status = None
        while status is None:
            if first is not None:
                (h, y_new, k), first = first, None
                s_new = s + h
            else:
                min_step = 10 * abs(math.nextafter(s, direction * math.inf)
                                    - s)
                h_abs = max(h_abs, min_step)
                step_rejected = False
                while True:
                    if nfev + 6 > MAX_NFEV:
                        status = -1
                        break
                    if not h_abs >= min_step:
                        status = -1
                        break
                    s_new = s + h_abs * direction
                    if direction * (s_new - s_end) > 0:
                        s_new = s_end
                    h = s_new - s
                    h_abs = abs(h)
                    y_new, k, err = _attempt(rhs, s, y_, f_, h, atol, rtol)
                    nfev += 6
                    factor = _factor(err, 10.0)
                    if err < 1:
                        h_abs *= min(1.0, factor) if step_rejected else factor
                        break
                    h_abs *= factor
                    step_rejected = True
                    rejected += 1
                if status is not None:
                    break

            starts.append(s)
            hs.append(h)
            ys += y_
            for stage in k:
                ks += stage
            s_old, y_old = s, y_
            s, y_, f_ = s_new, y_new, k[6]
            if direction * (s - s_end) >= 0:
                status = 0
            if event is not None:
                g_old, g_ = g_, event(s, y_)
                if g_old >= 0 >= g_:
                    q = (np.array(k).T @ P).tolist()

                    def on_step(x):
                        # this step's dense output at x, in Horner form
                        u = (x - s_old) / h
                        return event(x, [
                            v + h * u * (a + u * (b + u * (c + u * d)))
                            for v, (a, b, c, d) in zip(y_old, q)])
                    status, s = 1, _bisect(on_step, s_old, s)

        m = len(starts)
        return Branch(status, s, BranchStats(nfev, m, rejected, shared),
                      np.array(starts), np.array(hs),
                      np.array(ys).reshape(m, n),
                      np.einsum("mkn,kj->mnj", np.array(ks).reshape(m, 7, n),
                                P))

    def both(start):
        """(forward, backward), each made from ``start(its end)``'s
        (s_end, nfev, h_abs, first)."""
        return tuple(branch(*start(end)) if end else None
                     for end in (s_hi, s_lo))

    if not all(map(math.isfinite, f)):  # a NaN step size ends the branch
        return both(lambda end: (end, 1, math.nan, None))
    h_start = max(_initial_step(rhs, y, f, atol, rtol),
                  10 * math.nextafter(0.0, 1.0))   # 10 ulp of 0
    shared = 2
    h_star, trial = h_start, None
    if shared + 6 <= MAX_NFEV:
        # the trial step: h_start along +s, whatever the span; a rejected
        # one (a non-finite err0 too) sizes h* and is no branch's step
        y1, k, err = _attempt(rhs, 0.0, y, f, h_start, atol, rtol)
        shared += 6
        h_star *= _factor(err, 100.0)
        if err < 1:
            trial = (h_start, y1, k)
    return both(lambda end: (end, shared, h_star,
                             trial if h_start <= end else None))
