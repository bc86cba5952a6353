"""Curve flows on surfaces: isogonal lines, pseudo-geodesics, geodesics.

Isogonal lines solve the first-order system

    t' f1 + z' g1 = |v| cos(phi),   t' f2 + z' g2 = |v| sin(phi)

where (f1, f2, g1, g2) decompose X_t, X_z over the principal frame.
Pseudo-geodesics solve the covariant second-order system, on any regular
chart (do Carmo, *Differential Geometry of Curves and Surfaces*, 4-4, 4-6)

    uv'' = -Gamma(v, v) + tan(theta) II(v, v) Jv,
    Jv = (-F t' - G z', E t' + F z') / sqrt(EG - F^2),

with v = (t', z'), Gamma the Christoffel symbols, II the second form and
Jv = N x v in chart coordinates.  Its solutions keep both unit speed and
the normal angle theta constant; theta = 0 gives the geodesic equations.
The flow evaluates both terms in directional form, from the one vector
X_vv = t'^2 X_tt + 2 t'z' X_tz + z'^2 X_zz and W = EG - F^2:

    Gamma(v, v) = (G <X_vv, X_t> - F <X_vv, X_z>,
                   E <X_vv, X_z> - F <X_vv, X_t>) / W,
    II(v, v) = <X_vv, N>,

three dot products with X_vv in place of the nine second-form and
Christoffel contractions.  With n = X_t x X_z, N = n / |n| and |n|^2 = W,
so tan(theta) II(v, v) Jv = tan(theta) <X_vv, n> (-F t' - G z',
E t' + F z') / W: both terms divide by W, taken as |n|^2 (Lagrange's
identity) without EG - F^2's cancellation, and take no square root.
Both flows read `core.point_metric`'s tuple, the one place that forms
X_t, X_z, n, E, F, G and W and tests the chart's regularity.

Integration runs `stepper.integrate` once a trace: the adaptive
Dormand-Prince 5(4) pair with quartic dense output on Python floats, both
branches from one start at s = 0 (one f(0) and one error-sized first step,
shared), then each step for step the algorithm of scipy's RK45 (Dormand &
Prince, *J. Comput. Appl. Math.* 6 (1980); Hairer, Norsett & Wanner,
*Solving ODEs I*, sections II.4-II.6).  Each branch's dense output is
resampled onto a uniform s-grid.  Both right-hand sides
are pure functions of their arguments; the isogonal one orients the
principal-direction field, which has no sign of its own, along the
derivative at the start of the current step (and the samples'
acceleration stencils along the sample's velocity).  A branch ends early
only at its solver event: the distance to the nearest domain edge, and
for an isogonal trace the lesser of that and `core.umbilic_margin` at
relative tolerance `UMBILIC_GAP`, which scales with the surface, so a step
across two edges, or an edge and the umbilic gap (margin <= 0), ends at
the first.  The isogonal right-hand side returns that margin after
(t', z'), so the event reads it off a step's last stage, and on its dense
output from ``rhs(s, y, None)``.  The end is named from the state the
event read there (`stepper.Branch.y`): the event is <= 0, so a positive
edge distance means ``hit_umbilic``, else ``hit_boundary``.  A trace also
ends ``hit_umbilic`` where an isogonal sample falls inside the gap (a step
may cross it and come out between its ends; the branch then ends at that
sample, which the trace drops), and ``solver_failure`` when a branch runs
out of its RHS budget (`stepper.MAX_NFEV`) or of step size.  Every
trace's samples take one shape pass, E1 chained from s = 0, so a curve's
phi is measured from the E1 that its request's angle is: the start's (an
isogonal trace's pass finds the gap cut, then is sliced to the kept
samples).  A trace returns the request it was given, a `GeodesicMode` one
traced as theta = 0.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (SurfaceDef, SurfaceJet2, _chain, _flip, _principal,
                   _records, curve_shape, point_metric, point_shape,
                   umbilic_margin)
from .errors import (BoundaryExitError, InvalidRequestError,
                     SolverFailureError, ThetaOutOfRangeError,
                     UmbilicEncounteredError)
from .stepper import MAX_NFEV, MAX_SAMPLES, BranchStats, integrate

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-9
_log = logging.getLogger(__name__)

#: relative tolerance of `core.umbilic_margin` at which an isogonal trace
#: refuses to start or go on: E1, and with it the isogonal system, loses
#: meaning as kappa1 -> kappa2
UMBILIC_GAP = 1e-5


@dataclass(frozen=True)
class IsogonalMode:
    """Constant angle phi (radians, measured from E1) at speed |v|."""

    phi: float
    speed: float = 1.0


@dataclass(frozen=True)
class PseudoGeodesicMode:
    """Constant normal angle theta; |theta| < pi/2.

    ``initial_dir`` is a tangent angle from E1 (a scalar) or a raw
    uv-velocity pair (shape (2,)), normalized to unit speed.
    """

    theta: float
    initial_dir: Union[float, tuple[float, float]] = 0.0


@dataclass(frozen=True)
class GeodesicMode:
    """Pseudo-geodesic with theta = 0."""

    initial_dir: Union[float, tuple[float, float]] = 0.0


Mode = Union[IsogonalMode, PseudoGeodesicMode, GeodesicMode]


@dataclass(frozen=True)
class TraceRequest:
    surface: SurfaceDef
    start_uv: tuple[float, float]
    mode: Mode
    s_span: tuple[float, float] = (0.0, 1.0)
    step: float = 2e-3
    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL

    def __post_init__(self) -> None:
        try:  # numbers of the right shapes first, their values below
            start, span = (_numeric(self, k, (2,)) for k in ("start_uv", "s_span"))
            step, atol, rtol = (
                _numeric(self, k) for k in ("step", "atol", "rtol"))
            mode = [_numeric(self.mode, k, (), (2,)) if k == "initial_dir"
                    else _numeric(self.mode, k) for k in vars(self.mode)]
        except TypeError as exc:
            raise InvalidRequestError(f"invalid trace request: {exc}") from None
        problems = [
            (np.isfinite(start).all(), f"start_uv {self.start_uv} must be finite"),
            (all(np.isfinite(v).all() for v in mode),
             f"{self.mode} must be finite"),
            (np.isfinite(step) and step > 0,
             f"step {self.step} must be finite and > 0"),
            (np.isfinite(span).all() and span[0] <= 0.0 <= span[1],
             f"s_span {self.s_span} must be finite and contain 0"),
            (np.isfinite([atol, rtol]).all() and atol > 0 and rtol > 0,
             f"atol {self.atol} and rtol {self.rtol} must be finite and > 0"),
        ]
        for ok, what in problems:
            if not ok:
                raise InvalidRequestError(f"invalid trace request: {what}")
        lo, hi = span.tolist()
        samples = (hi - lo) / float(step) + 1.0
        if samples > MAX_SAMPLES:
            raise InvalidRequestError(
                f"invalid trace request: s_span {self.s_span} at step "
                f"{self.step:g} asks for {samples:.4g} samples, above "
                f"{MAX_SAMPLES}")


def _numeric(owner, name: str, *shapes: tuple) -> np.ndarray:
    """Field ``name`` of ``owner`` as an array of numbers in one of
    ``shapes`` (default: a single number), else TypeError."""
    value, shapes = getattr(owner, name), shapes or ((),)
    try:
        a = np.asarray(value)
        ok = a.dtype.kind in "biuf" and a.shape in shapes
    except ValueError:  # ragged
        ok = False
    if not ok:
        raise TypeError(f"{name} {value!r} is not numbers of shape "
                        f"{' or '.join(map(str, shapes))}")
    return a


@dataclass(frozen=True)
class TraceExit:
    kind: str              # completed | hit_boundary | hit_umbilic | solver_failure
    s_stop: float | None = None


@dataclass(frozen=True)
class Trace:
    """A traced curve, with the shape pass `curve_scalars_from_trace` reuses."""

    request: TraceRequest
    s: np.ndarray        # (n,) uniform grid containing s = 0
    uv: np.ndarray       # (n, 2)
    uv_vel: np.ndarray   # (n, 2)
    uv_acc: np.ndarray   # (n, 2)
    exit: TraceExit
    # what the stepper did on each branch that ran, keyed "fwd" and "bwd"
    stats: dict[str, BranchStats]
    # curve_shape of uv: E1 by the module rule at s = 0, the E1 that the
    # request's angle is measured from, and chained from there
    shape: tuple

    def __len__(self) -> int:
        return len(self.s)

    @property
    def nfev(self) -> int:
        """Right-hand side evaluations the trace made: its branches' less
        the start they share, counted in each."""
        branches = list(self.stats.values())
        return (sum(b.nfev for b in branches)
                - sum(b.shared for b in branches[1:]))

    def index_of(self, s: float) -> int:
        i = int(np.argmin(np.abs(self.s - s)))
        if abs(self.s[i] - s) > 1e-9 * max(1.0, abs(s)):
            raise ValueError(f"s = {s} is not on the sample grid")
        return i


def chart_to_principal_angle(surface: SurfaceDef, uv: tuple[float, float],
                             chart_angle: float) -> float:
    """Convert an angle measured from the t-coordinate direction into the
    equivalent angle from E1 at the same point.

    Useful because closed-form curve families are usually written in the
    chart frame while the tracer's phi is principal-frame native.
    """
    sd = point_shape(surface, *uv)[2]
    if sd.umbilic:
        raise UmbilicEncounteredError("principal angle undefined at umbilic")
    # X_t = f1 E1 + f2 E2: the t direction's angle from E1
    return math.atan2(sd.decomp.f2, sd.decomp.f1) + chart_angle


def _unit_uv_velocity(surface: SurfaceDef, uv,
                      direction) -> tuple[float, float, float]:
    """Initial (t', z') of unit metric norm from an angle (a scalar) or a
    raw (dt, dz) pair, and the normal curvature kn = II(v, v) along it;
    `TraceRequest` refuses any other shape."""
    jet, forms, sd = point_shape(surface, *uv)
    if np.ndim(direction):
        tp, zp = float(direction[0]), float(direction[1])
        # to the larger component's binade [1/2, 1), a scale that is exact,
        # so the quadratic form neither overflows nor underflows
        e = math.frexp(max(abs(tp), abs(zp)))[1]
        tp, zp = math.ldexp(tp, -e), math.ldexp(zp, -e)
        speed = np.sqrt(forms.E * tp * tp + 2 * forms.F * tp * zp
                        + forms.G * zp * zp)
        if speed == 0.0:
            raise InvalidRequestError("initial uv-velocity must be nonzero")
        tp, zp = tp / speed, zp / speed
    elif sd.umbilic:
        raise UmbilicEncounteredError(
            "angle initial direction undefined at umbilic start; "
            "pass a uv-velocity instead")
    else:
        phi = float(direction)
        tp, zp = _isogonal_field(sd.decomp, float(np.cos(phi)),
                                 float(np.sin(phi)))
    kn = forms.e * tp * tp + 2 * forms.f * tp * zp + forms.g * zp * zp
    return tp, zp, kn


def _integrate_branches(rhs, y0, req: TraceRequest, gap: bool = False):
    """Integrate from s = 0 toward both ends of ``req.s_span`` in one
    `integrate` call, each branch ended by an event where it leaves the
    domain or, given ``gap``, where the umbilic margin falls to 0, and
    sample the branches' dense output on the uniform grid of ``req.step``.
    Given ``gap``, ``rhs`` returns the margin after the derivative, and the
    event reads it there: off the last stage at a step end, from
    ``rhs(s, y, None)`` on a step's dense output.

    Returns (s, states, exits, stats); y0 fills s = 0, ``exits`` has the
    `TraceExit` of each branch that ended early, and a side of zero length
    has no entry in stats.
    """
    dom = req.surface.domain

    def edge(y):  # distance to the nearest edge, negative outside
        return min(y[0] - dom.t_min, dom.t_max - y[0], y[1] - dom.z_min,
                   dom.z_max - y[1])

    def event(s, y, f):
        d = edge(y)
        if not gap or not d > 0:
            return d   # the margin only inside: an edge bisection skips it
        if f is None:
            f = rhs(s, y, None)
        # min keeps its first argument against a NaN, so the edge shows
        return min(d, f[len(y)])

    fwd, bwd = integrate(rhs, y0, req.s_span, event, req.atol, req.rtol)
    branches = {key: br for key, br in (("fwd", fwd), ("bwd", bwd))
                if br is not None}
    exits = {}
    for key, br in branches.items():
        if br.status:
            # the event is <= 0 at (br.s, br.y): inside the domain, only
            # the umbilic margin can have made it so
            kind = ("solver_failure" if br.status == -1 else "hit_umbilic"
                    if edge(br.y) > 0 else "hit_boundary")
            _log.debug("%s branch: %s at s = %r after %d RHS evaluations",
                       key, kind, br.s, br.stats.nfev)
            exits[key] = TraceExit(kind, br.s)
    reached = {key: br.s for key, br in branches.items()}
    n_lo = int(np.floor(-reached.get("bwd", 0.0) / req.step + 1e-9))
    n_hi = int(np.floor(reached.get("fwd", 0.0) / req.step + 1e-9))
    s = req.step * np.arange(-n_lo, n_hi + 1)   # s[n_lo] = 0
    states = np.empty((len(s), len(y0)))
    states[n_lo] = y0
    for key, side in (("fwd", slice(n_lo + 1, None)), ("bwd", slice(n_lo))):
        if len(s[side]):  # a side with samples has a branch
            states[side] = branches[key].sample(s[side])
    stats = {key: br.stats for key, br in branches.items()}
    return s, states, exits, stats


def _trace_exit(exits: dict) -> TraceExit:
    """The trace's exit from its branches' early ones: a solver failure,
    else the first early end, forward before backward, else ``completed``."""
    exit_ = TraceExit("completed")
    for e in (exits[key] for key in ("fwd", "bwd") if key in exits):
        if e.kind == "solver_failure" or exit_.kind == "completed":
            exit_ = e
    return exit_


def _isogonal_field(decomp, cos_t, sin_t):
    """(t', z') solving t' f1 + z' g1 = cos_t, t' f2 + z' g2 = sin_t,
    elementwise on floats or (n,) arrays alike, bit for bit.  The
    determinant f1 g2 - f2 g1 = <X_t x X_z, E1 x E2> = |X_t x X_z|
    (Binet-Cauchy, E1 x E2 = N) is positive wherever `point_metric` found
    the chart regular."""
    f1, f2, g1, g2 = decomp
    det = f1 * g2 - f2 * g1
    return (g2 * cos_t - g1 * sin_t) / det, (-f2 * cos_t + f1 * sin_t) / det


def _isogonal_acceleration(surface: SurfaceDef, uv, uv_vel, cos_t,
                           sin_t) -> np.ndarray:
    """(n, 2) directional acceleration of the isogonal field at ``uv`` along
    ``uv_vel``: central differences at uv +- 1e-6 uv_vel, from `point_metric`
    and `_principal` without records, each stencil's field oriented along
    its sample's velocity as the flow orients it against ``ref``."""
    h = 1e-6
    points = np.concatenate([uv + h * uv_vel, uv - h * uv_vel])
    decomp = _principal(point_metric(surface, *points.T, check_domain=False),
                        lambda *_: False)[10:14]
    f_pm = np.column_stack(_isogonal_field(decomp, cos_t, sin_t))
    # negating the field is exact, as negating E1 is
    f_pm[(f_pm * np.vstack([uv_vel, uv_vel])).sum(axis=1) < 0.0] *= -1.0
    return (f_pm[:len(uv)] - f_pm[len(uv):]) / (2 * h)


def trace_isogonal(req: TraceRequest) -> Trace:
    """Trace the isogonal line with constant angle phi from E1.

    The angle is measured a posteriori to be constant.  The RHS orients the
    line field against the derivative at the start of each solver step, so
    the linear system keeps a coherent orientation; a start inside the
    umbilic gap is refused, and a branch ends as ``hit_umbilic`` at the
    gap's solver event or at a sample inside the gap.
    """
    mode = req.mode
    if not isinstance(mode, IsogonalMode):
        raise InvalidRequestError(
            "trace_isogonal needs an IsogonalMode request")
    surface = req.surface
    sd0 = point_shape(surface, *req.start_uv)[2]
    if umbilic_margin(sd0.kappa1, sd0.kappa2, UMBILIC_GAP) <= 0.0:
        raise UmbilicEncounteredError(
            f"isogonal start point {req.start_uv} is umbilic (relative "
            f"principal-curvature gap at most {UMBILIC_GAP:g})")
    cos_t, sin_t = (mode.speed
                    * np.array([np.cos(mode.phi), np.sin(mode.phi)])).tolist()

    def rhs(s, y, ref):
        fr = _principal(point_metric(surface, *y, check_domain=False), _flip)
        tp, zp = _isogonal_field(fr[10:14], cos_t, sin_t)
        gap = umbilic_margin(fr[0], fr[1], UMBILIC_GAP)
        # negating E1 negates f1, f2, g1 and g2 exactly and keeps det, so
        # this is the velocity of the field oriented the other way
        if ref is not None and tp * ref[0] + zp * ref[1] < 0.0:
            return -tp, -zp, gap
        return tp, zp, gap

    y0 = tuple(float(v) for v in req.start_uv)
    s, uv, exits, stats = _integrate_branches(rhs, y0, req, gap=True)
    # one frame pass over the samples, E1 chained from s = 0 (`curve_shape`);
    # a sample inside the umbilic gap ends its branch as the gap's event
    # does: a step may cross the gap and come out between its ends
    zero = int(np.argmin(np.abs(s)))
    metric = point_metric(surface, *uv.T, check_domain=False)
    frame = _principal(metric, _chain(zero))
    bad = np.flatnonzero(umbilic_margin(*frame[:2], UMBILIC_GAP) <= 0.0)
    lo, hi = bad[bad < zero], bad[bad > zero]
    for key, i in (("fwd", hi[:1]), ("bwd", lo[-1:])):
        if len(i):
            exits[key] = TraceExit("hit_umbilic", float(s[i[0]]))
            _log.debug("%s branch: hit_umbilic at s = %r after %d RHS "
                       "evaluations", key, exits[key].s_stop, stats[key].nfev)
    # the kept samples run on from s = 0, so their chained E1 stay as they are
    keep = slice(lo[-1] + 1 if len(lo) else 0, hi[0] if len(hi) else None)
    s, uv = s[keep], uv[keep]
    shape = _records((SurfaceJet2(*(v[:, keep] for v in metric[0])),
                      *(v[keep] for v in metric[1:])),
                     tuple(v[keep] for v in frame))
    exit_ = _trace_exit(exits)
    # the field's velocities (exact speed) and directional acceleration on
    # the shape pass, whose E1 at s = 0 is the start's: the E1 phi refers to
    uv_vel = np.column_stack(_isogonal_field(shape[2].decomp, cos_t, sin_t))
    uv_acc = _isogonal_acceleration(surface, uv, uv_vel, cos_t, sin_t)
    return Trace(req, s, uv, uv_vel, uv_acc, exit_, stats, shape)


def _acceleration(metric: tuple, tp, zp, tan_theta: float):
    """(t'', z'') of the pseudo-geodesic flow with velocity v = (t', z'), in
    the module docstring's directional form, from `point_metric`'s tuple at
    the point; elementwise, floats or (n,) arrays alike, bit for bit."""
    jet, xt0, xt1, xt2, xz0, xz1, xz2, n0, n1, n2, E, F, G, W = metric
    a, b, c = tp * tp, 2 * tp * zp, zp * zp
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = jet.d_tt, jet.d_tz, jet.d_zz
    v0 = a * p0 + b * q0 + c * r0
    v1 = a * p1 + b * q1 + c * r1
    v2 = a * p2 + b * q2 + c * r2
    bt = v0 * xt0 + v1 * xt1 + v2 * xt2
    bz = v0 * xz0 + v1 * xz1 + v2 * xz2
    normal = tan_theta * (v0 * n0 + v1 * n1 + v2 * n2)
    return (-(G * bt - F * bz + normal * (F * tp + G * zp)) / W,
            -(E * bz - F * bt - normal * (E * tp + F * zp)) / W)


def trace_pseudogeodesic(req: TraceRequest) -> Trace:
    """Trace the pseudo-geodesic with constant normal angle theta on any
    regular chart, a position-only one (``jet=None``) included; a
    `GeodesicMode` request is traced as theta = 0 and returned as given.

    The RHS and the samples' ``uv_acc`` run one formula on `point_metric`'s
    tuple: X_vv = t'^2 X_tt + 2 t'z' X_tz + z'^2 X_zz dotted with X_t, X_z
    and X_t x X_z gives Gamma(v, v) and II(v, v) at once.
    """
    mode = req.mode
    if not isinstance(mode, (PseudoGeodesicMode, GeodesicMode)):
        raise InvalidRequestError("trace_pseudogeodesic needs a "
                                  "PseudoGeodesicMode or a GeodesicMode")
    theta = mode.theta if isinstance(mode, PseudoGeodesicMode) else 0.0
    surface = req.surface
    if not abs(theta) < np.pi / 2:
        raise ThetaOutOfRangeError("|theta| must be < pi/2")
    tan_theta = float(np.tan(theta))

    def rhs(s, y, ref):
        t, z, tp, zp = y
        return (tp, zp, *_acceleration(
            point_metric(surface, t, z, check_domain=False), tp, zp,
            tan_theta))

    tp0, zp0, kn0 = _unit_uv_velocity(surface, req.start_uv,
                                      mode.initial_dir)
    kg0 = abs(tan_theta * kn0)  # kg = tan(theta) kn
    turn = kg0 * (req.s_span[1] - req.s_span[0])
    if turn > MAX_NFEV:  # a branch spends more than an RHS call a radian
        raise InvalidRequestError(
            f"theta {theta} turns by about {turn:.3g} rad over s_span "
            f"{req.s_span} (kg = {kg0:.3g} at the start), more than the "
            f"{MAX_NFEV} RHS calls of a branch")
    y0 = (float(req.start_uv[0]), float(req.start_uv[1]), tp0, zp0)
    s, states, exits, stats = _integrate_branches(rhs, y0, req)
    exit_ = _trace_exit(exits)
    uv, uv_vel = states[:, :2], states[:, 2:]
    # one metric pass over the samples, for their shape and uv_acc
    metric = point_metric(surface, *uv.T, check_domain=False)
    shape = curve_shape(s, metric)
    uv_acc = np.column_stack(_acceleration(metric, *uv_vel.T, tan_theta))
    return Trace(req, s, uv, uv_vel, uv_acc, exit_, stats, shape)


def trace(req: TraceRequest) -> Trace:
    """Dispatch on the request mode."""
    if isinstance(req.mode, IsogonalMode):
        return trace_isogonal(req)
    return trace_pseudogeodesic(req)


def isogonal_map(surface: SurfaceDef, p_uv: tuple[float, float],
                 v: tuple[float, float]) -> tuple[float, float]:
    """The isogonal analogue of the exponential map: the point reached at
    flow parameter 1 by the isogonal line with initial uv-velocity v."""
    tp, zp = float(v[0]), float(v[1])
    if tp == 0.0 and zp == 0.0:
        return p_uv
    f1, f2, g1, g2 = point_shape(surface, *p_uv)[2].decomp
    # v = t' X_t + z' X_z on E1 and E2
    v1, v2 = tp * f1 + zp * g1, tp * f2 + zp * g2
    speed, phi = math.hypot(v1, v2), math.atan2(v2, v1)
    # at the default sample step, since the samples also test the umbilic
    # gap between solver points
    req = TraceRequest(surface, p_uv, IsogonalMode(phi, speed),
                       s_span=(0.0, 1.0))
    # trace_isogonal refuses a start at or near an umbilic
    tr = trace_isogonal(req)
    early = {"hit_boundary": (BoundaryExitError, "left the domain"),
             "hit_umbilic": (UmbilicEncounteredError, "ran into an umbilic"),
             "solver_failure": (SolverFailureError, "failed in the solver")}
    if tr.exit.kind in early:
        error, what = early[tr.exit.kind]
        raise error(f"isogonal line {what} at s = {tr.exit.s_stop}")
    return float(tr.uv[-1, 0]), float(tr.uv[-1, 1])
