"""Curve flows on surfaces: isogonal lines, pseudo-geodesics, geodesics.

Isogonal lines solve the first-order system

    t' f1 + z' g1 = |v| cos(phi),   t' f2 + z' g2 = |v| sin(phi)

where (f1, f2, g1, g2) decompose X_t, X_z over the principal frame.
Pseudo-geodesics solve the second-order system (orthogonal charts only)

    t'' + (t')^2 (C1_tt + tan(theta) z' sqrt(G/E) e) + ...  = 0
    z'' + (t')^2 (C2_tt - tan(theta) t' sqrt(E/G) e) + ...  = 0

whose solutions keep both unit speed and the normal angle theta constant;
theta = 0 gives the geodesic equations.

Integration uses the adaptive Dormand-Prince 5(4) pair with dense output
(scipy's RK45), resampled onto a uniform s-grid.  Domain edges and
umbilic points terminate a trace cleanly via solver events.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import Union

import numpy as np
from scipy.integrate import solve_ivp

from .core import SurfaceDef, point_shape, shape_arrays
from .errors import (BoundaryExitError, InvalidRequestError,
                     NonOrthogonalChartError, SingularDecompositionError,
                     ThetaOutOfRangeError, UmbilicEncounteredError)

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-9


@dataclass(frozen=True)
class IsogonalMode:
    """Constant angle phi (radians, measured from E1) at speed |v|."""

    phi: float
    speed: float = 1.0


@dataclass(frozen=True)
class PseudoGeodesicMode:
    """Constant normal angle theta; |theta| < pi/2.

    ``initial_dir`` is either a tangent angle from E1 (float) or a raw
    uv-velocity pair, normalized to unit speed.
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
    # cap on the solver step; finite-difference post-processing of a trace
    # (Frenet torsion in particular) reads the dense-output interpolation
    # error, which shrinks like the fifth power of the solver step
    max_step: float = np.inf

    def __post_init__(self) -> None:
        s_lo, s_hi = self.s_span
        problems = [
            (np.isfinite(self.start_uv).all(),
             f"start_uv {self.start_uv} must be finite"),
            (np.isfinite(np.hstack(astuple(self.mode))).all(),
             f"{self.mode} must be finite"),
            (np.isfinite(self.step) and self.step > 0,
             f"step {self.step} must be finite and > 0"),
            (np.isfinite(self.s_span).all() and s_lo <= 0.0 <= s_hi,
             f"s_span {self.s_span} must be finite and contain 0"),
            (self.atol > 0 and self.rtol > 0,
             f"atol {self.atol} and rtol {self.rtol} must be > 0"),
            (self.max_step > 0, f"max_step {self.max_step} must be > 0"),
        ]
        for ok, what in problems:
            if not ok:
                raise InvalidRequestError(f"invalid trace request: {what}")


@dataclass(frozen=True)
class TraceExit:
    kind: str              # completed | hit_boundary | hit_umbilic | solver_failure
    s_stop: float | None = None


@dataclass(frozen=True)
class Trace:
    request: TraceRequest
    s: np.ndarray        # (n,) uniform grid containing s = 0
    uv: np.ndarray       # (n, 2)
    uv_vel: np.ndarray   # (n, 2)
    uv_acc: np.ndarray   # (n, 2)
    exit: TraceExit

    def __len__(self) -> int:
        return len(self.s)

    @property
    def completed(self) -> bool:
        return self.exit.kind == "completed"

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
    jet, forms, sd = point_shape(surface, *uv)
    if sd.umbilic:
        raise UmbilicEncounteredError("principal angle undefined at umbilic")
    that = jet.d_t / np.sqrt(forms.E)
    delta = float(np.arctan2(that @ sd.e2, that @ sd.e1))
    return delta + chart_angle


def _unit_uv_velocity(surface: SurfaceDef, uv, direction) -> tuple[float, float]:
    """Initial (t', z') of unit metric norm from an angle or a raw pair."""
    jet, forms, sd = point_shape(surface, *uv)
    if isinstance(direction, (tuple, list, np.ndarray)):
        tp, zp = float(direction[0]), float(direction[1])
        speed = np.sqrt(forms.E * tp * tp + 2 * forms.F * tp * zp
                        + forms.G * zp * zp)
        if speed == 0.0:
            raise InvalidRequestError("initial uv-velocity must be nonzero")
        return tp / speed, zp / speed
    if sd.umbilic:
        raise UmbilicEncounteredError(
            "angle initial direction undefined at umbilic start; "
            "pass a uv-velocity instead")
    phi = float(direction)
    target = np.cos(phi) * sd.e1 + np.sin(phi) * sd.e2
    d = sd.decomp
    det = d.f1 * d.g2 - d.f2 * d.g1
    tp = (d.g2 * float(target @ sd.e1) - d.g1 * float(target @ sd.e2)) / det
    zp = (-d.f2 * float(target @ sd.e1) + d.f1 * float(target @ sd.e2)) / det
    return tp, zp


def _domain_events(surface: SurfaceDef):
    dom = surface.domain
    specs = [lambda s, y: y[0] - dom.t_min,
             lambda s, y: dom.t_max - y[0],
             lambda s, y: y[1] - dom.z_min,
             lambda s, y: dom.z_max - y[1]]
    for ev in specs:
        ev.terminal = True
        ev.direction = -1
    return specs


def _integrate_branches(rhs, y0, s_span, events, atol, rtol, max_step,
                        reset_state=None):
    """Integrate from s = 0 toward both ends of s_span.

    Returns (forward_sol, backward_sol, exit) where either sol may be None
    when the corresponding side has zero length.
    """
    s_lo, s_hi = s_span
    sols = {}
    exit_kind = "completed"
    exit_s = None
    for key, s_end in (("fwd", s_hi), ("bwd", s_lo)):
        if s_end == 0.0:
            sols[key] = None
            continue
        if reset_state is not None:
            reset_state()
        sol = solve_ivp(rhs, (0.0, s_end), y0, method="RK45",
                        dense_output=True, events=events,
                        atol=atol, rtol=rtol, max_step=max_step)
        if sol.status == -1:
            exit_kind = "solver_failure"
            exit_s = float(sol.t[-1])
        elif sol.status == 1:
            for idx, ts in enumerate(sol.t_events):
                if len(ts):
                    kind = ("hit_umbilic"
                            if getattr(events[idx], "umbilic", False)
                            else "hit_boundary")
                    if exit_kind == "completed":
                        exit_kind, exit_s = kind, float(ts[0])
        sols[key] = sol
    return sols["fwd"], sols["bwd"], TraceExit(exit_kind, exit_s)


def _sample_grid(step, s_lo_reached, s_hi_reached):
    n_lo = int(np.floor(-s_lo_reached / step + 1e-9))
    n_hi = int(np.floor(s_hi_reached / step + 1e-9))
    return step * np.arange(-n_lo, n_hi + 1)


def _dense_samples(fwd, bwd, y0, s):
    """States on the grid s: each branch's dense output is called once on
    its side of s = 0, and y0 fills s = 0 (and a side with no branch)."""
    out = np.tile(y0, (len(s), 1))
    for sol, side in ((fwd, s > 0), (bwd, s < 0)):
        if sol is not None and side.any():
            out[side] = sol.sol(s[side]).T
    return out


def trace_isogonal(req: TraceRequest) -> Trace:
    """Trace the isogonal line with constant angle phi from E1.

    The angle is measured a posteriori to be constant; the E1 field is
    kept sign-continuous along the trajectory so the linear system keeps
    a coherent orientation.
    """
    mode = req.mode
    if not isinstance(mode, IsogonalMode):
        raise ValueError("trace_isogonal needs an IsogonalMode request")
    surface = req.surface
    jet0, forms0, sd0 = point_shape(surface, *req.start_uv)
    if sd0.umbilic:
        raise UmbilicEncounteredError(
            f"isogonal start point {req.start_uv} is umbilic")
    rhs_target = mode.speed * np.array([np.cos(mode.phi), np.sin(mode.phi)])

    # gap below which a trace refuses to continue: the eigenvector (and
    # hence the system) loses meaning as kappa1 -> kappa2
    UMBILIC_GAP = 1e-5

    state = {"prev": None, "anchor": None, "gap": np.inf, "umbilic_s": None}

    def reset_state():
        state["prev"] = state["anchor"]

    def velocity(t, z):
        sd = point_shape(surface, t, z, state["prev"], check_domain=False)[2]
        if state["anchor"] is None:
            state["anchor"] = sd.e1
        state["prev"] = sd.e1
        state["gap"] = ((sd.kappa2 - sd.kappa1)
                        / max(1.0, abs(sd.kappa1) + abs(sd.kappa2)))
        d = sd.decomp
        det = d.f1 * d.g2 - d.f2 * d.g1
        if abs(det) < 1e-12:
            raise SingularDecompositionError(
                f"tangent decomposition singular at ({t:g}, {z:g})")
        tp = (d.g2 * rhs_target[0] - d.g1 * rhs_target[1]) / det
        zp = (-d.f2 * rhs_target[0] + d.f1 * rhs_target[1]) / det
        return np.array([tp, zp])

    def rhs(s, y):
        v = velocity(y[0], y[1])
        # a dip below the gap threshold at any evaluation point marks the
        # trace as umbilic-terminated even if no step endpoint straddles it
        if state["gap"] < UMBILIC_GAP:
            old = state["umbilic_s"]
            if old is None or abs(s) < abs(old):
                state["umbilic_s"] = float(s)
        return v

    events = _domain_events(surface)
    if not surface.totally_umbilic:
        def umbilic_event(s, y, _surf=surface):
            sd = point_shape(_surf, y[0], y[1], check_domain=False)[2]
            gap = sd.kappa2 - sd.kappa1
            return (gap - UMBILIC_GAP
                    * max(1.0, abs(sd.kappa1) + abs(sd.kappa2)))
        umbilic_event.terminal = True
        umbilic_event.direction = -1
        umbilic_event.umbilic = True
        events = events + [umbilic_event]

    y0 = np.array(req.start_uv, dtype=float)
    fwd, bwd, exit_ = _integrate_branches(rhs, y0, req.s_span, events,
                                          req.atol, req.rtol, req.max_step,
                                          reset_state)
    s_hi = float(fwd.t[-1]) if fwd is not None else 0.0
    s_lo = float(bwd.t[-1]) if bwd is not None else 0.0
    if state["umbilic_s"] is not None:
        s_u = state["umbilic_s"]
        if s_u >= 0.0:
            s_hi = min(s_hi, s_u)
        else:
            s_lo = max(s_lo, s_u)
        exit_ = TraceExit("hit_umbilic", s_u)
    s = _sample_grid(req.step, s_lo, s_hi)
    uv = _dense_samples(fwd, bwd, y0, s)

    def field(points, e1_hint):
        """The flow velocity at each of the (m, 2) points, and E1 there."""
        t, z = points.T
        sd = shape_arrays(surface, t, z, e1_hint, check_domain=False)[2]
        d = sd.decomp
        det = d.f1 * d.g2 - d.f2 * d.g1
        singular = np.abs(det) < 1e-12
        if singular.any():
            i = int(np.argmax(singular))
            raise SingularDecompositionError(
                f"tangent decomposition singular at ({t[i]:g}, {z[i]:g})")
        tp = (d.g2 * rhs_target[0] - d.g1 * rhs_target[1]) / det
        zp = (-d.f2 * rhs_target[0] + d.f1 * rhs_target[1]) / det
        return np.column_stack([tp, zp]), sd.e1

    # velocities from the flow field itself (exact speed), accelerations by
    # directional differentiation of the field along the velocity; the E1
    # sign chain walks outward from s = 0 separately on each side, from the
    # integration anchor, so the hint always comes from a nearby point
    i_zero = int(np.argmin(np.abs(s)))
    vel_fwd, e1_fwd = field(uv[i_zero:], state["anchor"])
    uv_vel, e1_at = vel_fwd, e1_fwd
    if i_zero > 0:
        vel_bwd, e1_bwd = field(uv[i_zero - 1::-1], state["anchor"])
        uv_vel = np.concatenate([vel_bwd[::-1], vel_fwd])
        e1_at = np.concatenate([e1_bwd[:, ::-1], e1_fwd], axis=1)
    h = 1e-6
    f_plus = field(uv + h * uv_vel, e1_at)[0]
    f_minus = field(uv - h * uv_vel, e1_at)[0]
    uv_acc = (f_plus - f_minus) / (2 * h)
    return Trace(req, s, uv, uv_vel, uv_acc, exit_)


def trace_pseudogeodesic(req: TraceRequest) -> Trace:
    """Trace the pseudo-geodesic with constant normal angle theta."""
    mode = req.mode
    if isinstance(mode, GeodesicMode):
        mode = PseudoGeodesicMode(theta=0.0, initial_dir=mode.initial_dir)
    if not isinstance(mode, PseudoGeodesicMode):
        raise ValueError("trace_pseudogeodesic needs a PseudoGeodesicMode")
    surface = req.surface
    if not surface.orthogonal:
        raise NonOrthogonalChartError(
            f"surface '{surface.name}' is not flagged orthogonal")
    if not abs(mode.theta) < np.pi / 2:
        raise ThetaOutOfRangeError("|theta| must be < pi/2")
    tan_theta = float(np.tan(mode.theta))

    def acceleration(forms, ch, tp, zp):
        """(t'', z'') of the flow; floats or arrays."""
        second = (forms.e * tp * tp + 2 * forms.f * tp * zp
                  + forms.g * zp * zp)
        sq_ge = np.sqrt(forms.G / forms.E)
        sq_eg = np.sqrt(forms.E / forms.G)
        tpp = -(ch.c1_tt * tp * tp + 2 * ch.c1_tz * tp * zp
                + ch.c1_zz * zp * zp) - tan_theta * zp * sq_ge * second
        zpp = -(ch.c2_tt * tp * tp + 2 * ch.c2_tz * tp * zp
                + ch.c2_zz * zp * zp) + tan_theta * tp * sq_eg * second
        return tpp, zpp

    def rhs(s, y):
        t, z, tp, zp = y
        _jet, forms, sd = point_shape(surface, t, z, check_domain=False)
        return np.array([tp, zp, *acceleration(forms, sd.christoffel, tp, zp)])

    tp0, zp0 = _unit_uv_velocity(surface, req.start_uv, mode.initial_dir)
    y0 = np.array([req.start_uv[0], req.start_uv[1], tp0, zp0])
    events = _domain_events(surface)
    fwd, bwd, exit_ = _integrate_branches(rhs, y0, req.s_span, events,
                                          req.atol, req.rtol, req.max_step)
    s_hi = float(fwd.t[-1]) if fwd is not None else 0.0
    s_lo = float(bwd.t[-1]) if bwd is not None else 0.0
    s = _sample_grid(req.step, s_lo, s_hi)
    state = _dense_samples(fwd, bwd, y0, s)
    uv = state[:, :2]
    uv_vel = state[:, 2:]
    _jet, forms, sd = shape_arrays(surface, uv[:, 0], uv[:, 1],
                                   check_domain=False)
    uv_acc = np.column_stack(acceleration(forms, sd.christoffel, *uv_vel.T))
    return Trace(req, s, uv, uv_vel, uv_acc, exit_)


def trace_geodesic(req: TraceRequest) -> Trace:
    """Geodesic trace: the theta = 0 pseudo-geodesic flow."""
    mode = req.mode
    if isinstance(mode, GeodesicMode):
        req = replace(req, mode=PseudoGeodesicMode(0.0, mode.initial_dir))
    elif not (isinstance(mode, PseudoGeodesicMode) and mode.theta == 0.0):
        raise ValueError("trace_geodesic needs a GeodesicMode request")
    return trace_pseudogeodesic(req)


def trace(req: TraceRequest) -> Trace:
    """Dispatch on the request mode."""
    if isinstance(req.mode, IsogonalMode):
        return trace_isogonal(req)
    if isinstance(req.mode, GeodesicMode):
        return trace_geodesic(req)
    return trace_pseudogeodesic(req)


def isogonal_map(surface: SurfaceDef, p_uv: tuple[float, float],
                 v: tuple[float, float], *, atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL) -> tuple[float, float]:
    """The isogonal analogue of the exponential map: the point reached at
    flow parameter 1 by the isogonal line with initial uv-velocity v."""
    tp, zp = float(v[0]), float(v[1])
    if tp == 0.0 and zp == 0.0:
        return p_uv
    jet, forms, sd = point_shape(surface, *p_uv)
    if sd.umbilic:
        raise UmbilicEncounteredError("isogonal map undefined at umbilic")
    v3 = tp * jet.d_t + zp * jet.d_z
    speed = float(np.linalg.norm(v3))
    phi = float(np.arctan2(v3 @ sd.e2, v3 @ sd.e1))
    req = TraceRequest(surface, p_uv, IsogonalMode(phi, speed),
                       s_span=(0.0, 1.0), step=0.125, atol=atol, rtol=rtol)
    tr = trace_isogonal(req)
    if tr.s[-1] < 1.0 - 1e-12:
        raise BoundaryExitError(
            f"isogonal line left the domain at s = {tr.exit.s_stop}")
    return float(tr.uv[-1, 0]), float(tr.uv[-1, 1])
