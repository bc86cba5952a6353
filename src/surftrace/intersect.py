"""Curves shared by two transversally intersecting surfaces.

For a unit-speed curve on both M and Mbar, with normal-angle functions
theta and theta_bar and intersection angle xi = angle(N, Nbar) in (0, pi),
the frame relation xi = eps (theta_bar - theta), eps in {+-1}, holds up to
a fixed multiple of 2 pi, and differentiating gives
xi' = eps (taug - taug_bar).

Fixtures are built from closed-form preimages only; no surface-surface
marching is performed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .classify import ConstancyVerdict, constancy_test
from .core import Domain, SurfaceDef, SurfaceJet2, jet2, vec3
from .darboux import CurveData, curve_scalars
from .errors import (PreimageMismatchError, TangencyError,
                     UnknownFixtureError)
from .gallery import make_cylinder, make_sphere
from .numdiff import check_uniform, diff_uniform


@dataclass(frozen=True)
class SharedCurve:
    """A curve with arc-length samples and analytic preimages in two charts."""

    s: np.ndarray            # (n,)
    spatial: np.ndarray      # (n, 3)
    uv_m: np.ndarray         # (n, 2)
    uv_m_vel: np.ndarray
    uv_m_acc: np.ndarray
    uv_mbar: np.ndarray
    uv_mbar_vel: np.ndarray
    uv_mbar_acc: np.ndarray


@dataclass(frozen=True)
class Fixture:
    name: str
    m: SurfaceDef
    mbar: SurfaceDef
    curve: SharedCurve


@dataclass(frozen=True)
class IntersectionReport:
    theta: np.ndarray
    theta_bar: np.ndarray
    xi: np.ndarray
    eps: int
    angle_residual: float      # max |xi - eps (theta_bar - theta) + 2 pi k|
    relation_residual: float   # max |xi' - eps (taug - taug_bar)|
    constant_angle: ConstancyVerdict
    ambiguous_eps: bool
    curve_m: CurveData
    curve_mbar: CurveData


# ---------------------------------------------------------------------------
# fixture charts
# ---------------------------------------------------------------------------

def _plane_at(height: float) -> SurfaceDef:
    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t, z, height)

    def jet(t: float, z: float) -> SurfaceJet2:
        zero = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(vec3(t, t, z, height), vec3(t, 1.0, 0.0, 0.0),
                           vec3(t, 0.0, 1.0, 0.0), zero, zero, zero)

    return SurfaceDef(name=f"plane_z={height:g}", domain=Domain(-10, 10, -10, 10),
                      position=position, jet=jet, orthogonal=True,
                      totally_umbilic=True)


def _tilted_plane(alpha: float) -> SurfaceDef:
    """Plane through the origin spanned by (cos a, 0, sin a) and (0, 1, 0)."""
    ca, sa = float(np.cos(alpha)), float(np.sin(alpha))

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t * ca, z, t * sa)

    def jet(t: float, z: float) -> SurfaceJet2:
        zero = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(position(t, z), vec3(t, ca, 0.0, sa),
                           vec3(t, 0.0, 1.0, 0.0), zero, zero, zero)

    return SurfaceDef(name=f"plane_tilt={alpha:g}", domain=Domain(-10, 10, -10, 10),
                      position=position, jet=jet, orthogonal=True,
                      totally_umbilic=True)


def _translated_sphere(center: np.ndarray, r: float = 1.0) -> SurfaceDef:
    base = make_sphere(r)
    c = np.asarray(center, dtype=float)

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, *c) + base.position(t, z)

    def jet(t: float, z: float) -> SurfaceJet2:
        j = base.jet(t, z)
        return SurfaceJet2(vec3(t, *c) + j.position, j.d_t, j.d_z, j.d_tt,
                           j.d_tz, j.d_zz)

    return SurfaceDef(name=f"sphere_at({c[0]:g},{c[1]:g},{c[2]:g})",
                      domain=base.domain, position=position, jet=jet,
                      orthogonal=True, totally_umbilic=True, params={"r": r})


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _sphere_plane(h: float = 0.5, n: int = 1024) -> Fixture:
    """Unit sphere cut by the plane z = h: circle of radius sqrt(1 - h^2)."""
    if not -1.0 < h < 1.0:
        raise ValueError("need |h| < 1 for a real intersection")
    rho = np.sqrt(1.0 - h * h)
    t_lat = np.arcsin(h)
    psi_max = 1.2
    s = np.linspace(-psi_max * rho, psi_max * rho, n)
    psi = s / rho
    spatial = np.column_stack([rho * np.cos(psi), rho * np.sin(psi),
                               np.full(n, h)])
    uv_m = np.column_stack([np.full(n, t_lat), psi])
    uv_m_vel = np.column_stack([np.zeros(n), np.full(n, 1.0 / rho)])
    uv_m_acc = np.zeros((n, 2))
    uv_p = np.column_stack([rho * np.cos(psi), rho * np.sin(psi)])
    uv_p_vel = np.column_stack([-np.sin(psi), np.cos(psi)])
    uv_p_acc = np.column_stack([-np.cos(psi) / rho, -np.sin(psi) / rho])
    curve = SharedCurve(s, spatial, uv_m, uv_m_vel, uv_m_acc,
                        uv_p, uv_p_vel, uv_p_acc)
    return Fixture("sphere_plane", make_sphere(1.0), _plane_at(h), curve)


def _sphere_sphere(d: float = 1.0, n: int = 1024) -> Fixture:
    """Two unit spheres with centers distance d apart."""
    if not 0.0 < d < 2.0:
        raise ValueError("need 0 < d < 2 for a transversal intersection")
    x0 = d / 2.0
    rho = np.sqrt(1.0 - x0 * x0)
    psi_max = 1.2
    s = np.linspace(-psi_max * rho, psi_max * rho, n)
    psi = s / rho
    cpsi, spsi = np.cos(psi), np.sin(psi)
    spatial = np.column_stack([np.full(n, x0), rho * cpsi, rho * spsi])

    # latitude t(s) = asin(rho sin psi), longitude z(s) = atan2(rho cos psi, a)
    u = rho * spsi
    up = cpsi                      # du/ds
    upp = -spsi / rho
    D = np.sqrt(1.0 - u * u)
    t = np.arcsin(u)
    tp = up / D
    tpp = upp / D + up * up * u / D ** 3
    b = rho * cpsi
    bp = -spsi
    bpp = -cpsi / rho

    def angle_series(a: float):
        Q = a * a + b * b
        z = np.arctan2(b, a)
        zp = a * bp / Q
        zpp = a * (bpp * Q - bp * (2 * b * bp)) / Q ** 2
        return z, zp, zpp

    z_m, zp_m, zpp_m = angle_series(x0)
    z_b, zp_b, zpp_b = angle_series(-x0)
    curve = SharedCurve(
        s, spatial,
        np.column_stack([t, z_m]), np.column_stack([tp, zp_m]),
        np.column_stack([tpp, zpp_m]),
        np.column_stack([t, z_b]), np.column_stack([tp, zp_b]),
        np.column_stack([tpp, zpp_b]))
    return Fixture("sphere_sphere", make_sphere(1.0),
                   _translated_sphere(np.array([d, 0.0, 0.0])), curve)


def _cylinder_plane(tilt: float = np.pi / 6, n: int = 1024) -> Fixture:
    """Unit cylinder cut by the plane through the origin tilted by `tilt`
    about the y-axis; the section is an ellipse (circle at tilt = 0)."""
    if not 0.0 <= tilt < np.pi / 2:
        raise ValueError("need 0 <= tilt < pi/2")
    ta = np.tan(tilt)
    s_max = 2.0
    s = np.linspace(-s_max, s_max, n)

    def g2(psi: float) -> float:
        return 1.0 + ta * ta * np.sin(psi) ** 2

    # arc-length reparametrization psi(s), d psi / d s = 1 / sqrt(g2)
    sol = solve_ivp(lambda _s, y: [1.0 / np.sqrt(g2(y[0]))], (0.0, s_max),
                    [0.0], dense_output=True, rtol=1e-12, atol=1e-13)
    sol_b = solve_ivp(lambda _s, y: [1.0 / np.sqrt(g2(y[0]))], (0.0, -s_max),
                      [0.0], dense_output=True, rtol=1e-12, atol=1e-13)
    psi = np.where(s >= 0, sol.sol(np.clip(s, 0, None))[0],
                   sol_b.sol(np.clip(s, None, 0))[0])
    cpsi, spsi = np.cos(psi), np.sin(psi)
    gg = 1.0 + ta * ta * spsi ** 2
    psip = 1.0 / np.sqrt(gg)
    psipp = -ta * ta * spsi * cpsi / gg ** 2

    spatial = np.column_stack([cpsi, spsi, ta * cpsi])
    # cylinder chart: t = height, z = circular arc length (radius 1)
    uv_m = np.column_stack([ta * cpsi, psi])
    uv_m_vel = np.column_stack([-ta * spsi * psip, psip])
    uv_m_acc = np.column_stack([-ta * (cpsi * psip ** 2 + spsi * psipp), psipp])
    # tilted-plane chart: u = cos(psi)/cos(tilt), v = sin(psi)
    ca = np.cos(tilt)
    uv_p = np.column_stack([cpsi / ca, spsi])
    uv_p_vel = np.column_stack([-spsi * psip / ca, cpsi * psip])
    uv_p_acc = np.column_stack([-(cpsi * psip ** 2 + spsi * psipp) / ca,
                                -spsi * psip ** 2 + cpsi * psipp])
    curve = SharedCurve(s, spatial, uv_m, uv_m_vel, uv_m_acc,
                        uv_p, uv_p_vel, uv_p_acc)
    return Fixture("cylinder_plane", make_cylinder(1.0), _tilted_plane(tilt),
                   curve)


FIXTURES = {
    "sphere_plane": _sphere_plane,
    "sphere_sphere": _sphere_sphere,
    "cylinder_plane": _cylinder_plane,
}


def make_fixture(name: str, **params) -> Fixture:
    """Build a named two-surface fixture with its shared curve."""
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture '{name}'; choices: {sorted(FIXTURES)}") from None
    return builder(**params)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def analyze_intersection(m: SurfaceDef, mbar: SurfaceDef,
                         curve: SharedCurve) -> IntersectionReport:
    """Frame analysis of a curve shared by two transversal surfaces."""
    n = len(curve.s)
    h = check_uniform(curve.s)
    for surf, uv, label in ((m, curve.uv_m, "M"), (mbar, curve.uv_mbar, "Mbar")):
        for i in (0, n // 2, n - 1):
            pos = jet2(surf, *uv[i], check_domain=False).position
            if np.linalg.norm(pos - curve.spatial[i]) > 1e-9:
                raise PreimageMismatchError(
                    f"preimage in {label} misses the curve at sample {i}")

    cd_m = curve_scalars(m, curve.s, curve.uv_m, curve.uv_m_vel, curve.uv_m_acc)
    cd_b = curve_scalars(mbar, curve.s, curve.uv_mbar, curve.uv_mbar_vel,
                         curve.uv_mbar_acc)

    dots = np.einsum("ij,ij->i", cd_m.normal, cd_b.normal)
    crosses = np.linalg.norm(np.cross(cd_m.normal, cd_b.normal), axis=1)
    xi = np.arctan2(crosses, dots)
    if np.min(np.minimum(xi, np.pi - xi)) <= 1e-3:
        raise TangencyError("surfaces are (nearly) tangent along the curve")

    theta, theta_bar = cd_m.theta, cd_b.theta
    best = None
    resid0 = {}
    for eps in (1, -1):
        k = round(float(eps * (theta_bar[0] - theta[0]) - xi[0]) / (2 * np.pi))
        cand = eps * (theta_bar - theta) - 2 * np.pi * k
        r0 = abs(float(xi[0] - cand[0]))
        resid0[eps] = r0
        r = float(np.max(np.abs(xi - cand)))
        if best is None or r < best[1]:
            best = (eps, r)
    eps, angle_residual = best
    ambiguous = resid0[1] < 1e-8 and resid0[-1] < 1e-8

    xi_prime = diff_uniform(xi, h, edge_order=4)
    relation_residual = float(np.max(np.abs(
        xi_prime - eps * (cd_m.taug - cd_b.taug))))
    return IntersectionReport(theta, theta_bar, xi, eps, angle_residual,
                              relation_residual, constancy_test(xi),
                              ambiguous, cd_m, cd_b)
