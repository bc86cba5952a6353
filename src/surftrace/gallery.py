"""Concrete surfaces with analytic jets and closed-form curvature oracles.

Each constructor returns a :class:`~surftrace.core.SurfaceDef` whose
``oracle`` field carries independent closed-form expressions: principal
curvatures of the two coordinate-line families (``k1`` for t-lines, ``k2``
for z-lines, *not* reordered) and the geodesic curvatures ``kg1``/``kg2``
of those lines, all under the chart orientation N = X_t x X_z.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import beta, betaincc

from .core import Domain, SurfaceDef, SurfaceJet2, vec3
from .errors import DegenerateParameterError

ScalarField = Callable[[float, float], float]
VectorField = Callable[[float, float], np.ndarray]


@dataclass(frozen=True)
class GalleryOracle:
    """Closed-form reference data for a gallery surface.

    k1/k2 are the normal curvatures of the t- and z-coordinate directions
    (coordinate lines are lines of curvature on every gallery chart);
    kg1/kg2 their geodesic curvatures.  Optional normal/e1/e2 give the
    full frame where a closed form is available.
    """

    k1: ScalarField
    k2: ScalarField
    kg1: ScalarField
    kg2: ScalarField
    normal: Optional[VectorField] = None
    e1: Optional[VectorField] = None
    e2: Optional[VectorField] = None


# ---------------------------------------------------------------------------
# helix surface (ruled, flat; generating curve: circle of radius r_beta)
# ---------------------------------------------------------------------------

def make_helix_surface(r_beta: float = 1.0, phi0: float = np.pi / 4) -> SurfaceDef:
    """Ruled surface whose rulings make the constant angle phi0 with the
    vertical axis, built over a circle of radius r_beta (arc-length
    parametrized, inward normal).

    Chart: X(t, z) = ((r - z cos(phi0)) cos(t/r), (r - z cos(phi0)) sin(t/r),
    z sin(phi0)).  Domain keeps 1 - z cos(phi0)/r > 0 with a 5% margin.
    """
    if not 0.0 < phi0 < np.pi / 2:
        raise DegenerateParameterError(
            "phi0 must lie strictly between 0 and pi/2 "
            "(plane and cylinder limits have dedicated constructors)")
    if r_beta <= 0:
        raise DegenerateParameterError("r_beta must be positive")
    r = float(r_beta)
    cph, sph = float(np.cos(phi0)), float(np.sin(phi0))
    kb = 1.0 / r
    z_max = 0.95 * r / cph

    def rho(z: float) -> float:
        return 1.0 - z * cph * kb

    def position(t: float, z: float) -> np.ndarray:
        u = t / r
        return vec3(t, r * rho(z) * np.cos(u), r * rho(z) * np.sin(u), z * sph)

    def jet(t: float, z: float) -> SurfaceJet2:
        u = t / r
        cu, su = np.cos(u), np.sin(u)
        p = rho(z)
        pos = vec3(t, r * p * cu, r * p * su, z * sph)
        d_t = vec3(t, -p * su, p * cu, 0.0)
        d_z = vec3(t, -cph * cu, -cph * su, sph)
        d_tt = vec3(t, -p * cu / r, -p * su / r, 0.0)
        d_tz = vec3(t, cph * su / r, -cph * cu / r, 0.0)
        d_zz = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(pos, d_t, d_z, d_tt, d_tz, d_zz)

    oracle = GalleryOracle(
        k1=lambda t, z: -sph * kb / rho(z),
        k2=lambda t, z: 0.0,
        kg1=lambda t, z: cph * kb / rho(z),
        kg2=lambda t, z: 0.0,
    )
    span = 1.5 * 2 * np.pi * r
    return SurfaceDef(
        name="helix_surface",
        domain=Domain(-span, span, -z_max, z_max),
        position=position, jet=jet, orthogonal=True,
        params={"r_beta": r, "phi0": float(phi0)}, oracle=oracle)


# ---------------------------------------------------------------------------
# Enneper surface
# ---------------------------------------------------------------------------

def make_enneper(extent: float = 2.0) -> SurfaceDef:
    """Enneper's minimal surface in its lines-of-curvature chart,
    X(t,z) = (t - t^3/3 + t z^2, z - z^3/3 + z t^2, t^2 - z^2).

    ``extent`` sets the half-width of the square domain (default 2);
    the chart is regular on all of R^2, so any extent is admissible.
    """

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t - t * t * t / 3 + t * z * z,
                    z - z * z * z / 3 + z * t * t, t * t - z * z)

    def jet(t: float, z: float) -> SurfaceJet2:
        pos = position(t, z)
        d_t = vec3(t, 1 - t * t + z * z, 2 * t * z, 2 * t)
        d_z = vec3(t, 2 * t * z, 1 - z * z + t * t, -2 * z)
        d_tt = vec3(t, -2 * t, 2 * z, 2.0)
        d_tz = vec3(t, 2 * z, 2 * t, 0.0)
        d_zz = vec3(t, 2 * t, -2 * z, -2.0)
        return SurfaceJet2(pos, d_t, d_z, d_tt, d_tz, d_zz)

    def w2(t: float, z: float) -> float:
        return (1 + t * t + z * z) ** 2

    oracle = GalleryOracle(
        k1=lambda t, z: 2.0 / w2(t, z),
        k2=lambda t, z: -2.0 / w2(t, z),
        kg1=lambda t, z: -2.0 * z / w2(t, z),
        kg2=lambda t, z: 2.0 * t / w2(t, z),
        normal=lambda t, z: np.array([-2 * t, 2 * z, 1 - t * t - z * z])
        / (1 + t * t + z * z),
    )
    ext = float(extent)
    return SurfaceDef(name="enneper", domain=Domain(-ext, ext, -ext, ext),
                      position=position, jet=jet, orthogonal=True,
                      params={"extent": ext}, oracle=oracle)


# ---------------------------------------------------------------------------
# revolution surface with constant ratio of principal curvatures
# ---------------------------------------------------------------------------

def _crpc_height(t: float, c: float, eps: float) -> float:
    """Height integral eps * int_1^t u^c (1 - u^{2c})^{-1/2} du (elementwise).

    With w = u^{2c} the integral is an incomplete beta function:
    int_t^1 = B(a, 1/2) I'(t^{2c}; a, 1/2) / (2c), a = (1 + 1/c) / 2, where
    I' is the complementary regularized incomplete beta.  It is 0 at t = 1
    and NaN beyond, where the surface does not exist.
    """
    a = 0.5 / c + 0.5
    return -eps / (2.0 * c) * beta(a, 0.5) * betaincc(a, 0.5, np.power(t, 2 * c))


def make_crpc_revolution(c: float = 2.0, eps: int = 1) -> SurfaceDef:
    """Surface of revolution with kappa(t-dir) = c * kappa(z-dir) != 0.

    Chart: X(t,z) = (t cos z, t sin z, h(t)) with h'(t) = eps t^c
    (1 - t^{2c})^{-1/2}; h itself is only needed for positions and is an
    incomplete beta function (`_crpc_height`).  The chart degenerates at t -> 0
    and t -> 1, so the domain keeps a 5% margin on both sides.
    """
    if not c > 0:
        raise DegenerateParameterError(
            f"c must be positive (got {c}); for c <= 0, 1 - t^(2c) <= 0 on "
            "the whole chart")
    if eps not in (1, -1):
        raise DegenerateParameterError("eps must be +1 or -1")
    c = float(c)
    ep = float(eps)

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t * np.cos(z), t * np.sin(z), _crpc_height(t, c, ep))

    def jet(t: float, z: float) -> SurfaceJet2:
        cz, sz = np.cos(z), np.sin(z)
        tc = np.power(t, c)
        w = 1.0 - tc * tc
        sw = np.sqrt(w)
        hp = ep * tc / sw
        hpp = ep * c * (tc / t) / (w * sw)
        pos = vec3(t, t * cz, t * sz, _crpc_height(t, c, ep))
        d_t = vec3(t, cz, sz, hp)
        d_z = vec3(t, -t * sz, t * cz, 0.0)
        d_tt = vec3(t, 0.0, 0.0, hpp)
        d_tz = vec3(t, -sz, cz, 0.0)
        d_zz = vec3(t, -t * cz, -t * sz, 0.0)
        return SurfaceJet2(pos, d_t, d_z, d_tt, d_tz, d_zz)

    def sq(t: float) -> float:
        return np.sqrt(1.0 - t ** (2 * c))

    oracle = GalleryOracle(
        k1=lambda t, z: ep * c * t ** (c - 1),
        k2=lambda t, z: ep * t ** (c - 1),
        kg1=lambda t, z: 0.0,
        kg2=lambda t, z: sq(t) / t,
        normal=lambda t, z: np.array([-ep * t ** c * np.cos(z),
                                      -ep * t ** c * np.sin(z), sq(t)]),
        e1=lambda t, z: np.array([sq(t) * np.cos(z), sq(t) * np.sin(z),
                                  ep * t ** c]),
        e2=lambda t, z: np.array([-np.sin(z), np.cos(z), 0.0]),
    )
    return SurfaceDef(name="crpc_revolution",
                      domain=Domain(0.05, 0.95, -8 * np.pi, 8 * np.pi),
                      position=position, jet=jet, orthogonal=True,
                      params={"c": c, "eps": ep}, oracle=oracle)


# ---------------------------------------------------------------------------
# Bonnet surface family
# ---------------------------------------------------------------------------

def make_bonnet(a: float = 0.5) -> SurfaceDef:
    """Bonnet minimal surface (plane lines of curvature), 0 < a < 1."""
    if not 0.0 < a < 1.0:
        raise DegenerateParameterError("a must lie strictly between 0 and 1")
    a = float(a)
    q = 1.0 / np.sqrt(1.0 - a * a)

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, q * (a * t + np.sin(t) * np.cosh(z)),
                    q * (z + a * np.cos(t) * np.sinh(z)), np.cos(t) * np.cosh(z))

    def jet(t: float, z: float) -> SurfaceJet2:
        st, ct = np.sin(t), np.cos(t)
        sh, ch = np.sinh(z), np.cosh(z)
        pos = vec3(t, q * (a * t + st * ch), q * (z + a * ct * sh), ct * ch)
        d_t = vec3(t, q * (a + ct * ch), -q * a * st * sh, -st * ch)
        d_z = vec3(t, q * st * sh, q * (1 + a * ct * ch), ct * sh)
        d_tt = vec3(t, -q * st * ch, -q * a * ct * sh, -ct * ch)
        d_tz = vec3(t, q * ct * sh, -q * a * st * ch, -st * sh)
        d_zz = vec3(t, q * st * ch, q * a * ct * sh, ct * ch)
        return SurfaceJet2(pos, d_t, d_z, d_tt, d_tz, d_zz)

    def den(t: float, z: float) -> float:
        return (a * np.cos(t) + np.cosh(z)) ** 2

    oracle = GalleryOracle(
        k1=lambda t, z: -(1 - a * a) / den(t, z),
        k2=lambda t, z: (1 - a * a) / den(t, z),
        kg1=lambda t, z: -np.sqrt(1 - a * a) * np.sinh(z) / den(t, z),
        kg2=lambda t, z: -a * np.sqrt(1 - a * a) * np.sin(t) / den(t, z),
    )
    return SurfaceDef(name="bonnet", domain=Domain(-3, 3, -2.5, 2.5),
                      position=position, jet=jet, orthogonal=True,
                      params={"a": a}, oracle=oracle)


# ---------------------------------------------------------------------------
# stock charts: sphere, plane, cylinder, catenoid
# ---------------------------------------------------------------------------

def make_sphere(r: float = 1.0) -> SurfaceDef:
    """Sphere of radius r, latitude/longitude chart, inward normal
    (kappa = +1/r).  Totally umbilic."""
    if r <= 0:
        raise DegenerateParameterError("radius must be positive")
    r = float(r)

    def position(t: float, z: float) -> np.ndarray:
        return r * vec3(t, np.cos(t) * np.cos(z), np.cos(t) * np.sin(z),
                        np.sin(t))

    def jet(t: float, z: float) -> SurfaceJet2:
        ct, st = np.cos(t), np.sin(t)
        cz, sz = np.cos(z), np.sin(z)
        pos = r * vec3(t, ct * cz, ct * sz, st)
        d_t = r * vec3(t, -st * cz, -st * sz, ct)
        d_z = r * vec3(t, -ct * sz, ct * cz, 0.0)
        d_tt = -pos
        d_tz = r * vec3(t, st * sz, -st * cz, 0.0)
        d_zz = r * vec3(t, -ct * cz, -ct * sz, 0.0)
        return SurfaceJet2(pos, d_t, d_z, d_tt, d_tz, d_zz)

    return SurfaceDef(name="sphere", domain=Domain(-1.2, 1.2, -3.1, 3.1),
                      position=position, jet=jet, orthogonal=True,
                      totally_umbilic=True, params={"r": r})


def make_plane() -> SurfaceDef:
    """Flat chart X(t,z) = (t, z, 0).  Totally umbilic (kappa = 0)."""

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t, z, 0.0)

    def jet(t: float, z: float) -> SurfaceJet2:
        zero = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(vec3(t, t, z, 0.0), vec3(t, 1.0, 0.0, 0.0),
                           vec3(t, 0.0, 1.0, 0.0), zero, zero, zero)

    oracle = GalleryOracle(k1=lambda t, z: 0.0, k2=lambda t, z: 0.0,
                           kg1=lambda t, z: 0.0, kg2=lambda t, z: 0.0)
    return SurfaceDef(name="plane", domain=Domain(-10, 10, -10, 10),
                      position=position, jet=jet, orthogonal=True,
                      totally_umbilic=True, oracle=oracle)


def make_cylinder(r: float = 1.0) -> SurfaceDef:
    """Cylinder of radius r; t runs along the rulings, z is arc length
    around the circle.  Oriented with the inward normal so the circular
    direction has curvature +1/r."""
    if r <= 0:
        raise DegenerateParameterError("radius must be positive")
    r = float(r)

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, r * np.cos(z / r), r * np.sin(z / r), t)

    def jet(t: float, z: float) -> SurfaceJet2:
        u = z / r
        cu, su = np.cos(u), np.sin(u)
        pos = vec3(t, r * cu, r * su, t)
        d_t = vec3(t, 0.0, 0.0, 1.0)
        d_z = vec3(t, -su, cu, 0.0)
        d_tt = vec3(t, 0.0, 0.0, 0.0)
        d_tz = d_tt
        d_zz = vec3(t, -cu / r, -su / r, 0.0)
        return SurfaceJet2(pos, d_t, d_z, d_tt, d_tz, d_zz)

    oracle = GalleryOracle(k1=lambda t, z: 0.0, k2=lambda t, z: 1.0 / r,
                           kg1=lambda t, z: 0.0, kg2=lambda t, z: 0.0)
    span = 6 * np.pi * r
    return SurfaceDef(name="cylinder", domain=Domain(-6, 6, -span, span),
                      position=position, jet=jet, orthogonal=True,
                      params={"r": r}, oracle=oracle)


def make_catenoid() -> SurfaceDef:
    """Catenoid X(t,z) = (cosh t cos z, cosh t sin z, t); isothermal
    lines-of-curvature chart."""

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, np.cosh(t) * np.cos(z), np.cosh(t) * np.sin(z), t)

    def jet(t: float, z: float) -> SurfaceJet2:
        ch, sh = np.cosh(t), np.sinh(t)
        cz, sz = np.cos(z), np.sin(z)
        pos = vec3(t, ch * cz, ch * sz, t)
        d_t = vec3(t, sh * cz, sh * sz, 1.0)
        d_z = vec3(t, -ch * sz, ch * cz, 0.0)
        d_tt = vec3(t, ch * cz, ch * sz, 0.0)
        d_tz = vec3(t, -sh * sz, sh * cz, 0.0)
        d_zz = vec3(t, -ch * cz, -ch * sz, 0.0)
        return SurfaceJet2(pos, d_t, d_z, d_tt, d_tz, d_zz)

    oracle = GalleryOracle(
        k1=lambda t, z: -1.0 / np.cosh(t) ** 2,
        k2=lambda t, z: 1.0 / np.cosh(t) ** 2,
        kg1=lambda t, z: 0.0,
        kg2=lambda t, z: np.tanh(t) / np.cosh(t),
    )
    return SurfaceDef(name="catenoid", domain=Domain(-1.5, 1.5, -3.1, 3.1),
                      position=position, jet=jet, orthogonal=True,
                      oracle=oracle)


#: constructors by name, for the CLI and scenario configs
CATALOGUE: dict[str, Callable[..., SurfaceDef]] = {
    "helix_surface": make_helix_surface,
    "enneper": make_enneper,
    "crpc_revolution": make_crpc_revolution,
    "bonnet": make_bonnet,
    "sphere": make_sphere,
    "plane": make_plane,
    "cylinder": make_cylinder,
    "catenoid": make_catenoid,
}


def make_surface(name: str, **params: float) -> SurfaceDef:
    """Instantiate a catalogued surface by name with keyword parameters."""
    try:
        ctor = CATALOGUE[name]
    except KeyError:
        raise DegenerateParameterError(
            f"unknown surface '{name}'; choices: {sorted(CATALOGUE)}") from None
    accepted = sorted(inspect.signature(ctor).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise DegenerateParameterError(
            f"surface '{name}' has no parameter {', '.join(unknown)}; "
            f"accepted: {', '.join(accepted) or 'none'}")
    return ctor(**params)
