"""Concrete surfaces with analytic jets and closed-form curvature oracles.

Each constructor returns a :class:`~surftrace.core.SurfaceDef` whose
``oracle`` field carries independent closed-form expressions: principal
curvatures of the two coordinate-line families (``k1`` for t-lines, ``k2``
for z-lines, *not* reordered) and the geodesic curvatures ``kg1``/``kg2``
of those lines, all under the chart orientation N = X_t x X_z.
"""
from __future__ import annotations

import bisect
import functools
import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Domain, SurfaceDef, SurfaceJet2, pyfloats, vec3
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


#: a gallery length (a radius, r_beta, Enneper's extent) lies in this range,
#: where every chart's metric and shape stages stay finite: a sphere's
#: W ~ r^4 under- or overflows beyond about 1e-76 and 1e75, Enneper's
#: W ~ extent^8 above 1e38
LENGTH_RANGE = (1e-38, 1e38)


def _length(name: str, value: float) -> float:
    lo, hi = LENGTH_RANGE
    if not lo <= value <= hi:   # NaN too
        raise DegenerateParameterError(
            f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
    return float(value)


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
    r = _length("r_beta", r_beta)
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
        cu, su = pyfloats(t, np.cos(u), np.sin(u))
        p = rho(z)
        d_t = vec3(t, -p * su, p * cu, 0.0)
        d_z = vec3(t, -cph * cu, -cph * su, sph)
        d_tt = vec3(t, -p * cu / r, -p * su / r, 0.0)
        d_tz = vec3(t, cph * su / r, -cph * cu / r, 0.0)
        d_zz = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(d_t, d_z, d_tt, d_tz, d_zz)

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
        position=position, jet=jet,
        params={"r_beta": r, "phi0": float(phi0)}, oracle=oracle)


# ---------------------------------------------------------------------------
# Enneper surface
# ---------------------------------------------------------------------------

def make_enneper(extent: float = 2.0) -> SurfaceDef:
    """Enneper's minimal surface in its lines-of-curvature chart,
    X(t,z) = (t - t^3/3 + t z^2, z - z^3/3 + z t^2, t^2 - z^2).

    ``extent`` sets the half-width of the square domain (default 2); the
    chart is regular on all of R^2, so any extent in `LENGTH_RANGE` will do.
    """
    ext = _length("extent", extent)

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t - t * t * t / 3 + t * z * z,
                    z - z * z * z / 3 + z * t * t, t * t - z * z)

    def jet(t: float, z: float) -> SurfaceJet2:
        d_t = vec3(t, 1 - t * t + z * z, 2 * t * z, 2 * t)
        d_z = vec3(t, 2 * t * z, 1 - z * z + t * t, -2 * z)
        d_tt = vec3(t, -2 * t, 2 * z, 2.0)
        d_tz = vec3(t, 2 * z, 2 * t, 0.0)
        d_zz = vec3(t, 2 * t, -2 * z, -2.0)
        return SurfaceJet2(d_t, d_z, d_tt, d_tz, d_zz)

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
    return SurfaceDef(name="enneper", domain=Domain(-ext, ext, -ext, ext),
                      position=position, jet=jet,
                      params={"extent": ext}, oracle=oracle)


# ---------------------------------------------------------------------------
# revolution surface with constant ratio of principal curvatures
# ---------------------------------------------------------------------------

#: the height's pieces split x = t^2c at 9/32, 1/2 and 1 - 5/16; each
#: series keeps its terms down to 2^-53 of its sum at the piece's far end
_CRPC_X1, _CRPC_Y1, _CRPC_TOL, _CRPC_TERMS = 0.28125, 0.3125, 2.0 ** -53, 48
#: the rim series, in w = a (1 - x), is summed for w <= 4 only: its terms
#: alternate and cancel more as w grows
_CRPC_W_MAX = 4.0


def _horner(coefs: tuple, u):
    """sum coefs[n] u^(N-1-n), highest order first; floats or arrays alike."""
    s = 0.0
    for k in coefs:
        s = s * u + k
    return s


def _cut(terms: list, r: float) -> tuple:
    """Series ``terms`` (lowest order first) up to the last one that is above
    _CRPC_TOL of their sum at u = r, highest order first for `_horner`."""
    total = abs(sum(k * r ** n for n, k in enumerate(terms)))
    n = max(n for n, k in enumerate(terms) if abs(k) * r ** n > _CRPC_TOL * total)
    return tuple(reversed(terms[:n + 1]))


def _binomials(alpha: float, scale: float) -> list:
    """binomial(alpha, n) scale^n for n < _CRPC_TERMS."""
    out = [1.0]
    for n in range(1, _CRPC_TERMS):
        out.append(out[-1] * (alpha - n + 1) / n * scale)
    return out


def _recentred(a: float, m: float, hw: float, j_hi: float):
    """J = K - d S(d), d = x - m, on |d| <= hw: S is the Taylor series of
    x^(a-1) (1-x)^(-1/2) at m, integrated; K is J(m) from j_hi = J(m + hw).
    Returns (K, S's coefficients, J(m - hw))."""
    p = _binomials(a - 1.0, 1.0 / m)
    q = _binomials(-0.5, -1.0 / (1.0 - m))
    f0 = m ** (a - 1.0) / math.sqrt(1.0 - m)
    f = [f0 * sum(p[i] * q[n - i] for i in range(n + 1)) / (n + 1)
         for n in range(_CRPC_TERMS)]
    s = _cut(f, hw)
    k = j_hi + hw * _horner(s, hw)
    return k, s, k + hw * _horner(s, -hw)


@functools.lru_cache(maxsize=64)
def _crpc_constants(c: float, eps: float):
    """-eps / (2c), the upper bounds on x of the four pieces of J and the
    pieces, each (constant, centre or scale, series), in `_crpc_piece`'s
    order, then None for x past the last bound.  The rim piece stops at
    a (1 - x) = _CRPC_W_MAX, and from a = _CRPC_W_MAX / _CRPC_Y1 = 12.8 on
    (c < 0.0407) the other three are None too: J is not summed between the
    rim piece and the axis."""
    a = 0.5 / c + 0.5
    # rim: J = sqrt(y) sum (1-a)_n w^n / (n! a^n (n + 1/2)), y = 1 - x, w = a y
    r = [2.0]
    for n in range(1, _CRPC_TERMS):
        r.append(r[-1] * (n - a) / (n * a) * (2 * n - 1) / (2 * n + 1))
    y1 = min(_CRPC_Y1, _CRPC_W_MAX / a)
    rim = _cut(r, a * y1)
    bounds = (_CRPC_X1, 0.5, 1.0 - y1, 1.0)
    if y1 < _CRPC_Y1:
        return -eps / (2.0 * c), bounds, (None, None, None, (0.0, a, rim), None)
    j = math.sqrt(y1) * _horner(rim, a * y1)
    m2, hw2 = (1.0 - y1 + 0.5) / 2, (0.5 - y1) / 2
    k2, s2, j = _recentred(a, m2, hw2, j)
    m1, hw1 = (_CRPC_X1 + 0.5) / 2, (0.5 - _CRPC_X1) / 2
    k1, s1, j = _recentred(a, m1, hw1, j)
    # axis: J = B - x^a sum (1/2)_n x^n / (n! (a + n)), B = B(a, 1/2)
    p = [1.0 / a]
    for n in range(1, _CRPC_TERMS):
        p.append(p[-1] * (a + n - 1) / (a + n) * (n - 0.5) / n)
    axis = _cut(p, _CRPC_X1)
    b = j + _CRPC_X1 ** a * _horner(axis, _CRPC_X1)
    return -eps / (2.0 * c), bounds, ((b, 0.0, axis), (k1, m1, s1),
                                       (k2, m2, s2), (0.0, a, rim), None)


def _crpc_height(t: float, c: float, eps: float) -> float:
    """Height integral eps * int_1^t u^c (1 - u^{2c})^{-1/2} du (elementwise).

    With w = u^{2c} it is -eps J(x) / (2c), J(x) = int_x^1 w^(a-1)
    (1-w)^(-1/2) dw, x = t^{2c}, a = (1 + 1/c) / 2: an incomplete beta
    function, summed from four series (DLMF 8.17.7; 8.17.4 at the rim).
    Near the axis, x <= 9/32, J = B(a, 1/2) - x^a sum (1/2)_n x^n /
    (n! (a + n)) with x^a = |t| sqrt(x); near the rim, 1 - x < 5/16, the
    series in 1 - x of int_0^(1-x) v^(-1/2) (1-v)^(a-1) dv; between them the
    integrand's Taylor series at the centres of (9/32, 1/2] and
    (1/2, 11/16], integrated.  Each piece starts from its neighbour's value
    at the split, so h is continuous; it is within 5e-16 relative of the
    incomplete beta function of the same x on the chart, 9e-16 below it
    (mpmath at 40 digits).  h is 0 at t = 1 (-0.0 for eps = 1) and NaN
    beyond, where the surface does not exist; for c < 0.0407 also below
    t = 0.019 (1 - x > 4 / a), where the rim series is not summed.  A float
    ``t`` sums its one piece in Python floats, an array each piece over its
    own elements with the same operations, so each element equals the
    float call bit for bit.
    """
    k, bounds, pieces = _crpc_constants(c, eps)
    x = np.power(t, 2 * c)
    if not isinstance(x, np.ndarray):   # one point: a float, an int, a 0-d t
        x = float(x)
        i = bisect.bisect_left(bounds, x)   # a NaN x sums piece 0 to NaN
        return k * _crpc_piece(i, pieces[i], x, t) if pieces[i] else math.nan
    out = np.full(x.shape, np.nan)
    index = np.searchsorted(bounds, x)
    for i, piece in enumerate(pieces):
        at = index == i
        if piece and at.any():   # past t = 1 or NaN: index 4
            out[at] = k * _crpc_piece(i, piece, x[at], t[at])
    return out


def _crpc_piece(i: int, piece: tuple, x, t):
    """J(x) from piece i of `_crpc_constants` (floats or arrays)."""
    k, m, s = piece
    sqrt = math.sqrt if type(x) is float else np.sqrt
    if i == 0:
        return k - abs(t) * sqrt(x) * _horner(s, x)
    if i == 3:
        y = 1.0 - x
        return sqrt(y) * _horner(s, m * y)
    d = x - m
    return k - d * _horner(s, d)


def make_crpc_revolution(c: float = 2.0, eps: int = 1) -> SurfaceDef:
    """Surface of revolution with kappa(t-dir) = c * kappa(z-dir) != 0.

    Chart: X(t,z) = (t cos z, t sin z, h(t)) with h'(t) = eps t^c
    (1 - t^{2c})^{-1/2}; h itself, an incomplete beta function summed from
    numpy series (`_crpc_height`), is needed only for positions, never by
    the jet.  The chart degenerates at t -> 0 and t -> 1, so the domain
    keeps a 5% margin on both sides.
    """
    if not c > 0:
        raise DegenerateParameterError(
            f"c must be positive (got {c}); for c <= 0, 1 - t^(2c) <= 0 on "
            "the whole chart")
    if eps not in (1, -1):
        raise DegenerateParameterError("eps must be +1 or -1")
    c = float(c)
    ep, whole = float(eps), c.is_integer()
    tc = float(np.power(0.95, c))   # the jet's w = 1 - t^2c is least at t_max
    if not (c < np.inf and 1.0 - tc * tc > 0.0):   # else h', h'' not finite
        raise DegenerateParameterError(f"c = {c:g} leaves the jet non-finite: "
                                       "1 - t^2c = 0 at t = 0.95, or c = inf")

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t * np.cos(z), t * np.sin(z), _crpc_height(t, c, ep))

    def jet(t: float, z: float) -> SurfaceJet2:
        cz, sz = pyfloats(t, np.cos(z), np.sin(z))
        # a float call equals an array call (both square roots round
        # correctly), and off the chart (t < 0 at a fractional c, or w < 0
        # past t = 1) it is NaN as that is, without a RuntimeWarning
        if type(cz) is float:
            tc = float(np.power(t, c)) if whole or t >= 0.0 else math.nan
            w = 1.0 - tc * tc
            sw = math.sqrt(w) if w >= 0.0 else math.nan
        else:
            tc = np.power(t, c)
            w = 1.0 - tc * tc
            sw = np.sqrt(w)
        hp = ep * tc / sw
        hpp = ep * c * (tc / t) / (w * sw)
        d_t = vec3(t, cz, sz, hp)
        d_z = vec3(t, -t * sz, t * cz, 0.0)
        d_tt = vec3(t, 0.0, 0.0, hpp)
        d_tz = vec3(t, -sz, cz, 0.0)
        d_zz = vec3(t, -t * cz, -t * sz, 0.0)
        return SurfaceJet2(d_t, d_z, d_tt, d_tz, d_zz)

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
                      position=position, jet=jet,
                      params={"c": c, "eps": ep}, oracle=oracle)


# ---------------------------------------------------------------------------
# Bonnet surface family
# ---------------------------------------------------------------------------

def make_bonnet(a: float = 0.5) -> SurfaceDef:
    """Bonnet minimal surface (plane lines of curvature), 0 < a < 1."""
    if not 0.0 < a < 1.0:
        raise DegenerateParameterError("a must lie strictly between 0 and 1")
    a = float(a)
    q = float(1.0 / np.sqrt(1.0 - a * a))

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, q * (a * t + np.sin(t) * np.cosh(z)),
                    q * (z + a * np.cos(t) * np.sinh(z)), np.cos(t) * np.cosh(z))

    def jet(t: float, z: float) -> SurfaceJet2:
        st, ct, sh, ch = pyfloats(t, np.sin(t), np.cos(t), np.sinh(z), np.cosh(z))
        d_t = vec3(t, q * (a + ct * ch), -q * a * st * sh, -st * ch)
        d_z = vec3(t, q * st * sh, q * (1 + a * ct * ch), ct * sh)
        d_tt = vec3(t, -q * st * ch, -q * a * ct * sh, -ct * ch)
        d_tz = vec3(t, q * ct * sh, -q * a * st * ch, -st * sh)
        d_zz = vec3(t, q * st * ch, q * a * ct * sh, ct * ch)
        return SurfaceJet2(d_t, d_z, d_tt, d_tz, d_zz)

    def den(t: float, z: float) -> float:
        return (a * np.cos(t) + np.cosh(z)) ** 2

    oracle = GalleryOracle(
        k1=lambda t, z: -(1 - a * a) / den(t, z),
        k2=lambda t, z: (1 - a * a) / den(t, z),
        kg1=lambda t, z: -np.sqrt(1 - a * a) * np.sinh(z) / den(t, z),
        kg2=lambda t, z: -a * np.sqrt(1 - a * a) * np.sin(t) / den(t, z),
    )
    return SurfaceDef(name="bonnet", domain=Domain(-3, 3, -2.5, 2.5),
                      position=position, jet=jet,
                      params={"a": a}, oracle=oracle)


# ---------------------------------------------------------------------------
# stock charts: sphere, plane, cylinder, catenoid
# ---------------------------------------------------------------------------

def make_sphere(r: float = 1.0) -> SurfaceDef:
    """Sphere of radius r, latitude/longitude chart, inward normal
    (kappa = +1/r).  Totally umbilic."""
    r = _length("radius r", r)

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, r * (np.cos(t) * np.cos(z)), r * (np.cos(t) * np.sin(z)),
                    r * np.sin(t))

    def jet(t: float, z: float) -> SurfaceJet2:
        # componentwise r * (...), as the position: r > 0, so a 0.0 stays +0.0
        ct, st, cz, sz = pyfloats(t, np.cos(t), np.sin(t), np.cos(z), np.sin(z))
        d_t = vec3(t, r * (-st * cz), r * (-st * sz), r * ct)
        d_z = vec3(t, r * (-ct * sz), r * (ct * cz), 0.0)
        d_tt = vec3(t, -(r * (ct * cz)), -(r * (ct * sz)), -(r * st))
        d_tz = vec3(t, r * (st * sz), r * (-st * cz), 0.0)
        d_zz = vec3(t, r * (-ct * cz), r * (-ct * sz), 0.0)
        return SurfaceJet2(d_t, d_z, d_tt, d_tz, d_zz)

    return SurfaceDef(name="sphere", domain=Domain(-1.2, 1.2, -3.1, 3.1),
                      position=position, jet=jet,
                      totally_umbilic=True, params={"r": r})


def make_plane() -> SurfaceDef:
    """Flat chart X(t,z) = (t, z, 0).  Totally umbilic (kappa = 0)."""

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, t, z, 0.0)

    def jet(t: float, z: float) -> SurfaceJet2:
        zero = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(vec3(t, 1.0, 0.0, 0.0), vec3(t, 0.0, 1.0, 0.0),
                           zero, zero, zero)

    oracle = GalleryOracle(k1=lambda t, z: 0.0, k2=lambda t, z: 0.0,
                           kg1=lambda t, z: 0.0, kg2=lambda t, z: 0.0)
    return SurfaceDef(name="plane", domain=Domain(-10, 10, -10, 10),
                      position=position, jet=jet,
                      totally_umbilic=True, oracle=oracle)


def make_cylinder(r: float = 1.0) -> SurfaceDef:
    """Cylinder of radius r; t runs along the rulings, z is arc length
    around the circle.  Oriented with the inward normal so the circular
    direction has curvature +1/r."""
    r = _length("radius r", r)

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, r * np.cos(z / r), r * np.sin(z / r), t)

    def jet(t: float, z: float) -> SurfaceJet2:
        u = z / r
        cu, su = pyfloats(t, np.cos(u), np.sin(u))
        d_t = vec3(t, 0.0, 0.0, 1.0)
        d_z = vec3(t, -su, cu, 0.0)
        d_tt = vec3(t, 0.0, 0.0, 0.0)
        d_tz = d_tt
        d_zz = vec3(t, -cu / r, -su / r, 0.0)
        return SurfaceJet2(d_t, d_z, d_tt, d_tz, d_zz)

    oracle = GalleryOracle(k1=lambda t, z: 0.0, k2=lambda t, z: 1.0 / r,
                           kg1=lambda t, z: 0.0, kg2=lambda t, z: 0.0)
    span = 6 * np.pi * r
    return SurfaceDef(name="cylinder", domain=Domain(-6, 6, -span, span),
                      position=position, jet=jet,
                      params={"r": r}, oracle=oracle)


def make_catenoid() -> SurfaceDef:
    """Catenoid X(t,z) = (cosh t cos z, cosh t sin z, t); isothermal
    lines-of-curvature chart."""

    def position(t: float, z: float) -> np.ndarray:
        return vec3(t, np.cosh(t) * np.cos(z), np.cosh(t) * np.sin(z), t)

    def jet(t: float, z: float) -> SurfaceJet2:
        ch, sh, cz, sz = pyfloats(t, np.cosh(t), np.sinh(t), np.cos(z), np.sin(z))
        d_t = vec3(t, sh * cz, sh * sz, 1.0)
        d_z = vec3(t, -ch * sz, ch * cz, 0.0)
        d_tt = vec3(t, ch * cz, ch * sz, 0.0)
        d_tz = vec3(t, -sh * sz, sh * cz, 0.0)
        d_zz = vec3(t, -ch * cz, -ch * sz, 0.0)
        return SurfaceJet2(d_t, d_z, d_tt, d_tz, d_zz)

    oracle = GalleryOracle(
        k1=lambda t, z: -1.0 / np.cosh(t) ** 2,
        k2=lambda t, z: 1.0 / np.cosh(t) ** 2,
        kg1=lambda t, z: 0.0,
        kg2=lambda t, z: np.tanh(t) / np.cosh(t),
    )
    return SurfaceDef(name="catenoid", domain=Domain(-1.5, 1.5, -3.1, 3.1),
                      position=position, jet=jet, oracle=oracle)


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


def check_params(what: str, builder: Callable, params: dict) -> None:
    """Raise DegenerateParameterError, naming what ``builder`` accepts, for
    a keyword it does not take or a value that is not a real number."""
    accepted = sorted(inspect.signature(builder).parameters)
    if not (set(params) <= set(accepted)
            and all(isinstance(v, numbers.Real) for v in params.values())):
        raise DegenerateParameterError(
            f"{what} got {params}; accepted: {', '.join(accepted) or 'none'}, "
            "each a real number")


def make_surface(name: str, **params: float) -> SurfaceDef:
    """Instantiate a catalogued surface by name with keyword parameters."""
    try:
        ctor = CATALOGUE[name]
    except KeyError:
        raise DegenerateParameterError(
            f"unknown surface '{name}'; choices: {sorted(CATALOGUE)}") from None
    check_params(f"surface '{name}'", ctor, params)
    return ctor(**params)
