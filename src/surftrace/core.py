"""Surface geometry: chart 2-jets, the scalar shape pass and its batched twin.

`point_shape` turns a chart's 2-jet into the fundamental forms, Christoffel
symbols, principal frame and tangent decomposition in one pass at one point;
`shape_arrays` does the same over (n,) arrays of points with the same
formulas in the same order (do Carmo, *Differential Geometry of Curves and
Surfaces*, ch. 3).  Both form X_t x X_z once and raise SingularJetError
where it vanishes.

Which kernel a caller uses follows what it holds.  The flow right-hand
sides, solver events and single-point set-up evaluate one point at a time
and call `point_shape` (20 to 35 us a call); every consumer of a sample
array (tracer post-processing, Darboux scalars, CSV import, class probes,
the oracle scenarios) calls `shape_arrays` once.  Its fixed numpy overhead
(300 to 350 us at n = 1) breaks even with a scalar loop near n = 10 to 15
(gallery charts, numpy 2.4 on a 2-core x86-64 host).

Conventions fixed once and used everywhere downstream:

* Gauss map ``N = X_t x X_z / |X_t x X_z|`` (chart orientation).
* Principal curvatures ordered ``kappa1 <= kappa2``.
* ``{E1, E2, N}`` right-handed, i.e. ``E2 = N x E1``.
* E1 sign: aligned with a caller-supplied hint when given (curve
  continuity), otherwise ``<E1, X_t> >= 0`` with ``<E1, X_z> >= 0`` as the
  tie-break when E1 is orthogonal to X_t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, TYPE_CHECKING

import numpy as np

from .errors import OutOfDomainError, SingularJetError

if TYPE_CHECKING:  # pragma: no cover
    from .gallery import GalleryOracle

Vec3 = np.ndarray

#: relative step for finite-difference jets
FD_STEP = 1e-5

#: umbilic threshold scale: |k1 - k2| < UMBILIC_EPS * max(1, |k1| + |k2|)
UMBILIC_EPS = 1e-9


@dataclass(frozen=True)
class SurfaceJet2:
    """Second-order jet of a chart X(t, z): position and partials."""

    position: Vec3
    d_t: Vec3
    d_z: Vec3
    d_tt: Vec3
    d_tz: Vec3
    d_zz: Vec3


@dataclass(frozen=True)
class Domain:
    """Rectangular parameter domain [t_min, t_max] x [z_min, z_max]."""

    t_min: float
    t_max: float
    z_min: float
    z_max: float

    def contains(self, t: float, z: float, pad: float = 0.0) -> bool:
        """Membership of (t, z); elementwise for arrays."""
        return ((self.t_min - pad <= t) & (t <= self.t_max + pad)
                & (self.z_min - pad <= z) & (z <= self.z_max + pad))

    def inset(self, frac: float) -> "Domain":
        """Domain shrunk by `frac` of each span on every side."""
        dt = (self.t_max - self.t_min) * frac
        dz = (self.z_max - self.z_min) * frac
        return Domain(self.t_min + dt, self.t_max - dt,
                      self.z_min + dz, self.z_max - dz)


@dataclass(frozen=True)
class SurfaceDef:
    """A parametrized surface: chart callables plus metadata.

    ``jet`` returns the exact analytic 2-jet; when it is None the jet is
    built by central finite differences of ``position``.

    Both chart callables are elementwise.  Given floats they return (3,)
    vectors; given (n,) arrays they return every vector as a (3, n) array,
    component first, so ``x0, x1, x2 = jet.d_t`` unpacks either form.  Each
    point's values equal, bit for bit, those of a call at that point alone.
    Constant components broadcast (see `vec3`), and a constant 0.0 stays
    +0.0.
    """

    name: str
    domain: Domain
    position: Callable[[float, float], Vec3]
    jet: Optional[Callable[[float, float], SurfaceJet2]] = None
    orthogonal: bool = False
    totally_umbilic: bool = False
    params: Mapping[str, float] = field(default_factory=dict)
    oracle: "GalleryOracle | None" = None


@dataclass(frozen=True)
class FundamentalForms:
    """First (E, F, G) and second (e, f, g) form coefficients plus the unit normal."""

    E: float
    F: float
    G: float
    e: float
    f: float
    g: float
    normal: Vec3


@dataclass(frozen=True)
class ChristoffelSymbols:
    """The six symbols of the chart metric, upper index first."""

    c1_tt: float
    c1_tz: float
    c1_zz: float
    c2_tt: float
    c2_tz: float
    c2_zz: float


@dataclass(frozen=True)
class TangentDecomp:
    """Coefficients of X_t = f1 E1 + f2 E2 and X_z = g1 E1 + g2 E2."""

    f1: float
    f2: float
    g1: float
    g2: float


@dataclass(frozen=True)
class ShapeData:
    """Full pointwise shape data derived from one jet."""

    normal: Vec3
    kappa1: float
    kappa2: float
    e1: Vec3
    e2: Vec3
    K: float
    H: float
    christoffel: ChristoffelSymbols
    decomp: TangentDecomp
    umbilic: bool


def vec3(like, x, y, z) -> Vec3:
    """(x, y, z) as a (3,) vector, or as a (3, n) array when ``like`` is an
    (n,) array; float components are broadcast, so 0.0 stays +0.0."""
    if isinstance(like, np.ndarray) and like.ndim:
        return np.array(np.broadcast_arrays(x, y, z, like)[:3], dtype=float)
    return np.array((x, y, z), dtype=float)


def _fd_jet(position: Callable[[float, float], Vec3], t: float, z: float) -> SurfaceJet2:
    """Central second-order finite-difference jet of the position map
    (elementwise, like the chart)."""
    if isinstance(t, np.ndarray):
        h = FD_STEP * np.maximum(np.maximum(1.0, abs(t)), abs(z))
    else:  # floats stay floats: numpy scalar arithmetic is slower
        h = FD_STEP * max(1.0, abs(t), abs(z))
    p = np.asarray(position(t, z), dtype=float)
    p_t1 = np.asarray(position(t + h, z), dtype=float)
    p_t0 = np.asarray(position(t - h, z), dtype=float)
    p_z1 = np.asarray(position(t, z + h), dtype=float)
    p_z0 = np.asarray(position(t, z - h), dtype=float)
    p_pp = np.asarray(position(t + h, z + h), dtype=float)
    p_pm = np.asarray(position(t + h, z - h), dtype=float)
    p_mp = np.asarray(position(t - h, z + h), dtype=float)
    p_mm = np.asarray(position(t - h, z - h), dtype=float)
    d_t = (p_t1 - p_t0) / (2 * h)
    d_z = (p_z1 - p_z0) / (2 * h)
    d_tt = (p_t1 - 2 * p + p_t0) / (h * h)
    d_zz = (p_z1 - 2 * p + p_z0) / (h * h)
    d_tz = (p_pp - p_pm - p_mp + p_mm) / (4 * h * h)
    return SurfaceJet2(p, d_t, d_z, d_tt, d_tz, d_zz)


def jet2(surface: SurfaceDef, t: float, z: float, *, check_domain: bool = True) -> SurfaceJet2:
    """Evaluate the 2-jet of a surface at (t, z), floats or (n,) arrays.

    Raises OutOfDomainError naming the first point outside the domain.
    Regularity is checked by the shape kernels, which form the normal.
    """
    if check_domain:
        inside = surface.domain.contains(t, z)
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
            i = int(np.argmin(inside))
            raise OutOfDomainError(
                f"({np.ravel(t)[i]:g}, {np.ravel(z)[i]:g}) outside domain "
                f"of surface '{surface.name}'")
    if surface.jet is not None:
        return surface.jet(t, z)
    return _fd_jet(surface.position, t, z)


def point_shape(surface: SurfaceDef, t: float, z: float,
                e1_hint: Vec3 | None = None, *, check_domain: bool = True
                ) -> tuple[SurfaceJet2, FundamentalForms, ShapeData]:
    """(jet, forms, shape data) at one parameter point, in one float pass.

    Raises SingularJetError where |X_t x X_z| <= 1e-14 |X_t| |X_z|.  The
    shape operator is symmetric in the basis u1 = X_t / |X_t|, u2 =
    Gram-Schmidt of X_z; its closed-form eigenpairs give kappa1 <= kappa2,
    with E1 arbitrary where ``umbilic`` is set.  E1 is aligned with
    ``e1_hint`` when given, else with the module sign rule.
    """
    jet = jet2(surface, t, z, check_domain=check_domain)
    xt0, xt1, xt2 = jet.d_t.tolist()
    xz0, xz1, xz2 = jet.d_z.tolist()
    E = xt0 * xt0 + xt1 * xt1 + xt2 * xt2
    F = xt0 * xz0 + xt1 * xz1 + xt2 * xz2
    G = xz0 * xz0 + xz1 * xz1 + xz2 * xz2
    c0 = xt1 * xz2 - xt2 * xz1
    c1 = xt2 * xz0 - xt0 * xz2
    c2 = xt0 * xz1 - xt1 * xz0
    nrm = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    if nrm <= 1e-14 * math.sqrt(E * G):
        raise SingularJetError(
            f"chart of '{surface.name}' singular at ({t:g}, {z:g})")
    n0, n1, n2 = c0 / nrm, c1 / nrm, c2 / nrm
    W = E * G - F * F

    # second form and Christoffel symbols: [E F; F G] (c1, c2) =
    # (<X_.., X_t>, <X_.., X_z>) for each second partial X_..
    second = []
    symbols = []
    for part in (jet.d_tt, jet.d_tz, jet.d_zz):
        p0, p1, p2 = part.tolist()
        second.append(p0 * n0 + p1 * n1 + p2 * n2)
        bt = p0 * xt0 + p1 * xt1 + p2 * xt2
        bz = p0 * xz0 + p1 * xz1 + p2 * xz2
        symbols.append(((G * bt - F * bz) / W, (E * bz - F * bt) / W))
    e, f, g = second
    (c1_tt, c2_tt), (c1_tz, c2_tz), (c1_zz, c2_zz) = symbols

    # orthonormal tangent basis u1 = X_t / sqE, u2 = w / wn with
    # w = X_z - (F/E) X_t; (a1, 0) and (a2, b2) are their chart components
    sqE = math.sqrt(E)
    r = F / E
    w0, w1, w2 = xz0 - r * xt0, xz1 - r * xt1, xz2 - r * xt2
    wn = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    a1 = 1.0 / sqE
    a2, b2 = -F / (E * wn), 1.0 / wn
    m00 = a1 * a1 * e
    m01 = a1 * a2 * e + a1 * b2 * f
    m11 = a2 * a2 * e + 2.0 * a2 * b2 * f + b2 * b2 * g
    mean = 0.5 * (m00 + m11)
    disc = math.hypot(0.5 * (m00 - m11), m01)
    kappa1 = mean - disc
    kappa2 = mean + disc
    umbilic = (kappa2 - kappa1) < UMBILIC_EPS * max(1.0, abs(kappa1) + abs(kappa2))

    # eigenvector of kappa1 in the (u1, u2) basis, from the better
    # conditioned row of M - kappa1 I
    v0, v1 = m01, kappa1 - m00
    alt0, alt1 = kappa1 - m11, m01
    if math.hypot(alt0, alt1) > math.hypot(v0, v1):
        v0, v1 = alt0, alt1
    if math.hypot(v0, v1) < 1e-14:
        v0, v1 = 1.0, 0.0  # umbilic: arbitrary direction
    # E1 = (d0, d1, d2) = v0 u1 + v1 u2, normalized
    k_t, k_w = v0 / sqE, v1 / wn
    d0, d1, d2 = k_t * xt0 + k_w * w0, k_t * xt1 + k_w * w1, k_t * xt2 + k_w * w2
    dn = math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    d0, d1, d2 = d0 / dn, d1 / dn, d2 / dn

    if e1_hint is not None:
        h0, h1, h2 = e1_hint
        flip = d0 * h0 + d1 * h1 + d2 * h2 < 0.0
    else:
        s = d0 * xt0 + d1 * xt1 + d2 * xt2
        if abs(s) > 1e-9 * sqE:
            flip = s < 0.0
        else:
            flip = d0 * xz0 + d1 * xz1 + d2 * xz2 < 0.0
    if flip:
        d0, d1, d2 = -d0, -d1, -d2
    # E2 = (q0, q1, q2) = N x E1
    q0 = n1 * d2 - n2 * d1
    q1 = n2 * d0 - n0 * d2
    q2 = n0 * d1 - n1 * d0

    normal = np.array([n0, n1, n2])
    forms = FundamentalForms(E, F, G, e, f, g, normal)
    christoffel = ChristoffelSymbols(c1_tt, c1_tz, c1_zz, c2_tt, c2_tz, c2_zz)
    decomp = TangentDecomp(xt0 * d0 + xt1 * d1 + xt2 * d2,
                           xt0 * q0 + xt1 * q1 + xt2 * q2,
                           xz0 * d0 + xz1 * d1 + xz2 * d2,
                           xz0 * q0 + xz1 * q1 + xz2 * q2)
    sd = ShapeData(normal, kappa1, kappa2, np.array([d0, d1, d2]),
                   np.array([q0, q1, q2]), (e * g - f * f) / W, mean,
                   christoffel, decomp, umbilic)
    return jet, forms, sd


def shape_arrays(surface: SurfaceDef, t: np.ndarray, z: np.ndarray,
                 e1_hint: np.ndarray | None = None, *, check_domain: bool = True
                 ) -> tuple[SurfaceJet2, FundamentalForms, ShapeData]:
    """`point_shape` over (n,) arrays of points, its formulas in its order.

    Returns the same three records with every float field an (n,) array,
    every vector a (3, n) array and ``umbilic`` a bool array, and raises
    SingularJetError naming the first singular point.  E1 signs: a (3, n)
    ``e1_hint`` aligns each point with its own column.  Otherwise the first
    point is aligned with a (3,) hint, or by the module rule without one,
    and every later point with its predecessor, as a loop passing each E1
    on as the next hint does (unless consecutive E1 are exactly orthogonal).
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    jet = jet2(surface, t, z, check_domain=check_domain)
    xt0, xt1, xt2 = jet.d_t
    xz0, xz1, xz2 = jet.d_z
    E = xt0 * xt0 + xt1 * xt1 + xt2 * xt2
    F = xt0 * xz0 + xt1 * xz1 + xt2 * xz2
    G = xz0 * xz0 + xz1 * xz1 + xz2 * xz2
    c0 = xt1 * xz2 - xt2 * xz1
    c1 = xt2 * xz0 - xt0 * xz2
    c2 = xt0 * xz1 - xt1 * xz0
    nrm = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    singular = nrm <= 1e-14 * np.sqrt(E * G)
    if singular.any():
        i = int(np.argmax(singular))
        raise SingularJetError(
            f"chart of '{surface.name}' singular at ({t[i]:g}, {z[i]:g})")
    n0, n1, n2 = c0 / nrm, c1 / nrm, c2 / nrm
    W = E * G - F * F

    second = []
    symbols = []
    for part in (jet.d_tt, jet.d_tz, jet.d_zz):
        p0, p1, p2 = part
        second.append(p0 * n0 + p1 * n1 + p2 * n2)
        bt = p0 * xt0 + p1 * xt1 + p2 * xt2
        bz = p0 * xz0 + p1 * xz1 + p2 * xz2
        symbols.append(((G * bt - F * bz) / W, (E * bz - F * bt) / W))
    e, f, g = second
    (c1_tt, c2_tt), (c1_tz, c2_tz), (c1_zz, c2_zz) = symbols

    sqE = np.sqrt(E)
    r = F / E
    w0, w1, w2 = xz0 - r * xt0, xz1 - r * xt1, xz2 - r * xt2
    wn = np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    a1 = 1.0 / sqE
    a2, b2 = -F / (E * wn), 1.0 / wn
    m00 = a1 * a1 * e
    m01 = a1 * a2 * e + a1 * b2 * f
    m11 = a2 * a2 * e + 2.0 * a2 * b2 * f + b2 * b2 * g
    mean = 0.5 * (m00 + m11)
    disc = np.hypot(0.5 * (m00 - m11), m01)
    kappa1 = mean - disc
    kappa2 = mean + disc
    umbilic = ((kappa2 - kappa1)
               < UMBILIC_EPS * np.maximum(1.0, abs(kappa1) + abs(kappa2)))

    v0, v1 = m01, kappa1 - m00
    alt0, alt1 = kappa1 - m11, m01
    use_alt = np.hypot(alt0, alt1) > np.hypot(v0, v1)
    v0, v1 = np.where(use_alt, alt0, v0), np.where(use_alt, alt1, v1)
    arbitrary = np.hypot(v0, v1) < 1e-14
    v0, v1 = np.where(arbitrary, 1.0, v0), np.where(arbitrary, 0.0, v1)
    k_t, k_w = v0 / sqE, v1 / wn
    d0, d1, d2 = k_t * xt0 + k_w * w0, k_t * xt1 + k_w * w1, k_t * xt2 + k_w * w2
    dn = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    d0, d1, d2 = d0 / dn, d1 / dn, d2 / dn

    if np.ndim(e1_hint) == 2:
        h0, h1, h2 = e1_hint
        flip = d0 * h0 + d1 * h1 + d2 * h2 < 0.0
    else:
        if e1_hint is not None:
            h0, h1, h2 = e1_hint
            flip0 = d0[0] * h0 + d1[0] * h1 + d2[0] * h2 < 0.0
        else:
            s = d0[0] * xt0[0] + d1[0] * xt1[0] + d2[0] * xt2[0]
            if abs(s) > 1e-9 * sqE[0]:
                flip0 = s < 0.0
            else:
                flip0 = d0[0] * xz0[0] + d1[0] * xz1[0] + d2[0] * xz2[0] < 0.0
        # the loop flips E1 where <E1, previous E1> < 0, so each sign is the
        # previous one times the sign of <raw E1, previous raw E1>
        turns = d0[1:] * d0[:-1] + d1[1:] * d1[:-1] + d2[1:] * d2[:-1] < 0.0
        flip = np.cumprod(np.where(np.r_[flip0, turns], -1.0, 1.0)) < 0.0
    d0, d1, d2 = (np.where(flip, -d0, d0), np.where(flip, -d1, d1),
                  np.where(flip, -d2, d2))
    q0 = n1 * d2 - n2 * d1
    q1 = n2 * d0 - n0 * d2
    q2 = n0 * d1 - n1 * d0

    normal = np.array([n0, n1, n2])
    forms = FundamentalForms(E, F, G, e, f, g, normal)
    christoffel = ChristoffelSymbols(c1_tt, c1_tz, c1_zz, c2_tt, c2_tz, c2_zz)
    decomp = TangentDecomp(xt0 * d0 + xt1 * d1 + xt2 * d2,
                           xt0 * q0 + xt1 * q1 + xt2 * q2,
                           xz0 * d0 + xz1 * d1 + xz2 * d2,
                           xz0 * q0 + xz1 * q1 + xz2 * q2)
    sd = ShapeData(normal, kappa1, kappa2, np.array([d0, d1, d2]),
                   np.array([q0, q1, q2]), (e * g - f * f) / W, mean,
                   christoffel, decomp, umbilic)
    return jet, forms, sd
