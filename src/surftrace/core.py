"""Surface geometry: chart 2-jets and the shape kernel, one body for floats
and for arrays.

`point_metric` is the one metric stage: it evaluates a chart's 2-jet and
forms X_t, X_z, n = X_t x X_z, E, F, G and W = |n|^2, and runs the
package's only regularity test (SingularJetError where X_t x X_z
vanishes).  Both flows read its tuple: the pseudo-geodesic one directly
(`tracer`), the isogonal one through `_principal`, which normalizes N,
forms the second form and goes on to the principal frame and the tangent
decomposition (do Carmo, *Differential Geometry of Curves and Surfaces*,
ch. 3).  Both bodies are elementwise and return flat tuples: floats at one
point or (n,) arrays run the same formulas in the same order, so a point's
values are the same bits in either form, which differ only in sqrt, a
branch versus `np.where` (both picked from the input), and the E1 sign
rule.  `_records` wraps the tuples for `point_shape` (one point, module
rule), `shape_arrays` (arrays, a chain from the first point) and
`curve_shape` (a sampled curve's metric, a chain from the sample nearest
s = 0).

Records are named tuples; the flow right-hand sides build none.  Every
trace makes one `curve_shape` pass over its samples, reused by its Darboux
scalars (an isogonal adds a frame-only pass, `point_metric` and
`_principal` with no records, over its 2n acceleration stencils); bare
samples, CSV import, class probes and oracle scenarios take one each.  On
a position-only chart the jet is `_fd_jet`, one elementwise body over nine
`position` calls, which take most of its time.

Conventions fixed once and used everywhere downstream:

* Gauss map ``N = X_t x X_z / |X_t x X_z|`` (chart orientation).
* Principal curvatures ordered ``kappa1 <= kappa2``.
* ``{E1, E2, N}`` right-handed, i.e. ``E2 = N x E1``.
* E1 sign (the module rule): ``<E1, X_t> >= 0``, with ``<E1, X_z> >= 0`` as
  the tie-break when E1 is orthogonal to X_t; an array's chain starts from
  it at its first point (`shape_arrays`) or, on a sampled curve, at s = 0
  (`curve_shape`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, TYPE_CHECKING, Union

import numpy as np

from .errors import OutOfDomainError, SingularJetError

if TYPE_CHECKING:  # pragma: no cover
    from .gallery import GalleryOracle

Vec3 = np.ndarray
ChartVec = Union[tuple[float, float, float], np.ndarray]  # 1 point, n points

#: relative step for finite-difference jets
FD_STEP = 1e-5

#: relative umbilic tolerance of the shape stage: ``ShapeData.umbilic`` is
#: ``umbilic_margin(kappa1, kappa2, UMBILIC_EPS) <= 0``
UMBILIC_EPS = 1e-9


class SurfaceJet2(NamedTuple):
    """Second-order jet of a chart X(t, z): the five partials, no position."""

    d_t: ChartVec
    d_z: ChartVec
    d_tt: ChartVec
    d_tz: ChartVec
    d_zz: ChartVec


@dataclass(frozen=True)
class Domain:
    """Rectangular parameter domain [t_min, t_max] x [z_min, z_max]."""

    t_min: float
    t_max: float
    z_min: float
    z_max: float

    def contains(self, t: float, z: float) -> bool:
        """Membership of (t, z); elementwise for arrays."""
        return ((self.t_min <= t) & (t <= self.t_max)
                & (self.z_min <= z) & (z <= self.z_max))

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

    Both chart callables are elementwise.  Given floats they return every
    vector as a 3-tuple of Python floats; given (n,) arrays they return
    every vector as a (3, n) array, component first, so ``x0, x1, x2 =
    jet.d_t`` unpacks either form.  Each point's values equal, bit for bit,
    those of a float call at that point alone.  Constant components
    broadcast (see `vec3`), and a constant 0.0 stays +0.0.
    """

    name: str
    domain: Domain
    position: Callable[[float, float], ChartVec]
    jet: Optional[Callable[[float, float], SurfaceJet2]] = None
    totally_umbilic: bool = False
    params: Mapping[str, float] = field(default_factory=dict)
    oracle: "GalleryOracle | None" = None


class FundamentalForms(NamedTuple):
    """First (E, F, G) and second (e, f, g) form coefficients plus the unit normal."""

    E: float
    F: float
    G: float
    e: float
    f: float
    g: float
    normal: Vec3


class TangentDecomp(NamedTuple):
    """Coefficients of X_t = f1 E1 + f2 E2 and X_z = g1 E1 + g2 E2."""

    f1: float
    f2: float
    g1: float
    g2: float


class ShapeData(NamedTuple):
    """Full pointwise shape data derived from one jet."""

    normal: Vec3
    kappa1: float
    kappa2: float
    e1: Vec3
    e2: Vec3
    K: float
    H: float
    decomp: TangentDecomp
    umbilic: bool


def vec3(like, x, y, z) -> ChartVec:
    """(x, y, z) as a (3, n) array when ``like`` is an (n,) array, float
    components broadcast so that 0.0 stays +0.0; else as a 3-tuple of Python
    floats, whatever the components' type (numpy scalars, ints) and ``like``'s
    (a float, an int, a 0-d array).  A Python float ``like``, the flow
    right-hand sides' call, is tested first: it skips the array test."""
    if type(like) is float or not (isinstance(like, np.ndarray) and like.ndim):
        return (float(x), float(y), float(z))
    out = np.empty((3,) + like.shape)
    out[0], out[1], out[2] = x, y, z
    return out


def pyfloats(like, *values) -> tuple:
    """A jet's ufunc results as Python floats (same bits, cheaper arithmetic
    than numpy scalars), or unchanged when ``like`` is an (n,) array; the
    test is `vec3`'s."""
    if type(like) is float or not (isinstance(like, np.ndarray) and like.ndim):
        return tuple(map(float, values))
    return values


def umbilic_margin(kappa1, kappa2, tol):
    """(kappa2 - kappa1) - tol (|kappa1| + |kappa2|), elementwise on floats
    or arrays: at most 0 where the point is umbilic to relative tolerance
    ``tol``, a flat point (kappa1 = kappa2 = 0) too; NaN, never umbilic, for
    a NaN curvature.  Scaling a surface by L scales the margin by 1/L."""
    return (kappa2 - kappa1) - tol * (abs(kappa1) + abs(kappa2))


def _fd_jet(position: Callable[[float, float], ChartVec], t: float, z: float) -> SurfaceJet2:
    """Central second-order finite-difference jet of the position map from
    its nine stencil points, component by component: one elementwise body,
    like the chart's own (floats or (n,) arrays)."""
    if isinstance(t, np.ndarray):
        h = FD_STEP * np.maximum(np.maximum(1.0, abs(t)), abs(z))
    else:  # floats stay floats: numpy scalar arithmetic is slower
        h = FD_STEP * max(1.0, abs(t), abs(z))
    a0, a1, a2 = position(t, z)
    b0, b1, b2 = position(t + h, z)
    c0, c1, c2 = position(t - h, z)
    d0, d1, d2 = position(t, z + h)
    e0, e1, e2 = position(t, z - h)
    f0, f1, f2 = position(t + h, z + h)
    g0, g1, g2 = position(t + h, z - h)
    k0, k1, k2 = position(t - h, z + h)
    m0, m1, m2 = position(t - h, z - h)
    h2, hh, h4 = 2 * h, h * h, 4 * h * h
    return SurfaceJet2(
        vec3(t, (b0 - c0) / h2, (b1 - c1) / h2, (b2 - c2) / h2),
        vec3(t, (d0 - e0) / h2, (d1 - e1) / h2, (d2 - e2) / h2),
        vec3(t, (b0 - 2 * a0 + c0) / hh, (b1 - 2 * a1 + c1) / hh,
             (b2 - 2 * a2 + c2) / hh),
        vec3(t, (f0 - g0 - k0 + m0) / h4, (f1 - g1 - k1 + m1) / h4,
             (f2 - g2 - k2 + m2) / h4),
        vec3(t, (d0 - 2 * a0 + e0) / hh, (d1 - 2 * a1 + e1) / hh,
             (d2 - 2 * a2 + e2) / hh))


def point_metric(surface: SurfaceDef, t: float, z: float, *,
                 check_domain: bool = True) -> tuple:
    """The metric stage at (t, z), floats or (n,) arrays, as one flat tuple

        (jet, xt0, xt1, xt2, xz0, xz1, xz2, n0, n1, n2, E, F, G, W)

    with X_t, X_z and n = X_t x X_z (not normalized) by component and
    W = |n|^2.  The jet (the chart's or `_fd_jet`) sees contiguous copies of
    arrays.  Raises OutOfDomainError or, where |n| <= 1e-14 |X_t| |X_z|,
    SingularJetError, naming the first point at fault."""
    if check_domain:
        inside = surface.domain.contains(t, z)
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
            i = int(np.argmin(inside))
            raise OutOfDomainError(
                f"({np.ravel(t)[i]:g}, {np.ravel(z)[i]:g}) outside domain "
                f"of surface '{surface.name}'")
    if isinstance(t, np.ndarray):
        # numpy's exp, sinh, ... round negative strides apart from floats
        t, z = (np.ascontiguousarray(v, dtype=float) for v in (t, z))
    jet = (surface.jet(t, z) if surface.jet is not None
           else _fd_jet(surface.position, t, z))
    xt0, xt1, xt2 = jet.d_t
    xz0, xz1, xz2 = jet.d_z
    E = xt0 * xt0 + xt1 * xt1 + xt2 * xt2
    F = xt0 * xz0 + xt1 * xz1 + xt2 * xz2
    G = xz0 * xz0 + xz1 * xz1 + xz2 * xz2
    n0 = xt1 * xz2 - xt2 * xz1
    n1 = xt2 * xz0 - xt0 * xz2
    n2 = xt0 * xz1 - xt1 * xz0
    W = n0 * n0 + n1 * n1 + n2 * n2
    singular = W <= 1e-28 * (E * G)   # |n| <= 1e-14 |X_t| |X_z|, squared
    if singular.any() if isinstance(W, np.ndarray) else singular:
        i = int(np.argmax(singular))
        raise SingularJetError(f"chart of '{surface.name}' singular at "
                               f"({np.ravel(t)[i]:g}, {np.ravel(z)[i]:g})")
    return (jet, xt0, xt1, xt2, xz0, xz1, xz2, n0, n1, n2, E, F, G, W)


def _flip(d0, d1, d2, xt0, xt1, xt2, xz0, xz1, xz2, sqE) -> bool:
    """The module E1 sign rule at one point: True where E1 = (d0, d1, d2)
    must be negated to meet it."""
    s = d0 * xt0 + d1 * xt1 + d2 * xt2
    if abs(s) > 1e-9 * sqE:
        return s < 0.0
    return d0 * xz0 + d1 * xz1 + d2 * xz2 < 0.0


def _chain(at: int) -> Callable:
    """E1 signs over (n,) arrays: the module rule at point ``at``; every
    other sign is its neighbour's toward ``at``, negated where <raw E1,
    the neighbour's raw E1> < 0, as a loop passing each E1 on as a hint."""
    def flip(d0, d1, d2, *chart):
        turns = d0[1:] * d0[:-1] + d1[1:] * d1[:-1] + d2[1:] * d2[:-1] < 0.0
        sign = np.cumprod(np.where(np.r_[False, turns], -1.0, 1.0))
        return (sign * sign[at] < 0.0) ^ _flip(d0[at], d1[at], d2[at],
                                               *(v[at] for v in chart))
    return flip


def _if(cond, a, b):
    """`np.where` at one point."""
    return a if cond else b


def _principal(metric: tuple, flip: Callable) -> tuple:
    """The principal-frame stage over `point_metric`'s tuple, floats or (n,)
    arrays: (kappa1, kappa2, umbilic, mean, E1, E2, f1, f2, g1, g2, N, e, f,
    g), vectors by component.  sqrt and `_if` or `np.where` follow the
    input's form; ``flip`` takes E1 and `_flip`'s other arguments to a
    bool."""
    jet, xt0, xt1, xt2, xz0, xz1, xz2, c0, c1, c2, E, F, G, W = metric
    sqrt, select = ((np.sqrt, np.where) if isinstance(E, np.ndarray)
                    else (math.sqrt, _if))
    nrm = sqrt(W)
    n0, n1, n2 = c0 / nrm, c1 / nrm, c2 / nrm
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = jet.d_tt, jet.d_tz, jet.d_zz
    e = p0 * n0 + p1 * n1 + p2 * n2
    f = q0 * n0 + q1 * n1 + q2 * n2
    g = r0 * n0 + r1 * n1 + r2 * n2

    # orthonormal tangent basis u1 = X_t / sqE, u2 = w / wn with
    # w = X_z - (F/E) X_t; (a1, 0) and (a2, b2) are their chart components
    sqE = sqrt(E)
    r = F / E
    w0, w1, w2 = xz0 - r * xt0, xz1 - r * xt1, xz2 - r * xt2
    wn = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    a1 = 1.0 / sqE
    a2, b2 = -F / (E * wn), 1.0 / wn
    m00 = a1 * a1 * e
    m01 = a1 * a2 * e + a1 * b2 * f
    m11 = a2 * a2 * e + 2.0 * a2 * b2 * f + b2 * b2 * g
    mean = 0.5 * (m00 + m11)
    half = 0.5 * (m00 - m11)
    disc = sqrt(half * half + m01 * m01)
    kappa1 = mean - disc
    kappa2 = mean + disc
    umbilic = umbilic_margin(kappa1, kappa2, UMBILIC_EPS) <= 0.0

    # eigenvector of kappa1 in the (u1, u2) basis, from the better
    # conditioned row of M - kappa1 I
    v0, v1 = m01, kappa1 - m00
    alt0, alt1 = kappa1 - m11, m01
    use_alt = sqrt(alt0 * alt0 + alt1 * alt1) > sqrt(v0 * v0 + v1 * v1)
    v0, v1 = select(use_alt, (alt0, alt1), (v0, v1))
    # at an umbilic every direction is principal: E1 along X_t
    v0, v1 = select(umbilic, 1.0, v0), select(umbilic, 0.0, v1)
    # E1 = (d0, d1, d2) = v0 u1 + v1 u2, normalized
    k_t, k_w = v0 / sqE, v1 / wn
    d0, d1, d2 = k_t * xt0 + k_w * w0, k_t * xt1 + k_w * w1, k_t * xt2 + k_w * w2
    dn = sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    d0, d1, d2 = d0 / dn, d1 / dn, d2 / dn
    neg = flip(d0, d1, d2, xt0, xt1, xt2, xz0, xz1, xz2, sqE)
    d0, d1, d2 = select(neg, (-d0, -d1, -d2), (d0, d1, d2))
    # E2 = (q0, q1, q2) = N x E1
    q0 = n1 * d2 - n2 * d1
    q1 = n2 * d0 - n0 * d2
    q2 = n0 * d1 - n1 * d0
    return (kappa1, kappa2, umbilic, mean, d0, d1, d2, q0, q1, q2,
            xt0 * d0 + xt1 * d1 + xt2 * d2, xt0 * q0 + xt1 * q1 + xt2 * q2,
            xz0 * d0 + xz1 * d1 + xz2 * d2, xz0 * q0 + xz1 * q1 + xz2 * q2,
            n0, n1, n2, e, f, g)


def _records(metric: tuple, frame: tuple) -> tuple:
    """`point_metric`'s and `_principal`'s tuples as (jet, forms, shape data)."""
    jet, E, F, G = metric[0], metric[10], metric[11], metric[12]
    (kappa1, kappa2, umbilic, mean, d0, d1, d2, q0, q1, q2, f1, f2, g1,
     g2, n0, n1, n2, e, f, g) = frame
    normal = np.array([n0, n1, n2])
    sd = ShapeData(normal, kappa1, kappa2, np.array([d0, d1, d2]),
                   np.array([q0, q1, q2]), (e * g - f * f) / (E * G - F * F),
                   mean, TangentDecomp(f1, f2, g1, g2), umbilic)
    return jet, FundamentalForms(E, F, G, e, f, g, normal), sd


def point_shape(surface: SurfaceDef, t: float, z: float
                ) -> tuple[SurfaceJet2, FundamentalForms, ShapeData]:
    """(jet, forms, shape data) at one parameter point, in one float pass.

    Starts from `point_metric` (and raises its OutOfDomainError and
    SingularJetError).  The shape operator is symmetric in the basis
    u1 = X_t / |X_t|, u2 = Gram-Schmidt of X_z; its closed-form eigenpairs
    give kappa1 <= kappa2, with E1 along X_t where ``umbilic`` is set.  E1's
    sign follows the module sign rule.
    """
    metric = point_metric(surface, t, z)
    return _records(metric, _principal(metric, _flip))


def shape_arrays(surface: SurfaceDef, t: np.ndarray, z: np.ndarray
                 ) -> tuple[SurfaceJet2, FundamentalForms, ShapeData]:
    """`point_shape` over (n,) arrays of points, on the same body.

    Returns the same three records with every float field an (n,) array,
    every vector a (3, n) array and ``umbilic`` a bool array, and raises
    `point_metric`'s errors naming the first point at fault.  E1 signs: the
    first point follows the module rule and every later point its
    predecessor, as a loop passing each E1 on as the next hint does (unless
    consecutive E1 are exactly orthogonal).
    """
    t, z = (np.ascontiguousarray(v, dtype=float) for v in (t, z))
    metric = point_metric(surface, t, z)
    return _records(metric, _principal(metric, _chain(0)))


def curve_shape(s: np.ndarray, metric: tuple
                ) -> tuple[SurfaceJet2, FundamentalForms, ShapeData]:
    """`shape_arrays` on a sampled curve's `point_metric` tuple, with the
    samples at arc lengths ``s``: the module rule at the sample nearest
    s = 0, and E1 chained from there to both ends."""
    return _records(metric, _principal(
        metric, _chain(int(np.argmin(np.abs(s))))))
