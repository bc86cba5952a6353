"""Test-only references: the position-only Frenet oracle and its stencils,
the Darboux scalars of one direction at one point, and the Christoffel
symbols of a chart jet.

Each recomputes by another route what the library computes, so the tests
can hold the library to it: `frenet_apparatus` sees only ambient positions,
`pointwise_direction_scalars` one point's shape data, and `christoffel`
gives the textbook form of the Christoffel contractions that the
pseudo-geodesic flow takes in directional form.  The three errors that
only these oracles raise are defined here, not in the library.
"""
from __future__ import annotations

import math

import numpy as np

from surftrace.core import ShapeData
from surftrace.darboux import FrenetData
from surftrace.errors import (GeometryError, NonUnitSpeedError,
                              TooFewSamplesError)
from surftrace.numdiff import diff_uniform


class UmbilicPointError(GeometryError):
    """Principal directions are undefined (kappa1 == kappa2)."""


class NonTangentDirectionError(GeometryError):
    """A supposedly tangent vector has a normal component."""


class VanishingCurvatureError(GeometryError):
    """The position stencils' kappa ~ 0, so N and tau are undefined."""


def diff2_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivative: 4th-order central interior, 2nd-order one-sided ends."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 5:
        raise ValueError("diff2_uniform needs at least 5 samples")
    out = np.empty_like(y)
    out[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2]
                 + 16.0 * y[3:-1] - y[4:]) / (12.0 * h * h)
    for i in (0, 1):
        out[i] = (2.0 * y[i] - 5.0 * y[i + 1] + 4.0 * y[i + 2]
                  - y[i + 3]) / (h * h)
    for i in (n - 2, n - 1):
        out[i] = (2.0 * y[i] - 5.0 * y[i - 1] + 4.0 * y[i - 2]
                  - y[i - 3]) / (h * h)
    return out


def _stencil_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Exact finite-difference weights for the given derivative order at
    offset 0, from samples at the given integer offsets."""
    k = np.asarray(offsets, dtype=float)
    v = np.vander(k, increasing=True).T
    rhs = np.zeros(len(k))
    rhs[order] = float(math.factorial(order))
    return np.linalg.solve(v, rhs)


def diff3_uniform(y: np.ndarray, h: float) -> np.ndarray:
    """Third derivative: 4th-order central interior, 3rd-order one-sided
    stencils in the three-sample edge zones.

    The edge stencils carry one more order than the first/second
    derivative edges: a third derivative divides by h^3, so second-order
    boundary truncation would dominate the torsion error budget.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 7:
        raise ValueError("diff3_uniform needs at least 7 samples")
    out = np.empty_like(y)
    out[3:-3] = (y[:-6] - 8.0 * y[1:-5] + 13.0 * y[2:-4]
                 - 13.0 * y[4:-2] + 8.0 * y[5:-1] - y[6:]) / (8.0 * h ** 3)
    for i in (0, 1, 2):
        w = _stencil_weights(np.arange(6) - i, 3)
        out[i] = np.tensordot(w, y[:6], axes=(0, 0)) / h ** 3
        j = n - 1 - i
        wb = _stencil_weights(np.arange(n - 6, n) - j, 3)
        out[j] = np.tensordot(wb, y[n - 6:], axes=(0, 0)) / h ** 3
    return out


def pointwise_direction_scalars(sd: ShapeData, direction: np.ndarray):
    """(kn, taug, phi) of a unit tangent direction at a non-umbilic point."""
    if sd.umbilic:
        raise UmbilicPointError("phi is undefined at an umbilic point")
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    if abs(float(d @ sd.normal)) > 1e-8:
        raise NonTangentDirectionError("direction has a normal component")
    phi = float(np.arctan2(d @ sd.e2, d @ sd.e1))
    c, s = np.cos(phi), np.sin(phi)
    kn = sd.kappa1 * c * c + sd.kappa2 * s * s
    taug = (sd.kappa1 - sd.kappa2) * c * s
    return float(kn), float(taug), phi


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def christoffel(jet) -> tuple:
    """(c1_tt, c1_tz, c1_zz, c2_tt, c2_tz, c2_zz), the Christoffel symbols of
    a float chart jet, upper index first: for each second partial X_ab,
    [E F; F G] (c1_ab, c2_ab) = (<X_ab, X_t>, <X_ab, X_z>) (do Carmo 4-3)."""
    xt, xz = jet.d_t, jet.d_z
    E, F, G = _dot(xt, xt), _dot(xt, xz), _dot(xz, xz)
    W = E * G - F * F
    first, second = [], []
    for x in (jet.d_tt, jet.d_tz, jet.d_zz):
        bt, bz = _dot(x, xt), _dot(x, xz)
        first.append((G * bt - F * bz) / W)
        second.append((E * bz - F * bt) / W)
    return (*first, *second)


def frenet_apparatus(positions: np.ndarray, h: float) -> FrenetData:
    """Frenet frames and (kappa, tau) from positions on a uniform s-grid.

    Serves as the independent numerical oracle for curve_scalars: it sees
    only ambient positions.  Each derivative order is taken directly from
    the position samples (chaining one-sided stencils at the grid ends
    would compound their truncation error).  Requires kappa > 1e-6
    throughout so the principal normal (and hence torsion) is defined.

    With T' = kappa N the binormal derivative reduces to B' = T x N', so
    tau = <B', N> = <T x N', N> under the B' = +tau N convention.
    """
    p = np.asarray(positions, dtype=float)
    if p.shape[0] < 7:
        raise TooFewSamplesError("need at least 7 samples")
    T = diff_uniform(p, h, edge_order=2)
    speeds = np.linalg.norm(T, axis=1)
    if np.max(np.abs(speeds - 1.0)) > 1e-4:
        raise NonUnitSpeedError("positions are not arc-length sampled")
    p2 = diff2_uniform(p, h)
    p3 = diff3_uniform(p, h)
    kappa = np.linalg.norm(p2, axis=1)
    if np.min(kappa) <= 1e-6:
        raise VanishingCurvatureError(
            "kappa vanishes on the window; torsion undefined")
    N = p2 / kappa[:, None]
    B = np.cross(T, N)
    kappa_prime = np.einsum("ij,ij->i", p2, p3) / kappa
    Np = (p3 * kappa[:, None] - p2 * kappa_prime[:, None]) / kappa[:, None] ** 2
    tau = np.einsum("ij,ij->i", np.cross(T, Np), N)
    return FrenetData(T, N, B, kappa, tau)
