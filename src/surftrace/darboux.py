"""Frenet and Darboux scalars along curves sampled on a surface.

For an arc-length curve gamma on a surface with Gauss map N and Darboux
frame {T, JT = N x T, N}:

* kg = <gamma'', JT>   (geodesic curvature)
* kn = kappa1 cos^2(phi) + kappa2 sin^2(phi)     (Euler's relation)
* taug = (kappa1 - kappa2) cos(phi) sin(phi)     (geodesic torsion)
* theta = atan2(kg, kn), lifted to a continuous function of s
* kappa = sqrt(kg^2 + kn^2),  tau = taug + theta'

The Frenet convention used throughout is T' = kappa N_f, B' = +tau N_f
(so tau flips sign relative to the more common B' = -tau N_f convention).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ShapeData, SurfaceDef, shape_arrays
from .errors import (NonTangentDirectionError, NonUnitSpeedError,
                     TooFewSamplesError, UmbilicPointError,
                     VanishingCurvatureError)
from .numdiff import check_uniform, diff2_uniform, diff3_uniform, diff_uniform

Vec3 = np.ndarray


@dataclass(frozen=True)
class CurveData:
    """Array-of-samples view of a curve's Darboux data.

    ``phi`` is NaN at umbilic samples (listed in ``umbilic_idx``); all
    other scalars are still filled there.  ``theta`` is the continuous
    lift, not the principal value.
    """

    s: np.ndarray          # (n,)
    uv: np.ndarray         # (n, 2)
    uv_vel: np.ndarray     # (n, 2)
    uv_acc: np.ndarray     # (n, 2)
    pos: np.ndarray        # (n, 3)
    T: np.ndarray          # (n, 3)
    normal: np.ndarray     # (n, 3) surface unit normal along the curve
    kg: np.ndarray
    kn: np.ndarray
    taug: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    umbilic_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class FrenetData:
    """Frenet frames and scalars recovered from positions alone."""

    T: np.ndarray      # (n, 3)
    N: np.ndarray      # (n, 3) principal normal
    B: np.ndarray      # (n, 3) binormal, T x N
    kappa: np.ndarray
    tau: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise dot products of two (3, n) arrays."""
    return np.einsum("ij,ij->j", a, b)


def pointwise_direction_scalars(sd: ShapeData, direction: Vec3):
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


def curve_scalars(surface: SurfaceDef, s: np.ndarray, uv: np.ndarray,
                  uv_vel: np.ndarray, uv_acc: np.ndarray) -> CurveData:
    """Darboux scalars for an arc-length sampled curve on a surface.

    theta' uses 4th-order central differences in the interior, one-sided
    2nd-order stencils at the first/last two samples.
    """
    s = np.asarray(s, dtype=float)
    uv = np.asarray(uv, dtype=float)
    uv_vel = np.asarray(uv_vel, dtype=float)
    uv_acc = np.asarray(uv_acc, dtype=float)
    n = len(s)
    if n < 5:
        raise TooFewSamplesError("need at least 5 samples")
    h = check_uniform(s)

    # one shape pass over all samples, E1 chained from sample to sample;
    # vectors below are (3, n)
    jet, _forms, sd = shape_arrays(surface, uv[:, 0], uv[:, 1],
                                   check_domain=False)
    tp, zp = uv_vel.T
    tpp, zpp = uv_acc.T
    vel3 = tp * jet.d_t + zp * jet.d_z
    speed = np.sqrt(_dot(vel3, vel3))
    slow = np.abs(speed - 1.0) > 1e-6
    if slow.any():
        i = int(np.argmax(slow))
        raise NonUnitSpeedError(
            f"|gamma'| = {speed[i]:.9f} at sample {i}; curve must be "
            "arc-length parametrized")
    acc3 = (tpp * jet.d_t + zpp * jet.d_z + tp * tp * jet.d_tt
            + 2 * tp * zp * jet.d_tz + zp * zp * jet.d_zz)
    jt = np.cross(sd.normal, vel3, axis=0)
    kg = _dot(acc3, jt) / speed  # jt has norm |vel3|
    # phi, kn and taug from Euler's relations, except at umbilics
    umbilic = sd.umbilic
    ph = np.arctan2(_dot(vel3, sd.e2), _dot(vel3, sd.e1))
    c, sn = np.cos(ph), np.sin(ph)
    phi = np.where(umbilic, np.nan, ph)
    kn = np.where(umbilic, _dot(acc3, sd.normal),
                  sd.kappa1 * c * c + sd.kappa2 * sn * sn)
    taug = np.where(umbilic, 0.0, (sd.kappa1 - sd.kappa2) * c * sn)
    pos, T, normal = (np.ascontiguousarray(v.T)
                      for v in (jet.position, vel3, sd.normal))

    theta = np.unwrap(np.arctan2(kg, kn))
    kappa = np.hypot(kg, kn)
    theta_prime = diff_uniform(theta, h, edge_order=2)
    tau = taug + theta_prime
    return CurveData(s, uv, uv_vel, uv_acc, pos, T, normal, kg, kn, taug,
                     phi, theta, kappa, tau, np.flatnonzero(umbilic))


def curve_scalars_from_trace(surface: SurfaceDef, trace) -> CurveData:
    """Darboux scalars for a tracer output (unit-speed traces only)."""
    return curve_scalars(surface, trace.s, trace.uv, trace.uv_vel,
                         trace.uv_acc)


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


def liouville_residuals(surface: SurfaceDef, curve: CurveData,
                        oracle=None) -> np.ndarray:
    """Residual of Liouville's formula kg = phi' + cos(phi) kg1 + sin(phi) kg2.

    phi here is the angle from the t-coordinate direction (the frame the
    oracle's kg1/kg2 refer to), which makes the residual independent of
    the principal-frame labeling; near-zero residuals validate the whole
    jet -> frame -> trace pipeline against the closed forms.
    """
    if oracle is None:
        oracle = surface.oracle
    if oracle is None:
        raise ValueError(f"surface '{surface.name}' carries no oracle")
    h = check_uniform(curve.s)
    t, z = curve.uv.T
    forms = shape_arrays(surface, t, z, check_domain=False)[1]
    tp, zp = curve.uv_vel.T
    phi_chart = np.unwrap(np.arctan2(zp * np.sqrt(forms.G),
                                     tp * np.sqrt(forms.E)))
    kg1 = oracle.kg1(t, z)
    kg2 = oracle.kg2(t, z)
    phi_prime = diff_uniform(phi_chart, h, edge_order=4)
    return curve.kg - (phi_prime + np.cos(phi_chart) * kg1
                       + np.sin(phi_chart) * kg2)
