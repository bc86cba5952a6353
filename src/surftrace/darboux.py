"""Frenet and Darboux scalars along curves sampled on a surface.

For an arc-length curve gamma on a surface with Gauss map N and Darboux
frame {T, JT = N x T, N}:

* kg = <gamma'', JT>   (geodesic curvature)
* kn = kappa1 cos^2(phi) + kappa2 sin^2(phi)     (Euler's relation)
* taug = (kappa1 - kappa2) cos(phi) sin(phi)     (geodesic torsion)
* theta = atan2(kg, kn), lifted modulo pi to a continuous function of s
* kappa = sqrt(kg^2 + kn^2),  tau = taug + theta'

``frenet_from_darboux`` turns the Darboux frame by the lifted theta:
N_f = cos(theta) N + sin(theta) N x T, with the signed curvature
k = kn cos(theta) + kg sin(theta) = +-kappa.  So T' = k N_f and
B' = +tau N_f hold at every sample, through zeros of kappa too (tau flips
sign relative to the more common B' = -tau N_f convention).  The tests
rebuild the frame from positions alone, as an oracle, where kappa > 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SurfaceDef, curve_shape, point_metric
from .errors import (GeometryError, InvalidRequestError, NonUnitSpeedError,
                     TooFewSamplesError)
from .numdiff import check_uniform, diff_uniform, unwrap

#: kappa at or below which a sample is flat: (kg, kn) gives it no direction
KAPPA_FLAT = 1e-6


@dataclass(frozen=True)
class CurveData:
    """Array-of-samples view of a curve's Darboux data, with the surface's
    principal curvatures ``kappa1 <= kappa2`` at each sample.

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
    kappa1: np.ndarray
    kappa2: np.ndarray
    umbilic_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class FrenetData:
    """Frenet frames and scalars, from Darboux data or from positions."""

    T: np.ndarray      # (n, 3)
    N: np.ndarray      # (n, 3) principal normal
    B: np.ndarray      # (n, 3) binormal, T x N
    kappa: np.ndarray  # signed from Darboux data, |T'| from positions
    tau: np.ndarray


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise dot products of two (3, n) arrays."""
    return np.einsum("ij,ij->j", a, b)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row cross products of two (n, 3) arrays, in `np.cross`'s arithmetic."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    out = np.empty(a.shape)
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def curve_scalars(surface: SurfaceDef, s: np.ndarray, uv: np.ndarray,
                  uv_vel: np.ndarray, uv_acc: np.ndarray) -> CurveData:
    """Darboux scalars for an arc-length sampled curve on a surface.

    theta' uses 4th-order central differences in the interior, one-sided
    2nd-order stencils at the first/last two samples.
    """
    return _scalars(surface, s, uv, uv_vel, uv_acc, None)


def _scalars(surface, s, uv, uv_vel, uv_acc, shape) -> CurveData:
    """`curve_scalars` on the samples' shape pass, made here if None."""
    s = np.asarray(s, dtype=float)
    uv = np.asarray(uv, dtype=float)
    uv_vel = np.asarray(uv_vel, dtype=float)
    uv_acc = np.asarray(uv_acc, dtype=float)
    n = len(s)
    if n < 5:
        raise TooFewSamplesError("need at least 5 samples")
    h = check_uniform(s)
    for name, v in (("uv", uv), ("uv_vel", uv_vel), ("uv_acc", uv_acc)):
        if v.shape != (n, 2):
            raise InvalidRequestError(f"{name} has shape {v.shape}; "
                                      f"{n} arc lengths need ({n}, 2)")

    # one shape pass over all samples (a trace brings its own), E1 chained
    # from the sample nearest s = 0; vectors below are (3, n)
    jet, _, sd = shape or curve_shape(
        s, point_metric(surface, *uv.T, check_domain=False))
    tp, zp = uv_vel.T
    tpp, zpp = uv_acc.T
    vel3 = tp * jet.d_t + zp * jet.d_z
    speed = np.sqrt(_dot(vel3, vel3))
    slow = ~(np.abs(speed - 1.0) <= 1e-6)  # a NaN speed is not unit speed
    if slow.any():
        i = int(np.argmax(slow))
        raise NonUnitSpeedError(
            f"|gamma'| = {speed[i]:.9f} at sample {i}; curve must be "
            "arc-length parametrized")
    if not np.isfinite(uv_acc).all():
        i = int(np.argmin(np.isfinite(uv_acc).all(axis=1)))
        raise GeometryError(f"uv_acc = {tuple(uv_acc[i].tolist())} at "
                            f"sample {i} is not finite")
    acc3 = (tpp * jet.d_t + zpp * jet.d_z + tp * tp * jet.d_tt
            + 2 * tp * zp * jet.d_tz + zp * zp * jet.d_zz)
    jt = _cross(sd.normal.T, vel3.T).T
    kg = _dot(acc3, jt) / speed  # jt has norm |vel3|
    # phi, kn and taug from Euler's relations, except at umbilics
    umbilic = sd.umbilic
    ph = np.arctan2(_dot(vel3, sd.e2), _dot(vel3, sd.e1))
    c, sn = np.cos(ph), np.sin(ph)
    phi = np.where(umbilic, np.nan, ph)
    kn = np.where(umbilic, _dot(acc3, sd.normal),
                  sd.kappa1 * c * c + sd.kappa2 * sn * sn)
    taug = np.where(umbilic, 0.0, (sd.kappa1 - sd.kappa2) * c * sn)
    pos, T, normal = (np.ascontiguousarray(v.T) for v in (
        surface.position(uv[:, 0], uv[:, 1]), vel3, sd.normal))

    kappa = np.hypot(kg, kn)
    theta = normal_angle(kg, kn, kappa)
    theta_prime = diff_uniform(theta, h, edge_order=2)
    tau = taug + theta_prime
    return CurveData(s, uv, uv_vel, uv_acc, pos, T, normal, kg, kn, taug,
                     phi, theta, kappa, tau, sd.kappa1, sd.kappa2,
                     np.flatnonzero(umbilic))


def normal_angle(kg: np.ndarray, kn: np.ndarray,
                 kappa: np.ndarray) -> np.ndarray:
    """theta = atan2(kg, kn), lifted modulo pi to a continuous function of the
    samples; ``kappa`` is hypot(kg, kn).

    theta is the angle between the osculating plane and the surface normal,
    which turns on continuously where kappa passes through 0 while atan2
    jumps by pi, so the lift removes steps of pi, not only of 2 pi; there
    (kg, kn) = kappa (sin theta, cos theta) holds up to a sign.  A series
    with no such step keeps its 2 pi lift, bit for bit.  A flat sample,
    kappa <= `KAPPA_FLAT`, has no direction of its own: its theta is
    interpolated from the lift of the others (unless every sample is flat).
    The first lifted sample fixes the branch.  There a kg of rounding size,
    |kg| <= 1e-12 |kn|, counts as +0, so a geodesic with kn < 0 starts at
    +pi whatever the sign of the noise in its kg.
    """
    at = np.flatnonzero(~(kappa <= KAPPA_FLAT))  # a NaN kappa is kept
    if len(at) == 0:
        at = np.arange(len(kappa))
    theta = np.arctan2(kg[at], kn[at])
    if abs(kg[at[0]]) <= 1e-12 * abs(kn[at[0]]):
        theta[0] = np.arctan2(0.0, kn[at[0]])
    theta = unwrap(theta)
    if (np.abs(np.diff(theta)) > np.pi / 2).any():
        theta = unwrap(theta, np.pi)
    return (theta if len(at) == len(kappa)
            else np.interp(np.arange(len(kappa)), at, theta))


def curve_scalars_from_trace(surface: SurfaceDef, trace) -> CurveData:
    """`curve_scalars` of a unit-speed trace, made on its ``shape`` pass, so
    the jet is not evaluated again (the positions are); ``surface`` must be
    the trace's own surface."""
    if surface != trace.request.surface:
        raise InvalidRequestError(f"surface '{surface.name}' is not the "
                                  f"trace's '{trace.request.surface.name}'")
    if len(trace) < 5:  # name the exit that cut the trace short
        nfev, end = trace.nfev, trace.exit
        at = "" if end.s_stop is None else f" at s = {end.s_stop}"
        raise TooFewSamplesError(
            f"need at least 5 samples, got {len(trace)}: the trace ended "
            f"{end.kind}{at} after {nfev} RHS evaluations")
    return _scalars(surface, trace.s, trace.uv, trace.uv_vel, trace.uv_acc,
                    trace.shape)


def frenet_from_darboux(curve: CurveData) -> FrenetData:
    """Frenet frames from the Darboux data, N_f = cos(theta) N + sin(theta)
    N x T, and the signed curvature k = kn cos(theta) + kg sin(theta)."""
    T, normal = curve.T, curve.normal
    c, s = np.cos(curve.theta), np.sin(curve.theta)
    N = c[:, None] * normal + s[:, None] * _cross(normal, T)
    return FrenetData(T, N, _cross(T, N), curve.kn * c + curve.kg * s,
                      curve.tau)


def liouville_residuals(surface: SurfaceDef, curve: CurveData) -> np.ndarray:
    """Residual of Liouville's formula kg = phi' + cos(phi) kg1 + sin(phi) kg2.

    phi here is the angle from the t-coordinate direction (the frame the
    oracle's kg1/kg2 refer to), which makes the residual independent of
    the principal-frame labeling; near-zero residuals validate the whole
    jet -> frame -> trace pipeline against the closed forms of
    ``surface.oracle``.  The formula holds on F = 0 charts, as every
    gallery chart with an oracle is.
    """
    oracle = surface.oracle
    if oracle is None:
        raise InvalidRequestError(
            f"surface '{surface.name}' carries no oracle")
    h = check_uniform(curve.s)
    t, z = curve.uv.T
    metric = point_metric(surface, t, z, check_domain=False)
    E, G = metric[10], metric[12]
    tp, zp = curve.uv_vel.T
    phi_chart = unwrap(np.arctan2(zp * np.sqrt(G), tp * np.sqrt(E)))
    kg1 = oracle.kg1(t, z)
    kg2 = oracle.kg2(t, z)
    phi_prime = diff_uniform(phi_chart, h, edge_order=4)
    return curve.kg - (phi_prime + np.cos(phi_chart) * kg1
                       + np.sin(phi_chart) * kg2)
