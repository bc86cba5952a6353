"""Curve and surface classification with explicit tolerances.

Curve classes detected: isogonal (phi constant), pseudo-geodesic (theta
constant), geodesic (kg ~ 0), line of curvature (taug ~ 0), asymptotic
(kn ~ 0), planar (tau ~ 0), generalized helix (m kappa + n tau = 0 for
fitted constants).  Surface probes: constant ratio of principal
curvatures (CRPC) and constant skew curvature (CSkC, kappa1 - kappa2
constant).

The dependence test of the helix, kn-taug and CRPC verdicts is a closed
form, and classification calls no LAPACK routine: two columns scaled by a
power of two take one Gram-Schmidt step, larger first, to R = [[r11, r12],
[0, r22]], with Demmel & Kahan's 2 x 2 singular values (LAPACK's dlasv2),
accurate as LAPACK's SVD is: to about eps sigma_max, absolute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import SurfaceDef, shape_arrays
from .darboux import (KAPPA_FLAT, CurveData, curve_scalars_from_trace,
                      frenet_from_darboux)
from .errors import InvalidRequestError, TooFewSamplesError
from .numdiff import unwrap

#: singular-value ratio below which two series count as linearly dependent
DEPENDENCE_RESIDUAL_MAX = 1e-4

#: default constancy tolerances (absolute, relative)
DEFAULT_ABS_TOL = 1e-6
DEFAULT_REL_TOL = 1e-6

#: scale factor for the flag thresholds on |taug|, |kn|, |tau|, |kg|
FLAG_TOL = 1e-6

#: gray zone: within this factor of a flag threshold on either side
GRAY_FACTOR = 10.0


@dataclass(frozen=True)
class ConstancyVerdict:
    is_constant: bool
    mean: float
    max_dev: float
    tolerance_used: float


@dataclass(frozen=True)
class DependenceVerdict:
    dependent: bool
    coeffs: tuple[float, float]   # a x + b y = 0, a^2 + b^2 = 1, a >= 0
    residual: float               # sigma_min / sigma_max
    degenerate: bool = False      # both series ~ 0


@dataclass(frozen=True)
class HelixReport:
    is_helix: bool
    mn: tuple[float, float]       # m k + n tau = 0, sign fixed by n >= 0
    psi: float                    # axis = cos(psi) T + sin(psi) B
    axis: np.ndarray
    axis_dot_t: ConstancyVerdict
    axis_dot_n: ConstancyVerdict
    dependence: DependenceVerdict
    degenerate: bool = False      # straight line: any axis works


@dataclass(frozen=True)
class ClassificationReport:
    isogonal: Optional[ConstancyVerdict]   # None when phi undefined (umbilics)
    pseudo_geodesic: ConstancyVerdict
    geodesic: bool
    line_of_curvature: bool
    asymptotic: bool
    planar: bool
    helix: HelixReport
    crpc_along: DependenceVerdict
    kntg_dep: DependenceVerdict
    cskc_along: ConstancyVerdict
    kappa_max: float
    max_abs_kg: float
    max_abs_kn: float
    max_abs_taug: float
    max_abs_tau: float
    gray_line_of_curvature: bool
    gray_asymptotic: bool


def constancy_test(values, abs_tol: float = DEFAULT_ABS_TOL,
                   rel_tol: float = DEFAULT_REL_TOL) -> ConstancyVerdict:
    """Is a scalar series constant to tolerance abs_tol + rel_tol |mean|?"""
    v = np.asarray(values, dtype=float)
    if len(v) < 5:
        raise TooFewSamplesError("constancy test needs >= 5 values")
    mean = float(v.sum() / len(v))
    max_dev = float(np.abs(v - mean).max())
    tol = abs_tol + rel_tol * abs(mean)
    return ConstancyVerdict(max_dev <= tol, mean, max_dev, tol)


def linear_dependence_test(x, y) -> DependenceVerdict:
    """Total-least-squares test for a x + b y = 0 along paired samples.

    The residual is the ratio sigma_min/sigma_max of the stacked (n, 2)
    matrix; the coefficient vector is the right singular vector of the
    smallest singular value (an eigenvector of the 2 x 2 Gram matrix),
    normalized with a >= 0 (b > 0 when a = 0).  Raises InvalidRequestError
    naming the first sample that is not finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 5 or len(y) != len(x):
        raise TooFewSamplesError("dependence test needs >= 5 paired values")
    x_max, y_max = float(np.abs(x).max()), float(np.abs(y).max())
    for name, v, v_max in (("x", x, x_max), ("y", y, y_max)):
        if not math.isfinite(v_max):
            i = int(np.argmin(np.isfinite(v)))
            raise InvalidRequestError(f"dependence test: {name}[{i}] = "
                                      f"{float(v[i])} is not finite")
    if x_max < 1e-13 and y_max < 1e-13:
        return DependenceVerdict(True, (1.0, 0.0), 0.0, degenerate=True)
    scale = math.ldexp(1.0, -math.frexp(max(x_max, y_max))[1])
    x, y = x * scale, y * scale
    xx, yy, xy = float(x @ x), float(y @ y), float(x @ y)
    w = y - (xy / xx) * x if xx >= yy else x - (xy / yy) * y
    r11 = math.sqrt(max(xx, yy))
    r12, r22 = xy / r11, math.sqrt(float(w @ w))
    s_max = 0.5 * (math.hypot(r11 + r22, r12) + math.hypot(r11 - r22, r12))
    residual = r11 * r22 / s_max / s_max
    half = 0.5 * math.atan2(2.0 * xy, xx - yy)   # (cos, sin) is for s_max
    a, b = -math.sin(half), math.cos(half)
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return DependenceVerdict(residual <= DEPENDENCE_RESIDUAL_MAX, (a, b),
                             residual)


def helix_axis(curve: CurveData) -> HelixReport:
    """Fit the generalized-helix data of a curve: constants (m, n) with
    m k + n tau = 0, the slope angle psi (cot(psi) = m/n), and the axis
    V = cos(psi) T + sin(psi) B, averaged over the samples.  k and B come
    from ``frenet_from_darboux``, which holds through zeros of kappa.
    """
    frenet = frenet_from_darboux(curve)
    dep = linear_dependence_test(frenet.kappa, curve.tau)
    m, n = dep.coeffs
    if n < 0:
        m, n = -m, -n
    psi = float(np.arctan2(n, m))
    axes = np.cos(psi) * frenet.T + np.sin(psi) * frenet.B
    axis = axes.sum(axis=0) / len(axes)
    axis = axis / math.sqrt(axis @ axis)
    dot_t = constancy_test(frenet.T @ axis, 1e-5, 1e-5)
    dot_n = constancy_test(curve.normal @ axis, 1e-5, 1e-5)
    is_helix = bool(dep.dependent and dot_t.is_constant)
    return HelixReport(is_helix, (m, n), psi, axis, dot_t, dot_n, dep)


def _degenerate_helix(curve: CurveData) -> HelixReport:
    """Straight-line fallback: the tangent itself is a constant axis."""
    axis = curve.T[0] / math.sqrt(curve.T[0] @ curve.T[0])
    dot_t = constancy_test(curve.T @ axis, 1e-5, 1e-5)
    dot_n = constancy_test(curve.normal @ axis, 1e-5, 1e-5)
    dep = DependenceVerdict(True, (1.0, 0.0), 0.0, degenerate=True)
    return HelixReport(True, (1.0, 0.0), 0.0, axis, dot_t, dot_n, dep,
                       degenerate=True)


def classify_curve_data(curve: CurveData,
                        abs_tol: float = DEFAULT_ABS_TOL,
                        rel_tol: float = DEFAULT_REL_TOL) -> ClassificationReport:
    """Classify a curve from its `CurveData`: the Darboux and Frenet
    scalars, and the principal curvatures kappa1, kappa2 of the surface
    along it for the CRPC / CSkC verdicts.

    Angle series are unwrapped before the constancy tests.  The isogonal
    verdict is None when phi is undefined somewhere (umbilic samples).
    """
    if len(curve) < 9:
        raise TooFewSamplesError("classification needs >= 9 samples")
    kappa_max = float(curve.kappa.max())
    scale = 1.0 + kappa_max
    max_abs_kg = float(np.abs(curve.kg).max())
    max_abs_kn = float(np.abs(curve.kn).max())
    max_abs_taug = float(np.abs(curve.taug).max())
    max_abs_tau = float(np.abs(curve.tau).max())

    if len(curve.umbilic_idx):
        isogonal = None
    else:
        isogonal = constancy_test(unwrap(curve.phi), abs_tol, rel_tol)
    pseudo = constancy_test(curve.theta, abs_tol, rel_tol)
    geodesic = max_abs_kg < FLAG_TOL * scale
    lof = max_abs_taug < FLAG_TOL * scale
    asymptotic = max_abs_kn < FLAG_TOL * scale
    planar = max_abs_tau < FLAG_TOL * scale

    def gray(value: float) -> bool:
        thr = FLAG_TOL * scale
        return thr / GRAY_FACTOR < value < thr * GRAY_FACTOR

    helix = (_degenerate_helix(curve) if kappa_max <= KAPPA_FLAT
             else helix_axis(curve))

    kntg = linear_dependence_test(curve.kn, curve.taug)
    cskc = constancy_test(curve.kappa1 - curve.kappa2, abs_tol, rel_tol)
    crpc = linear_dependence_test(curve.kappa1, curve.kappa2)
    return ClassificationReport(
        isogonal, pseudo, geodesic, lof, asymptotic, planar, helix,
        crpc, kntg, cskc, kappa_max, max_abs_kg, max_abs_kn, max_abs_taug,
        max_abs_tau, gray(max_abs_taug), gray(max_abs_kn))


def classify_curve(surface: SurfaceDef, trace) -> ClassificationReport:
    """Classify a traced curve on its surface."""
    return classify_curve_data(curve_scalars_from_trace(surface, trace))


def surface_class_probe(surface: SurfaceDef, grid=None) -> dict:
    """Probe a surface for the CRPC / CSkC properties over a point grid,
    by default a 6 x 6 grid inset 10% from the domain edges.

    A totally umbilic grid (sphere, plane) is reported as trivially CRPC
    with the degenerate flag set.
    """
    if grid is None:
        dom = surface.domain.inset(0.1)
        grid = [(float(t), float(z))
                for t in np.linspace(dom.t_min, dom.t_max, 6)
                for z in np.linspace(dom.z_min, dom.z_max, 6)]
    pts = np.array(list(grid), dtype=float).reshape(-1, 2)
    if len(pts) < 25:
        raise TooFewSamplesError("probe needs >= 25 grid points")
    sd = shape_arrays(surface, pts[:, 0], pts[:, 1])[2]
    k1, k2 = sd.kappa1, sd.kappa2
    n_umb = int(np.count_nonzero(sd.umbilic))
    crpc = linear_dependence_test(k1, k2)
    if n_umb == len(pts):
        crpc = DependenceVerdict(True, crpc.coeffs, crpc.residual,
                                 degenerate=True)
    cskc = constancy_test(k1 - k2)
    return {"crpc": crpc, "cskc": cskc, "umbilic_fraction": n_umb / len(pts)}


def proposition_checks(report: ClassificationReport) -> dict:
    """Cross-implication checks between the detected curve classes.

    Returns one entry per named check with 'applicable', 'holds' and
    'excluded' keys; borderline curves (flag value within a factor of 10
    of its threshold) are excluded rather than judged.
    """
    out = {}
    trio = [report.planar, report.line_of_curvature,
            report.pseudo_geodesic.is_constant]
    out["planar_lof_pseudogeodesic_trio"] = {
        "applicable": sum(trio) >= 2,
        "holds": (sum(trio) != 2),
        "excluded": False,
    }
    pg = report.pseudo_geodesic.is_constant
    excl_asym = report.asymptotic or report.gray_asymptotic
    out["helix_iff_kn_taug_dependent"] = {
        "applicable": pg and not excl_asym,
        "holds": report.helix.is_helix == report.kntg_dep.dependent,
        "excluded": excl_asym,
    }
    iso = report.isogonal.is_constant if report.isogonal else False
    excl_lof = report.line_of_curvature or report.gray_line_of_curvature
    out["helix_iff_principal_dependent"] = {
        "applicable": iso and pg and not excl_lof and not excl_asym,
        "holds": report.helix.is_helix == report.crpc_along.dependent,
        "excluded": excl_lof or excl_asym,
    }
    out["pseudogeodesic_iff_axis_normal_angle_constant"] = {
        "applicable": report.helix.is_helix and not report.helix.degenerate,
        "holds": pg == report.helix.axis_dot_n.is_constant,
        "excluded": False,
    }
    return out


def render_report(report: ClassificationReport) -> str:
    """Deterministic plain-text rendering of a classification report."""
    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    def cv(v: Optional[ConstancyVerdict], angle: bool = False) -> str:
        if v is None:
            return "undefined (umbilic samples on path)"
        extra = f" = {np.degrees(v.mean):.6f} deg" if angle else ""
        return (f"{yn(v.is_constant)} (mean={v.mean:.9g}{extra}, "
                f"max_dev={v.max_dev:.3g}, tol={v.tolerance_used:.3g})")

    def dv(v: DependenceVerdict) -> str:
        tag = ", degenerate" if v.degenerate else ""
        return (f"{yn(v.dependent)} (coeffs=({v.coeffs[0]:.9g}, "
                f"{v.coeffs[1]:.9g}), residual={v.residual:.3g}{tag})")

    hx = report.helix
    axis = ", ".join(f"{c:.9g}" for c in hx.axis)
    lines = [
        f"isogonal:           {cv(report.isogonal, angle=True)}",
        f"pseudo_geodesic:    {cv(report.pseudo_geodesic, angle=True)}",
        f"geodesic:           {yn(report.geodesic)} (max|kg|={report.max_abs_kg:.3g})",
        f"line_of_curvature:  {yn(report.line_of_curvature)} (max|taug|={report.max_abs_taug:.3g})",
        f"asymptotic:         {yn(report.asymptotic)} (max|kn|={report.max_abs_kn:.3g})",
        f"planar:             {yn(report.planar)} (max|tau|={report.max_abs_tau:.3g})",
        f"helix:              {yn(hx.is_helix)} (m={hx.mn[0]:.9g}, n={hx.mn[1]:.9g}, "
        f"psi={hx.psi:.9g}, axis=[{axis}])",
        f"  axis_dot_T:       {cv(hx.axis_dot_t)}",
        f"  axis_dot_N:       {cv(hx.axis_dot_n)}",
        f"kappa_tau_dep:      {dv(hx.dependence)}",
        f"kn_taug_dep:        {dv(report.kntg_dep)}",
        f"principal_dep:      {dv(report.crpc_along)}",
        f"skew_constancy:     {cv(report.cskc_along)}",
    ]
    return "\n".join(lines) + "\n"
