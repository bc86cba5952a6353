"""Curve and surface classification with explicit tolerances.

Curve classes detected: isogonal (phi constant), pseudo-geodesic (theta
constant), geodesic (kg ~ 0), line of curvature (taug ~ 0), asymptotic
(kn ~ 0), planar (tau ~ 0), generalized helix (m kappa + n tau = 0 for
fitted constants).  Surface probes: constant ratio of principal
curvatures (CRPC) and constant skew curvature (CSkC, kappa1 - kappa2
constant).

Every value held against a bound is a `ScenarioCheck`: the verify checks
of `scenarios` and the four threshold flags of a report.  A flag holds when
max |kg| (geodesic), max |taug| (line of curvature), max |kn| (asymptotic)
or max |tau| (planar) is below FLAG_TOL (1 + max kappa); its margin is that
maximum over the limit.  A flag that reads below GRAY_FACTOR times its
limit (it holds, or nearly does) is borderline: `proposition_checks`
excludes the curve from the checks that need the flag to fail.

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

#: a flag measured below this factor times its limit is borderline
GRAY_FACTOR = 10.0


@dataclass(frozen=True)
class ScenarioCheck:
    """One value against a bound: ``passed`` is ``measured op limit`` for a
    numeric check (`_bounded`), and ``note`` its unit; a boolean check has
    op and limit None and its bound in words as ``note``.  Its truth value
    is ``passed``."""

    name: str
    passed: bool
    measured: float
    note: str = ""
    op: Optional[str] = None      # "<", ">" or ">="
    limit: Optional[float] = None

    def __bool__(self) -> bool:
        return self.passed

    @property
    def bound(self) -> str:
        """The bound as text: ``"< 1e-6"`` or ``">= 20 curves"`` from op,
        limit and note, or the note of a boolean check."""
        if self.op is None:
            return self.note
        # "1e-4" and "1e-6" where format "g" writes "0.0001" and "1e-06"
        limit = f"{self.limit:g}"
        sci = f"{self.limit:.0e}".replace("e-0", "e-")
        if float(sci) == self.limit and len(sci) < len(limit):
            limit = sci
        return f"{self.op} {limit} {self.note}".strip()

    @property
    def margin(self) -> Optional[float]:
        """|measured| / limit under an upper bound, limit / measured over a
        lower one (inf at measured <= 0): below 1 the check passes, 1 is the
        bound itself.  None for a boolean check."""
        if self.op is None:
            return None
        if self.op == "<":
            return abs(self.measured) / self.limit
        return self.limit / self.measured if self.measured > 0 else math.inf


def _bounded(op: str, name: str, measured: float, limit: float,
             note: str = "") -> ScenarioCheck:
    """A numeric check whose ``passed`` and bound text both come from the
    one ``limit``."""
    passed = {"<": measured < limit, ">": measured > limit,
              ">=": measured >= limit}[op]
    return ScenarioCheck(name, bool(passed), float(measured), note, op,
                         float(limit))


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
    geodesic: ScenarioCheck                # max|kg| < FLAG_TOL (1 + max kappa)
    line_of_curvature: ScenarioCheck       # max|taug|, the same limit
    asymptotic: ScenarioCheck              # max|kn|
    planar: ScenarioCheck                  # max|tau|
    helix: HelixReport
    crpc_along: DependenceVerdict
    kntg_dep: DependenceVerdict
    cskc_along: ConstancyVerdict


def check_tolerance(name: str, value) -> float:
    """``value`` as a float, once it is a finite number >= 0;
    InvalidRequestError naming ``name`` and ``value`` otherwise."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not 0.0 <= tol < math.inf:   # NaN too
        raise InvalidRequestError(f"{name} '{value}' must be a finite "
                                  "number >= 0")
    return tol


def constancy_test(values, abs_tol: float = DEFAULT_ABS_TOL,
                   rel_tol: float = DEFAULT_REL_TOL) -> ConstancyVerdict:
    """Is a scalar series constant to tolerance abs_tol + rel_tol |mean|?
    Raises InvalidRequestError for a tolerance that is not a finite number
    >= 0, and naming the first sample that is not finite."""
    abs_tol = check_tolerance("abs_tol", abs_tol)
    rel_tol = check_tolerance("rel_tol", rel_tol)
    v = np.asarray(values, dtype=float)
    if len(v) < 5:
        raise TooFewSamplesError("constancy test needs >= 5 values")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        mean = float(v.sum() / len(v))
        max_dev = float(np.abs(v - mean).max())  # inf fails every tolerance
    if not math.isfinite(mean):   # a bad sample, or a sum past 1.8e308
        bad = ~np.isfinite(v)
        i = int(np.argmax(bad))
        raise InvalidRequestError(
            f"constancy test: values[{i}] = {float(v[i])} is not finite"
            if bad[i] else "constancy test: the values' sum overflows")
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
    limit = FLAG_TOL * (1.0 + kappa_max)
    geodesic, lof, asymptotic, planar = (
        _bounded("<", name, np.abs(v).max(), limit)
        for name, v in (("max|kg|", curve.kg), ("max|taug|", curve.taug),
                        ("max|kn|", curve.kn), ("max|tau|", curve.tau)))

    if len(curve.umbilic_idx):
        isogonal = None
    else:
        isogonal = constancy_test(unwrap(curve.phi), abs_tol, rel_tol)
    pseudo = constancy_test(curve.theta, abs_tol, rel_tol)
    helix = (_degenerate_helix(curve) if kappa_max <= KAPPA_FLAT
             else helix_axis(curve))

    kntg = linear_dependence_test(curve.kn, curve.taug)
    cskc = constancy_test(curve.kappa1 - curve.kappa2, abs_tol, rel_tol)
    crpc = linear_dependence_test(curve.kappa1, curve.kappa2)
    return ClassificationReport(
        isogonal, pseudo, geodesic, lof, asymptotic, planar, helix,
        crpc, kntg, cskc)


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
    'excluded' keys.  A curve whose asymptotic or line-of-curvature flag
    reads below GRAY_FACTOR times its limit (the flag holds, or nearly
    does) is excluded from the checks that need that flag to fail, rather
    than judged.
    """
    def borderline(flag: ScenarioCheck) -> bool:
        return flag.measured < GRAY_FACTOR * flag.limit

    out = {}
    trio = [report.planar.passed, report.line_of_curvature.passed,
            report.pseudo_geodesic.is_constant]
    out["planar_lof_pseudogeodesic_trio"] = {
        "applicable": sum(trio) >= 2,
        "holds": (sum(trio) != 2),
        "excluded": False,
    }
    pg = report.pseudo_geodesic.is_constant
    excl_asym = borderline(report.asymptotic)
    out["helix_iff_kn_taug_dependent"] = {
        "applicable": pg and not excl_asym,
        "holds": report.helix.is_helix == report.kntg_dep.dependent,
        "excluded": excl_asym,
    }
    iso = report.isogonal.is_constant if report.isogonal else False
    excl_lof = borderline(report.line_of_curvature)
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

    def fv(c: ScenarioCheck) -> str:
        return f"{yn(c.passed)} ({c.name}={c.measured:.3g})"

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
        f"geodesic:           {fv(report.geodesic)}",
        f"line_of_curvature:  {fv(report.line_of_curvature)}",
        f"asymptotic:         {fv(report.asymptotic)}",
        f"planar:             {fv(report.planar)}",
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
