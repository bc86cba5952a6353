"""Named verification scenarios binding gallery surfaces, traces,
classifiers and tolerances into reproducible pass/fail reports.

S1..S8 cover the curve-level behaviors (isogonal lines on the ruled
constant-slope surface and on Enneper are pseudo-geodesic helices, the
revolution and Bonnet counterexamples, cylinder geodesics, the Enneper
geodesic family, flow properties, two-surface fixtures); A1..A4 are
corpus-wide suites (frame identities, closed-form curvature oracles,
cross-implication checks, algebraic identities).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from . import classify as cls
from .core import SurfaceDef, point_shape
from .darboux import (CurveData, curve_scalars, curve_scalars_from_trace,
                      liouville_residuals)
from .errors import UnknownScenarioError
from .gallery import (make_bonnet, make_catenoid, make_crpc_revolution,
                      make_cylinder, make_enneper, make_helix_surface,
                      make_plane, make_sphere)
from .intersect import IntersectionReport, analyze_intersection, make_fixture
from .tracer import (GeodesicMode, IsogonalMode, PseudoGeodesicMode, Trace,
                     TraceRequest, chart_to_principal_angle, isogonal_map,
                     trace_geodesic, trace_isogonal, trace_pseudogeodesic)

#: default classification tolerances (absolute, relative)
TOL_ABS = 1e-6
TOL_REL = 1e-6


@dataclass(frozen=True)
class ScenarioCheck:
    name: str
    passed: bool
    measured: float
    bound: str


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    title: str
    checks: tuple[ScenarioCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class CorpusCurve:
    """One curve of the verification corpus with its Darboux data."""

    name: str
    surface: SurfaceDef
    curve: CurveData
    trace: Optional[Trace] = None
    kind: str = "isogonal"      # isogonal | pseudo_geodesic | geodesic | analytic


def _f(overrides: Mapping[str, str] | None, key: str, default: float) -> float:
    if overrides and key in overrides:
        return float(overrides[key])
    return float(default)


def _check(name: str, passed: bool, measured: float, bound: str) -> ScenarioCheck:
    return ScenarioCheck(name, bool(passed), float(measured), bound)


def _dep_residual(x: np.ndarray, y: np.ndarray) -> float:
    return cls.linear_dependence_test(x, y).residual


def _theta_dev(curve: CurveData) -> float:
    return float(np.max(np.abs(curve.theta - np.mean(curve.theta))))


def _phi_dev(curve: CurveData) -> float:
    phi = np.unwrap(curve.phi)
    return float(np.max(np.abs(phi - phi[0])))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _iso(surface, start, phi, span, step=2e-3):
    req = TraceRequest(surface, start, IsogonalMode(phi), s_span=span,
                       step=step, max_step=step)
    return trace_isogonal(req)


def _iso_chart(surface, start, chart_angle, span, step=2e-3):
    phi = chart_to_principal_angle(surface, start, chart_angle)
    return _iso(surface, start, phi, span, step)


def _pg(surface, start, theta, direction, span, step=2e-3):
    req = TraceRequest(surface, start, PseudoGeodesicMode(theta, direction),
                       s_span=span, step=step, max_step=step)
    return trace_pseudogeodesic(req)


def _geo(surface, start, direction, span, step=2e-3):
    req = TraceRequest(surface, start, GeodesicMode(direction), s_span=span,
                       step=step, max_step=step)
    return trace_geodesic(req)


def _plane_circle(radius=2.0, center=(0.5, -0.3), step=2e-3) -> CorpusCurve:
    plane = make_plane()
    n = int(round(2.4 / step)) + 1
    s = step * np.arange(n) - 1.2
    psi = s / radius
    uv = np.column_stack([center[0] + radius * np.cos(psi),
                          center[1] + radius * np.sin(psi)])
    vel = np.column_stack([-np.sin(psi), np.cos(psi)])
    acc = np.column_stack([-np.cos(psi) / radius, -np.sin(psi) / radius])
    cd = curve_scalars(plane, s, uv, vel, acc)
    return CorpusCurve("plane_circle", plane, cd, kind="analytic")


def s6_geodesic_family(extent: float = 3.5):
    """The Enneper geodesics through the origin for slopes m in {0, 1/2, 2},
    traced far enough to cover chart parameter |t| <= 1.5."""
    surf = make_enneper(extent)
    out = []
    for m, step in ((0.0, 2e-3), (0.5, 2e-3), (2.0, 8e-3)):
        cosp = 1.0 / np.sqrt(1 + m * m)
        s_need = (1.5 + (1 + m * m) * 1.5 ** 3 / 3) / cosp * 1.02
        v0 = (cosp, m * cosp)
        tr = _geo(surf, (0.0, 0.0), v0, (-s_need, s_need), step)
        out.append((m, surf, tr))
    return out


@lru_cache(maxsize=1)
def corpus() -> tuple[CorpusCurve, ...]:
    """The standard curve corpus used by the suite-level checks."""
    out: list[CorpusCurve] = []

    hel = make_helix_surface(1.0, np.pi / 4)
    # spans shrink as |phi| grows: the rulings run toward the chart's
    # degenerate edge, where curvature derivatives blow up
    for tag, phi, smax in (("a", 0.5, 1.0), ("b", 1.0, 0.85),
                           ("c", -0.7, 1.0), ("d", 1.35, 0.7)):
        tr = _iso(hel, (0.0, 0.0), phi, (-smax, smax))
        out.append(CorpusCurve(f"helix_iso_{tag}", hel,
                               curve_scalars_from_trace(hel, tr), tr))

    enn = make_enneper()
    tr = _iso_chart(enn, (0.0, 1.0), np.pi / 6, (-1.2, 1.2))
    out.append(CorpusCurve("enneper_iso_pi6", enn,
                           curve_scalars_from_trace(enn, tr), tr))
    tr = _iso_chart(enn, (0.3, -0.1), np.pi / 4, (-0.9, 0.9))
    out.append(CorpusCurve("enneper_iso_asymptotic", enn,
                           curve_scalars_from_trace(enn, tr), tr))

    crpc = make_crpc_revolution(2.0, 1)
    tr = _iso_chart(crpc, (0.5, 0.0), np.pi / 4, (-0.1, 0.6))
    out.append(CorpusCurve("crpc_iso_pi4", crpc,
                           curve_scalars_from_trace(crpc, tr), tr))

    bon = make_bonnet(0.5)
    tr = _iso_chart(bon, (0.0, 0.3), np.pi / 6, (-1.0, 1.0))
    out.append(CorpusCurve("bonnet_iso_pi6", bon,
                           curve_scalars_from_trace(bon, tr), tr))
    tr = _iso_chart(bon, (0.4, 0.2), 0.0, (-0.9, 0.9))
    out.append(CorpusCurve("bonnet_iso_curvature_line", bon,
                           curve_scalars_from_trace(bon, tr), tr))
    # initial angle away from the asymptotic directions keeps kappa (and
    # hence torsion extraction) well conditioned along the window
    tr = _pg(bon, (0.2, 0.1), 0.4, 1.25, (-0.7, 0.7))
    out.append(CorpusCurve("bonnet_pg", bon,
                           curve_scalars_from_trace(bon, tr), tr,
                           kind="pseudo_geodesic"))

    cyl = make_cylinder(1.0)
    for tag, phi in (("a", 0.4), ("b", np.pi / 4), ("c", 1.1)):
        tr = _iso(cyl, (0.0, 0.3), phi, (-1.5, 1.5))
        out.append(CorpusCurve(f"cylinder_iso_{tag}", cyl,
                               curve_scalars_from_trace(cyl, tr), tr))

    for m, surf, tr in s6_geodesic_family():
        out.append(CorpusCurve(f"enneper_geo_m{m:g}", surf,
                               curve_scalars_from_trace(surf, tr), tr,
                               kind="geodesic"))

    cat = make_catenoid()
    tr = _iso(cat, (0.2, 0.0), 0.8, (-0.8, 0.8))
    out.append(CorpusCurve("catenoid_iso", cat,
                           curve_scalars_from_trace(cat, tr), tr))
    tr = _pg(cat, (0.1, 0.3), 0.5, 1.35, (-0.6, 0.6))
    out.append(CorpusCurve("catenoid_pg", cat,
                           curve_scalars_from_trace(cat, tr), tr,
                           kind="pseudo_geodesic"))

    sph = make_sphere(1.0)
    tr = _pg(sph, (0.2, 0.1), np.pi / 4, (0.6, 0.5), (-1.0, 1.0))
    out.append(CorpusCurve("sphere_pg_a", sph,
                           curve_scalars_from_trace(sph, tr), tr,
                           kind="pseudo_geodesic"))
    tr = _pg(sph, (-0.1, 0.4), -0.5, (1.0, -0.3), (-1.0, 1.0))
    out.append(CorpusCurve("sphere_pg_b", sph,
                           curve_scalars_from_trace(sph, tr), tr,
                           kind="pseudo_geodesic"))

    enn3 = make_enneper()
    tr_iso = _iso_chart(enn3, (0.0, 1.0), np.pi / 6, (-1.2, 1.2))
    v0 = tr_iso.uv_vel[tr_iso.index_of(0.0)]
    tr = _pg(enn3, (0.0, 1.0), float(np.arctan(-np.sqrt(3.0))),
             (float(v0[0]), float(v0[1])), (-1.2, 1.2))
    out.append(CorpusCurve("enneper_pg_matching_iso", enn3,
                           curve_scalars_from_trace(enn3, tr), tr,
                           kind="pseudo_geodesic"))

    out.append(_plane_circle())
    return tuple(out)


@lru_cache(maxsize=1)
def _fixtures():
    out = []
    for name, params in (("sphere_plane", {"h": 0.5}),
                         ("sphere_sphere", {"d": 1.0}),
                         ("cylinder_plane", {"tilt": np.pi / 6})):
        fx = make_fixture(name, **params)
        out.append((fx, analyze_intersection(fx.m, fx.mbar, fx.curve)))
    return tuple(out)


def fixture_reports() -> dict[str, IntersectionReport]:
    """Analyzed intersection fixtures (shared across S8 and the suites)."""
    return {fx.name: rep for fx, rep in _fixtures()}


def fixture_side_curves() -> list[CorpusCurve]:
    """Both-side Darboux data of the fixtures, as classification subjects."""
    sides = []
    for fx, rep in _fixtures():
        sides.append(CorpusCurve(f"{fx.name}_in_m", fx.m, rep.curve_m,
                                 kind="analytic"))
        sides.append(CorpusCurve(f"{fx.name}_in_mbar", fx.mbar, rep.curve_mbar,
                                 kind="analytic"))
    return sides


# ---------------------------------------------------------------------------
# scenarios S1..S8
# ---------------------------------------------------------------------------

def run_s1(overrides=None) -> ScenarioResult:
    """Isogonal lines on the ruled constant-slope surface: constant normal
    angle (pseudo-geodesic) and linearly dependent (kappa, tau) (helix)."""
    r_beta = _f(overrides, "s1.r_beta", 1.0)
    phi0 = _f(overrides, "s1.phi0", np.pi / 4)
    hel = make_helix_surface(r_beta, phi0)
    checks = []
    worst_theta = 0.0
    worst_dep = 0.0
    all_helix = True
    for phi, smax in ((0.5, 1.0), (1.0, 0.85), (-0.7, 1.0), (1.35, 0.7)):
        tr = _iso(hel, (0.0, 0.0), phi, (-smax, smax))
        cd = curve_scalars_from_trace(hel, tr)
        worst_theta = max(worst_theta, _theta_dev(cd))
        worst_dep = max(worst_dep, _dep_residual(cd.kappa, cd.tau))
        all_helix &= cls.classify_curve_data(cd).helix.is_helix
    checks.append(_check("theta constancy (max dev over 4 angles)",
                         worst_theta < 1e-6, worst_theta, "< 1e-6"))
    checks.append(_check("kappa-tau dependence residual",
                         worst_dep < 1e-6, worst_dep, "< 1e-6"))
    checks.append(_check("classified generalized helix (all angles)",
                         all_helix, float(all_helix), "true"))
    return ScenarioResult("S1", "ruled constant-slope surface isogonals",
                          tuple(checks))


def run_s2(overrides=None) -> ScenarioResult:
    """Enneper isogonal with chart angle pi/6 from (0, 1): straight chart
    preimage, tan(theta) = -sqrt(3), helix classification."""
    chart_phi = _f(overrides, "s2.phi_chart", np.pi / 6)
    enn = make_enneper()
    start = (0.0, 1.0)
    tr = _iso_chart(enn, start, chart_phi, (-1.2, 1.2))
    cd = curve_scalars_from_trace(enn, tr)
    slope = np.tan(chart_phi)
    line_res = float(np.max(np.abs(tr.uv[:, 1] - slope * tr.uv[:, 0] - 1.0)))
    theta_dev = _theta_dev(cd)
    tan_err = float(abs(np.tan(np.mean(cd.theta)) + np.sqrt(3.0)))
    dep = _dep_residual(cd.kappa, cd.tau)
    rep = cls.classify_curve_data(cd)
    checks = [
        _check("chart preimage is the line z = tan(phi) t + 1",
               line_res < 1e-8, line_res, "< 1e-8"),
        _check("theta constancy", theta_dev < 1e-6, theta_dev, "< 1e-6"),
        _check("tan(theta) = -sqrt(3)", tan_err < 1e-6, tan_err, "< 1e-6"),
        _check("kappa-tau dependence residual", dep < 1e-6, dep, "< 1e-6"),
        _check("classified generalized helix", rep.helix.is_helix,
               float(rep.helix.is_helix), "true"),
        _check("classified isogonal + pseudo-geodesic, not curvature line",
               rep.isogonal.is_constant and rep.pseudo_geodesic.is_constant
               and not rep.line_of_curvature,
               1.0, "true"),
    ]
    return ScenarioResult("S2", "Enneper isogonal line", tuple(checks))


def run_s3(overrides=None) -> ScenarioResult:
    """Isogonal on the constant-curvature-ratio revolution surface is NOT
    a pseudo-geodesic: theta drifts far beyond tolerance."""
    c = _f(overrides, "s3.c", 2.0)
    eps = int(_f(overrides, "s3.eps", 1))
    chart_phi = _f(overrides, "s3.phi_chart", np.pi / 4)
    crpc = make_crpc_revolution(c, eps)
    tr = _iso_chart(crpc, (0.5, 0.0), chart_phi, (-0.1, 0.6))
    cd = curve_scalars_from_trace(crpc, tr)
    phi_dev = _phi_dev(cd)
    theta_dev = _theta_dev(cd)
    checks = [
        _check("isogonal (phi constant)", phi_dev < 1e-8, phi_dev, "< 1e-8"),
        _check("theta max deviation exceeds 0.05 rad",
               theta_dev > 0.05, theta_dev, "> 0.05"),
    ]
    return ScenarioResult("S3", "revolution-surface negative case",
                          tuple(checks))


def run_s4(overrides=None) -> ScenarioResult:
    """Isogonal on the Bonnet surface is NOT a pseudo-geodesic."""
    a = _f(overrides, "s4.a", 0.5)
    chart_phi = _f(overrides, "s4.phi_chart", np.pi / 6)
    bon = make_bonnet(a)
    tr = _iso_chart(bon, (0.0, 0.3), chart_phi, (-1.0, 1.0))
    cd = curve_scalars_from_trace(bon, tr)
    phi_dev = _phi_dev(cd)
    verdict = cls.constancy_test(cd.theta, TOL_ABS, TOL_REL)
    ratio = verdict.max_dev / verdict.tolerance_used
    checks = [
        _check("isogonal (phi constant)", phi_dev < 1e-8, phi_dev, "< 1e-8"),
        _check("theta deviation exceeds 10x constancy tolerance",
               ratio > 10.0, ratio, "> 10"),
    ]
    return ScenarioResult("S4", "Bonnet-surface negative case", tuple(checks))


def run_s5(overrides=None) -> ScenarioResult:
    """Cylinder isogonals are geodesics (|theta| ~ 0) and helices."""
    r = _f(overrides, "s5.r", 1.0)
    cyl = make_cylinder(r)
    worst_theta = 0.0
    worst_dep = 0.0
    all_helix = True
    for phi in (0.4, np.pi / 4, 1.1):
        tr = _iso(cyl, (0.0, 0.3), phi, (-1.5, 1.5))
        cd = curve_scalars_from_trace(cyl, tr)
        worst_theta = max(worst_theta, float(np.max(np.abs(cd.theta))))
        worst_dep = max(worst_dep, _dep_residual(cd.kappa, cd.tau))
        all_helix &= cls.classify_curve_data(cd).helix.is_helix
    checks = [
        _check("geodesic: max |theta| over 3 angles",
               worst_theta < 1e-6, worst_theta, "< 1e-6"),
        _check("kappa-tau dependence residual",
               worst_dep < 1e-6, worst_dep, "< 1e-6"),
        _check("classified generalized helix (all angles)",
               all_helix, float(all_helix), "true"),
    ]
    return ScenarioResult("S5", "cylinder isogonals are geodesic helices",
                          tuple(checks))


def run_s6(overrides=None) -> ScenarioResult:
    """Geodesics of the Enneper surface through the origin: closed-form
    cubic family, helix axis (m, 1, 0)/sqrt(1+m^2), axis orthogonal to the
    surface normal along the curve."""
    extent = _f(overrides, "s6.extent", 3.5)
    checks = []
    for m, surf, tr in s6_geodesic_family(extent):
        cd = curve_scalars_from_trace(surf, tr)
        t_par = tr.uv[:, 0]
        cover = float(np.max(np.abs(t_par)))
        mask = np.abs(t_par) <= 1.5
        family = np.column_stack([
            3 * t_par + (3 * m * m - 1) * t_par ** 3,
            m * (3 * t_par - (m * m - 3) * t_par ** 3),
            3 * (1 - m * m) * t_par ** 2]) / 3.0
        fam_res = float(np.max(np.linalg.norm(cd.pos[mask] - family[mask],
                                              axis=1)))
        rep = cls.classify_curve_data(cd)
        w = np.array([m, 1.0, 0.0]) / np.sqrt(1 + m * m)
        axis = rep.helix.axis.copy()
        if float(axis @ w) < 0:
            axis = -axis
        axis_err = float(np.max(np.abs(axis - w)))
        axis_dot_n = float(np.max(np.abs(cd.normal @ axis)))
        checks += [
            _check(f"m={m:g}: covers |t| <= 1.5", cover >= 1.5, cover, ">= 1.5"),
            _check(f"m={m:g}: matches cubic family", fam_res < 1e-6,
                   fam_res, "< 1e-6"),
            _check(f"m={m:g}: helix axis within 1e-5 of (m,1,0)/|.|",
                   axis_err < 1e-5, axis_err, "< 1e-5"),
            _check(f"m={m:g}: |<axis, N>| below 1e-6", axis_dot_n < 1e-6,
                   axis_dot_n, "< 1e-6"),
        ]
    return ScenarioResult("S6", "Enneper geodesic family through the origin",
                          tuple(checks))


def run_s7(overrides=None) -> ScenarioResult:
    """Isogonal-flow properties and tracer cross-validation: speed
    homogeneity, identity differential of the flow map, tolerance
    robustness, time reversal, and pseudo-geodesic/geodesic consistency."""
    enn = make_enneper()
    hel = make_helix_surface(1.0, np.pi / 4)
    checks = []
    phi = -0.9
    base = _iso(enn, (0.3, 0.2), phi, (0.0, 1.0), step=4e-3)
    fast = trace_isogonal(TraceRequest(enn, (0.3, 0.2), IsogonalMode(phi, 2.0),
                                       s_span=(0.0, 0.5), step=2e-3,
                                       max_step=2e-3))
    dev2 = float(np.max(np.abs(fast.uv - base.uv[:len(fast.uv)])))
    slow = trace_isogonal(TraceRequest(enn, (0.3, 0.2), IsogonalMode(phi, 0.5),
                                       s_span=(0.0, 1.0), step=4e-3,
                                       max_step=4e-3))
    half = _iso(enn, (0.3, 0.2), phi, (0.0, 0.5), step=2e-3)
    devh = float(np.max(np.abs(slow.uv - half.uv)))
    checks.append(_check("speed-2 flow equals reparametrized unit flow",
                         dev2 < 1e-8, dev2, "< 1e-8"))
    checks.append(_check("speed-1/2 flow equals reparametrized unit flow",
                         devh < 1e-8, devh, "< 1e-8"))

    p0 = isogonal_map(enn, (0.3, 0.2), (0.0, 0.0))
    checks.append(_check("flow map fixes the base point at v = 0",
                         p0 == (0.3, 0.2), 0.0, "exact"))
    for surf, uv in ((enn, (0.3, 0.2)), (hel, (0.2, 0.1))):
        h = 1e-4
        jac = np.empty((2, 2))
        for j, dv in enumerate(((h, 0.0), (0.0, h))):
            up = np.array(isogonal_map(surf, uv, dv))
            um = np.array(isogonal_map(surf, uv, (-dv[0], -dv[1])))
            jac[:, j] = (up - um) / (2 * h)
        dev = float(np.max(np.abs(jac - np.eye(2))))
        checks.append(_check(
            f"flow-map differential is the identity on {surf.name}",
            dev < 1e-4, dev, "< 1e-4"))

    ra = TraceRequest(enn, (0.0, 1.0), IsogonalMode(-np.pi / 3),
                      s_span=(-1.2, 1.2), step=2e-3, atol=1e-10, rtol=1e-9)
    rb = TraceRequest(enn, (0.0, 1.0), IsogonalMode(-np.pi / 3),
                      s_span=(-1.2, 1.2), step=2e-3, atol=1e-12, rtol=1e-11)
    ta, tb = trace_isogonal(ra), trace_isogonal(rb)
    dev = float(np.max(np.abs(ta.uv - tb.uv)))
    checks.append(_check("trace reproducibility across solver tolerances",
                         dev < 1e-7, dev, "< 1e-7"))

    tf = _iso(enn, (0.3, 0.2), phi, (-1.0, 0.0))
    tb_ = _iso(enn, (0.3, 0.2), phi + np.pi, (0.0, 1.0))
    dev = float(np.max(np.abs(tf.uv[::-1] - tb_.uv)))
    checks.append(_check("time reversal equals reflected negated-velocity trace",
                         dev < 1e-8, dev, "< 1e-8"))

    tr_iso = _iso_chart(enn, (0.0, 1.0), np.pi / 6, (-1.2, 1.2))
    v0 = tr_iso.uv_vel[tr_iso.index_of(0.0)]
    tr_pg = _pg(enn, (0.0, 1.0), float(np.arctan(-np.sqrt(3.0))),
                (float(v0[0]), float(v0[1])), (-1.2, 1.2))
    dev = float(np.max(np.abs(tr_pg.uv - tr_iso.uv)))
    checks.append(_check(
        "pseudo-geodesic at theta = atan(-sqrt(3)) reproduces the isogonal",
        dev < 1e-6, dev, "< 1e-6"))

    v0 = (0.6, 0.4)
    tg = _geo(enn, (0.2, -0.3), v0, (-0.8, 0.8))
    tp = _pg(enn, (0.2, -0.3), 0.0, v0, (-0.8, 0.8))
    dev = float(np.max(np.abs(tg.uv - tp.uv)))
    checks.append(_check("geodesic equals theta = 0 pseudo-geodesic",
                         dev < 1e-9, dev, "< 1e-9"))

    drift = 0.0
    for cc in corpus():
        if cc.kind in ("pseudo_geodesic", "geodesic"):
            speeds = np.linalg.norm(cc.curve.T, axis=1)
            drift = max(drift, float(np.max(np.abs(speeds - 1.0))))
    checks.append(_check("unit-speed drift over pseudo-geodesic corpus",
                         drift < 1e-7, drift, "< 1e-7"))
    return ScenarioResult("S7", "flow properties and tracer cross-validation",
                          tuple(checks))


def run_s8(overrides=None) -> ScenarioResult:
    """Two-surface fixtures: the normal-angle relation, its derivative
    (geodesic-torsion difference), and constant-angle transfer of the
    pseudo-geodesic property."""
    reports = fixture_reports()
    checks = []
    for name in ("sphere_plane", "sphere_sphere", "cylinder_plane"):
        rep = reports[name]
        checks.append(_check(f"{name}: xi = eps(theta_bar - theta) residual",
                             rep.angle_residual < 1e-6, rep.angle_residual,
                             "< 1e-6"))
        checks.append(_check(f"{name}: xi' = eps(taug - taug_bar) residual",
                             rep.relation_residual < 1e-6,
                             rep.relation_residual, "< 1e-6"))
        pg_m = cls.classify_curve_data(rep.curve_m).pseudo_geodesic.is_constant
        pg_b = cls.classify_curve_data(rep.curve_mbar).pseudo_geodesic.is_constant
        if name == "cylinder_plane":
            checks.append(_check(f"{name}: xi NOT constant",
                                 not rep.constant_angle.is_constant,
                                 rep.constant_angle.max_dev, "> tol"))
            checks.append(_check(f"{name}: cylinder side NOT pseudo-geodesic",
                                 not pg_m, float(not pg_m), "true"))
            checks.append(_check(f"{name}: plane side pseudo-geodesic",
                                 pg_b, float(pg_b), "true"))
        else:
            checks.append(_check(f"{name}: xi constant",
                                 rep.constant_angle.is_constant,
                                 rep.constant_angle.max_dev, "<= tol"))
            checks.append(_check(f"{name}: pseudo-geodesic on both sides",
                                 pg_m and pg_b, float(pg_m and pg_b), "true"))
    return ScenarioResult("S8", "two-surface intersection fixtures",
                          tuple(checks))


# ---------------------------------------------------------------------------
# suite scenarios A1..A4
# ---------------------------------------------------------------------------

def run_a1(overrides=None) -> ScenarioResult:
    """Frame identities across the corpus: kappa^2 = kg^2 + kn^2 and the
    coordinate-frame curvature decomposition residual."""
    worst_pyth = 0.0
    worst_liouville = 0.0
    n_curves = 0
    n_oracle = 0
    for cc in corpus():
        cd = cc.curve
        n_curves += 1
        pyth = float(np.max(np.abs(cd.kappa ** 2 - (cd.kg ** 2 + cd.kn ** 2))
                            / (1 + cd.kappa ** 2)))
        worst_pyth = max(worst_pyth, pyth)
        if cc.surface.oracle is not None:
            n_oracle += 1
            res = liouville_residuals(cc.surface, cd)
            worst_liouville = max(worst_liouville, float(np.max(np.abs(res))))
    checks = [
        _check(f"corpus size (got {n_curves})", n_curves >= 20,
               float(n_curves), ">= 20 curves"),
        _check("kappa^2 = kg^2 + kn^2 (normalized residual)",
               worst_pyth < 1e-8, worst_pyth, "< 1e-8"),
        _check(f"coordinate-frame curvature residual ({n_oracle} curves)",
               worst_liouville < 1e-6, worst_liouville, "< 1e-6"),
    ]
    return ScenarioResult("A1", "frame identities over the curve corpus",
                          tuple(checks))


def run_a2(overrides=None) -> ScenarioResult:
    """Closed-form curvature oracles vs the generic shape pipeline at 200
    interior grid points per gallery surface."""
    surfaces = [make_helix_surface(1.0, np.pi / 4), make_enneper(),
                make_crpc_revolution(2.0, 1), make_bonnet(0.5)]
    checks = []
    for surf in surfaces:
        dom = surf.domain.inset(0.05)
        ts = np.linspace(dom.t_min, dom.t_max, 20)
        zs = np.linspace(dom.z_min, dom.z_max, 10)
        worst = 0.0
        for t in ts:
            for z in zs:
                _jet, _forms, sd = point_shape(surf, float(t), float(z))
                ora = sorted((surf.oracle.k1(t, z), surf.oracle.k2(t, z)))
                got = (sd.kappa1, sd.kappa2)
                for o, g in zip(ora, got):
                    worst = max(worst, abs(o - g) / (1.0 + abs(o)))
        checks.append(_check(f"{surf.name}: oracle curvature agreement",
                             worst < 1e-8, worst, "< 1e-8 (200 points)"))
    return ScenarioResult("A2", "closed-form curvature oracles", tuple(checks))


def run_a3(overrides=None) -> ScenarioResult:
    """Cross-implication checks between curve classes over the corpus and
    the fixture sides; borderline (gray-zone) curves are excluded."""
    subjects = list(corpus()) + fixture_side_curves()
    counts = {"applicable": 0, "excluded": 0}
    violations: list[str] = []
    pg_taug_worst = 0.0
    cyl_taug_const = True
    enneper_taug_nonconst = False
    for cc in subjects:
        rep = cls.classify_curve_data(cc.curve)
        props = cls.proposition_checks(rep)
        for key, res in props.items():
            if res["excluded"]:
                counts["excluded"] += 1
                continue
            if res["applicable"]:
                counts["applicable"] += 1
                if not res["holds"]:
                    violations.append(f"{cc.name}:{key}")
        if rep.pseudo_geodesic.is_constant:
            dev = float(np.max(np.abs(cc.curve.tau - cc.curve.taug)))
            pg_taug_worst = max(
                pg_taug_worst,
                dev / (1.0 + float(np.max(np.abs(cc.curve.tau)))))
        if cc.name.startswith("cylinder_iso"):
            cyl_taug_const &= cls.constancy_test(cc.curve.taug).is_constant
        if cc.name == "enneper_iso_pi6":
            enneper_taug_nonconst = not cls.constancy_test(
                cc.curve.taug).is_constant
    checks = [
        _check(f"cross-implications hold ({counts['applicable']} applicable,"
               f" {counts['excluded']} excluded)", not violations,
               float(len(violations)), "0 violations"),
        _check("tau = taug on pseudo-geodesics", pg_taug_worst < 1e-6,
               pg_taug_worst, "< 1e-6"),
        _check("constant-skew surface: taug constant along isogonals",
               cyl_taug_const, float(cyl_taug_const), "true"),
        _check("non-constant-skew surface: taug varies along an isogonal",
               enneper_taug_nonconst, float(enneper_taug_nonconst), "true"),
    ]
    return ScenarioResult("A3", "curve-class cross-implications", tuple(checks))


def run_a4(overrides=None) -> ScenarioResult:
    """Algebraic identities linking (kn, taug) with the principal
    curvatures, sampled with random coefficients at surface points."""
    rng = np.random.default_rng(20260808)
    surfaces = [make_helix_surface(1.0, np.pi / 4), make_enneper(),
                make_crpc_revolution(2.0, 1), make_bonnet(0.5)]
    pts = []
    for surf in surfaces:
        dom = surf.domain.inset(0.1)
        for t, z in zip(np.linspace(dom.t_min, dom.t_max, 5),
                        np.linspace(dom.z_max, dom.z_min, 5)):
            pts.append((surf, float(t), float(z)))
    worst1 = worst2 = 0.0
    for surf, t, z in pts:
        _jet, _forms, sd = point_shape(surf, t, z)
        k1, k2 = sd.kappa1, sd.kappa2
        for _ in range(100):
            a, b, c, d = rng.uniform(-2, 2, size=4)
            phi = rng.uniform(-np.pi, np.pi)
            cp, sp = np.cos(phi), np.sin(phi)
            kn = k1 * cp * cp + k2 * sp * sp
            taug = (k1 - k2) * cp * sp
            r1 = (sp * cp * (a + b) * kn + (a * sp * sp - b * cp * cp) * taug
                  - sp * cp * (a * k1 + b * k2))
            r2 = ((d * cp + c * sp) * cp * k1 + (d * sp - c * cp) * sp * k2
                  - (c * taug + d * kn))
            worst1 = max(worst1, abs(r1))
            worst2 = max(worst2, abs(r2))
    checks = [
        _check("identity linking kn/taug to a*k1 + b*k2", worst1 < 1e-10,
               worst1, "< 1e-10 (100 draws x 20 points)"),
        _check("identity linking c*taug + d*kn to the principal pair",
               worst2 < 1e-10, worst2, "< 1e-10 (100 draws x 20 points)"),
    ]
    return ScenarioResult("A4", "pointwise algebraic identities", tuple(checks))


SCENARIOS: dict[str, tuple[str, Callable]] = {
    "S1": ("ruled constant-slope surface isogonals", run_s1),
    "S2": ("Enneper isogonal line", run_s2),
    "S3": ("revolution-surface negative case", run_s3),
    "S4": ("Bonnet-surface negative case", run_s4),
    "S5": ("cylinder isogonals are geodesic helices", run_s5),
    "S6": ("Enneper geodesic family through the origin", run_s6),
    "S7": ("flow properties and tracer cross-validation", run_s7),
    "S8": ("two-surface intersection fixtures", run_s8),
    "A1": ("frame identities over the curve corpus", run_a1),
    "A2": ("closed-form curvature oracles", run_a2),
    "A3": ("curve-class cross-implications", run_a3),
    "A4": ("pointwise algebraic identities", run_a4),
}


def run_scenario(scenario_id: str, overrides=None) -> ScenarioResult:
    sid = scenario_id.upper()
    if sid not in SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario '{scenario_id}'; "
                                   f"choices: {', '.join(SCENARIOS)} or 'all'")
    _title, fn = SCENARIOS[sid]
    return fn(overrides)


def render_result(result: ScenarioResult) -> str:
    lines = [f"[{result.scenario_id}] {result.title}"]
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"  {status}  {c.name}: measured {c.measured:.6g} "
                     f"(bound {c.bound})")
    lines.append(f"  => {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines)
