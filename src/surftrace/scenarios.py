"""Named verification scenarios binding gallery surfaces, traces,
classifiers and tolerances into reproducible pass/fail reports.

S1..S8 cover the curve-level behaviors (isogonal lines on the ruled
constant-slope surface and on Enneper are pseudo-geodesic helices, the
revolution and Bonnet counterexamples, cylinder geodesics, the Enneper
geodesic family, flow properties, two-surface fixtures); A1..A4 are
corpus-wide suites (frame identities, closed-form curvature oracles,
cross-implication checks, algebraic identities).

The curves scenarios share are rows of `CURVES`, each traced at most once
per process by `traced`; `corpus()` is the table and a plane circle.  S7's
flow-property traces and `isogonal_map` probes and S8's fixtures are not rows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Mapping, Optional

import numpy as np

from . import classify as cls
from .classify import ScenarioCheck
from .core import SurfaceDef, shape_arrays
from .darboux import (CurveData, curve_scalars, curve_scalars_from_trace,
                      liouville_residuals)
from .errors import DegenerateParameterError, UnknownScenarioError
from .gallery import (make_bonnet, make_catenoid, make_crpc_revolution,
                      make_cylinder, make_enneper, make_helix_surface,
                      make_plane, make_sphere)
from .intersect import IntersectionReport, analyze_intersection, make_fixture
from .numdiff import unwrap
from .tracer import (GeodesicMode, IsogonalMode, Mode, PseudoGeodesicMode,
                     Trace, TraceRequest, chart_to_principal_angle,
                     isogonal_map, trace)


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
    trace: Optional[Trace] = None      # None for an analytic curve


_below, _above, _at_least = (partial(cls._bounded, op)
                             for op in ("<", ">", ">="))


def _holds(name: str, flag: bool) -> ScenarioCheck:
    return ScenarioCheck(name, bool(flag), float(flag), "true")


def _helices(curves: list[CurveData]) -> tuple[ScenarioCheck, ...]:
    """The generalized-helix checks S1 and S5 make on a family of curves."""
    return (
        _below("kappa-tau dependence residual",
               max(cls.linear_dependence_test(cd.kappa, cd.tau).residual
                   for cd in curves), 1e-6),
        _holds("classified generalized helix (all angles)",
               all(cls.classify_curve_data(cd).helix.is_helix
                   for cd in curves)),
    )


def _theta_dev(curve: CurveData) -> float:
    return float(np.max(np.abs(curve.theta - np.mean(curve.theta))))


def _phi_dev(curve: CurveData) -> float:
    phi = unwrap(curve.phi)
    return float(np.max(np.abs(phi - phi[0])))


# ---------------------------------------------------------------------------
# curve table and corpus
# ---------------------------------------------------------------------------

#: solver tolerances of every `CURVES` row and of S7's own traces (the
#: stepper raises rtol to its floor, 100 EPS = 2.2e-14)
TABLE_ATOL, TABLE_RTOL = 1e-15, 1e-14


@dataclass(frozen=True)
class CurveSpec:
    """A named curve: gallery constructor and its parameters, flow mode,
    start point, s-span and sample step."""

    name: str
    make: Callable[..., SurfaceDef]
    mode: Mode
    start: tuple[float, float]
    span: tuple[float, float]
    step: float = 2e-3
    params: tuple[tuple[str, float], ...] = ()
    #: the isogonal angle is measured from the t direction, not from E1
    chart_angle: bool = False
    #: the table curve whose uv-velocity at s = 0 is the initial direction
    velocity_of: Optional[str] = None

    def override(self, key: str, value: float) -> "CurveSpec":
        """This spec with the chart angle (``phi_chart``) or a surface
        parameter set to ``value``."""
        if key == "phi_chart":
            return replace(self, mode=replace(self.mode, phi=value))
        return replace(self, params=tuple({**dict(self.params),
                                           key: value}.items()))


def _origin_geodesic(m: float, step: float) -> CurveSpec:
    """The Enneper geodesic through the origin with slope m, traced far
    enough to cover chart parameter |t| <= 1.5."""
    cosp = 1.0 / np.sqrt(1 + m * m)
    s_need = (1.5 + (1 + m * m) * 1.5 ** 3 / 3) / cosp * 1.02
    return CurveSpec(f"enneper_geo_m{m:g}", make_enneper,
                     GeodesicMode((cosp, m * cosp)), (0.0, 0.0),
                     (-s_need, s_need), step, params=(("extent", 3.5),))


#: slopes of the S6 geodesic family, rows ``enneper_geo_m<m>``
_GEODESIC_SLOPES = (0.0, 0.5, 2.0)

CURVES: dict[str, CurveSpec] = {spec.name: spec for spec in (
    # spans shrink as |phi| grows: the rulings run toward the chart's
    # degenerate edge, where curvature derivatives blow up
    *(CurveSpec(f"helix_iso_{tag}", make_helix_surface, IsogonalMode(phi),
                (0.0, 0.0), (-smax, smax))
      for tag, phi, smax in (("a", 0.5, 1.0), ("b", 1.0, 0.85),
                             ("c", -0.7, 1.0), ("d", 1.35, 0.7))),
    CurveSpec("enneper_iso_pi6", make_enneper, IsogonalMode(np.pi / 6),
              (0.0, 1.0), (-1.2, 1.2), chart_angle=True),
    CurveSpec("enneper_iso_asymptotic", make_enneper, IsogonalMode(np.pi / 4),
              (0.3, -0.1), (-0.9, 0.9), chart_angle=True),
    CurveSpec("crpc_iso_pi4", make_crpc_revolution, IsogonalMode(np.pi / 4),
              (0.5, 0.0), (-0.1, 0.6), chart_angle=True),
    CurveSpec("bonnet_iso_pi6", make_bonnet, IsogonalMode(np.pi / 6),
              (0.0, 0.3), (-1.0, 1.0), chart_angle=True),
    CurveSpec("bonnet_iso_curvature_line", make_bonnet, IsogonalMode(0.0),
              (0.4, 0.2), (-0.9, 0.9), chart_angle=True),
    # initial angle away from the asymptotic directions keeps kappa (and
    # hence torsion extraction) well conditioned along the window
    CurveSpec("bonnet_pg", make_bonnet, PseudoGeodesicMode(0.4, 1.25),
              (0.2, 0.1), (-0.7, 0.7)),
    *(CurveSpec(f"cylinder_iso_{tag}", make_cylinder, IsogonalMode(phi),
                (0.0, 0.3), (-1.5, 1.5))
      for tag, phi in (("a", 0.4), ("b", np.pi / 4), ("c", 1.1))),
    *(_origin_geodesic(m, step)
      for m, step in zip(_GEODESIC_SLOPES, (2e-3, 2e-3, 8e-3))),
    CurveSpec("catenoid_iso", make_catenoid, IsogonalMode(0.8),
              (0.2, 0.0), (-0.8, 0.8)),
    CurveSpec("catenoid_pg", make_catenoid, PseudoGeodesicMode(0.5, 1.35),
              (0.1, 0.3), (-0.6, 0.6)),
    CurveSpec("sphere_pg_a", make_sphere,
              PseudoGeodesicMode(np.pi / 4, (0.6, 0.5)), (0.2, 0.1),
              (-1.0, 1.0)),
    CurveSpec("sphere_pg_b", make_sphere,
              PseudoGeodesicMode(-0.5, (1.0, -0.3)), (-0.1, 0.4),
              (-1.0, 1.0)),
    CurveSpec("enneper_pg_matching_iso", make_enneper,
              PseudoGeodesicMode(float(np.arctan(-np.sqrt(3.0)))),
              (0.0, 1.0), (-1.2, 1.2), velocity_of="enneper_iso_pi6"),
)}

#: config overrides: ``<id>.<key> = value`` sets ``key`` (``phi_chart`` or a
#: surface parameter) on every curve scenario <id> looks up
OVERRIDES: dict[str, tuple[str, ...]] = {
    "s1": ("r_beta", "phi0"),
    "s2": ("phi_chart",),
    "s3": ("c", "eps", "phi_chart"),
    "s4": ("a", "phi_chart"),
    "s5": ("r",),
    "s6": ("extent",),
}


# room for the whole table plus one overridden copy of every row
@lru_cache(maxsize=2 * len(CURVES))
def traced(spec: CurveSpec) -> CorpusCurve:
    """The curve ``spec`` names, traced with its Darboux data.  Each spec
    is traced once per process and every caller shares the result, so no
    caller may write to its arrays."""
    surface = spec.make(**dict(spec.params))
    mode = spec.mode
    if spec.chart_angle:
        mode = replace(mode, phi=chart_to_principal_angle(surface, spec.start,
                                                          mode.phi))
    if spec.velocity_of is not None:
        source = traced(CURVES[spec.velocity_of]).trace
        v0 = source.uv_vel[source.index_of(0.0)]
        mode = replace(mode, initial_dir=(float(v0[0]), float(v0[1])))
    tr = trace(TraceRequest(surface, spec.start, mode, s_span=spec.span,
                            step=spec.step, atol=TABLE_ATOL, rtol=TABLE_RTOL))
    return CorpusCurve(spec.name, surface,
                       curve_scalars_from_trace(surface, tr), tr)


def _plane_circle() -> CorpusCurve:
    """The circle of radius 2 about (0.5, -0.3) on the plane, s in
    [-1.2, 1.2] at step 2e-3."""
    plane = make_plane()
    s = 2e-3 * np.arange(1201) - 1.2
    psi = s / 2.0
    uv = np.column_stack([0.5 + 2.0 * np.cos(psi), -0.3 + 2.0 * np.sin(psi)])
    vel = np.column_stack([-np.sin(psi), np.cos(psi)])
    acc = np.column_stack([-np.cos(psi) / 2.0, -np.sin(psi) / 2.0])
    cd = curve_scalars(plane, s, uv, vel, acc)
    return CorpusCurve("plane_circle", plane, cd)


def corpus() -> tuple[CorpusCurve, ...]:
    """The standard curve corpus used by the suite-level checks: every
    `CURVES` row in table order, then an analytic plane circle."""
    return (*(traced(spec) for spec in CURVES.values()), _plane_circle())


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
    return [CorpusCurve(f"{fx.name}_in_{side}", surface, cd)
            for fx, rep in _fixtures()
            for side, surface, cd in (("m", fx.m, rep.curve_m),
                                      ("mbar", fx.mbar, rep.curve_mbar))]


# ---------------------------------------------------------------------------
# scenarios S1..S8; each takes ``spec``, the table lookup with the
# scenario's overrides applied, and returns its checks
# ---------------------------------------------------------------------------

SpecLookup = Callable[[str], CurveSpec]


def run_s1(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Isogonal lines on the ruled constant-slope surface: constant normal
    angle (pseudo-geodesic) and linearly dependent (kappa, tau) (helix)."""
    curves = [traced(spec(f"helix_iso_{tag}")).curve for tag in "abcd"]
    return (_below("theta constancy (max dev over 4 angles)",
                   max(_theta_dev(cd) for cd in curves), 1e-6),
            *_helices(curves))


def run_s2(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Enneper isogonal with chart angle pi/6 from (0, 1): straight chart
    preimage, tan(theta) = -sqrt(3), helix classification."""
    iso = spec("enneper_iso_pi6")
    cc = traced(iso)
    uv, cd = cc.trace.uv, cc.curve
    slope = np.tan(iso.mode.phi)
    line_res = np.max(np.abs(uv[:, 1] - slope * uv[:, 0] - 1.0))
    tan_err = abs(np.tan(np.mean(cd.theta)) + np.sqrt(3.0))
    rep = cls.classify_curve_data(cd)
    return (
        _below("chart preimage is the line z = tan(phi) t + 1", line_res,
               1e-8),
        _below("theta constancy", _theta_dev(cd), 1e-6),
        _below("tan(theta) = -sqrt(3)", tan_err, 1e-6),
        _below("kappa-tau dependence residual",
               cls.linear_dependence_test(cd.kappa, cd.tau).residual, 1e-6),
        _holds("classified generalized helix", rep.helix.is_helix),
        _holds("classified isogonal + pseudo-geodesic, not curvature line",
               rep.isogonal.is_constant and rep.pseudo_geodesic.is_constant
               and not rep.line_of_curvature),
    )


def run_s3(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Isogonal on the constant-curvature-ratio revolution surface is NOT
    a pseudo-geodesic: theta drifts far beyond tolerance."""
    cd = traced(spec("crpc_iso_pi4")).curve
    return (_below("isogonal (phi constant)", _phi_dev(cd), 1e-8),
            _above("theta max deviation exceeds 0.05 rad", _theta_dev(cd),
                   0.05))


def run_s4(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Isogonal on the Bonnet surface is NOT a pseudo-geodesic."""
    cd = traced(spec("bonnet_iso_pi6")).curve
    verdict = cls.constancy_test(cd.theta)
    return (_below("isogonal (phi constant)", _phi_dev(cd), 1e-8),
            _above("theta deviation exceeds 10x constancy tolerance",
                   verdict.max_dev / verdict.tolerance_used, 10))


def run_s5(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Cylinder isogonals are geodesics (|theta| ~ 0) and helices."""
    curves = [traced(spec(f"cylinder_iso_{tag}")).curve for tag in "abc"]
    return (_below("geodesic: max |theta| over 3 angles",
                   max(np.max(np.abs(cd.theta)) for cd in curves), 1e-6),
            *_helices(curves))


def run_s6(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Geodesics of the Enneper surface through the origin: closed-form
    cubic family, helix axis (m, 1, 0)/sqrt(1+m^2), axis orthogonal to the
    surface normal along the curve."""
    checks = []
    for m in _GEODESIC_SLOPES:
        cc = traced(spec(f"enneper_geo_m{m:g}"))
        cd = cc.curve
        t_par = cc.trace.uv[:, 0]
        mask = np.abs(t_par) <= 1.5
        family = np.column_stack([
            3 * t_par + (3 * m * m - 1) * t_par ** 3,
            m * (3 * t_par - (m * m - 3) * t_par ** 3),
            3 * (1 - m * m) * t_par ** 2]) / 3.0
        fam_res = np.max(np.linalg.norm(cd.pos[mask] - family[mask], axis=1))
        rep = cls.classify_curve_data(cd)
        w = np.array([m, 1.0, 0.0]) / np.sqrt(1 + m * m)
        axis = rep.helix.axis.copy()
        if float(axis @ w) < 0:
            axis = -axis
        checks += [
            _at_least(f"m={m:g}: covers |t| <= 1.5", np.max(np.abs(t_par)),
                      1.5),
            _below(f"m={m:g}: matches cubic family", fam_res, 1e-6),
            _below(f"m={m:g}: helix axis within 1e-5 of (m,1,0)/|.|",
                   np.max(np.abs(axis - w)), 1e-5),
            _below(f"m={m:g}: |<axis, N>| below 1e-6",
                   np.max(np.abs(cd.normal @ axis)), 1e-6),
        ]
    return tuple(checks)


def _uv_gap(a: Trace, b: Trace) -> float:
    """Largest chart-coordinate difference between two equal-length traces."""
    return float(np.max(np.abs(a.uv - b.uv)))


def run_s7(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Isogonal-flow properties and tracer cross-validation: speed
    homogeneity, identity differential of the flow map, tolerance
    robustness, time reversal, and pseudo-geodesic/geodesic consistency."""
    enn = make_enneper()
    hel = make_helix_surface(1.0, np.pi / 4)
    cat = make_catenoid()

    def fine(mode, span, step=2e-3, surface=enn, start=(0.3, 0.2)):
        return trace(TraceRequest(surface, start, mode, s_span=span,
                                  step=step, atol=TABLE_ATOL,
                                  rtol=TABLE_RTOL))

    phi = -0.9
    base = fine(IsogonalMode(phi), (0.0, 1.0), 4e-3)
    fast = fine(IsogonalMode(phi, 2.0), (0.0, 0.5))
    slow = fine(IsogonalMode(phi, 0.5), (0.0, 1.0), 4e-3)
    half = fine(IsogonalMode(phi), (0.0, 0.5))
    dev2 = np.max(np.abs(fast.uv - base.uv[:len(fast.uv)]))
    checks = [
        _below("speed-2 flow equals reparametrized unit flow", dev2, 1e-8),
        _below("speed-1/2 flow equals reparametrized unit flow",
               _uv_gap(slow, half), 1e-8),
        ScenarioCheck("flow map fixes the base point at v = 0",
                      isogonal_map(enn, (0.3, 0.2), (0.0, 0.0)) == (0.3, 0.2),
                      0.0, "exact"),
    ]
    h = 1e-4
    for surf, uv in ((enn, (0.3, 0.2)), (hel, (0.2, 0.1))):
        jac = np.column_stack([
            np.subtract(isogonal_map(surf, uv, dv),
                        isogonal_map(surf, uv, (-dv[0], -dv[1]))) / (2 * h)
            for dv in ((h, 0.0), (0.0, h))])
        checks.append(_below(
            f"flow-map differential is the identity on {surf.name}",
            np.max(np.abs(jac - np.eye(2))), 1e-4))

    ta, tb = (trace(TraceRequest(enn, (0.0, 1.0), IsogonalMode(-np.pi / 3),
                                 s_span=(-1.2, 1.2), step=2e-3, atol=atol,
                                 rtol=rtol))
              for atol, rtol in ((1e-10, 1e-9), (1e-12, 1e-11)))
    checks.append(_below("trace reproducibility across solver tolerances",
                         _uv_gap(ta, tb), 1e-7))

    back = fine(IsogonalMode(phi), (-1.0, 0.0))
    reflected = fine(IsogonalMode(phi + np.pi), (0.0, 1.0))
    checks.append(_below(
        "time reversal equals reflected negated-velocity trace",
        np.max(np.abs(back.uv[::-1] - reflected.uv)), 1e-8))

    checks.append(_below(
        "pseudo-geodesic at theta = atan(-sqrt(3)) reproduces the isogonal",
        _uv_gap(traced(spec("enneper_pg_matching_iso")).trace,
                traced(spec("enneper_iso_pi6")).trace), 1e-6))

    # catenoid meridians are both principal (phi = 0) lines and geodesics,
    # so two different flows from the same start velocity must agree
    gaps = []
    for start in ((0.2, 0.0), (0.3, 0.5)):
        meridian = fine(IsogonalMode(0.0), (-0.8, 0.8), surface=cat,
                        start=start)
        v0 = meridian.uv_vel[meridian.index_of(0.0)]
        geo = fine(GeodesicMode((float(v0[0]), float(v0[1]))), (-0.8, 0.8),
                   surface=cat, start=start)
        gaps.append(_uv_gap(geo, meridian))
    checks.append(_below("geodesic equals catenoid meridian isogonal "
                         "(phi = 0)", max(gaps), 1e-9))

    # geodesics are traced as theta = 0 pseudo-geodesics
    drift = max(np.max(np.abs(np.linalg.norm(cc.curve.T, axis=1) - 1.0))
                for cc in corpus() if cc.trace is not None
                and isinstance(cc.trace.request.mode, PseudoGeodesicMode))
    checks.append(_below("unit-speed drift over pseudo-geodesic corpus",
                         drift, 1e-7))
    return tuple(checks)


def run_s8(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Two-surface fixtures: the normal-angle relation, its derivative
    (geodesic-torsion difference), and constant-angle transfer of the
    pseudo-geodesic property."""
    checks = []
    for name, rep in fixture_reports().items():
        pg_m, pg_b = (cls.classify_curve_data(cd).pseudo_geodesic.is_constant
                      for cd in (rep.curve_m, rep.curve_mbar))
        angle = rep.constant_angle
        checks += [_below(f"{name}: xi = eps(theta_bar - theta) residual",
                          rep.angle_residual, 1e-6),
                   _below(f"{name}: xi' = eps(taug - taug_bar) residual",
                          rep.relation_residual, 1e-6)]
        if name == "cylinder_plane":
            checks += [ScenarioCheck(f"{name}: xi NOT constant",
                                     bool(not angle.is_constant),
                                     float(angle.max_dev), "> tol"),
                       _holds(f"{name}: cylinder side NOT pseudo-geodesic",
                              not pg_m),
                       _holds(f"{name}: plane side pseudo-geodesic", pg_b)]
        else:
            checks += [ScenarioCheck(f"{name}: xi constant",
                                     bool(angle.is_constant),
                                     float(angle.max_dev), "<= tol"),
                       _holds(f"{name}: pseudo-geodesic on both sides",
                              pg_m and pg_b)]
    return tuple(checks)


# ---------------------------------------------------------------------------
# suite scenarios A1..A4
# ---------------------------------------------------------------------------

#: the gallery surfaces with curvature oracles, at default parameters
_ORACLE_SURFACES = (make_helix_surface, make_enneper, make_crpc_revolution,
                    make_bonnet)


def run_a1(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Frame identities across the corpus: kappa^2 = kg^2 + kn^2 and the
    coordinate-frame curvature decomposition residual."""
    curves = corpus()
    pyth = max(float(np.max(np.abs(cd.kappa ** 2 - (cd.kg ** 2 + cd.kn ** 2))
                            / (1 + cd.kappa ** 2)))
               for cd in (cc.curve for cc in curves))
    oracle = [cc for cc in curves if cc.surface.oracle is not None]
    liouville = max(float(np.max(np.abs(liouville_residuals(cc.surface,
                                                            cc.curve))))
                    for cc in oracle)
    return (
        _at_least(f"corpus size (got {len(curves)})", len(curves), 20,
                  "curves"),
        _below("kappa^2 = kg^2 + kn^2 (normalized residual)", pyth, 1e-8),
        _below(f"coordinate-frame curvature residual ({len(oracle)} curves)",
               liouville, 1e-6),
    )


def run_a2(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Closed-form curvature oracles vs the generic shape pipeline at 200
    interior grid points per gallery surface."""
    checks = []
    for surf in (make() for make in _ORACLE_SURFACES):
        dom = surf.domain.inset(0.05)
        t, z = (g.ravel() for g in np.meshgrid(
            np.linspace(dom.t_min, dom.t_max, 20),
            np.linspace(dom.z_min, dom.z_max, 10), indexing="ij"))
        sd = shape_arrays(surf, t, z)[2]
        ora = np.sort(np.broadcast_arrays(surf.oracle.k1(t, z),
                                          surf.oracle.k2(t, z)), axis=0)
        got = np.array([sd.kappa1, sd.kappa2])
        worst = float(np.max(np.abs(ora - got) / (1.0 + np.abs(ora))))
        checks.append(_below(f"{surf.name}: oracle curvature agreement",
                            worst, 1e-8, "(200 points)"))
    return tuple(checks)


def run_a3(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Cross-implication checks between curve classes over the corpus and
    the fixture sides; curves with a borderline flag are excluded."""
    subjects = [*corpus(), *fixture_side_curves()]
    reports = [cls.classify_curve_data(cc.curve) for cc in subjects]
    props = [(f"{cc.name}:{key}", res) for cc, rep in zip(subjects, reports)
             for key, res in cls.proposition_checks(rep).items()]
    excluded = sum(bool(res["excluded"]) for _, res in props)
    applicable = [(name, res) for name, res in props
                  if not res["excluded"] and res["applicable"]]
    violations = [name for name, res in applicable if not res["holds"]]
    pg_taug = [float(np.max(np.abs(cc.curve.tau - cc.curve.taug)))
               / (1.0 + float(np.max(np.abs(cc.curve.tau))))
               for cc, rep in zip(subjects, reports)
               if rep.pseudo_geodesic.is_constant]
    cylinder_iso = [cc.curve for cc in subjects
                    if cc.name.startswith("cylinder_iso")]
    enneper_iso = traced(spec("enneper_iso_pi6")).curve
    return (
        ScenarioCheck(f"cross-implications hold ({len(applicable)} "
                      f"applicable, {excluded} excluded)",
                      not violations, float(len(violations)), "0 violations"),
        _below("tau = taug on pseudo-geodesics", max(pg_taug, default=0.0),
               1e-6),
        _holds("constant-skew surface: taug constant along isogonals",
               all(cls.constancy_test(cd.taug).is_constant
                   for cd in cylinder_iso)),
        _holds("non-constant-skew surface: taug varies along an isogonal",
               not cls.constancy_test(enneper_iso.taug).is_constant),
    )


def run_a4(spec: SpecLookup) -> tuple[ScenarioCheck, ...]:
    """Algebraic identities linking (kn, taug) with the principal
    curvatures, sampled with random coefficients at surface points."""
    rng = np.random.default_rng(20260808)
    kappas = []
    for surf in (make() for make in _ORACLE_SURFACES):
        dom = surf.domain.inset(0.1)
        sd = shape_arrays(surf, np.linspace(dom.t_min, dom.t_max, 5),
                          np.linspace(dom.z_max, dom.z_min, 5))[2]
        kappas.extend(zip(sd.kappa1.tolist(), sd.kappa2.tolist()))
    worst1 = worst2 = 0.0
    for k1, k2 in kappas:
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
    return (
        _below("identity linking kn/taug to a*k1 + b*k2", worst1, 1e-10,
              "(100 draws x 20 points)"),
        _below("identity linking c*taug + d*kn to the principal pair",
              worst2, 1e-10, "(100 draws x 20 points)"),
    )


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


def scenario_overrides(
        overrides: Mapping[str, str] | None) -> dict[str, dict[str, float]]:
    """The ``<id>.<key>`` entries of ``overrides`` by lower-case scenario
    id, once every one is known to `OVERRIDES` and holds a finite number;
    other entries (``tol_abs``, ...) are not scenario settings."""
    values: dict[str, dict[str, float]] = {}
    for key, text in (overrides or {}).items():
        prefix, _, name = key.lower().partition(".")
        if prefix.upper() not in SCENARIOS:
            continue
        accepted = OVERRIDES.get(prefix, ())
        try:
            value = float(text) if name in accepted else np.nan
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise DegenerateParameterError(
                f"bad scenario override {key} = {text} (accepted: "
                f"{', '.join(accepted) or 'none'}; each a finite number)")
        values.setdefault(prefix, {})[name] = value
    return values


def run_scenario(scenario_id: str, overrides=None) -> ScenarioResult:
    """Run one scenario with its ``<id>.<key>`` config overrides applied."""
    sid = scenario_id.upper()
    if sid not in SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario '{scenario_id}'; "
                                   f"choices: {', '.join(SCENARIOS)} or 'all'")
    title, run = SCENARIOS[sid]
    values = scenario_overrides(overrides).get(sid.lower(), {})

    def spec(name: str) -> CurveSpec:
        out = CURVES[name]
        for key, value in values.items():
            out = out.override(key, value)
        return out

    return ScenarioResult(sid, title, run(spec))


def render_result(result: ScenarioResult) -> str:
    lines = [f"[{result.scenario_id}] {result.title}"]
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"  {status}  {c.name}: measured {c.measured:.6g} "
                     f"(bound {c.bound})")
    lines.append(f"  => {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines)
