"""Seeded input plans and ops of the three surftrace workloads.

A workload builds its surfaces once (set-up), then, for each pass ``k``,
draws that pass's inputs from ``numpy.random.default_rng([seed, k])``.  The
strata and their sizes are fixed; only the drawn parameters change with the
seed, so every seed asks for the same amount of work of the same kinds.
Passes of one run draw different inputs, so the ``gallery`` CRPC height
cache sees no point twice that one CLI call would not repeat.

Each op has two parts.  ``run`` makes only public surftrace calls and is
the part that is timed; it wraps each call in a span of the recorder.
``check`` then validates the outputs outside the timed region and returns
``Check`` records: gated checks decide correctness, and every check with a
numeric bound contributes ``measured/bound`` to the accuracy margin.
"""
from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from surftrace import (classify, core, darboux, exporters, gallery,
                       intersect, scenarios, tracer)

import bounds

#: sample step and requested arc length of every trace_mix curve; the step
#: is the ``surftrace trace`` default, and the span is split at a drawn point
TRACE_STEP = 2e-3
CURVE_LENGTH = 1.0

#: bounds taken from the scenario catalogue: isogonal phi constancy (S3, S4),
#: curvature-oracle agreement (A2), fixture residuals (S8) and the Liouville
#: residual (A1); the pseudo-geodesic invariant uses the classifier's
#: geodesic-flag scale
PHI_BOUND = 1e-8
PG_INVARIANT_BOUND = classify.FLAG_TOL
ORACLE_BOUND = 1e-8
FIXTURE_BOUND = 1e-6
LIOUVILLE_BOUND = 1e-6

#: lowest t on which each listed surface's isogonal stratum is traced.
#: ``classify_curve_data`` raises ``NonUnitSpeedError`` on crpc_revolution
#: isogonals that wind in toward the axis (the chart edge t = 0.05): its
#: Frenet oracle differences the positions, and at step 2e-3 the stencil
#: error near the axis, up to 2.6e-4, exceeds its 1e-4 unit-speed
#: tolerance.  About one such draw in eight failed, so the failed count of
#: a timed run depended on how many passes it reached.  On t >= 0.2 the
#: worst stencil error over 480 draws was 3.0e-5.  The defect itself is
#: reproduced by ``--self-test`` (``selftest.check_known_defect``).
ISOGONAL_T_MIN = {"crpc_revolution": 0.2}

#: query points per curvature map, as-built and position-only
MAP_POINTS = 300
#: random grid points per surface_class_probe
PROBE_POINTS = 36
#: name of the ungated check that carries core.fd_oracle_err
FD_ERROR = "position-only oracle error"
#: parameter draws per intersection fixture and pass, and the drawn
#: parameter's range, kept clear of tangent and coincident surfaces
FIXTURE_DRAWS = 2
FIXTURE_PARAMS = {
    "sphere_plane": ("h", -0.8, 0.8),
    "sphere_sphere": ("d", 0.5, 1.5),
    "cylinder_plane": ("tilt", 0.0, 1.0),
}


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    margin: float | None = None   # measured/bound; None for boolean checks
    gated: bool = True
    value: float | None = None    # a reported measurement without a bound


@dataclass
class Op:
    stratum: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list[Check]]


def _upper(name: str, measured: float, bound: float, gated: bool = True) -> Check:
    return Check(name, measured < bound or not gated, measured / bound, gated)


def _uniform_point(rng, domain) -> tuple[float, float]:
    return (float(rng.uniform(domain.t_min, domain.t_max)),
            float(rng.uniform(domain.z_min, domain.z_max)))


def build_surfaces(recorder) -> dict[str, core.SurfaceDef]:
    """Every catalogue surface with default parameters.

    In the traced run the charts are wrapped to count evaluations.
    """
    out = {}
    for name, ctor in gallery.CATALOGUE.items():
        s = ctor()
        if recorder.enabled:
            w = recorder.charts.wrap
            s = dataclasses.replace(s, jet=w(s.jet), position=w(s.position))
        out[name] = s
    return out


# ---------------------------------------------------------------------------
# trace_mix
# ---------------------------------------------------------------------------

def trace_chart(surface, mode: str):
    """The chart a trace_mix stratum is traced on (see ISOGONAL_T_MIN)."""
    t_min = ISOGONAL_T_MIN.get(surface.name) if mode == "isogonal" else None
    if t_min is None:
        return surface
    d = surface.domain
    return dataclasses.replace(
        surface, domain=core.Domain(t_min, d.t_max, d.z_min, d.z_max))


def trace_mix_plan(surfaces, seed: int, k: int) -> list[tuple[str, dict]]:
    """One request per (surface, mode) stratum: 22 per pass."""
    rng = np.random.default_rng([seed, k])
    plan = []
    for name, s in surfaces.items():
        modes = (("pseudo_geodesic", "geodesic") if s.totally_umbilic
                 else ("isogonal", "pseudo_geodesic", "geodesic"))
        for mode in modes:
            start = _uniform_point(rng, trace_chart(s, mode).domain.inset(0.25))
            back = float(rng.uniform(0.25, 0.75)) * CURVE_LENGTH
            angle = float(rng.uniform(-math.pi, math.pi))
            theta = float(rng.uniform(-1.2, 1.2))
            # angles from E1 are undefined on totally umbilic charts
            direction = ((math.cos(angle), math.sin(angle))
                         if s.totally_umbilic else angle)
            params = {"start": start, "s_span": (-back, CURVE_LENGTH - back),
                      "step": TRACE_STEP}
            if mode == "isogonal":
                params["phi"] = angle
            else:
                params["direction"] = direction
                params["theta"] = theta if mode == "pseudo_geodesic" else 0.0
            plan.append((f"{name}/{mode}", params))
    return plan


def _trace_request(surface, mode: str, p: dict) -> tracer.TraceRequest:
    if mode == "isogonal":
        m = tracer.IsogonalMode(p["phi"])
    elif mode == "pseudo_geodesic":
        m = tracer.PseudoGeodesicMode(p["theta"], p["direction"])
    else:
        m = tracer.GeodesicMode(p["direction"])
    return tracer.TraceRequest(surface, p["start"], m, s_span=p["s_span"],
                               step=p["step"])


def _trace_op(stratum: str, surface, params: dict) -> Op:
    mode = stratum.split("/")[1]
    surface = trace_chart(surface, mode)
    req = _trace_request(surface, mode, params)

    def run(rec):
        with rec.span("tracer.trace") as sp:
            tr = tracer.trace(req)
        sp.note(samples=len(tr), exit=tr.exit.kind)
        with rec.span("darboux.curve_scalars_from_trace") as sp:
            cd = darboux.curve_scalars_from_trace(surface, tr)
        sp.note(samples=len(cd))
        with rec.span("classify.classify_curve_data"):
            classify.classify_curve_data(cd)
        return cd

    def check(cd) -> list[Check]:
        if mode == "isogonal":
            err = (cd.phi - params["phi"] + math.pi) % (2 * math.pi) - math.pi
            checks = [_upper("phi constant", float(np.max(np.abs(err))),
                             PHI_BOUND)]
        else:
            th = params["theta"]
            inv = np.abs(cd.kg * math.cos(th) - cd.kn * math.sin(th)) / (1 + cd.kappa)
            checks = [_upper("normal angle invariant", float(np.max(inv)),
                             PG_INVARIANT_BOUND)]
        if surface.oracle is not None:
            res = darboux.liouville_residuals(surface, cd)
            checks.append(_upper("Liouville residual", float(np.max(np.abs(res))),
                                 LIOUVILLE_BOUND, gated=False))
        return checks

    return Op(stratum, run, check)


# ---------------------------------------------------------------------------
# analyze_mix
# ---------------------------------------------------------------------------

def analyze_mix_plan(surfaces, seed: int, k: int) -> list[tuple[str, dict]]:
    """Curvature maps, intersection fixtures, class probes and OBJ exports."""
    rng = np.random.default_rng([seed, k])
    plan = []
    for name, s in surfaces.items():
        if s.oracle is None:
            continue
        dom = s.domain.inset(0.05)
        for chart in ("analytic", "position_only"):
            pts = [_uniform_point(rng, dom) for _ in range(MAP_POINTS)]
            plan.append((f"map/{name}/{chart}", {"points": pts}))
    for fixture, (key, lo, hi) in FIXTURE_PARAMS.items():
        for _ in range(FIXTURE_DRAWS):
            plan.append((f"fixture/{fixture}",
                         {key: float(rng.uniform(lo, hi))}))
    for name, s in surfaces.items():
        dom = s.domain.inset(0.1)
        pts = [_uniform_point(rng, dom) for _ in range(PROBE_POINTS)]
        plan.append((f"probe/{name}", {"points": pts}))
    for name in surfaces:
        plan.append((f"obj/{name}", {"grid": (50, 50)}))
    return plan


def _oracle_error(surface, points, kappas) -> float:
    worst = 0.0
    for (t, z), got in zip(points, kappas):
        ora = sorted((surface.oracle.k1(t, z), surface.oracle.k2(t, z)))
        for o, g in zip(ora, got):
            worst = max(worst, abs(o - g) / (1.0 + abs(o)))
    return worst


def _map_op(stratum: str, surface, params: dict) -> Op:
    position_only = stratum.endswith("position_only")
    chart = dataclasses.replace(surface, jet=None) if position_only else surface
    points = params["points"]
    span_name = "core.point_shape[fd]" if position_only else "core.point_shape"

    def run(rec):
        with rec.span(span_name) as sp:
            kappas = []
            for t, z in points:
                sd = core.point_shape(chart, t, z)[2]
                kappas.append((sd.kappa1, sd.kappa2))
        sp.note(calls=len(points))
        return kappas

    def check(kappas) -> list[Check]:
        err = _oracle_error(surface, points, kappas)
        if position_only:
            # the finite-difference jet has no catalogue bound; it is
            # reported as core.fd_oracle_err, not gated
            return [Check(FD_ERROR, True, gated=False, value=err)]
        return [_upper("oracle curvature agreement", err, ORACLE_BOUND)]

    return Op(stratum, run, check)


def _verdicts(rep: classify.ClassificationReport) -> tuple:
    return (None if rep.isogonal is None else rep.isogonal.is_constant,
            rep.pseudo_geodesic.is_constant, rep.geodesic,
            rep.line_of_curvature, rep.asymptotic, rep.planar,
            rep.helix.is_helix, rep.crpc_along.dependent,
            rep.kntg_dep.dependent, rep.cskc_along.is_constant)


def _fixture_op(stratum: str, params: dict, scratch: str, index: int,
                pass_state: dict) -> Op:
    name = stratum.split("/")[1]
    path = os.path.join(scratch, f"fixture{index}.csv")

    def run(rec):
        with rec.span("intersect.make_fixture"):
            fx = intersect.make_fixture(name, **params)
        with rec.span("intersect.analyze_intersection"):
            rep = intersect.analyze_intersection(fx.m, fx.mbar, fx.curve)
        with rec.span("classify.classify_curve_data"):
            v_m = classify.classify_curve_data(rep.curve_m)
        with rec.span("classify.classify_curve_data"):
            classify.classify_curve_data(rep.curve_mbar)
        with rec.span("exporters.write_trace_csv") as sp:
            exporters.write_trace_csv(path, rep.curve_m)
        if rec.enabled:
            sp.note(bytes=os.path.getsize(path))
        with rec.span("exporters.read_trace_csv"):
            back = exporters.read_trace_csv(path, fx.m)
        with rec.span("classify.classify_curve_data"):
            v_back = classify.classify_curve_data(back)
        pass_state.setdefault("curves", []).append(fx.curve.spatial)
        return rep, v_m, v_back

    def check(out) -> list[Check]:
        rep, v_m, v_back = out
        return [_upper("xi = eps(theta_bar - theta) residual",
                       rep.angle_residual, FIXTURE_BOUND),
                _upper("xi' = eps(taug - taug_bar) residual",
                       rep.relation_residual, FIXTURE_BOUND),
                Check("CSV round trip keeps the verdicts",
                      _verdicts(v_m) == _verdicts(v_back))]

    return Op(stratum, run, check)


def _probe_op(stratum: str, surface, params: dict) -> Op:
    grid = params["points"]

    def run(rec):
        with rec.span("classify.surface_class_probe"):
            return classify.surface_class_probe(surface, grid)

    def check(res) -> list[Check]:
        if surface.oracle is None:
            # no closed form (sphere): totally umbilic, so degenerate CRPC
            return [Check("umbilic everywhere", res["umbilic_fraction"] == 1.0),
                    Check("degenerate CRPC", res["crpc"].degenerate)]
        k = np.array([sorted((surface.oracle.k1(t, z), surface.oracle.k2(t, z)))
                      for t, z in grid])
        want_crpc = classify.linear_dependence_test(k[:, 0], k[:, 1]).dependent
        want_cskc = classify.constancy_test(k[:, 0] - k[:, 1]).is_constant
        return [Check("CRPC verdict matches the oracle",
                      res["crpc"].dependent == want_crpc),
                Check("CSkC verdict matches the oracle",
                      res["cskc"].is_constant == want_cskc)]

    return Op(stratum, run, check)


def _obj_op(stratum: str, surface, params: dict, scratch: str,
            pass_state: dict) -> Op:
    path = os.path.join(scratch, f"{surface.name}.obj")
    nt, nz = params["grid"]

    def run(rec):
        curves = list(pass_state.get("curves", ()))
        with rec.span("exporters.write_obj") as sp:
            exporters.write_obj(path, surface, curves, grid=(nt, nz))
        if rec.enabled:
            sp.note(bytes=os.path.getsize(path))
        return curves

    def check(curves) -> list[Check]:
        # one object line and one vertex line per point, two triangles per
        # grid cell, and an object line plus a polyline line per curve
        want = (1 + nt * nz + 2 * (nt - 1) * (nz - 1)
                + sum(len(c) + 2 for c in curves))
        with open(path, encoding="utf-8") as fh:
            got = sum(1 for _ in fh)
        return [Check("OBJ line count", got == want)]

    return Op(stratum, run, check)


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

def verify_all_plan(surfaces, seed: int, k: int) -> list[tuple[str, dict]]:
    """The scenario catalogue in SCENARIOS order; it takes no drawn input."""
    return [(f"scenario/{sid}", {}) for sid in scenarios.SCENARIOS]


def _scenario_op(stratum: str) -> Op:
    sid = stratum.split("/")[1]

    def run(rec):
        with rec.span(f"scenarios.{sid}"):
            return scenarios.run_scenario(sid)

    def check(result) -> list[Check]:
        out = []
        for c in result.checks:
            try:
                parsed = bounds.parse_bound(c.bound)
            except ValueError:
                out.append(Check(f"{sid}: bound of {c.name!r} parses", False))
                continue
            m = None if parsed is None else bounds.margin(c.measured, *parsed)
            out.append(Check(f"{sid}: {c.name}", c.passed, m))
        return out

    return Op(stratum, run, check)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    plan: Callable
    min_passes: int
    max_passes: int | None


WORKLOADS = {
    "trace_mix": Workload(trace_mix_plan, 3, None),
    "analyze_mix": Workload(analyze_mix_plan, 3, None),
    # one pass takes minutes, so a run is always exactly one pass
    "verify_all": Workload(verify_all_plan, 1, 1),
}


def build_ops(workload: str, surfaces, plan, scratch: str) -> list[Op]:
    """Bind one pass's plan to ops; ``pass_state`` carries fixture curves
    from the fixture ops to the OBJ exports of the same pass."""
    pass_state: dict = {}
    ops = []
    for i, (stratum, params) in enumerate(plan):
        kind = stratum.split("/")[0]
        if workload == "trace_mix":
            ops.append(_trace_op(stratum, surfaces[kind], params))
        elif kind == "map":
            ops.append(_map_op(stratum, surfaces[stratum.split("/")[1]], params))
        elif kind == "fixture":
            ops.append(_fixture_op(stratum, params, scratch, i, pass_state))
        elif kind == "probe":
            ops.append(_probe_op(stratum, surfaces[stratum.split("/")[1]], params))
        elif kind == "obj":
            ops.append(_obj_op(stratum, surfaces[stratum.split("/")[1]], params,
                               scratch, pass_state))
        else:
            ops.append(_scenario_op(stratum))
    return ops
