"""Properties of isogonal traces over the gallery, checked with Hypothesis.

Each draw is a start in the chart domain inset by 0.25 of each span, a
tangent angle phi from E1 and a split of a unit arc length into its
backward and forward sides, as in the benchmark's trace_mix workload.
A third property follows geodesics and isogonal lines until they leave the
chart.  Another is the paper's theorem: only helix surfaces and the
Enneper surface carry isogonal lines that are pseudo-geodesic generalized
helices.  A cylinder's normals keep a right angle to its axis, so it is a
helix surface too.  Another traces pseudo-geodesics and geodesics, which
must keep their normal angle theta modulo pi.  Another checks the
pseudo-geodesic flow's directional form against the textbook Christoffel
form at random points and velocities, and another scales surfaces
across `gallery.LENGTH_RANGE`: their umbilic flags and E1 must not change.
The last scales a pseudo-geodesic's initial uv-velocity by a power of two
across the float range: the trace must not change, bit for bit.
"""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from surftrace import (CATALOGUE, classify_curve, curve_scalars_from_trace,
                       make_cylinder, make_enneper, make_helix_surface,
                       make_sphere, shape_arrays)
from surftrace.classify import FLAG_TOL, classify_curve_data
from surftrace.core import (Domain, SurfaceDef, SurfaceJet2, point_metric,
                            point_shape, vec3)
from surftrace.gallery import LENGTH_RANGE
from surftrace import stepper, tracer
from surftrace.tracer import (GeodesicMode, IsogonalMode, PseudoGeodesicMode,
                              TraceRequest, trace, trace_isogonal)

from oracles import christoffel

EXIT_KINDS = {"completed", "hit_boundary", "hit_umbilic", "solver_failure"}
SURFACES = {name: make() for name, make in CATALOGUE.items()}
NAMES = [name for name, s in SURFACES.items() if not s.totally_umbilic]

draws = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.floats(-np.pi, np.pi), st.floats(0.25, 0.75))


def inner_point(domain, u, v):
    """The point at fractions (u, v) of ``domain`` inset by 0.25."""
    dom = domain.inset(0.25)
    return (dom.t_min + u * (dom.t_max - dom.t_min),
            dom.z_min + v * (dom.z_max - dom.z_min))


def traced(name, draw):
    surface = SURFACES[name]
    u, v, phi, back = draw
    start = inner_point(surface.domain, u, v)
    return trace_isogonal(TraceRequest(surface, start, IsogonalMode(phi),
                                       s_span=(-back, 1.0 - back)))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25)
@given(draw=draws)
def test_isogonal_trace_properties(name, draw):
    surface = SURFACES[name]
    tr = traced(name, draw)
    assert tr.exit.kind in EXIT_KINDS
    jet, forms, _ = tr.shape
    tp, zp = tr.uv_vel.T
    tpp, zpp = tr.uv_acc.T
    # unit speed in the surface metric
    speed = np.sqrt(forms.E * tp * tp + 2 * forms.F * tp * zp
                    + forms.G * zp * zp)
    assert np.max(np.abs(speed - 1.0)) < 1e-6
    # gamma'' has no tangential part, so kappa^2 = kg^2 + kn^2 holds for
    # the traced acceleration itself
    tangent = jet.d_t * tp + jet.d_z * zp
    acc = (jet.d_tt * tp * tp + 2 * jet.d_tz * tp * zp + jet.d_zz * zp * zp
           + jet.d_t * tpp + jet.d_z * zpp)
    assert np.max(np.abs(np.sum(acc * tangent, axis=0))) < 1e-6
    # the angle from E1 stays phi
    phi = np.unwrap(curve_scalars_from_trace(surface, tr).phi)
    assert np.max(np.abs(phi - phi[0])) < 1e-8


# angles away from the principal directions: |phi| in [0.2, pi/2 - 0.2]
oblique = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                    st.floats(0.2, np.pi / 2 - 0.2), st.sampled_from((-1, 1)),
                    st.floats(0.25, 0.75))
HELICAL = {"helix_surface": True, "enneper": True, "cylinder": True,
           "crpc_revolution": False, "bonnet": False, "catenoid": False}


@pytest.mark.parametrize("name", list(HELICAL))
@settings(max_examples=25)
@given(draw=oblique)
def test_isogonal_helix_pseudo_geodesics_as_the_theorem_says(name, draw):
    u, v, angle, sign, back = draw
    tr = traced(name, (u, v, sign * angle, back))
    rep = classify_curve(SURFACES[name], tr)
    if HELICAL[name]:
        assert rep.pseudo_geodesic.is_constant, rep.pseudo_geodesic
        assert rep.helix.is_helix, rep.helix
    else:
        assert not rep.pseudo_geodesic.is_constant, rep.pseudo_geodesic


# a start, a chart direction, the backward share of a unit arc length and
# theta, None for a geodesic
normal_angles = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                          st.floats(-np.pi, np.pi), st.floats(0.25, 0.75),
                          st.none() | st.floats(-1.2, 1.2))


@pytest.mark.parametrize("name", list(SURFACES))
@settings(max_examples=40, deadline=None)
@given(draw=normal_angles)
@example(draw=(0.0, 0.0, 0.0, 0.5, 1.0))   # on the cylinder, along a ruling
# a chart direction of pi/4 is asymptotic on the isothermal minimal charts
# (enneper, bonnet, catenoid): kappa = 0 at the start sample
@example(draw=(0.6, 0.7, np.pi / 4, 0.5, 0.5))
@example(draw=(0.6, 0.7, np.pi / 4, 0.5, None))
def test_pseudo_geodesics_keep_their_angle_modulo_pi(name, draw):
    # where the tangent passes an asymptotic direction, kg = kn = 0 and
    # atan2(kg, kn) turns by pi between two samples; the lift of theta
    # modulo pi keeps the osculating plane's angle to the normal continuous
    surface = SURFACES[name]
    u, v, angle, back, theta = draw
    direction = (np.cos(angle), np.sin(angle))
    mode = (GeodesicMode(direction) if theta is None
            else PseudoGeodesicMode(theta, direction))
    tr = trace(TraceRequest(surface, inner_point(surface.domain, u, v), mode,
                            s_span=(-back, 1.0 - back)))
    cd = curve_scalars_from_trace(surface, tr)
    rep = classify_curve_data(cd)
    assert rep.pseudo_geodesic.is_constant, rep.pseudo_geodesic
    # a cylinder's ruling (a start along t) is a straight line, as is every
    # curve on the plane: kappa = 0 there and theta = atan2(0, 0) says
    # nothing, since any theta traces the same line
    ruling = name == "cylinder" and angle % np.pi == 0.0
    if ruling:
        assert cd.kappa.max() < 1e-12, cd.kappa.max()
    elif name != "plane":
        off = np.mean(cd.theta) - (theta or 0.0)
        assert abs((off + np.pi / 2) % np.pi - np.pi / 2) < 1e-6, off


#: arc length each way: longer than every gallery chart is wide
LEAVE_SPAN = 40.0
leaving = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                    st.floats(-np.pi, np.pi), st.booleans())


@pytest.mark.parametrize("name", list(SURFACES))
@settings(max_examples=25, deadline=None)
@given(draw=leaving)
def test_boundary_exits_end_on_an_edge(name, draw):
    # a geodesic, or an isogonal line on a chart with principal directions,
    # long enough to leave the chart: each branch ended by the domain event
    # stops on an edge, and no sample lies outside the domain
    surface = SURFACES[name]
    u, v, angle, isogonal = draw
    dom = surface.domain
    start = inner_point(dom, u, v)
    mode = (IsogonalMode(angle) if isogonal and not surface.totally_umbilic
            else GeodesicMode((np.cos(angle), np.sin(angle))))
    branches = []

    def spy(*args):
        both = stepper.integrate(*args)
        branches.extend(br for br in both if br is not None)
        return both

    with mock.patch.object(tracer, "integrate", spy):
        tr = trace(TraceRequest(surface, start, mode, step=0.05,
                                s_span=(-LEAVE_SPAN, LEAVE_SPAN)))
    edges = np.array([dom.t_min, dom.t_max, dom.z_min, dom.z_max], float)
    for br in branches:
        if br.status == 1:
            t, z = br.sample(np.array([br.s]))[0, :2]
            assert np.min(np.abs(np.array([t, t, z, z]) - edges)) < 1e-9
    if tr.exit.kind == "hit_boundary":
        assert tr.exit.s_stop in [br.s for br in branches if br.status == 1]
    t, z = tr.uv.T
    outside = np.maximum.reduce([edges[0] - t, t - edges[1],
                                 edges[2] - z, z - edges[3]])
    assert np.max(outside) <= 1e-9


def sheared(surface, a):
    """The chart (t, w) -> X(t, w + a (t - t_c)) of ``surface``, a != 0 and
    t_c the middle of its t-range, with the jet chained from the surface's.
    The t half-width is capped at z_half / (2 |a|), and the w half-width is
    z_half less |a| times the t half-width, so every point of the new
    domain maps into the surface's."""
    d = surface.domain
    t_c, t_half = (d.t_min + d.t_max) / 2, (d.t_max - d.t_min) / 2
    z_c, z_half = (d.z_min + d.z_max) / 2, (d.z_max - d.z_min) / 2
    t_half = min(t_half, z_half / (2 * abs(a)))
    w_half = z_half - abs(a) * t_half

    def position(t, w):
        return surface.position(t, w + a * (t - t_c))

    def jet(t, w):
        x_t, x_z, x_tt, x_tz, x_zz = map(np.asarray,
                                         surface.jet(t, w + a * (t - t_c)))
        return SurfaceJet2(*(vec3(t, *v) for v in (
            x_t + a * x_z, x_z, x_tt + 2 * a * x_tz + a * a * x_zz,
            x_tz + a * x_zz, x_zz)))

    domain = Domain(t_c - t_half, t_c + t_half, z_c - w_half, z_c + w_half)
    return SurfaceDef(f"{surface.name}_sheared", domain, position, jet)


# a shear |a| in [0.2, 1.2] and its sign, theta, a start and a direction
shears = st.tuples(st.floats(0.2, 1.2), st.sampled_from((-1, 1)),
                   st.floats(-1.2, 1.2), st.floats(0.0, 1.0),
                   st.floats(0.0, 1.0), st.floats(-np.pi, np.pi),
                   st.floats(0.25, 0.75))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None)
@given(draw=shears)
def test_pseudogeodesics_on_sheared_charts_keep_their_angle(name, draw):
    # a sheared chart has F != 0 wherever a X_z^2 + X_t . X_z is nonzero;
    # the covariant flow keeps the normal angle there as on the gallery's
    # own, orthogonal charts, to the benchmark's trace_mix bound
    shear, sign, theta, u, v, angle, back = draw
    surface = sheared(SURFACES[name], sign * shear)
    start = inner_point(surface.domain, u, v)
    tr = trace(TraceRequest(surface, start, PseudoGeodesicMode(
        theta, (np.cos(angle), np.sin(angle))), s_span=(-back, 1.0 - back)))
    cd = curve_scalars_from_trace(surface, tr)
    inv = (np.abs(cd.kg * np.cos(theta) - cd.kn * np.sin(theta))
           / (1 + cd.kappa))
    assert np.max(inv) < FLAG_TOL


# a point at fractions (u, v) of the domain inset by 0.05, a chart angle of
# the velocity and theta
flow_points = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                        st.floats(-np.pi, np.pi), st.floats(-1.2, 1.2))


@pytest.mark.parametrize("jet", ["analytic", "fd"])
@pytest.mark.parametrize("name", list(SURFACES))
@settings(max_examples=40)
@given(draw=flow_points)
def test_directional_acceleration_is_the_christoffel_form(name, jet, draw):
    # the flow contracts X_vv with X_t, X_z and X_t x X_z; the textbook form
    # contracts the Christoffel symbols and the second form with v.  They
    # agree to rounding: 2.8e-15 at worst, scaled by max(1, |uv''|), over
    # 3,000 uniform draws a chart and jet (crpc_revolution, analytic jet)
    surface = SURFACES[name]
    if jet == "fd":
        surface = replace(surface, jet=None)
    u, v, angle, theta = draw
    dom = surface.domain.inset(0.05)
    t = dom.t_min + u * (dom.t_max - dom.t_min)
    z = dom.z_min + v * (dom.z_max - dom.z_min)
    chart_jet, forms, _ = point_shape(surface, t, z)
    E, F, G, e, f, g = forms.E, forms.F, forms.G, forms.e, forms.f, forms.g
    tp, zp = np.cos(angle), np.sin(angle)
    speed = np.sqrt(E * tp * tp + 2 * F * tp * zp + G * zp * zp)
    tp, zp = float(tp / speed), float(zp / speed)
    c1_tt, c1_tz, c1_zz, c2_tt, c2_tz, c2_zz = christoffel(chart_jet)
    normal = np.tan(theta) * (e * tp * tp + 2 * f * tp * zp
                              + g * zp * zp) / np.sqrt(E * G - F * F)
    textbook = (-(c1_tt * tp * tp + 2 * c1_tz * tp * zp + c1_zz * zp * zp)
                - normal * (F * tp + G * zp),
                -(c2_tt * tp * tp + 2 * c2_tz * tp * zp + c2_zz * zp * zp)
                + normal * (E * tp + F * zp))
    flow = tracer._acceleration(point_metric(surface, t, z), tp, zp,
                                float(np.tan(theta)))
    for a, b in zip(flow, textbook):
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def similar(surface, length):
    """The chart (t, z) -> length X(t / length, z / length) of ``surface``
    on its domain scaled by ``length``: the surface scaled by ``length``."""
    d = surface.domain
    factors = (1.0, 1.0, 1.0 / length, 1.0 / length, 1.0 / length)

    def position(t, z):
        return vec3(t, *(length * np.asarray(
            surface.position(t / length, z / length))))

    def jet(t, z):
        return SurfaceJet2(*(vec3(t, *(c * np.asarray(v))) for c, v in zip(
            factors, surface.jet(t / length, z / length))))

    domain = Domain(*(length * v for v in (d.t_min, d.t_max, d.z_min,
                                           d.z_max)))
    return SurfaceDef(f"{surface.name}_scaled", domain, position, jet)


# each family at a length: the gallery's length parameter, except for
# Enneper, whose extent widens the domain of one surface, scaled instead
SCALED = {"sphere": make_sphere, "cylinder": make_cylinder,
          "helix_surface": make_helix_surface,
          "enneper": lambda length: similar(make_enneper(), length),
          "cylinder_sheared": lambda length: sheared(make_cylinder(length),
                                                     0.5)}
DECADES = [round(np.log10(v)) for v in LENGTH_RANGE]
# domain fractions of a few points: corners, centre, an inner point
CORNERS = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.8)]


@pytest.mark.parametrize("name", list(SCALED))
@settings(max_examples=20, deadline=None)
@given(decade=st.integers(*DECADES),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=6))
@example(decade=DECADES[0], points=CORNERS)
@example(decade=DECADES[1], points=CORNERS)
@example(decade=15, points=CORNERS)   # the sheared cylinder's E1 once turned
def test_umbilic_flags_and_e1_keep_under_scaling(name, decade, points):
    # being umbilic does not change under scaling, nor do the principal
    # directions: at 10^decade the shape stage flags the same points as at
    # the default length, and E1 stays parallel there
    u, v = np.array(points).T

    def shape(length):
        surface = SCALED[name](length)
        d = surface.domain
        return shape_arrays(surface, d.t_min + u * (d.t_max - d.t_min),
                            d.z_min + v * (d.z_max - d.z_min))[2]

    ref, sd = shape(1.0), shape(float(f"1e{decade}"))
    assert np.array_equal(sd.umbilic, ref.umbilic)
    assert np.all(np.abs(np.sum(sd.e1 * ref.e1, axis=0)) >= 1.0 - 1e-12)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(list(SURFACES)), angle=st.floats(-np.pi, np.pi),
       k=st.integers(-1074, 1023), theta=st.none() | st.floats(-1.2, 1.2))
@example(name="enneper", angle=np.pi / 4, k=532, theta=None)    # 1e160
@example(name="enneper", angle=np.pi / 4, k=-566, theta=0.4)    # 1e-170
@example(name="enneper", angle=0.0, k=-1074, theta=None)   # subnormal
@example(name="enneper", angle=0.0, k=1023, theta=0.4)
def test_a_direction_scaled_by_a_power_of_two_traces_bit_for_bit(
        name, angle, k, theta):
    # the initial uv-velocity is a direction: (dt, dz) 2^k, where exact,
    # traces the curve of (dt, dz) bit for bit (the metric's quadratic form
    # on the raw pair once overflowed or underflowed)
    direction = (float(np.cos(angle)), float(np.sin(angle)))
    scaled = tuple(math.ldexp(v, k) for v in direction)
    assume(all(math.ldexp(w, -k) == v for v, w in zip(direction, scaled)))
    surface = SURFACES[name]

    def traced_along(d):
        mode = (GeodesicMode(d) if theta is None
                else PseudoGeodesicMode(theta, d))
        return trace(TraceRequest(surface,
                                  inner_point(surface.domain, 0.4, 0.6),
                                  mode, s_span=(-0.2, 0.2)))

    want, got = traced_along(direction), traced_along(scaled)
    assert got.exit == want.exit and got.stats == want.stats
    for field in ("s", "uv", "uv_vel", "uv_acc"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
