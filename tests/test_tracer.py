import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from surftrace import (CATALOGUE, curve_scalars_from_trace, make_bonnet,
                       make_catenoid, make_enneper, make_plane, make_sphere,
                       point_shape, shape_arrays, stepper, tracer)
from surftrace.core import (Domain, SurfaceDef, SurfaceJet2, umbilic_margin,
                            vec3)
from surftrace.errors import (BoundaryExitError, InvalidRequestError,
                              SingularJetError, SolverFailureError,
                              ThetaOutOfRangeError, UmbilicEncounteredError)
from surftrace.tracer import (UMBILIC_GAP, GeodesicMode, IsogonalMode,
                              PseudoGeodesicMode, TraceRequest,
                              chart_to_principal_angle, isogonal_map, trace,
                              trace_isogonal, trace_pseudogeodesic)


def test_isogonal_phi_zero_follows_curvature_line():
    # catenoid: E1 along the meridian (t-lines), so phi = 0 keeps z fixed
    cat = make_catenoid()
    tr = trace_isogonal(TraceRequest(cat, (0.1, 0.7), IsogonalMode(0.0),
                                     s_span=(-0.5, 0.5), step=2e-3))
    assert np.max(np.abs(tr.uv[:, 1] - 0.7)) < 1e-9
    # Enneper: E1 along the z-lines, so phi = 0 keeps t fixed
    enn = make_enneper()
    tr = trace_isogonal(TraceRequest(enn, (0.4, 0.0), IsogonalMode(0.0),
                                     s_span=(-0.5, 0.5), step=2e-3))
    assert np.max(np.abs(tr.uv[:, 0] - 0.4)) < 1e-9


def test_isogonal_speed_is_constant_at_samples():
    enn = make_enneper()
    for speed in (1.0, 2.0):
        tr = trace_isogonal(TraceRequest(enn, (0.1, 0.8), IsogonalMode(-0.7, speed),
                                         s_span=(-0.5, 0.5), step=2e-3))
        for i in range(0, len(tr), 50):
            jet, _, _ = point_shape(enn, *tr.uv[i])
            v3 = (tr.uv_vel[i, 0] * np.asarray(jet.d_t)
                  + tr.uv_vel[i, 1] * np.asarray(jet.d_z))
            assert abs(np.linalg.norm(v3) - speed) < 1e-7


def test_isogonal_homogeneity_pointwise():
    enn = make_enneper()
    base = trace_isogonal(TraceRequest(enn, (0.3, 0.2), IsogonalMode(-0.9),
                                       s_span=(0.0, 1.0), step=4e-3))
    fast = trace_isogonal(TraceRequest(enn, (0.3, 0.2), IsogonalMode(-0.9, 2.0),
                                       s_span=(0.0, 0.5), step=2e-3))
    assert np.max(np.abs(fast.uv - base.uv[:len(fast)])) < 1e-8


def test_isogonal_umbilic_start_refused():
    with pytest.raises(UmbilicEncounteredError):
        trace_isogonal(TraceRequest(make_sphere(1.0), (0.1, 0.2),
                                    IsogonalMode(0.3)))


def test_boundary_exit_truncates_cleanly():
    enn = make_enneper()
    tr = trace_isogonal(TraceRequest(enn, (1.5, 0.0), IsogonalMode(0.0),
                                     s_span=(0.0, 30.0), step=1e-2))
    assert tr.exit.kind == "hit_boundary"
    assert tr.exit.s_stop is not None
    assert tr.s[-1] <= tr.exit.s_stop
    dom = enn.domain
    assert np.all((tr.uv[:, 0] >= dom.t_min - 1e-9)
                  & (tr.uv[:, 0] <= dom.t_max + 1e-9))
    assert np.all((tr.uv[:, 1] >= dom.z_min - 1e-9)
                  & (tr.uv[:, 1] <= dom.z_max + 1e-9))


def test_time_reversal_symmetry():
    enn = make_enneper()
    fwd = trace_isogonal(TraceRequest(enn, (0.3, 0.2), IsogonalMode(-0.9),
                                      s_span=(-1.0, 0.0), step=2e-3))
    rev = trace_isogonal(TraceRequest(enn, (0.3, 0.2),
                                      IsogonalMode(-0.9 + np.pi),
                                      s_span=(0.0, 1.0), step=2e-3))
    assert np.max(np.abs(fwd.uv[::-1] - rev.uv)) < 1e-8


def test_tolerance_robustness():
    enn = make_enneper()
    kw = dict(s_span=(-1.0, 1.0), step=2e-3)
    a = trace_isogonal(TraceRequest(enn, (0.0, 1.0), IsogonalMode(-np.pi / 3),
                                    atol=1e-10, rtol=1e-9, **kw))
    b = trace_isogonal(TraceRequest(enn, (0.0, 1.0), IsogonalMode(-np.pi / 3),
                                    atol=1e-12, rtol=1e-11, **kw))
    assert np.max(np.abs(a.uv - b.uv)) < 1e-7


def test_geodesic_on_sheared_plane_is_straight():
    # X = (t, z + t/2, 0) has F = 1/2 and no curvature: a pseudo-geodesic
    # of any theta is a straight line at constant chart velocity
    def position(t, z):
        return vec3(t, t, z + 0.5 * t, 0.0)

    def jet(t, z):
        zero = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(vec3(t, 1.0, 0.5, 0.0), vec3(t, 0.0, 1.0, 0.0),
                           zero, zero, zero)

    sheared = SurfaceDef("sheared_plane", Domain(-2, 2, -2, 2), position, jet)
    tr = trace_pseudogeodesic(TraceRequest(sheared, (0.0, 0.0),
                                           PseudoGeodesicMode(0.3, (1.0, 0.0)),
                                           s_span=(-1.0, 1.0)))
    assert tr.exit.kind == "completed"
    assert np.max(np.abs(tr.uv_vel - tr.uv_vel[0])) < 1e-12


def test_pseudogeodesic_theta_range():
    with pytest.raises(ThetaOutOfRangeError):
        trace_pseudogeodesic(TraceRequest(make_enneper(), (0.0, 0.0),
                                          PseudoGeodesicMode(np.pi / 2, 0.0)))


@pytest.mark.parametrize("side", [0.99, 1.01], ids=["under", "over"])
def test_pseudogeodesic_turn_above_the_rhs_budget_is_refused(side,
                                                             monkeypatch):
    # |tan(theta) kn| (s_hi - s_lo), kn at the start, is about the turn in
    # radians; above the budget of RHS calls the request is refused before
    # integrating, below it traced (a small budget keeps the turn cheap)
    enn, budget, span = make_enneper(), 40, (-0.25, 0.25)
    kn = tracer._unit_uv_velocity(enn, (0.0, 0.5), (1.0, 0.0))[2]
    assert abs(kn - 1.28) < 0.01
    theta = np.arctan(side * budget / (abs(kn) * (span[1] - span[0])))
    monkeypatch.setattr(tracer, "MAX_NFEV", budget)
    req = TraceRequest(enn, (0.0, 0.5), PseudoGeodesicMode(theta, (1.0, 0.0)),
                       s_span=span)
    if side < 1:
        assert len(trace_pseudogeodesic(req)) > 1
    else:
        with pytest.raises(InvalidRequestError,
                           match=r"about 40\.4 rad over s_span"):
            trace_pseudogeodesic(req)


def test_sphere_pseudogeodesic_is_circle():
    sph = make_sphere(1.0)
    req = TraceRequest(sph, (0.2, 0.1), PseudoGeodesicMode(np.pi / 4, (0.6, 0.5)),
                       s_span=(-1.0, 1.0), step=2e-3, atol=1e-15,
                       rtol=1e-14)
    cd = curve_scalars_from_trace(sph, trace_pseudogeodesic(req))
    assert np.max(np.abs(cd.kappa - np.mean(cd.kappa))) < 1e-8
    assert np.max(np.abs(cd.tau)) < 1e-6
    assert np.max(np.abs(cd.theta - np.mean(cd.theta))) < 1e-8


def test_plane_geodesic_is_straight():
    plane = make_plane()
    tr = trace(TraceRequest(plane, (0.5, -0.5), GeodesicMode((1.0, 2.0)),
                            s_span=(-1.0, 1.0), step=2e-3))
    d = tr.uv - tr.uv[tr.index_of(0.0)]
    cross = d[:, 0] * (2.0 / np.sqrt(5)) - d[:, 1] * (1.0 / np.sqrt(5))
    assert np.max(np.abs(cross)) < 1e-10


def test_sphere_great_circle():
    sph = make_sphere(1.0)
    req = TraceRequest(sph, (0.0, 0.0), GeodesicMode((0.4, 0.6)),
                       s_span=(-1.0, 1.0), step=2e-3, atol=1e-15,
                       rtol=1e-14)
    cd = curve_scalars_from_trace(sph, trace(req))
    assert np.max(np.abs(cd.kappa - 1.0)) < 1e-8
    assert np.max(np.abs(cd.tau)) < 1e-6
    assert np.max(np.abs(cd.kg)) < 1e-9


def test_pseudogeodesic_constant_theta_a_posteriori():
    bon = make_bonnet(0.5)
    # kn > 0 along this initial direction: measured theta equals the request
    req = TraceRequest(bon, (0.2, 0.1), PseudoGeodesicMode(0.4, 1.2),
                       s_span=(-0.8, 0.8), step=2e-3, atol=1e-15,
                       rtol=1e-14)
    cd = curve_scalars_from_trace(bon, trace_pseudogeodesic(req))
    assert np.max(np.abs(cd.theta - 0.4)) < 1e-6
    speeds = np.linalg.norm(cd.T, axis=1)
    assert np.max(np.abs(speeds - 1.0)) < 1e-7


def test_pseudogeodesic_branch_with_negative_kn():
    # kn < 0 at the start: the flow realizes the same tan(theta) on the
    # branch shifted by pi (the system only sees tan(theta); the branch
    # follows the Gauss-map orientation)
    bon = make_bonnet(0.5)
    req = TraceRequest(bon, (0.2, 0.1), PseudoGeodesicMode(0.4, 0.7),
                       s_span=(-0.8, 0.8), step=2e-3, atol=1e-15,
                       rtol=1e-14)
    cd = curve_scalars_from_trace(bon, trace_pseudogeodesic(req))
    assert np.max(np.abs(cd.theta - (0.4 - np.pi))) < 1e-6
    assert abs(np.tan(np.mean(cd.theta)) - np.tan(0.4)) < 1e-6


def test_trace_dispatch():
    enn = make_enneper()
    tr = trace(TraceRequest(enn, (0.0, 0.5), IsogonalMode(0.3),
                            s_span=(0.0, 0.2), step=2e-3))
    assert tr.request.mode == IsogonalMode(0.3)
    tr = trace(TraceRequest(enn, (0.0, 0.5), GeodesicMode(0.3),
                            s_span=(0.0, 0.2), step=2e-3))
    assert len(tr) == 101


def test_isogonal_map_basics():
    enn = make_enneper()
    assert isogonal_map(enn, (0.3, 0.2), (0.0, 0.0)) == (0.3, 0.2)
    # scaling: the map at v/2 equals the flow at parameter 1/2
    v = (0.12, -0.08)
    half = isogonal_map(enn, (0.3, 0.2), (v[0] / 2, v[1] / 2))
    jet, _, sd = point_shape(enn, 0.3, 0.2)
    v3 = v[0] * np.asarray(jet.d_t) + v[1] * np.asarray(jet.d_z)
    phi = float(np.arctan2(v3 @ sd.e2, v3 @ sd.e1))
    tr = trace_isogonal(TraceRequest(enn, (0.3, 0.2),
                                     IsogonalMode(phi, float(np.linalg.norm(v3))),
                                     s_span=(0.0, 0.5), step=0.125))
    assert np.max(np.abs(np.array(half) - tr.uv[-1])) < 1e-8


def test_isogonal_map_boundary_exit():
    enn = make_enneper()
    with pytest.raises(BoundaryExitError):
        isogonal_map(enn, (1.5, 1.5), (40.0, 0.0))


def test_isogonal_map_umbilic_exit():
    # the radial line from (0.8, 0) runs into the paraboloid's umbilic
    with pytest.raises(UmbilicEncounteredError, match="ran into an umbilic"):
        isogonal_map(_paraboloid(), (0.8, 0.0), (-1.0, 0.0))


def test_isogonal_map_solver_failure(monkeypatch):
    monkeypatch.setattr(stepper, "MAX_NFEV", 30)
    with pytest.raises(SolverFailureError, match=r"at s = 0\.\d"):
        isogonal_map(make_enneper(), (0.3, 0.2), (0.3, 0.2))


def test_isogonal_map_jacobian_is_identity():
    enn = make_enneper()
    h = 1e-4
    jac = np.empty((2, 2))
    for j, dv in enumerate(((h, 0.0), (0.0, h))):
        up = np.array(isogonal_map(enn, (0.3, 0.2), dv))
        um = np.array(isogonal_map(enn, (0.3, 0.2), (-dv[0], -dv[1])))
        jac[:, j] = (up - um) / (2 * h)
    assert np.max(np.abs(jac - np.eye(2))) < 1e-4


def _paraboloid(scale=1.0):
    # z = (t^2 + z^2)/2, times ``scale``: isolated umbilic at the origin,
    # F != 0 off-axis
    # elementwise chart (see SurfaceDef): the trace post-processing and
    # curve_scalars evaluate it on sample arrays
    def position(t, z):
        return vec3(t, scale * t, scale * z, scale * (0.5 * (t * t + z * z)))

    def jet(t, z):
        return SurfaceJet2(vec3(t, scale, 0.0, scale * t),
                           vec3(t, 0.0, scale, scale * z),
                           vec3(t, 0.0, 0.0, scale), vec3(t, 0.0, 0.0, 0.0),
                           vec3(t, 0.0, 0.0, scale))

    return SurfaceDef("paraboloid", Domain(-2, 2, -2, 2), position, jet)


def test_a_scaled_chart_traces_bit_for_bit():
    # scaled by 2^-20, |X_t x X_z| is 2^-40 sqrt(1 + t^2 + z^2), about
    # 1e-12 here, yet the chart is as regular as the unit one: every
    # quantity of the isogonal flow scales by a power of two, so at speed
    # 2^-20 the trace is the unit chart's
    phi, span = 0.7, (-0.2, 0.2)
    unit = trace_isogonal(TraceRequest(_paraboloid(), (0.3, 0.2),
                                       IsogonalMode(phi), s_span=span))
    small = trace_isogonal(TraceRequest(_paraboloid(2.0 ** -20), (0.3, 0.2),
                                        IsogonalMode(phi, 2.0 ** -20),
                                        s_span=span))
    assert unit.exit.kind == small.exit.kind == "completed"
    for name in ("s", "uv", "uv_vel", "uv_acc"):
        assert np.array_equal(getattr(small, name), getattr(unit, name)), name
    # scaled by 2^20, curvatures are 2^-20 the unit chart's: the umbilic
    # margin scales with them, so the radial run into the umbilic is the
    # unit chart's too, its exit and RHS count included
    runs = [trace_isogonal(TraceRequest(_paraboloid(scale), (0.8, 0.0),
                                        IsogonalMode(np.pi, scale),
                                        s_span=(0.0, 2.0)))
            for scale in (1.0, 2.0 ** 20)]
    unit, large = runs
    assert unit.exit == large.exit and unit.exit.kind == "hit_umbilic"
    assert unit.nfev == large.nfev
    for name in ("s", "uv", "uv_vel", "uv_acc"):
        assert np.array_equal(getattr(large, name), getattr(unit, name)), name


def test_trace_terminates_at_isolated_umbilic():
    par = _paraboloid()
    # radial run straight through the umbilic
    tr = trace_isogonal(TraceRequest(par, (0.8, 0.0), IsogonalMode(np.pi),
                                     s_span=(0.0, 2.0), step=2e-3))
    assert tr.exit.kind == "hit_umbilic"
    assert np.hypot(*tr.uv[-1]) < 0.05
    # inward spiral lingering near the umbilic
    tr = trace_isogonal(TraceRequest(par, (0.3, 0.0), IsogonalMode(2.5),
                                     s_span=(0.0, 5.0), step=2e-3))
    assert tr.exit.kind == "hit_umbilic"
    assert np.hypot(*tr.uv[-1]) < 0.05



@pytest.mark.parametrize("speed", [0.5, 1.0, 2.0, 3.0])
def test_radial_runs_into_the_umbilic_are_seen(speed):
    # phi = pi on the paraboloid runs radially into its umbilic, along a
    # field that is smooth but at the origin: a step may cross the gap
    # between its stages, so its samples are tested too.  Every run long
    # enough to reach the origin ends there
    par = _paraboloid()
    for r0 in (0.2, 0.4, 0.6, 0.8, 1.0):
        to_origin = (r0 * np.sqrt(1 + r0 * r0) + np.arcsinh(r0)) / 2 / speed
        tr = trace_isogonal(TraceRequest(par, (r0, 0.0),
                                         IsogonalMode(np.pi, speed),
                                         s_span=(0.0, 2.0)))
        if to_origin > 2.0:
            assert tr.exit.kind == "completed"
            continue
        assert tr.exit.kind == "hit_umbilic", (r0, tr.exit)
        assert abs(tr.exit.s_stop - to_origin) < 0.01 / speed
        assert np.hypot(*tr.uv[-1]) < 0.011
        assert tr.s[-1] < tr.exit.s_stop
        # a ceiling: the gap's solver event ends a run in whole steps
        assert tr.nfev <= 218


def test_inward_spirals_end_at_the_umbilic():
    # isogonal lines at |phi| > pi/2 spiral into the paraboloid's umbilic;
    # the RHS count is a ceiling, as for the radial runs
    par = _paraboloid()
    for phi in (2.0, 2.5, 3.0, -2.5, 1.8):
        for r0 in (0.3, 0.6):
            tr = trace_isogonal(TraceRequest(par, (r0, 0.0),
                                             IsogonalMode(phi),
                                             s_span=(0.0, 5.0)))
            assert tr.exit.kind == "hit_umbilic", (phi, r0, tr.exit)
            assert np.hypot(*tr.uv[-1]) < 0.011
            assert tr.nfev <= 1022


@settings(max_examples=20, deadline=None)
@given(r0=st.floats(0.2, 1.0), phi=st.floats(1.8, np.pi),
       sign=st.sampled_from([1.0, -1.0]), speed=st.floats(0.5, 3.0))
@example(r0=0.2, phi=np.pi, sign=1.0, speed=0.5)   # the radial run
@example(r0=0.3, phi=2.5, sign=1.0, speed=1.0)     # the spiral
def test_umbilic_exits_keep_out_of_the_gap(r0, phi, sign, speed):
    # runs toward the paraboloid's umbilic: no kept sample lies inside the
    # gap, and a branch that the gap's event ended ends where the umbilic
    # margin at UMBILIC_GAP is 0, to the same relative bound
    branches = []

    def spy(*args):
        both = stepper.integrate(*args)
        branches.extend(br for br in both if br is not None)
        return both

    par = _paraboloid()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracer, "integrate", spy)
        tr = trace_isogonal(TraceRequest(par, (r0, 0.0),
                                         IsogonalMode(sign * phi, speed),
                                         s_span=(0.0, 5.0)))
    sd = shape_arrays(par, *tr.uv.T)[2]
    assert np.all(umbilic_margin(sd.kappa1, sd.kappa2, UMBILIC_GAP) > 0.0)
    (br,) = branches
    if tr.exit.kind == "hit_umbilic" and br.status == 1:
        assert tr.exit.s_stop == br.s
        sd = point_shape(par, *br.sample(np.array([br.s]))[0])[2]
        margin = umbilic_margin(sd.kappa1, sd.kappa2, UMBILIC_GAP)
        assert abs(margin) <= 1e-9 * UMBILIC_GAP * (abs(sd.kappa1)
                                                    + abs(sd.kappa2))


def test_isogonal_flow_keeps_the_start_e1_where_the_chain_turns():
    # E1 is radial on the paraboloid; the chart rule <E1, X_t> >= 0 points
    # it outward at the start and inward at the backward branch's far end,
    # so the E1 chained from sample 0 disagrees with the start's at s = 0
    par = _paraboloid()
    phi = -np.pi / 2
    tr = trace_isogonal(TraceRequest(par, (0.3, 0.5), IsogonalMode(phi),
                                     s_span=(-1.2, 0.3)))
    i_zero = tr.index_of(0.0)
    jet, _, sd = point_shape(par, 0.3, 0.5)
    assert shape_arrays(par, *tr.uv.T)[2].e1[:, i_zero] @ sd.e1 < 0.0
    # the flow still leaves the start at angle phi from the start's E1 ...
    v3 = (tr.uv_vel[i_zero, 0] * np.asarray(jet.d_t)
          + tr.uv_vel[i_zero, 1] * np.asarray(jet.d_z))
    want = np.cos(phi) * sd.e1 + np.sin(phi) * sd.e2
    assert np.max(np.abs(v3 - want)) < 1e-12
    # ... and every sample's velocity points along the traced path
    ahead = np.sum(np.diff(tr.uv, axis=0) * tr.uv_vel[:-1], axis=1)
    assert np.all(ahead > 0.0)


def test_isogonal_phi_reads_the_requested_angle_where_the_chain_turns():
    # the trace of the test above: its shape pass carries the start's E1, so
    # the Darboux phi is measured from the E1 the flow's phi refers to
    par = _paraboloid()
    tr = trace_isogonal(TraceRequest(par, (0.3, 0.5), IsogonalMode(-np.pi / 2),
                                     s_span=(-1.2, 0.3)))
    cd = curve_scalars_from_trace(par, tr)
    assert np.max(np.abs(cd.phi + np.pi / 2)) < 1e-8
    i_zero = tr.index_of(0.0)
    assert tr.shape[2].e1[:, i_zero] @ point_shape(par, 0.3, 0.5)[2].e1 > 0.0
    # the chain from s = 0 is the chain from sample 0 turned round, bit for bit
    assert np.array_equal(tr.shape[2].e1, -shape_arrays(par, *tr.uv.T)[2].e1)


def test_early_branch_ends_are_logged(caplog):
    enn = make_enneper()
    req = TraceRequest(enn, (1.5, 0.0), IsogonalMode(0.0), s_span=(-0.2, 30.0),
                       step=1e-2)
    with caplog.at_level(logging.DEBUG, logger="surftrace.tracer"):
        tr = trace(req)
        # one record for the forward branch, none for the completed one
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == (
            f"fwd branch: hit_boundary at s = {tr.exit.s_stop!r} after "
            f"{tr.stats['fwd'].nfev} RHS evaluations")
        caplog.clear()
        tr = trace(TraceRequest(_paraboloid(), (0.8, 0.0),
                                IsogonalMode(np.pi), s_span=(0.0, 2.0)))
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"fwd branch: hit_umbilic at s = {tr.exit.s_stop!r} ")


def test_isogonal_start_inside_umbilic_gap_refused():
    # not umbilic to core's 1e-9, but inside the tracer's 1e-5 gap, where
    # E1 has no meaning; neither side of the span may be traced
    par = _paraboloid()
    assert not point_shape(par, 1e-3, 0.0)[2].umbilic
    with pytest.raises(UmbilicEncounteredError):
        trace_isogonal(TraceRequest(par, (1e-3, 0.0), IsogonalMode(np.pi / 2),
                                    s_span=(-0.3, 0.3)))


def test_isogonal_rhs_is_pure(monkeypatch):
    # every (s, y, ref) the stepper asked for, replayed in reverse order
    # after the trace, gives the same values bit for bit
    calls = []

    def recording(rhs, *args):
        def recorded(s, y, ref):
            out = rhs(s, y, ref)
            calls.append((rhs, s, y, ref, out))
            return out
        return stepper.integrate(recorded, *args)

    monkeypatch.setattr(tracer, "integrate", recording)
    trace(TraceRequest(make_enneper(), (0.2, 0.3), IsogonalMode(-0.7),
                       s_span=(-0.4, 0.6)))
    assert len(calls) > 100
    assert any(ref is None for _, _, _, ref, _ in calls)
    for rhs, s, y, ref, out in reversed(calls):
        assert [v.hex() for v in rhs(s, y, ref)] == [v.hex() for v in out]


@pytest.mark.parametrize("mode", [IsogonalMode(-0.7),
                                  PseudoGeodesicMode(0.3, 0.4)])
def test_branches_are_independent(mode):
    # a two-sided trace is, side by side, the two one-sided traces
    enn = make_enneper()
    both = trace(TraceRequest(enn, (0.2, 0.3), mode, s_span=(-0.4, 0.6)))
    fwd = trace(TraceRequest(enn, (0.2, 0.3), mode, s_span=(0.0, 0.6)))
    bwd = trace(TraceRequest(enn, (0.2, 0.3), mode, s_span=(-0.4, 0.0)))
    i_zero = both.index_of(0.0)
    for name in ("s", "uv", "uv_vel", "uv_acc"):
        side_by_side = getattr(both, name)
        assert np.array_equal(side_by_side[i_zero:], getattr(fwd, name))
        assert np.array_equal(side_by_side[:i_zero + 1], getattr(bwd, name))
    assert both.stats == {**fwd.stats, **bwd.stats}


def test_isogonal_on_non_orthogonal_chart():
    # the first-order system never needs F = 0
    par = _paraboloid()
    assert abs(point_shape(par, 0.5, 0.4)[1].F) > 0.1
    tr = trace_isogonal(TraceRequest(par, (0.5, 0.4), IsogonalMode(0.7),
                                     s_span=(-0.4, 0.4), step=2e-3))
    assert tr.exit.kind == "completed"
    cd = curve_scalars_from_trace(par, tr)
    phi = np.unwrap(cd.phi)
    assert np.max(np.abs(phi - phi[0])) < 1e-8


@pytest.mark.parametrize("jet", ["analytic", "fd"])
def test_geodesic_keeps_clairaut_integral_on_non_orthogonal_chart(jet):
    # the paraboloid is a surface of revolution about its chart origin, so
    # a geodesic keeps r^2 dphi/ds = t z' - z t' (Clairaut); read about
    # 1e-9 with either jet
    par = _paraboloid()
    if jet == "fd":
        par = replace(par, jet=None)
    assert abs(point_shape(par, 0.7, -0.2)[1].F) > 0.1
    tr = trace(TraceRequest(par, (0.7, -0.2), GeodesicMode((0.3, 1.0)),
                            s_span=(-1.5, 1.5)))
    assert tr.exit.kind == "completed"
    (t, z), (tp, zp) = tr.uv.T, tr.uv_vel.T
    clairaut = t * zp - z * tp
    assert np.max(np.abs(clairaut - clairaut[tr.index_of(0.0)])) < 5e-8


@pytest.mark.parametrize("jet, bound", [("analytic", 2e-9), ("fd", 2e-7)])
def test_pseudogeodesic_keeps_normal_angle_on_non_orthogonal_chart(jet,
                                                                   bound):
    # read 1.2e-10 with the analytic jet, 1.5e-8 with the finite-difference
    # jet; theta = 0.5 holds as kg cos(theta) = kn sin(theta)
    par = _paraboloid()
    if jet == "fd":
        par = replace(par, jet=None)
    tr = trace(TraceRequest(par, (0.7, -0.2),
                            PseudoGeodesicMode(0.5, (0.3, 1.0)),
                            s_span=(-1.5, 1.5)))
    assert tr.exit.kind == "completed"
    cd = curve_scalars_from_trace(par, tr)
    inv = np.abs(cd.kg * np.cos(0.5) - cd.kn * np.sin(0.5)) / (1 + cd.kappa)
    assert np.max(inv) < bound


def test_chart_angle_conversion_roundtrip():
    enn = make_enneper()
    uv = (0.2, 0.6)
    jet, forms, sd = point_shape(enn, *uv)
    for chart_angle in (0.0, 0.4, -1.1):
        phi = chart_to_principal_angle(enn, uv, chart_angle)
        target = np.cos(phi) * sd.e1 + np.sin(phi) * sd.e2
        that = jet.d_t / np.sqrt(forms.E)
        zhat = jet.d_z / np.sqrt(forms.G)
        expected = np.cos(chart_angle) * that + np.sin(chart_angle) * zhat
        assert np.max(np.abs(target - expected)) < 1e-12


@pytest.mark.parametrize("change", [
    dict(start_uv=(np.nan, 1.0)), dict(mode=IsogonalMode(np.nan)),
    dict(mode=IsogonalMode(0.5, np.inf)), dict(mode=PseudoGeodesicMode(np.nan)),
    dict(mode=GeodesicMode((np.nan, 1.0))),
    dict(mode=GeodesicMode(np.array([np.nan, 1.0]))),
    dict(mode=PseudoGeodesicMode(0.3, (1.0, np.inf))),
    dict(step=0.0), dict(step=-0.01),
    dict(step=np.nan), dict(s_span=(0.5, 1.0)), dict(s_span=(-np.inf, 1.0)),
    dict(atol=0.0), dict(rtol=-1e-9),
    # more samples than stepper.MAX_SAMPLES
    dict(step=1e-9), dict(s_span=(-1e300, 1e300)),
    # initial_dir is an angle (ndim 0) or a (dt, dz) pair, nothing else
    dict(mode=GeodesicMode([0.3])),
    dict(mode=PseudoGeodesicMode(0.3, (0.3, 0.2, 5.0))),
    dict(mode=GeodesicMode(np.array([[0.3, 0.2]]))),
    # malformed fields: ragged, non-numeric or missing values, wrong lengths
    dict(mode=GeodesicMode(((0.3,), 0.2))), dict(mode=GeodesicMode("ab")),
    dict(mode=GeodesicMode(None)), dict(start_uv=None), dict(start_uv="ab"),
    dict(s_span=((0,), 1.0)), dict(s_span=(-1, 0, 1)), dict(step="x"),
    dict(atol=None), dict(start_uv=(0.1,)), dict(start_uv=(0.1, 0.2, 0.3)),
    dict(atol=np.inf), dict(rtol=np.inf)])
def test_invalid_request_fails_fast(change):
    fields = dict(surface=make_enneper(), start_uv=(0.0, 1.0),
                  mode=IsogonalMode(0.5))
    with pytest.raises(InvalidRequestError):
        TraceRequest(**{**fields, **change})


def test_corner_exit_ends_at_the_first_edge(monkeypatch):
    # a plane geodesic along (1, 1) meets t = 1 at s = sqrt(2) and
    # z = 1 + 1e-7 just after, and one solver step crosses both
    branches = []

    def spy(*args):
        both = stepper.integrate(*args)
        branches.extend(br for br in both if br is not None)
        return both

    monkeypatch.setattr(tracer, "integrate", spy)
    plane = replace(make_plane(), domain=Domain(-1, 1, -1, 1 + 1e-7))
    tr = trace(TraceRequest(plane, (0.0, 0.0), GeodesicMode((1.0, 1.0)),
                            s_span=(0.0, 3.0)))
    assert tr.exit.kind == "hit_boundary"
    assert abs(tr.exit.s_stop - np.sqrt(2)) < 1e-12
    (br,) = branches
    assert br.starts[-1] < np.sqrt(2) * (1 + 1e-7) < br.starts[-1] + br.h[-1]


def test_finite_array_initial_dir_is_accepted():
    # every mode field is checked, components of an initial_dir array too
    enn = make_enneper()
    for mode in (GeodesicMode(np.array([0.3, 1.0])),
                 PseudoGeodesicMode(0.3, np.array([1.0, -0.5]))):
        tr = trace(TraceRequest(enn, (0.0, 1.0), mode, s_span=(-0.1, 0.1)))
        assert tr.exit.kind == "completed"


def _assert_traces_equal(a, b):
    for name in ("s", "uv", "uv_vel", "uv_acc"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.exit == b.exit and a.stats == b.stats


def test_angle_from_e1_reads_back_on_a_position_only_chart():
    # the request's angle is measured from the start's E1 by the module
    # rule; the curve's phi at s = 0 must be measured from that E1 too,
    # wherever the finite-difference chart turns E1 along the curve.  The
    # first draw is one where the E1 chained from sample 0 read angle - pi;
    # 60 seeded (start, angle, theta) draws follow
    enn = replace(make_enneper(), jet=None)
    rng = np.random.default_rng(5)
    dom = enn.domain.inset(0.25)
    draws = [((0.6100058474907604, 0.6158815794729875), 0.0962933399642707,
              -0.5140766877884602)]
    for _ in range(60):
        start = (rng.uniform(dom.t_min, dom.t_max),
                 rng.uniform(dom.z_min, dom.z_max))
        draws.append((start, rng.uniform(-np.pi, np.pi),
                      rng.uniform(-1.2, 1.2)))
    for start, angle, theta in draws:
        tr = trace(TraceRequest(enn, start, PseudoGeodesicMode(theta, angle),
                                s_span=(-0.25, 0.25)))
        phi = curve_scalars_from_trace(enn, tr).phi[tr.index_of(0.0)]
        off = (phi - angle + np.pi) % (2 * np.pi) - np.pi
        assert abs(off) < 1e-9, (start, angle, theta, phi)


def test_zero_dim_array_initial_dir_is_an_angle():
    enn = make_enneper()
    a, b = (trace(TraceRequest(enn, (0.2, 0.3), GeodesicMode(d),
                               s_span=(-0.2, 0.2)))
            for d in (0.3, np.array(0.3)))
    _assert_traces_equal(a, b)


def test_geodesic_entry_points_return_one_request():
    # every entry point traces a GeodesicMode as, and returns, the
    # theta = 0 pseudo-geodesic request
    req = TraceRequest(make_enneper(), (0.2, 0.3), GeodesicMode((1.0, 0.5)),
                       s_span=(-0.2, 0.2))
    want = PseudoGeodesicMode(0.0, (1.0, 0.5))
    first, *rest = (run(req) for run in (trace, trace_pseudogeodesic))
    for tr in (first, *rest):
        assert tr.request.mode == want
        assert tr.request == replace(req, mode=want)
        _assert_traces_equal(first, tr)


def test_trace_stats_count_rhs_calls(monkeypatch):
    # a counting wrapper around the trace's right-hand side, which one
    # stepper call integrates both ways
    counts = []

    def counting(rhs, *args):
        counts.append(0)

        def counted(s, y, ref):
            counts[-1] += 1
            return rhs(s, y, ref)
        return stepper.integrate(counted, *args)

    monkeypatch.setattr(tracer, "integrate", counting)
    for mode in (IsogonalMode(-0.7), PseudoGeodesicMode(0.3, 0.4)):
        counts.clear()
        tr = trace(TraceRequest(make_enneper(), (0.2, 0.3), mode,
                                s_span=(-0.4, 0.6)))
        assert list(tr.stats) == ["fwd", "bwd"]
        fwd, bwd = tr.stats.values()
        # f(0), the probe and the trial step, 8 evaluations, are shared and
        # counted on both branches; the trial is the forward's first step
        assert fwd.shared == bwd.shared == 8
        assert counts == [tr.nfev] == [fwd.nfev + bwd.nfev - 8]
        assert fwd.steps > 0 and bwd.steps > 0
        assert fwd.nfev == 2 + 6 * (fwd.steps + fwd.rejected)
        assert bwd.nfev == 8 + 6 * (bwd.steps + bwd.rejected)
    # an umbilic exit at the gap's event: whole steps, as any branch
    counts.clear()
    req = TraceRequest(_paraboloid(), (0.3, 0.0), IsogonalMode(2.5),
                       s_span=(0.0, 5.0))
    tr = trace(req)
    assert tr.exit.kind == "hit_umbilic"
    (b,) = tr.stats.values()
    assert [b.nfev] == counts == [tr.nfev]
    assert b.nfev == 2 + 6 * (b.steps + b.rejected)
    # and against the budget: one evaluation fewer ends it as a failure
    budget = b.nfev - 1
    monkeypatch.setattr(stepper, "MAX_NFEV", budget)
    counts.clear()
    tr = trace(req)
    assert tr.exit.kind == "solver_failure"
    assert counts == [tr.stats["fwd"].nfev] and counts[0] <= budget
    # a zero span: the start sample alone, with no RHS call
    counts.clear()
    tr = trace(TraceRequest(make_enneper(), (0.2, 0.3), IsogonalMode(-0.7),
                            s_span=(0.0, 0.0)))
    assert tr.s.tolist() == [0.0] and len(tr.uv) == 1
    assert tr.nfev == sum(counts) == 0 and tr.stats == {}


@pytest.mark.parametrize("surface, start, mode, span, kind", [
    (make_enneper(), (0.2, 0.3), IsogonalMode(-0.7), (-0.4, 0.6),
     "completed"),
    (make_enneper(), (0.2, 0.3), IsogonalMode(-0.7), (-10.0, 10.0),
     "hit_boundary"),
    (_paraboloid(), (0.3, 0.0), IsogonalMode(2.5), (0.0, 5.0),
     "hit_umbilic"),
    (make_enneper(), (0.2, 0.3), PseudoGeodesicMode(0.3, 0.4), (-0.4, 0.6),
     "completed"),
    (make_enneper(), (0.2, 0.3), PseudoGeodesicMode(0.3, 0.4),
     (-10.0, 10.0), "hit_boundary"),
], ids=["isogonal", "isogonal-boundary", "isogonal-umbilic", "pseudo",
        "pseudo-boundary"])
def test_step_ends_evaluate_no_chart(surface, start, mode, span, kind,
                                     monkeypatch):
    # one integrate call evaluates the chart once per RHS call and, for an
    # isogonal trace, once per event evaluation inside the domain on a
    # step's dense output: the umbilic margin at a step end is the last
    # stage's, and the edge needs no chart
    jets, counts = [0], {}

    def jet(t, z):
        jets[0] += np.ndim(t) == 0
        return surface.jet(t, z)

    def counting(rhs, y0, span, event, *tol):
        counts.update(rhs=0, ends=0, dense=0)

        def counted(s, y, ref):
            counts["rhs"] += 1
            return rhs(s, y, ref)

        def seen(s, y, f):
            dom = surface.domain
            if f is not None:
                counts["ends"] += 1
            elif (dom.t_min < y[0] < dom.t_max
                  and dom.z_min < y[1] < dom.z_max):
                counts["dense"] += 1
            return event(s, y, f)

        jets[0] = 0
        both = stepper.integrate(counted, y0, span, seen, *tol)
        counts["jets"] = jets[0]
        return both

    monkeypatch.setattr(tracer, "integrate", counting)
    tr = trace(TraceRequest(replace(surface, jet=jet), start, mode,
                            s_span=span))
    assert tr.exit.kind == kind
    assert counts["rhs"] == tr.nfev and counts["ends"] > 10
    isogonal = isinstance(mode, IsogonalMode)
    assert counts["jets"] == counts["rhs"] + isogonal * counts["dense"]
    assert (counts["dense"] > 0) == (kind != "completed")


def test_two_sided_trace_evaluates_the_start_once(monkeypatch):
    # both branches share f(0): the RHS sees s = 0 once, with no ref
    seen = []

    def recording(rhs, *args):
        def recorded(s, y, ref):
            seen.append((s, ref))
            return rhs(s, y, ref)
        return stepper.integrate(recorded, *args)

    monkeypatch.setattr(tracer, "integrate", recording)
    for mode in (IsogonalMode(-0.7), PseudoGeodesicMode(0.3, 0.4)):
        seen.clear()
        tr = trace(TraceRequest(make_enneper(), (0.2, 0.3), mode,
                                s_span=(-0.4, 0.6)))
        assert tr.exit.kind == "completed" and len(tr.stats) == 2
        assert [s for s, _ in seen].count(0.0) == 1
        assert seen[0] == (0.0, None)
        assert all(ref is not None for _, ref in seen[1:])


def test_rhs_budget_ends_trace_as_solver_failure(monkeypatch):
    monkeypatch.setattr(stepper, "MAX_NFEV", 60)
    req = TraceRequest(make_enneper(), (0.2, 0.3), PseudoGeodesicMode(0.3, 0.4),
                       s_span=(0.0, 2.0), atol=1e-15, rtol=1e-14)
    tr = trace(req)
    assert tr.exit.kind == "solver_failure"
    # 2 evaluations to start, then 6 per step: 9 steps fit in 60
    assert tr.stats["fwd"].nfev == 56 and tr.stats["fwd"].steps == 9
    assert 0.0 < tr.exit.s_stop < 0.1
    assert tr.s[-1] <= tr.exit.s_stop


@pytest.mark.parametrize("jet", ["analytic", "fd"])
@pytest.mark.parametrize("name", list(CATALOGUE))
def test_pseudogeodesic_rhs_and_uv_acc_agree_bit_for_bit(monkeypatch, name,
                                                         jet):
    # the float RHS and the trace's array uv_acc pass run one elementwise
    # formula: at each sample's (uv, uv_vel) they give the same bits
    rhs_seen = []

    def recording(rhs, *args):
        rhs_seen.append(rhs)
        return stepper.integrate(rhs, *args)

    monkeypatch.setattr(tracer, "integrate", recording)
    surface = CATALOGUE[name]()
    if jet == "fd":
        surface = replace(surface, jet=None)
    dom = surface.domain.inset(0.3)
    tr = trace(TraceRequest(surface, (dom.t_min, dom.z_max),
                            PseudoGeodesicMode(0.7, (0.6, -0.8)),
                            s_span=(-0.2, 0.2)))
    assert len(tr) > 100 and rhs_seen
    for state, acc in zip(np.hstack([tr.uv, tr.uv_vel]), tr.uv_acc):
        out = rhs_seen[0](0.0, state.tolist(), None)
        assert [v.hex() for v in out[2:]] == [v.hex() for v in acc.tolist()]


def _collapsing_chart():
    # X = (t, y, y^2) with y = a(t) z and the C^2 factor a = (0.5 - t)^3
    # for t < 0.5, else 0: the chart is regular for t < 0.5, and X_z = 0
    # for t >= 0.5
    def parts(t, z):
        r = np.maximum(0.5 - t, 0.0)
        a, a_t, a_tt = r ** 3, -3.0 * r * r, 6.0 * r
        return a, a_t, a_tt, a * z, a_t * z

    def position(t, z):
        y = parts(t, z)[3]
        return vec3(t, t, y, y * y)

    def jet(t, z):
        a, a_t, a_tt, y, y_t = parts(t, z)
        return SurfaceJet2(
            vec3(t, 1.0, y_t, 2 * y * y_t), vec3(t, 0.0, a, 2 * y * a),
            vec3(t, 0.0, a_tt * z, 2 * (y_t * y_t + y * a_tt * z)),
            vec3(t, 0.0, a_t, 2 * (a * y_t + y * a_t)),
            vec3(t, 0.0, 0.0, 2 * a * a))

    return SurfaceDef("collapsing", Domain(-1, 1, -1, 1), position, jet)


@pytest.mark.parametrize("jet", ["analytic", "fd"])
def test_pseudogeodesic_refuses_a_singular_chart_point(jet):
    # the line z = 0 is a pseudo-geodesic for every theta (X_vv = 0 on
    # it), so the flow runs into t >= 0.5, where X_t x X_z = 0, and the
    # RHS refuses the first point there by name
    surface = _collapsing_chart()
    if jet == "fd":
        surface = replace(surface, jet=None)
    req = TraceRequest(surface, (0.2, 0.0), PseudoGeodesicMode(0.3, (1, 0)),
                       s_span=(0.0, 0.6))
    with pytest.raises(SingularJetError,
                       match=r"chart of 'collapsing' singular at \(") as err:
        trace(req)
    t, z = map(float, str(err.value).split("(")[1].rstrip(")").split(","))
    assert t >= 0.5 and z == 0.0
