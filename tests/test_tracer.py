import numpy as np
import pytest

from surftrace import (curve_scalars_from_trace, make_bonnet, make_catenoid,
                       make_enneper, make_plane, make_sphere, point_shape)
from surftrace.core import Domain, SurfaceDef, SurfaceJet2, vec3
from surftrace.errors import (BoundaryExitError, InvalidRequestError,
                              NonOrthogonalChartError, ThetaOutOfRangeError,
                              UmbilicEncounteredError)
from surftrace.tracer import (GeodesicMode, IsogonalMode, PseudoGeodesicMode,
                              TraceRequest, chart_to_principal_angle,
                              isogonal_map, trace, trace_geodesic,
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
            v3 = tr.uv_vel[i, 0] * jet.d_t + tr.uv_vel[i, 1] * jet.d_z
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


def test_pseudogeodesic_requires_orthogonal_chart():
    def position(t, z):
        return np.array([t, z + 0.5 * t, 0.0])

    def jet(t, z):
        zero = np.zeros(3)
        return SurfaceJet2(position(t, z), np.array([1.0, 0.5, 0.0]),
                           np.array([0.0, 1.0, 0.0]), zero, zero, zero)

    sheared = SurfaceDef("sheared_plane", Domain(-2, 2, -2, 2), position,
                         jet, orthogonal=False)
    with pytest.raises(NonOrthogonalChartError):
        trace_pseudogeodesic(TraceRequest(sheared, (0.0, 0.0),
                                          PseudoGeodesicMode(0.3, (1.0, 0.0))))


def test_pseudogeodesic_theta_range():
    with pytest.raises(ThetaOutOfRangeError):
        trace_pseudogeodesic(TraceRequest(make_enneper(), (0.0, 0.0),
                                          PseudoGeodesicMode(np.pi / 2, 0.0)))


def test_sphere_pseudogeodesic_is_circle():
    sph = make_sphere(1.0)
    req = TraceRequest(sph, (0.2, 0.1), PseudoGeodesicMode(np.pi / 4, (0.6, 0.5)),
                       s_span=(-1.0, 1.0), step=2e-3, max_step=2e-3)
    cd = curve_scalars_from_trace(sph, trace_pseudogeodesic(req))
    assert np.max(np.abs(cd.kappa - np.mean(cd.kappa))) < 1e-8
    assert np.max(np.abs(cd.tau)) < 1e-6
    assert np.max(np.abs(cd.theta - np.mean(cd.theta))) < 1e-8


def test_plane_geodesic_is_straight():
    plane = make_plane()
    tr = trace_geodesic(TraceRequest(plane, (0.5, -0.5),
                                     GeodesicMode((1.0, 2.0)),
                                     s_span=(-1.0, 1.0), step=2e-3))
    d = tr.uv - tr.uv[tr.index_of(0.0)]
    cross = d[:, 0] * (2.0 / np.sqrt(5)) - d[:, 1] * (1.0 / np.sqrt(5))
    assert np.max(np.abs(cross)) < 1e-10


def test_sphere_great_circle():
    sph = make_sphere(1.0)
    req = TraceRequest(sph, (0.0, 0.0), GeodesicMode((0.4, 0.6)),
                       s_span=(-1.0, 1.0), step=2e-3, max_step=2e-3)
    cd = curve_scalars_from_trace(sph, trace_geodesic(req))
    assert np.max(np.abs(cd.kappa - 1.0)) < 1e-8
    assert np.max(np.abs(cd.tau)) < 1e-6
    assert np.max(np.abs(cd.kg)) < 1e-9


def test_pseudogeodesic_constant_theta_a_posteriori():
    bon = make_bonnet(0.5)
    # kn > 0 along this initial direction: measured theta equals the request
    req = TraceRequest(bon, (0.2, 0.1), PseudoGeodesicMode(0.4, 1.2),
                       s_span=(-0.8, 0.8), step=2e-3, max_step=2e-3)
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
                       s_span=(-0.8, 0.8), step=2e-3, max_step=2e-3)
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
    v3 = v[0] * jet.d_t + v[1] * jet.d_z
    phi = float(np.arctan2(v3 @ sd.e2, v3 @ sd.e1))
    tr = trace_isogonal(TraceRequest(enn, (0.3, 0.2),
                                     IsogonalMode(phi, float(np.linalg.norm(v3))),
                                     s_span=(0.0, 0.5), step=0.125))
    assert np.max(np.abs(np.array(half) - tr.uv[-1])) < 1e-8


def test_isogonal_map_boundary_exit():
    enn = make_enneper()
    with pytest.raises(BoundaryExitError):
        isogonal_map(enn, (1.5, 1.5), (40.0, 0.0))


def test_isogonal_map_jacobian_is_identity():
    enn = make_enneper()
    h = 1e-4
    jac = np.empty((2, 2))
    for j, dv in enumerate(((h, 0.0), (0.0, h))):
        up = np.array(isogonal_map(enn, (0.3, 0.2), dv))
        um = np.array(isogonal_map(enn, (0.3, 0.2), (-dv[0], -dv[1])))
        jac[:, j] = (up - um) / (2 * h)
    assert np.max(np.abs(jac - np.eye(2))) < 1e-4


def _paraboloid():
    # z = (t^2 + z^2)/2: isolated umbilic at the origin, F != 0 off-axis
    # elementwise chart (see SurfaceDef): the trace post-processing and
    # curve_scalars evaluate it on sample arrays
    def position(t, z):
        return vec3(t, t, z, 0.5 * (t * t + z * z))

    def jet(t, z):
        return SurfaceJet2(position(t, z),
                           vec3(t, 1.0, 0.0, t), vec3(t, 0.0, 1.0, z),
                           vec3(t, 0.0, 0.0, 1.0), vec3(t, 0.0, 0.0, 0.0),
                           vec3(t, 0.0, 0.0, 1.0))

    return SurfaceDef("paraboloid", Domain(-2, 2, -2, 2), position, jet)


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
    dict(mode=GeodesicMode((np.nan, 1.0))), dict(step=0.0), dict(step=-0.01),
    dict(step=np.nan), dict(s_span=(0.5, 1.0)), dict(s_span=(-np.inf, 1.0)),
    dict(atol=0.0), dict(rtol=-1e-9), dict(max_step=0.0)])
def test_invalid_request_fails_fast(change):
    fields = dict(surface=make_enneper(), start_uv=(0.0, 1.0),
                  mode=IsogonalMode(0.5))
    with pytest.raises(InvalidRequestError):
        TraceRequest(**{**fields, **change})
