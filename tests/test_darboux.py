import numpy as np
import pytest

from surftrace import (curve_scalars, curve_scalars_from_trace,
                       frenet_apparatus, liouville_residuals, make_catenoid,
                       make_cylinder, make_enneper, make_helix_surface,
                       make_plane, make_sphere, point_shape,
                       pointwise_direction_scalars)
from surftrace.errors import (NonTangentDirectionError, NonUnitSpeedError,
                              TooFewSamplesError, UmbilicPointError,
                              VanishingCurvatureError)
from surftrace.numdiff import diff2_uniform, diff3_uniform, diff_uniform
from surftrace.tracer import (GeodesicMode, IsogonalMode, TraceRequest,
                              chart_to_principal_angle, trace_geodesic,
                              trace_isogonal)


def plane_circle_samples(radius, n=801, span=2.4, center=(0.0, 0.0)):
    s = np.linspace(-span / 2, span / 2, n)
    psi = s / radius
    uv = np.column_stack([center[0] + radius * np.cos(psi),
                          center[1] + radius * np.sin(psi)])
    vel = np.column_stack([-np.sin(psi), np.cos(psi)])
    acc = np.column_stack([-np.cos(psi) / radius, -np.sin(psi) / radius])
    return s, uv, vel, acc


def cylinder_helix_samples(r, pitch_angle, n=1001, span=2.0):
    # chart: t along the ruling, z around the circle; arc-length helix
    s = np.linspace(-span / 2, span / 2, n)
    tp, zp = np.sin(pitch_angle), np.cos(pitch_angle)
    uv = np.column_stack([tp * s, zp * s])
    vel = np.tile([tp, zp], (n, 1))
    acc = np.zeros((n, 2))
    return s, uv, vel, acc


# ---------------------------------------------------------------------------
# pointwise scalars
# ---------------------------------------------------------------------------

def test_principal_direction_scalars():
    enn = make_enneper()
    _, _, sd = point_shape(enn, 0.4, -0.2)
    kn, taug, phi = pointwise_direction_scalars(sd, sd.e1)
    assert abs(kn - sd.kappa1) < 1e-12
    assert abs(taug) < 1e-12
    assert abs(phi) < 1e-12


def test_enneper_origin_diagonal_direction():
    enn = make_enneper()
    _, _, sd = point_shape(enn, 0.0, 0.0)
    direction = (sd.e1 + sd.e2) / np.sqrt(2)
    kn, taug, phi = pointwise_direction_scalars(sd, direction)
    assert abs(kn) < 1e-12
    assert abs(taug + 2.0) < 1e-12
    assert abs(phi - np.pi / 4) < 1e-12


def test_umbilic_point_refused():
    sph = make_sphere(1.0)
    jet, _, sd = point_shape(sph, 0.2, 0.3)
    with pytest.raises(UmbilicPointError):
        pointwise_direction_scalars(sd, jet.d_t / np.linalg.norm(jet.d_t))


def test_non_tangent_direction_refused():
    enn = make_enneper()
    _, _, sd = point_shape(enn, 0.4, -0.2)
    with pytest.raises(NonTangentDirectionError):
        pointwise_direction_scalars(sd, sd.normal)


# ---------------------------------------------------------------------------
# curve scalars
# ---------------------------------------------------------------------------

def test_plane_circle_scalars():
    plane = make_plane()
    cd = curve_scalars(plane, *plane_circle_samples(2.0))
    assert np.max(np.abs(cd.kappa - 0.5)) < 1e-10
    assert np.max(np.abs(cd.tau)) < 1e-8
    assert np.max(np.abs(cd.kn)) < 1e-12
    assert np.max(np.abs(np.abs(cd.theta) - np.pi / 2)) < 1e-10
    assert len(cd.umbilic_idx) == len(cd)  # plane is totally umbilic
    assert np.all(np.isnan(cd.phi))


def test_cylinder_helix_scalars():
    cyl = make_cylinder(1.0)
    cd = curve_scalars(cyl, *cylinder_helix_samples(1.0, np.pi / 4))
    assert np.max(np.abs(cd.kappa - 0.5)) < 1e-10
    assert np.max(np.abs(np.abs(cd.tau) - 0.5)) < 1e-8
    # geodesic of the cylinder: kg = 0, tau = taug
    assert np.max(np.abs(cd.kg)) < 1e-12
    assert np.max(np.abs(cd.tau - cd.taug)) < 1e-8


def test_geodesic_has_vanishing_kg_and_tau_equals_taug():
    enn = make_enneper()
    req = TraceRequest(enn, (0.2, -0.1), GeodesicMode((0.7, 0.4)),
                       s_span=(-0.7, 0.7), step=2e-3, max_step=2e-3)
    tr = trace_geodesic(req)
    cd = curve_scalars_from_trace(enn, tr)
    assert np.max(np.abs(cd.kg)) < 1e-9
    assert np.max(np.abs(cd.theta - cd.theta[0])) < 1e-8
    assert np.max(np.abs(cd.tau - cd.taug)) < 1e-7


def test_non_unit_speed_rejected():
    plane = make_plane()
    s, uv, vel, acc = plane_circle_samples(2.0)
    with pytest.raises(NonUnitSpeedError):
        curve_scalars(plane, s, uv, 1.1 * vel, acc)


def test_too_few_samples_rejected():
    plane = make_plane()
    s, uv, vel, acc = plane_circle_samples(2.0, n=4, span=0.01)
    with pytest.raises(TooFewSamplesError):
        curve_scalars(plane, s, uv, vel, acc)


def test_pythagorean_curvature_identity():
    enn = make_enneper()
    phi = chart_to_principal_angle(enn, (0.0, 1.0), np.pi / 6)
    tr = trace_isogonal(TraceRequest(enn, (0.0, 1.0), IsogonalMode(phi),
                                     s_span=(-1.0, 1.0), step=2e-3))
    cd = curve_scalars_from_trace(enn, tr)
    resid = np.abs(cd.kappa ** 2 - (cd.kg ** 2 + cd.kn ** 2)) / (1 + cd.kappa ** 2)
    assert np.max(resid) < 1e-10
    # theta reconstruction identities
    assert np.max(np.abs(cd.kg - np.sin(cd.theta) * cd.kappa)) < 1e-10
    assert np.max(np.abs(cd.kn - np.cos(cd.theta) * cd.kappa)) < 1e-10


# ---------------------------------------------------------------------------
# Frenet apparatus
# ---------------------------------------------------------------------------

def test_frenet_straight_line_refused():
    s = np.linspace(0, 1, 101)
    pos = np.column_stack([s, 2 * s, -s]) / np.sqrt(6)
    with pytest.raises(VanishingCurvatureError):
        frenet_apparatus(pos, s[1] - s[0])


def test_frenet_plane_circle():
    s = np.linspace(0, 3, 1501)
    psi = s / 2.0
    pos = np.column_stack([2 * np.cos(psi), 2 * np.sin(psi), np.zeros_like(s)])
    fd = frenet_apparatus(pos, s[1] - s[0])
    assert np.max(np.abs(fd.kappa - 0.5)) < 1e-6
    assert np.max(np.abs(fd.tau)) < 1e-6


def test_frenet_helix_sign_convention():
    # right-handed helix: standard torsion +b w^2, ours is the negative
    a, b = 1.0, 0.5
    w = 1.0 / np.sqrt(a * a + b * b)
    s = np.linspace(0, 4, 2001)
    pos = np.column_stack([a * np.cos(w * s), a * np.sin(w * s), b * w * s])
    fd = frenet_apparatus(pos, s[1] - s[0])
    assert np.max(np.abs(fd.kappa - a * w * w)) < 1e-5
    assert np.max(np.abs(fd.tau + b * w * w)) < 1e-5
    # interior limited by the roundoff floor of the h^-3 stencil
    assert np.max(np.abs(fd.tau + b * w * w)[5:-5]) < 2e-7


def test_frenet_agrees_with_curve_scalars_on_trace():
    enn = make_enneper()
    phi = chart_to_principal_angle(enn, (0.0, 1.0), np.pi / 6)
    tr = trace_isogonal(TraceRequest(enn, (0.0, 1.0), IsogonalMode(phi),
                                     s_span=(-1.0, 1.0), step=2e-3,
                                     max_step=2e-3))
    cd = curve_scalars_from_trace(enn, tr)
    fd = frenet_apparatus(cd.pos, 2e-3)
    mask = fd.kappa > 1e-3
    assert np.max((np.abs(cd.kappa - fd.kappa) / (1 + fd.kappa))[mask]) < 1e-5
    assert np.max((np.abs(cd.tau - fd.tau)
                   / (1 + np.abs(fd.tau)))[mask]) < 1e-5


def test_frenet_agreement_across_scenario_corpus(corpus):
    from surftrace.scenarios import fixture_side_curves
    worst_k = worst_t = 0.0
    for cc in list(corpus) + fixture_side_curves():
        cd = cc.curve
        fd = frenet_apparatus(cd.pos, float(cd.s[1] - cd.s[0]))
        mask = fd.kappa > 1e-3
        if not np.any(mask):
            continue
        worst_k = max(worst_k, float(np.max(
            (np.abs(cd.kappa - fd.kappa) / (1 + fd.kappa))[mask])))
        worst_t = max(worst_t, float(np.max(
            (np.abs(cd.tau - fd.tau) / (1 + np.abs(fd.tau)))[mask])))
    assert worst_k < 1e-5, worst_k
    assert worst_t < 1e-5, worst_t


# ---------------------------------------------------------------------------
# Liouville residuals
# ---------------------------------------------------------------------------

def test_liouville_on_isogonal_and_coordinate_curves():
    enn = make_enneper()
    phi = chart_to_principal_angle(enn, (0.0, 1.0), np.pi / 6)
    tr = trace_isogonal(TraceRequest(enn, (0.0, 1.0), IsogonalMode(phi),
                                     s_span=(-1.0, 1.0), step=2e-3,
                                     max_step=2e-3))
    cd = curve_scalars_from_trace(enn, tr)
    assert np.max(np.abs(liouville_residuals(enn, cd))) < 1e-6

    # z = const coordinate curve on the catenoid (E1 along the meridian)
    cat = make_catenoid()
    tr = trace_isogonal(TraceRequest(cat, (0.1, 0.4), IsogonalMode(0.0),
                                     s_span=(-0.5, 0.5), step=2e-3,
                                     max_step=2e-3))
    cdc = curve_scalars_from_trace(cat, tr)
    assert np.max(np.abs(cdc.uv[:, 1] - 0.4)) < 1e-9  # stays on z = const
    assert np.max(np.abs(liouville_residuals(cat, cdc))) < 1e-6
    # with phi = 0 the residual reduces to kg - kg1
    kg1 = np.array([cat.oracle.kg1(t, z) for t, z in cdc.uv])
    assert np.max(np.abs(cdc.kg - kg1)) < 1e-6


def test_liouville_on_ruled_surface_isogonal():
    hel = make_helix_surface(1.0, np.pi / 4)
    tr = trace_isogonal(TraceRequest(hel, (0.0, 0.0), IsogonalMode(0.8),
                                     s_span=(-0.8, 0.8), step=2e-3,
                                     max_step=2e-3))
    cd = curve_scalars_from_trace(hel, tr)
    assert np.max(np.abs(liouville_residuals(hel, cd))) < 1e-6


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def test_stencil_orders():
    s = np.linspace(0.0, 2.0, 1001)
    h = s[1] - s[0]
    y = np.sin(s)
    assert np.max(np.abs(diff_uniform(y, h) - np.cos(s))) < 3e-6
    assert np.max(np.abs(diff_uniform(y, h, edge_order=4) - np.cos(s))) < 1e-9
    assert np.max(np.abs(diff2_uniform(y, h) + np.sin(s))) < 1e-5
    assert np.max(np.abs(diff3_uniform(y, h) + np.cos(s))) < 1e-4
    # interior is 4th order
    assert np.max(np.abs(diff_uniform(y, h) - np.cos(s))[2:-2]) < 1e-11
    assert np.max(np.abs(diff3_uniform(y, h) + np.cos(s))[3:-3]) < 1e-7


def test_curve_scalars_match_pointwise_direction_scalars():
    # the batched Darboux pass against the per-sample reference, with the
    # same sequential E1 sign chain
    enn = make_enneper()
    req = TraceRequest(enn, (0.0, 1.0), IsogonalMode(np.pi / 6),
                       s_span=(-0.8, 0.8), step=2e-3)
    tr = trace_isogonal(req)
    cd = curve_scalars_from_trace(enn, tr)
    hint = None
    for i, (t, z) in enumerate(tr.uv):
        sd = point_shape(enn, t, z, hint, check_domain=False)[2]
        hint = sd.e1
        kn, taug, phi = pointwise_direction_scalars(sd, cd.T[i])
        assert abs(cd.kn[i] - kn) < 1e-12
        assert abs(cd.taug[i] - taug) < 1e-12
        assert abs(np.angle(np.exp(1j * (cd.phi[i] - phi)))) < 1e-12
