import numpy as np
import pytest

from surftrace import (analyze_intersection, classify_curve_data,
                       make_fixture, make_sphere)
from surftrace.errors import (DegenerateParameterError, PreimageMismatchError,
                              TangencyError, UnknownFixtureError)
from surftrace.intersect import SharedCurve

from conftest import rk45_reference


def test_unknown_fixture():
    with pytest.raises(UnknownFixtureError):
        make_fixture("torus_torus")


@pytest.mark.parametrize("params", [{"n": 10}, {"h": "x"}, {"h": None},
                                    {"h": 1.5}, {"d": 3.0}, {"tilt": 2.0}])
def test_make_fixture_checks_its_keywords(params):
    # an unknown or non-numeric keyword names the accepted parameters, and
    # a number out of the fixture's range is named with its range
    ((key, value),) = params.items()
    name = {"d": "sphere_sphere", "tilt": "cylinder_plane"}.get(
        key, "sphere_plane")
    match = f"{key} = {value:g}: need" if isinstance(value, float) \
        else "accepted: h,"
    with pytest.raises(DegenerateParameterError, match=match):
        make_fixture(name, **params)


def test_sphere_plane_geometry():
    fx = make_fixture("sphere_plane", h=0.5)
    radii = np.linalg.norm(fx.curve.spatial[:, :2], axis=1)
    assert np.max(np.abs(radii - np.sqrt(3.0) / 2.0)) < 1e-12
    assert np.all(fx.curve.spatial[:, 2] == 0.5)
    assert len(fx.curve.s) >= 64


def test_preimages_reproduce_curve():
    for name, params in (("sphere_plane", {"h": 0.5}),
                         ("sphere_sphere", {"d": 1.0}),
                         ("cylinder_plane", {"tilt": np.pi / 6})):
        fx = make_fixture(name, **params)
        for surf, uv in ((fx.m, fx.curve.uv_m), (fx.mbar, fx.curve.uv_mbar)):
            for i in range(0, len(fx.curve.s), 37):
                pos = surf.position(*uv[i])
                assert np.linalg.norm(pos - fx.curve.spatial[i]) < 1e-9


def test_preimage_vel_acc_match_finite_differences():
    from surftrace.numdiff import diff_uniform
    from oracles import diff2_uniform
    fx = make_fixture("sphere_sphere", d=1.0)
    h = fx.curve.s[1] - fx.curve.s[0]
    for uv, vel, acc in ((fx.curve.uv_m, fx.curve.uv_m_vel, fx.curve.uv_m_acc),
                         (fx.curve.uv_mbar, fx.curve.uv_mbar_vel,
                          fx.curve.uv_mbar_acc)):
        fd_vel = diff_uniform(uv, h, edge_order=4)
        fd_acc = diff2_uniform(uv, h)
        assert np.max(np.abs(fd_vel - vel)) < 1e-8
        assert np.max(np.abs(fd_acc - acc)[2:-2]) < 1e-6


def test_sphere_plane_constant_angle(fixture_reports):
    rep = fixture_reports["sphere_plane"]
    assert rep.constant_angle.is_constant
    # inward sphere normal vs +z plane normal at height 1/2: angle 2pi/3
    assert abs(rep.constant_angle.mean - 2 * np.pi / 3) < 1e-12
    assert rep.angle_residual < 1e-6
    assert rep.relation_residual < 1e-6
    assert not rep.ambiguous_eps


def test_sphere_sphere_angle_is_pi_over_3(fixture_reports):
    rep = fixture_reports["sphere_sphere"]
    assert rep.constant_angle.is_constant
    assert abs(rep.constant_angle.mean - np.pi / 3) < 1e-10
    assert rep.angle_residual < 1e-6
    assert rep.relation_residual < 1e-6


def test_cylinder_plane_tilted_not_constant(fixture_reports):
    rep = fixture_reports["cylinder_plane"]
    assert not rep.constant_angle.is_constant
    assert rep.constant_angle.max_dev > 0.05
    assert rep.angle_residual < 1e-6
    assert rep.relation_residual < 1e-6


@pytest.mark.parametrize("tilt", [0.0, np.pi / 6, 1.0])
def test_cylinder_plane_arc_length_matches_solve_ivp(tilt):
    # psi(s) from d psi / d s = 1 / sqrt(1 + tan^2(tilt) sin^2(psi)), by
    # scipy's RK45 at the fixture's tolerances, one branch each way from
    # the stepper's shared start
    fx = make_fixture("cylinder_plane", tilt=tilt)
    s = fx.curve.s
    ta2 = np.tan(tilt) ** 2

    def dpsi(_s, y):
        return [1.0 / np.sqrt(1.0 + ta2 * np.sin(y[0]) ** 2)]

    def branch(end):
        return rk45_reference(dpsi, [0.0], end, 1e-13, 1e-12).sol

    ref = np.where(s >= 0, branch(s[-1])(np.clip(s, 0, None))[0],
                   branch(s[0])(np.clip(s, None, 0))[0])
    assert len(s) == 1024
    assert np.max(np.abs(fx.curve.uv_m[:, 1] - ref)) < 1e-11


def test_cylinder_plane_untilted_is_right_angle():
    fx = make_fixture("cylinder_plane", tilt=0.0)
    rep = analyze_intersection(fx.m, fx.mbar, fx.curve)
    assert rep.constant_angle.is_constant
    assert abs(rep.constant_angle.mean - np.pi / 2) < 1e-12


def test_constant_angle_transfers_pseudogeodesic(fixture_reports):
    # pseudo-geodesic on one side + constant angle -> pseudo-geodesic on
    # the other; and pseudo-geodesic on both sides -> constant angle
    for name, rep in fixture_reports.items():
        pg_m = classify_curve_data(rep.curve_m).pseudo_geodesic.is_constant
        pg_b = classify_curve_data(rep.curve_mbar).pseudo_geodesic.is_constant
        if pg_m and rep.constant_angle.is_constant:
            assert pg_b, name
        if pg_m and pg_b:
            assert rep.constant_angle.is_constant, name
        if pg_m and not rep.constant_angle.is_constant:
            assert not pg_b, name


def test_preimage_mismatch_detected():
    fx = make_fixture("sphere_plane", h=0.5)
    bad_uv = fx.curve.uv_m.copy()
    bad_uv[:, 0] += 0.01
    bad = SharedCurve(fx.curve.s, fx.curve.spatial, bad_uv,
                      fx.curve.uv_m_vel, fx.curve.uv_m_acc,
                      fx.curve.uv_mbar, fx.curve.uv_mbar_vel,
                      fx.curve.uv_mbar_acc)
    with pytest.raises(PreimageMismatchError):
        analyze_intersection(fx.m, fx.mbar, bad)


def test_tangency_detected():
    # the same sphere twice: normals coincide along any shared curve
    fx = make_fixture("sphere_plane", h=0.0)
    sph = make_sphere(1.0)
    same = SharedCurve(fx.curve.s, fx.curve.spatial,
                       fx.curve.uv_m, fx.curve.uv_m_vel, fx.curve.uv_m_acc,
                       fx.curve.uv_m, fx.curve.uv_m_vel, fx.curve.uv_m_acc)
    with pytest.raises(TangencyError):
        analyze_intersection(sph, sph, same)
