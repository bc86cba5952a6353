import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surftrace import (classify_curve, classify_curve_data, constancy_test,
                       curve_scalars, helix_axis, linear_dependence_test,
                       make_crpc_revolution, make_cylinder, make_enneper,
                       make_plane, make_sphere, surface_class_probe)
from surftrace.classify import (_principal_series, proposition_checks,
                                render_report)
from surftrace.darboux import frenet_apparatus
from surftrace.errors import TooFewSamplesError, VanishingCurvatureError
from surftrace.scenarios import _iso_chart

from test_darboux import plane_circle_samples


# ---------------------------------------------------------------------------
# constancy / dependence primitives
# ---------------------------------------------------------------------------

def test_constancy_exact():
    v = constancy_test([1, 1, 1, 1, 1], 1e-9, 0.0)
    assert v.is_constant and v.mean == 1.0 and v.max_dev == 0.0


def test_constancy_tolerance_arithmetic():
    v = constancy_test([2.0, 2.0, 2.0, 2.0, 2.0 + 5e-6], 1e-6, 1e-6)
    assert v.tolerance_used == pytest.approx(1e-6 + 2e-6 * (1 + 1e-6 / 4),
                                             rel=1e-3)
    assert not v.is_constant


def test_constancy_too_few():
    with pytest.raises(TooFewSamplesError):
        constancy_test([1.0, 2.0], 1e-6, 1e-6)


def test_dependence_exact_multiple():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    v = linear_dependence_test(x, -2.0 * x)
    assert v.dependent and v.residual < 1e-14
    # 2x + y = 0 -> coefficients proportional to (2, 1)
    assert np.allclose(v.coeffs, np.array([2.0, 1.0]) / np.sqrt(5.0))


def test_dependence_both_zero_degenerate():
    z = np.zeros(6)
    v = linear_dependence_test(z, z)
    assert v.dependent and v.degenerate and v.coeffs == (1.0, 0.0)


def test_dependence_generic_pair_not_dependent():
    s = np.linspace(0, 1, 50)
    v = linear_dependence_test(np.cos(s), np.sin(s) + 2.0)
    assert not v.dependent
    assert v.residual > 1e-3


@settings(max_examples=40, derandomize=True)
@given(st.floats(0.1, 10.0), st.floats(-3.0, 3.0))
def test_dependence_scale_invariance(scale, ratio):
    x = np.linspace(1.0, 2.0, 20)
    y = ratio * x
    v1 = linear_dependence_test(x, y)
    v2 = linear_dependence_test(scale * x, scale * y)
    assert v1.dependent and v2.dependent
    assert abs(v1.residual - v2.residual) < 1e-12


@settings(max_examples=40, derandomize=True)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_dependence_finds_planted_coefficients(a, b):
    norm = np.hypot(a, b)
    if norm < 1e-3:
        return
    a, b = a / norm, b / norm
    s = np.linspace(0.0, 1.0, 40)
    base = 1.0 + 0.5 * np.sin(3 * s)
    # x, y with a x + b y = 0
    x, y = b * base, -a * base
    v = linear_dependence_test(x, y)
    assert v.dependent
    got = np.array(v.coeffs)
    want = np.array([a, b])
    if want[0] < 0 or (want[0] == 0 and want[1] < 0):
        want = -want
    assert np.max(np.abs(got - want)) < 1e-8


# ---------------------------------------------------------------------------
# curve classification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def s2_report_and_curve():
    enn = make_enneper()
    tr = _iso_chart(enn, (0.0, 1.0), np.pi / 6, (-1.2, 1.2))
    from surftrace import curve_scalars_from_trace
    cd = curve_scalars_from_trace(enn, tr)
    return classify_curve_data(cd), cd


def test_enneper_isogonal_classification(s2_report_and_curve):
    rep, _ = s2_report_and_curve
    assert rep.isogonal.is_constant
    assert rep.pseudo_geodesic.is_constant
    assert rep.helix.is_helix
    assert not rep.line_of_curvature
    assert not rep.geodesic
    assert rep.crpc_along.dependent          # minimal: k1 + k2 = 0
    assert np.allclose(rep.crpc_along.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-6)
    assert not rep.cskc_along.is_constant
    assert rep.kntg_dep.dependent


def test_enneper_origin_isogonal_is_geodesic():
    enn = make_enneper()
    tr = _iso_chart(enn, (0.0, 0.0), np.pi / 6, (-1.0, 1.0))
    rep = classify_curve(enn, tr)
    assert rep.geodesic
    assert rep.isogonal.is_constant and rep.pseudo_geodesic.is_constant


def _principal_series_loop(curve):
    # the per-sample reference the vectorized series must reproduce bitwise
    k1 = np.empty(len(curve))
    k2 = np.empty(len(curve))
    for i in range(len(curve)):
        ph = curve.phi[i]
        if np.isnan(ph):
            k1[i] = k2[i] = curve.kn[i]
            continue
        c, s = np.cos(ph), np.sin(ph)
        cs = c * s
        if abs(cs) > 1e-12:
            diff = curve.taug[i] / cs
        else:
            diff = 0.0 if abs(curve.taug[i]) < 1e-12 else np.nan
        k2[i] = curve.kn[i] - diff * c * c
        k1[i] = k2[i] + diff
    return k1, k2


def test_principal_series_matches_loop(s2_report_and_curve):
    _rep, cd = s2_report_and_curve
    # NaN phi (umbilic), cos(phi) sin(phi) ~ 0 with and without taug ~ 0
    edited = dataclasses.replace(
        cd, phi=np.r_[np.nan, 0.0, np.pi / 2, 1e-13, cd.phi[4:]],
        taug=np.r_[cd.taug[:2], 0.0, 1e-3, cd.taug[4:]])
    for curve in (cd, edited):
        got = _principal_series(curve)
        want = _principal_series_loop(curve)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
    k1, k2 = _principal_series(edited)
    assert k1[0] == k2[0] == edited.kn[0]
    assert k1[2] == k2[2] and np.isnan(k1[3]) and np.isnan(k2[3])


def test_helix_axis_matches_line_family(s2_report_and_curve):
    rep, cd = s2_report_and_curve
    m, n = np.tan(np.pi / 6), 1.0
    w = np.array([m, 1.0, -n]) / np.sqrt(1 + m * m + n * n)
    axis = rep.helix.axis.copy()
    if axis @ w < 0:
        axis = -axis
    assert np.max(np.abs(axis - w)) < 1e-5
    # <axis, N> constant with |value| n / sqrt(1 + m^2 + n^2)
    assert rep.helix.axis_dot_n.is_constant
    assert abs(abs(rep.helix.axis_dot_n.mean)
               - n / np.sqrt(1 + m * m + n * n)) < 1e-6


def test_plane_circle_classification():
    plane = make_plane()
    cd = curve_scalars(plane, *plane_circle_samples(2.0, n=1201))
    rep = classify_curve_data(cd)
    assert rep.isogonal is None              # phi undefined at umbilics
    assert rep.pseudo_geodesic.is_constant
    assert abs(abs(rep.pseudo_geodesic.mean) - np.pi / 2) < 1e-9
    assert rep.planar
    assert rep.line_of_curvature             # taug = 0 on a plane
    assert rep.helix.is_helix
    assert np.allclose(rep.helix.mn, (0.0, 1.0), atol=1e-9)
    axis = rep.helix.axis
    assert abs(abs(axis[2]) - 1.0) < 1e-8    # chart normal
    assert abs(abs(rep.helix.axis_dot_n.mean) - 1.0) < 1e-8


def test_helix_axis_refuses_vanishing_curvature():
    plane = make_plane()
    s = np.linspace(-0.5, 0.5, 101)
    uv = np.column_stack([s, np.zeros_like(s)])
    vel = np.tile([1.0, 0.0], (101, 1))
    acc = np.zeros((101, 2))
    cd = curve_scalars(plane, s, uv, vel, acc)
    with pytest.raises(VanishingCurvatureError):
        helix_axis(cd, frenet_apparatus(cd.pos, s[1] - s[0]))
    # but classification falls back to the degenerate straight-line report
    rep = classify_curve_data(cd)
    assert rep.helix.is_helix and rep.helix.degenerate


def test_render_report_is_text(s2_report_and_curve):
    rep, _ = s2_report_and_curve
    text = render_report(rep)
    assert "isogonal:" in text and "helix:" in text
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# surface probes
# ---------------------------------------------------------------------------

def test_probe_crpc_revolution():
    crpc = make_crpc_revolution(2.0, 1)
    out = surface_class_probe(crpc)
    assert out["crpc"].dependent and not out["crpc"].degenerate
    # t-direction curvature (our kappa2) is twice the z-direction one:
    # 2 kappa1 - kappa2 = 0
    want = np.array([2.0, -1.0]) / np.sqrt(5.0)
    assert np.max(np.abs(np.array(out["crpc"].coeffs) - want)) < 1e-8
    assert not out["cskc"].is_constant


def test_probe_enneper_minimal():
    out = surface_class_probe(make_enneper())
    assert out["crpc"].dependent
    assert np.allclose(out["crpc"].coeffs, [1 / np.sqrt(2)] * 2, atol=1e-10)
    assert not out["cskc"].is_constant


def test_probe_cylinder_constant_skew():
    out = surface_class_probe(make_cylinder(1.0))
    assert out["cskc"].is_constant
    assert abs(abs(out["cskc"].mean) - 1.0) < 1e-12


def test_probe_sphere_all_umbilic():
    out = surface_class_probe(make_sphere(1.0))
    assert out["crpc"].dependent and out["crpc"].degenerate
    assert out["umbilic_fraction"] == 1.0
    assert out["cskc"].is_constant and abs(out["cskc"].mean) < 1e-12


def test_probe_needs_enough_points():
    with pytest.raises(TooFewSamplesError):
        surface_class_probe(make_enneper(), grid=[(0.0, 0.0)] * 10)


# ---------------------------------------------------------------------------
# cross-implications
# ---------------------------------------------------------------------------

def test_proposition_checks_on_curvature_line():
    # a planar line of curvature must come out pseudo-geodesic (trio rule)
    from surftrace import make_bonnet
    bon = make_bonnet(0.5)
    tr = _iso_chart(bon, (0.4, 0.2), 0.0, (-0.9, 0.9))
    rep = classify_curve(bon, tr)
    assert rep.line_of_curvature and rep.planar
    assert rep.pseudo_geodesic.is_constant
    props = proposition_checks(rep)
    trio = props["planar_lof_pseudogeodesic_trio"]
    assert trio["applicable"] and trio["holds"]
    # helix-vs-principal-dependence is excluded on lines of curvature
    assert props["helix_iff_principal_dependent"]["excluded"]
