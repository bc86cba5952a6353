import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import fresnel

from surftrace import (classify_curve, classify_curve_data, constancy_test,
                       curve_scalars, curve_scalars_from_trace, helix_axis,
                       linear_dependence_test, make_crpc_revolution,
                       make_cylinder, make_enneper, make_plane, make_sphere,
                       surface_class_probe)
from surftrace.classify import (DEPENDENCE_RESIDUAL_MAX, FLAG_TOL,
                                GRAY_FACTOR, ClassificationReport,
                                ScenarioCheck, _bounded, proposition_checks,
                                render_report)
from surftrace.errors import (InvalidRequestError, NonUnitSpeedError,
                              TooFewSamplesError)
from surftrace.scenarios import CURVES, traced
from surftrace.tracer import (IsogonalMode, TraceRequest,
                              chart_to_principal_angle, trace)

from oracles import frenet_apparatus
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


@pytest.mark.parametrize("n", [5, 9, 100, 1001])
def test_reductions_equal_the_numpy_calls_they_replace(n):
    # classify reduces with ndarray methods; np.mean, np.max and
    # np.linalg.norm give the same bits
    rng = np.random.default_rng(n)
    v = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
    verdict = constancy_test(v, 1e-6, 1e-6)
    mean = float(np.mean(v))
    assert verdict.mean.hex() == mean.hex()
    assert verdict.max_dev.hex() == float(np.max(np.abs(v - mean))).hex()
    assert np.abs(v).max() == np.max(np.abs(v))
    axes = rng.normal(size=(n, 3))
    axis = axes.sum(axis=0) / len(axes)
    assert axis.tobytes() == np.mean(axes, axis=0).tobytes()
    assert math.sqrt(axis @ axis).hex() == float(np.linalg.norm(axis)).hex()


def test_constancy_too_few():
    with pytest.raises(TooFewSamplesError):
        constancy_test([1.0, 2.0], 1e-6, 1e-6)


@pytest.mark.parametrize("tols, where", [
    ((np.nan, 1e-6), "abs_tol 'nan'"), ((-1.0, 1e-6), "abs_tol '-1.0'"),
    ((1e-6, np.inf), "rel_tol 'inf'"), ((1e-6, "x"), "rel_tol 'x'")])
def test_constancy_refuses_a_tolerance_that_is_not_finite_and_positive(
        tols, where):
    # a NaN or negative tolerance once read a constant series as varying
    with pytest.raises(InvalidRequestError, match=re.escape(where)):
        constancy_test(np.ones(9), *tols)


@pytest.mark.parametrize("bad, where", [
    (np.nan, "values[3] = nan"), (np.inf, "values[3] = inf"),
    (-np.inf, "values[3] = -inf")])
def test_constancy_refuses_non_finite_samples(bad, where):
    # a NaN sample once gave a silent "not constant"; the first bad
    # sample is named, warning-free
    v = np.ones(9)
    v[3], v[7] = bad, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidRequestError, match=re.escape(where)):
            constancy_test(v)


@pytest.mark.parametrize("values, where", [
    ([1e308] * 6, "the values' sum overflows"),
    ([np.inf, -np.inf, 0.0, 0.0, 0.0], "values[0] = inf")],
    ids=["sum-overflows", "inf-minus-inf"])
def test_constancy_refuses_a_sum_past_the_float_range_without_warnings(
        values, where):
    # numpy's reduce once warned of the overflow (or of inf - inf) before
    # the refusal; the suite turns that RuntimeWarning into an error
    with pytest.raises(InvalidRequestError, match=re.escape(where)):
        constancy_test(values)


def test_constancy_deviation_past_the_float_range_is_not_constant():
    # the sum is finite, but 1.7e308 - mean is not: inf, which no tolerance
    # passes, and no warning
    v = constancy_test([1.7e308, -1.7e308, -1.7e308, 1.7e308, -1.7e308])
    assert not v.is_constant and v.max_dev == math.inf


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


@settings(max_examples=40)
@given(st.floats(0.1, 10.0), st.floats(-3.0, 3.0))
def test_dependence_scale_invariance(scale, ratio):
    x = np.linspace(1.0, 2.0, 20)
    y = ratio * x
    v1 = linear_dependence_test(x, y)
    v2 = linear_dependence_test(scale * x, scale * y)
    assert v1.dependent and v2.dependent
    assert abs(v1.residual - v2.residual) < 1e-12


@settings(max_examples=40)
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


@pytest.mark.parametrize("x_bad, y_bad, where", [
    (np.nan, None, "x[3] = nan"), (None, np.inf, "y[3] = inf"),
    (None, -np.inf, "y[3] = -inf"), (np.inf, np.nan, "x[3] = inf")])
def test_dependence_refuses_non_finite_samples(x_bad, y_bad, where):
    # a NaN once raised numpy's LinAlgError, and an inf read dependent with
    # residual 0; the first bad sample of x, then of y, is named
    x, y = np.linspace(1.0, 2.0, 6), np.linspace(0.0, 1.0, 6)
    x[3] = x[3] if x_bad is None else x_bad
    y[3] = y[3] if y_bad is None else y_bad
    y[5] = np.nan
    with pytest.raises(InvalidRequestError, match=re.escape(where)):
        linear_dependence_test(x, y)


def _svd_verdict(x, y):
    """(dependent, coeffs, residual) from np.linalg.svd, the reference."""
    _u, sv, vt = np.linalg.svd(np.column_stack([x, y]), full_matrices=False)
    a, b = vt[-1]
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    residual = sv[-1] / sv[0]
    return residual <= DEPENDENCE_RESIDUAL_MAX, (a, b), residual


_PAIRS = st.integers(5, 40).flatmap(lambda n: st.tuples(
    *[arrays(float, n, elements=st.floats(-1.0, 1.0))] * 2))
_SCALES = st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150, 1e200])
_RAMP = np.linspace(1.0, 2.0, 7)
_UNIT = np.eye(6)


@settings(max_examples=300)
@given(_PAIRS, st.floats(-4.0, 4.0),
       st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 1.0]), _SCALES, _SCALES)
# an exact multiple; a zero column on either side; orthogonal columns of
# equal norm; columns scaled by 1e+-150 (and 1e200, where x.x overflows
# unscaled); the 5-sample minimum
@example((_RAMP, _RAMP), -2.0, 0.0, 1.0, 1.0)
@example((0.0 * _RAMP, _RAMP ** 2), 0.0, 1.0, 1.0, 1.0)
@example((_RAMP, _RAMP ** 2), 0.0, 0.0, 1.0, 1.0)
@example((_UNIT[0], _UNIT[1]), 0.0, 1.0, 1.0, 1.0)
@example((_RAMP, np.sin(_RAMP)), 0.5, 1e-6, 1e150, 1e150)
@example((_RAMP, np.sin(_RAMP)), 0.5, 1e-3, 1e150, 1e-150)
@example((_RAMP, np.sin(_RAMP)), 0.5, 1.0, 1e-150, 1.0)
@example((_RAMP, np.sin(_RAMP)), 0.5, 1.0, 1e-150, 1e-150)
@example((_RAMP, np.sin(_RAMP)), 0.5, 1e-6, 1e200, 1e200)
@example((_RAMP[:5], np.cos(_RAMP[:5])), 1.0, 1.0, 1.0, 1.0)
@example((_UNIT[0, :5], np.array([2.2e-34, 1.0, 1.0, 1.0, 1.0])), 0.0,
         1e-15, 1e-8, 1e-150)
def test_dependence_agrees_with_lapack_svd(pair, ratio, noise, x_scale,
                                           y_scale):
    x0, z = pair
    x, y = x_scale * x0, y_scale * (ratio * x0 + noise * z)
    v = linear_dependence_test(x, y)
    if max(np.abs(x).max(), np.abs(y).max()) < 1e-13:
        assert v.degenerate and v.dependent
        return
    dependent, coeffs, residual = _svd_verdict(x, y)
    assert v.dependent == dependent and not v.degenerate
    assert abs(v.residual - residual) <= 1e-15 + 1e-13 * residual
    a, b = v.coeffs
    assert math.hypot(a, b) == pytest.approx(1.0, abs=1e-15)
    assert a > 0 or (a == 0 and b > 0)
    if residual <= 0.5:
        # up to sign: where a is at rounding size, so is the sign rule's
        # choice (LAPACK reads a = 0 for x = 1e-8 (1, 0, ...) and
        # y = 1e-165 (2.2e-34, 1, 1, ...), whose a is 2.2e-191)
        gap = np.abs(np.subtract(v.coeffs, coeffs)).max()
        flip = np.abs(np.add(v.coeffs, coeffs)).max()
        assert min(gap, flip) <= 1e-12
        assert gap <= 1e-12 or abs(a) <= 1e-12


# ---------------------------------------------------------------------------
# curve classification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def s2_report_and_curve():
    cd = traced(CURVES["enneper_iso_pi6"]).curve
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
    phi = chart_to_principal_angle(enn, (0.0, 0.0), np.pi / 6)
    tr = trace(TraceRequest(enn, (0.0, 0.0), IsogonalMode(phi),
                            s_span=(-1.0, 1.0), step=2e-3, atol=1e-15,
                            rtol=1e-14))
    rep = classify_curve(enn, tr)
    assert rep.geodesic
    assert rep.isogonal.is_constant and rep.pseudo_geodesic.is_constant


@pytest.mark.parametrize("name", ["bonnet_iso_curvature_line",
                                  "enneper_geo_m0"])
def test_curvature_line_skew_is_not_constant(name):
    # along a principal direction cos(phi) sin(phi) = 0, where Euler's
    # relations give no kappa1 - kappa2; the curve carries the shape pass's
    cc = traced(CURVES[name])
    sd = cc.trace.shape[2]
    assert np.array_equal(cc.curve.kappa1, sd.kappa1)
    assert np.array_equal(cc.curve.kappa2, sd.kappa2)
    assert not classify_curve_data(cc.curve).cskc_along.is_constant


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


@pytest.mark.parametrize("offset", [1e-3, 2e-7, 1e-12, 0.0])
def test_euler_spiral_through_its_inflection_is_a_planar_helix(offset):
    # kappa = |s + offset| on the plane, 801 samples at step 2e-3: the
    # inflection falls half a step from a sample, or at a sample whose
    # kappa is below darboux.KAPPA_FLAT, or exactly on one.  A planar curve
    # is a generalized helix, tau = 0, with its plane normal as axis.
    s = (np.arange(801) - 400) * 2e-3
    u = s + offset
    c, sn = np.cos(u * u / 2), np.sin(u * u / 2)
    fs, fc = fresnel(u / np.sqrt(np.pi))
    uv = np.sqrt(np.pi) * np.column_stack([fc, fs])
    cd = curve_scalars(make_plane(), s, uv, np.column_stack([c, sn]),
                       u[:, None] * np.column_stack([-sn, c]))
    rep = classify_curve_data(cd)
    assert rep.planar, rep.planar
    assert rep.helix.is_helix, rep.helix
    assert abs(abs(rep.helix.axis[2]) - 1.0) < 1e-12, rep.helix.axis


def test_helix_axis_of_a_straight_line_is_finite():
    plane = make_plane()
    s = np.linspace(-0.5, 0.5, 101)
    uv = np.column_stack([s, np.zeros_like(s)])
    vel = np.tile([1.0, 0.0], (101, 1))
    acc = np.zeros((101, 2))
    cd = curve_scalars(plane, s, uv, vel, acc)
    # the Frenet frame exists at flat samples too, so the fit gives an axis
    assert np.isfinite(helix_axis(cd).axis).all()
    # classification reports the degenerate straight-line helix
    rep = classify_curve_data(cd)
    assert rep.helix.is_helix and rep.helix.degenerate


def test_crpc_isogonal_near_the_axis_classifies():
    # the benchmark self-test's known-defect curve: it winds to t = 0.05,
    # where the position stencils of frenet_apparatus lose unit speed, but
    # the classifier's frame comes from the Darboux data
    crpc = make_crpc_revolution()
    tr = trace(TraceRequest(crpc, (0.38, -5.77), IsogonalMode(-2.39),
                            s_span=(-0.5, 0.5), step=2e-3))
    cd = curve_scalars_from_trace(crpc, tr)
    with pytest.raises(NonUnitSpeedError):
        frenet_apparatus(cd.pos, 2e-3)
    rep = classify_curve_data(cd)
    assert not rep.helix.is_helix
    assert not rep.helix.dependence.dependent


#: each threshold flag of a report and the series it bounds
FLAGS = {"geodesic": "kg", "line_of_curvature": "taug", "asymptotic": "kn",
         "planar": "tau"}


@pytest.mark.parametrize("name", ["enneper_iso_pi6",
                                  "bonnet_iso_curvature_line"])
def test_flags_are_checks_of_max_against_the_flag_limit(name):
    cd = traced(CURVES[name]).curve
    rep = classify_curve_data(cd)
    assert len(dataclasses.fields(ClassificationReport)) == 10
    limit = FLAG_TOL * (1.0 + float(cd.kappa.max()))
    for flag, series in FLAGS.items():
        check = getattr(rep, flag)
        assert type(check) is ScenarioCheck
        measured = float(np.abs(getattr(cd, series)).max())
        assert (check.measured, check.op, check.limit) == (measured, "<",
                                                           limit)
        assert check.passed is (measured < limit) is bool(check)
        assert check.margin == check.measured / check.limit
        assert f"{flag}:" in render_report(rep)


@pytest.mark.parametrize("side, excluded", [(-1, True), (0, False),
                                            (1, False)],
                         ids=["below", "at", "above"])
@pytest.mark.parametrize("flag, key", [
    ("asymptotic", "helix_iff_kn_taug_dependent"),
    ("line_of_curvature", "helix_iff_principal_dependent")])
def test_a_flag_below_gray_factor_times_its_limit_is_borderline(
        s2_report_and_curve, flag, key, side, excluded):
    # the curve is excluded while the flag reads below GRAY_FACTOR times
    # its limit, and judged from that value up: the float just below the
    # product, the product itself and the float just above it
    rep, _ = s2_report_and_curve
    assert not proposition_checks(rep)[key]["excluded"]
    check = getattr(rep, flag)
    bound = GRAY_FACTOR * check.limit
    measured = np.nextafter(bound, side * np.inf) if side else bound
    moved = dataclasses.replace(rep, **{flag: _bounded(
        "<", check.name, measured, check.limit)})
    assert not getattr(moved, flag)
    assert proposition_checks(moved)[key]["excluded"] is excluded


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


def test_classification_calls_no_lapack(s2_report_and_curve, monkeypatch):
    # the dependence tests are closed forms: with numpy's LAPACK drivers
    # refusing, a traced curve and a surface probe still classify
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on the classify path")

    for name in ("svd", "qr", "eig", "eigh", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rep, cd = s2_report_and_curve
    assert render_report(classify_curve_data(cd)) == render_report(rep)
    assert surface_class_probe(make_crpc_revolution(2.0, 1))["crpc"].dependent
    assert surface_class_probe(make_enneper())["crpc"].dependent


# ---------------------------------------------------------------------------
# cross-implications
# ---------------------------------------------------------------------------

def test_proposition_checks_on_curvature_line():
    # a planar line of curvature must come out pseudo-geodesic (trio rule)
    cc = traced(CURVES["bonnet_iso_curvature_line"])
    rep = classify_curve(cc.surface, cc.trace)
    assert rep.line_of_curvature and rep.planar
    assert rep.pseudo_geodesic.is_constant
    props = proposition_checks(rep)
    trio = props["planar_lof_pseudogeodesic_trio"]
    assert trio["applicable"] and trio["holds"]
    # helix-vs-principal-dependence is excluded on lines of curvature
    assert props["helix_iff_principal_dependent"]["excluded"]
