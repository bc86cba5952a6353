import numpy as np
import pytest
from scipy.integrate import solve_ivp

from surftrace import (curve_scalars, curve_scalars_from_trace, darboux,
                       frenet_from_darboux, gallery, liouville_residuals,
                       make_catenoid, make_cylinder, make_enneper,
                       make_helix_surface, make_plane, make_sphere,
                       point_shape, stepper, tracer)
from surftrace.core import Domain, SurfaceDef, SurfaceJet2, vec3
from surftrace.darboux import normal_angle
from surftrace.errors import (GeometryError, InvalidRequestError,
                              NonUnitSpeedError, TooFewSamplesError)
from surftrace.numdiff import check_uniform, diff_uniform, unwrap
from surftrace.tracer import (GeodesicMode, IsogonalMode, PseudoGeodesicMode,
                              TraceRequest, chart_to_principal_angle, trace,
                              trace_isogonal)

from conftest import assert_curve_data_equal
from oracles import (NonTangentDirectionError, UmbilicPointError,
                     VanishingCurvatureError, diff2_uniform, diff3_uniform,
                     frenet_apparatus, pointwise_direction_scalars)


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
                       s_span=(-0.7, 0.7), step=2e-3, atol=1e-15,
                       rtol=1e-14)
    tr = trace(req)
    cd = curve_scalars_from_trace(enn, tr)
    assert np.max(np.abs(cd.kg)) < 1e-9
    assert np.max(np.abs(cd.theta - cd.theta[0])) < 1e-8
    assert np.max(np.abs(cd.tau - cd.taug)) < 1e-7


def test_non_unit_speed_rejected():
    plane = make_plane()
    s, uv, vel, acc = plane_circle_samples(2.0)
    with pytest.raises(NonUnitSpeedError):
        curve_scalars(plane, s, uv, 1.1 * vel, acc)
    # abs(nan - 1) > 1e-6 is False, yet a NaN speed is not unit speed
    vel[7, 0] = np.nan
    with pytest.raises(NonUnitSpeedError, match="nan at sample 7"):
        curve_scalars(plane, s, uv, vel, acc)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_acceleration_rejected(value):
    plane = make_plane()
    s, uv, vel, acc = plane_circle_samples(2.0)
    acc[9, 1] = value
    with pytest.raises(GeometryError, match="at sample 9 is not finite"):
        curve_scalars(plane, s, uv, vel, acc)


def test_too_few_samples_rejected():
    plane = make_plane()
    s, uv, vel, acc = plane_circle_samples(2.0, n=4, span=0.01)
    with pytest.raises(TooFewSamplesError):
        curve_scalars(plane, s, uv, vel, acc)


def test_a_short_trace_names_its_exit():
    # a plane whose jet is NaN for t > 0: from t = 0, every stage of every
    # step lands there, so the branch fails at s = 0 with one sample
    def position(t, z):
        return vec3(t, t, z, 0.0)

    def jet(t, z):
        nan_past_start = np.where(t > 0.0, np.nan, 0.0)
        zero = vec3(t, 0.0, 0.0, 0.0)
        return SurfaceJet2(vec3(t, 1.0, 0.0, nan_past_start),
                           vec3(t, 0.0, 1.0, 0.0), zero, zero, zero)

    chart = SurfaceDef("nan_past_start", Domain(-1, 1, -1, 1), position, jet)
    tr = trace(TraceRequest(chart, (0.0, 0.0), GeodesicMode((1.0, 0.0)),
                            s_span=(0.0, 1.0)))
    assert len(tr) == 1 and tr.exit.kind == "solver_failure"
    nfev = tr.stats["fwd"].nfev
    with pytest.raises(TooFewSamplesError,
                       match=f"got 1: the trace ended solver_failure at "
                             f"s = 0.0 after {nfev} RHS evaluations"):
        curve_scalars_from_trace(chart, tr)
    # a span too short for its step completes, at no s_stop
    plane = make_plane()
    tr = trace(TraceRequest(plane, (0.0, 0.0), GeodesicMode((1.0, 0.0)),
                            s_span=(0.0, 0.005)))
    nfev = tr.stats["fwd"].nfev
    with pytest.raises(TooFewSamplesError,
                       match=f"got 3: the trace ended completed after {nfev} "
                             "RHS evaluations"):
        curve_scalars_from_trace(plane, tr)


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
                                     atol=1e-15, rtol=1e-14))
    cd = curve_scalars_from_trace(enn, tr)
    fd = frenet_apparatus(cd.pos, 2e-3)
    mask = fd.kappa > 1e-3
    assert np.max((np.abs(cd.kappa - fd.kappa) / (1 + fd.kappa))[mask]) < 1e-5
    assert np.max((np.abs(cd.tau - fd.tau)
                   / (1 + np.abs(fd.tau)))[mask]) < 1e-5


def capped_reference(monkeypatch, tr):
    """The uv samples of trace ``tr`` recomputed by scipy's RK45 at atol
    1e-10 / rtol 1e-9, its step capped at the sample step, on the tracer's
    own right-hand sides (the isogonal one oriented by its previous output)
    and from the same start."""
    calls = []

    def spy(*args):
        calls.append(args)
        return stepper.integrate(*args)

    with monkeypatch.context() as patch:
        patch.setattr(tracer, "integrate", spy)
        tracer.trace(tr.request)
    uv = tr.uv.copy()
    ((rhs, y0, span, *_),) = calls
    for s_end in span:
        side = tr.s * s_end > 0
        if not side.any():
            continue
        out = None

        def f(s, y, rhs=rhs):
            nonlocal out
            out = rhs(s, y.tolist(), out)
            return out[:len(y)]   # an isogonal RHS's margin follows

        sol = solve_ivp(f, (0.0, tr.s[side][np.argmax(np.abs(tr.s[side]))]),
                        np.array(y0), method="RK45", dense_output=True,
                        max_step=tr.request.step, atol=1e-10, rtol=1e-9)
        assert sol.status == 0
        uv[side] = sol.sol(tr.s[side])[:2].T
    return uv


def test_frenet_agreement_across_scenario_corpus(corpus, monkeypatch):
    # the table rows are traced at atol 1e-15 with no step cap, and the
    # position oracle's third differences amplify the jitter of that dense
    # output (below 1e-13) to 3.5e-5 in tau on helix_iso_b; so the oracle
    # reads the positions of a reference traced with its step capped at
    # the sample step, which the corpus uv meets to 2.9e-13 (catenoid_iso,
    # bound 1e-11).  Worst measured: kappa 4.4e-6 (crpc_iso_pi4), tau
    # 8.7e-6 (helix_iso_b), bound 1e-5
    from surftrace.scenarios import fixture_side_curves
    worst_k = worst_t = worst_uv = 0.0
    for cc in list(corpus) + fixture_side_curves():
        cd = cc.curve
        pos = cd.pos
        if cc.trace is not None:
            uv = capped_reference(monkeypatch, cc.trace)
            worst_uv = max(worst_uv, float(np.max(np.abs(uv - cd.uv))))
            pos = cc.surface.position(*uv.T).T
        fd = frenet_apparatus(pos, float(cd.s[1] - cd.s[0]))
        mask = fd.kappa > 1e-3
        if not np.any(mask):
            continue
        worst_k = max(worst_k, float(np.max(
            (np.abs(cd.kappa - fd.kappa) / (1 + fd.kappa))[mask])))
        worst_t = max(worst_t, float(np.max(
            (np.abs(cd.tau - fd.tau) / (1 + np.abs(fd.tau)))[mask])))
    assert worst_uv < 1e-11, worst_uv
    assert worst_k < 1e-5, worst_k
    assert worst_t < 1e-5, worst_t


def test_darboux_frame_matches_position_oracle(corpus):
    # the classifier's frame (exact T, N_f = cos(theta) N + sin(theta) N x T)
    # against the stencil frame over the corpus; worst measured 5.2e-6 (T),
    # 1.9e-5 (N) and 1.0e-5 (B), bound 5e-5
    for cc in corpus:
        cd = cc.curve
        fd = frenet_from_darboux(cd)
        fa = frenet_apparatus(cd.pos, float(cd.s[1] - cd.s[0]))
        for key in ("T", "N", "B"):
            err = float(np.max(np.abs(getattr(fd, key) - getattr(fa, key))))
            assert err < 5e-5, (cc.name, key, err)
        # the corpus has no zero of kappa: the signed k is +-kappa
        assert np.allclose(np.abs(fd.kappa), cd.kappa, rtol=1e-14,
                           atol=1e-15), cc.name
        assert fd.tau is cd.tau


# ---------------------------------------------------------------------------
# Liouville residuals
# ---------------------------------------------------------------------------

def test_liouville_on_isogonal_and_coordinate_curves():
    enn = make_enneper()
    phi = chart_to_principal_angle(enn, (0.0, 1.0), np.pi / 6)
    tr = trace_isogonal(TraceRequest(enn, (0.0, 1.0), IsogonalMode(phi),
                                     s_span=(-1.0, 1.0), step=2e-3,
                                     atol=1e-15, rtol=1e-14))
    cd = curve_scalars_from_trace(enn, tr)
    assert np.max(np.abs(liouville_residuals(enn, cd))) < 1e-6

    # z = const coordinate curve on the catenoid (E1 along the meridian)
    cat = make_catenoid()
    tr = trace_isogonal(TraceRequest(cat, (0.1, 0.4), IsogonalMode(0.0),
                                     s_span=(-0.5, 0.5), step=2e-3,
                                     atol=1e-15, rtol=1e-14))
    cdc = curve_scalars_from_trace(cat, tr)
    assert np.max(np.abs(cdc.uv[:, 1] - 0.4)) < 1e-9  # stays on z = const
    assert np.max(np.abs(liouville_residuals(cat, cdc))) < 1e-6
    # with phi = 0 the residual reduces to kg - kg1
    kg1 = np.array([cat.oracle.kg1(t, z) for t, z in cdc.uv])
    assert np.max(np.abs(cdc.kg - kg1)) < 1e-6


def test_liouville_needs_an_oracle():
    sph = make_sphere(1.0)
    tr = trace(TraceRequest(sph, (0.2, 0.1), GeodesicMode((1.0, 0.0)),
                            s_span=(-0.2, 0.2)))
    cd = curve_scalars_from_trace(sph, tr)
    with pytest.raises(InvalidRequestError, match="'sphere' carries no"):
        liouville_residuals(sph, cd)


def test_liouville_on_ruled_surface_isogonal():
    hel = make_helix_surface(1.0, np.pi / 4)
    tr = trace_isogonal(TraceRequest(hel, (0.0, 0.0), IsogonalMode(0.8),
                                     s_span=(-0.8, 0.8), step=2e-3,
                                     atol=1e-15, rtol=1e-14))
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


#: 2e-9 |H| is 2^-30 exactly, so a step of H +- 2^-30 lies on the bound
H = 5e8 / 2**30


@pytest.mark.parametrize("h", [H, -H], ids=["h>0", "h<0"])
def test_check_uniform_bound_is_2e_9_h(h):
    # a step exactly 2e-9 |h| off h passes and the next float out does not,
    # the verdicts of the np.allclose(rtol=1e-9, atol=1e-9 |h|) test
    for off in (2.0**-30, -2.0**-30):
        for last, ok in ((h + off, True),
                         (np.nextafter(h + off, h + 2 * off), False)):
            s = np.append(h * np.arange(-4.0, 1.0), last)  # steps exact
            d = np.diff(s)
            assert (abs(d[-1] - h) == 2e-9 * abs(h)) == ok
            assert np.allclose(d, h, rtol=1e-9, atol=1e-9 * abs(h)) == ok
            if ok:
                assert check_uniform(s) == h
            else:
                with pytest.raises(ValueError, match="not uniform"):
                    check_uniform(s)


@pytest.mark.parametrize("s, message", [
    (np.zeros(6), r"h = 0\.0 must be finite and nonzero"),
    (np.r_[np.nan, 0.1 * np.arange(1, 6)], "h = nan must"),
    (np.r_[-np.inf, 0.1 * np.arange(1, 6)], "h = inf must"),
    (np.r_[0.1 * np.arange(4), np.nan, 0.5], "not uniform"),
    (np.r_[0.1 * np.arange(4), np.inf, np.inf], "not uniform"),
], ids=["zero", "nan", "inf", "nan-later", "inf-inf-later"])
def test_check_uniform_refuses_zero_and_non_finite_steps(s, message):
    # and warns of nothing: the suite turns a RuntimeWarning into an error
    with pytest.raises(ValueError, match=message):
        check_uniform(s)


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
        sd = point_shape(enn, t, z)[2]
        if hint is not None and sd.e1 @ hint < 0.0:
            sd = sd._replace(e1=-sd.e1, e2=-sd.e2)
        hint = sd.e1
        kn, taug, phi = pointwise_direction_scalars(sd, cd.T[i])
        assert abs(cd.kn[i] - kn) < 1e-12
        assert abs(cd.taug[i] - taug) < 1e-12
        assert abs(np.angle(np.exp(1j * (cd.phi[i] - phi)))) < 1e-12


def test_theta_branch_ignores_sign_of_rounding_noise():
    # a helix-surface geodesic has kn < 0 and kg at rounding level, so
    # atan2 puts its first sample at -pi or +pi by the sign of the noise
    surf = make_helix_surface()
    tr = trace(TraceRequest(surf, (0.0, 0.0), GeodesicMode((0.6, 0.8)),
                            s_span=(-0.3, 0.3)))
    cd = curve_scalars_from_trace(surf, tr)
    assert cd.kn[0] < 0.0
    thetas = []
    for noise in (5e-18, -5e-18):
        kg = cd.kg.copy()
        kg[0] = noise
        thetas.append(normal_angle(kg, cd.kn, np.hypot(kg, cd.kn)))
    assert np.array_equal(thetas[0], thetas[1])
    assert thetas[0][0] == np.pi



def _unwrap_cases(period):
    """Series for the lean unwrap: smooth ones, -0.0 in them, steps of
    exactly half a period and just below, jumps, NaN, and the short ones."""
    half = period / 2
    rng = np.random.default_rng(7)
    smooth = np.cumsum(rng.uniform(-0.9, 0.9, 500) * half)
    zeros = smooth.copy()
    zeros[[0, 17, 250]] = -0.0
    below = np.nextafter(half, 0.0)
    jumps = smooth.copy()
    jumps[300:] += 3 * period
    nan = smooth.copy()
    nan[123] = np.nan
    return [smooth, -smooth, zeros, np.array([-0.0, -0.0, 0.0, -0.0]),
            np.array([0.0, half, 0.0, -half, 0.0]),
            np.array([0.0, below, 0.0, -below, -0.0]),
            np.array([-half, 0.0]), jumps, nan, np.array([np.nan, 1.0]),
            np.array([-0.0]), np.array([])]


@pytest.mark.parametrize("period", [2 * np.pi, np.pi])
def test_unwrap_matches_numpy_bit_for_bit(period):
    for p in _unwrap_cases(period):
        want = np.unwrap(p, period=period)
        got = unwrap(p, period)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), p
        assert got is not p


def _two_sided_requests():
    """One two-sided trace request per gallery chart and mode, started at a
    seeded point of the chart's inner half (isogonals on crpc_revolution
    at t >= 0.2, clear of the axis)."""
    rng = np.random.default_rng(11)
    out = []
    for name, make in gallery.CATALOGUE.items():
        surface = make()
        dom = surface.domain.inset(0.25)
        angle = float(rng.uniform(-np.pi, np.pi))
        direction = ((np.cos(angle), np.sin(angle)) if surface.totally_umbilic
                     else angle)
        modes = [PseudoGeodesicMode(0.4, direction), GeodesicMode(direction)]
        if not surface.totally_umbilic:
            modes.insert(0, IsogonalMode(angle))
        for mode in modes:
            t_min = (0.2 if isinstance(mode, IsogonalMode)
                     and name == "crpc_revolution" else dom.t_min)
            start = (float(rng.uniform(t_min, dom.t_max)),
                     float(rng.uniform(dom.z_min, dom.z_max)))
            out.append(pytest.param(
                TraceRequest(surface, start, mode, s_span=(-0.3, 0.3)),
                id=f"{name}-{type(mode).__name__}"))
    return out


@pytest.mark.parametrize("req", _two_sided_requests())
def test_curve_scalars_from_trace_equals_curve_scalars(req):
    tr = trace(req)
    assert sorted(tr.stats) == ["bwd", "fwd"]
    assert tr.s[0] < 0.0 < tr.s[-1]
    assert_curve_data_equal(
        curve_scalars_from_trace(req.surface, tr),
        curve_scalars(req.surface, tr.s, tr.uv, tr.uv_vel, tr.uv_acc))


@pytest.mark.parametrize("mode, in_trace", [
    (IsogonalMode(0.4), ["_records", "_isogonal_acceleration"]),
    (PseudoGeodesicMode(0.3, 0.4), ["curve_shape"]),
    (GeodesicMode(0.4), ["curve_shape"])],
    ids=["isogonal", "pseudo_geodesic", "geodesic"])
def test_one_shape_pass_per_sample(monkeypatch, mode, in_trace):
    # the trace makes its samples' shape pass (an isogonal one builds the
    # records off its own frame pass, and makes one frame-only pass more,
    # over its acceleration stencils), and the Darboux scalars reuse it
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((module.__name__, name))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(tracer, "curve_shape")
    spy(tracer, "_records")
    spy(tracer, "_isogonal_acceleration")
    spy(darboux, "curve_shape")
    enn = make_enneper()
    tr = trace(TraceRequest(enn, (0.2, 0.3), mode, s_span=(-0.4, 0.6)))
    assert calls == [("surftrace.tracer", name) for name in in_trace]
    calls.clear()
    curve_scalars_from_trace(enn, tr)
    assert calls == []


def test_curve_scalars_from_trace_refuses_another_surface():
    enn = make_enneper()
    tr = trace_isogonal(TraceRequest(enn, (0.2, 0.3), IsogonalMode(0.4),
                                     s_span=(-0.1, 0.1)))
    # a chart made again is another surface: its callables are new objects
    for other in (make_catenoid(), make_enneper()):
        with pytest.raises(InvalidRequestError,
                           match=f"'{other.name}'.*'enneper'"):
            curve_scalars_from_trace(other, tr)


@pytest.mark.parametrize("short", ["uv", "uv_vel", "uv_acc"])
def test_curve_scalars_refuses_rows_that_do_not_match_s(short):
    # 11 arc lengths, 8 rows of unit-speed samples along the plane's t axis
    s = np.linspace(-0.2, 0.0, 11)
    rows = {"uv": lambda k: np.column_stack([s[:k], np.zeros(k)]),
            "uv_vel": lambda k: np.tile([1.0, 0.0], (k, 1)),
            "uv_acc": lambda k: np.zeros((k, 2))}
    args = {name: make(8 if name == short else 11) for name, make in rows.items()}
    with pytest.raises(InvalidRequestError,
                       match=rf"{short} has shape \(8, 2\); 11 arc lengths"):
        curve_scalars(make_plane(), s, args["uv"], args["uv_vel"],
                      args["uv_acc"])
