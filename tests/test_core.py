import dataclasses

import numpy as np
import pytest

from surftrace import (make_bonnet, make_catenoid, make_crpc_revolution,
                       make_cylinder, make_enneper, make_helix_surface,
                       make_plane, make_sphere, point_metric, point_shape,
                       shape_arrays)
from surftrace import stepper, tracer
from surftrace.core import (Domain, FundamentalForms, ShapeData, SurfaceDef,
                            SurfaceJet2, TangentDecomp, _fd_jet,
                            _flip, _principal, _records, pyfloats,
                            umbilic_margin, vec3)
from surftrace.errors import OutOfDomainError, SingularJetError
from surftrace.intersect import FIXTURES
from surftrace.tracer import (UMBILIC_GAP, IsogonalMode, TraceRequest,
                              _isogonal_field, trace_isogonal)

from conftest import interior_grid
from oracles import christoffel

GALLERY = [make_helix_surface(1.0, np.pi / 4), make_enneper(),
           make_crpc_revolution(2.0, 1), make_bonnet(0.5), make_sphere(1.0),
           make_plane(), make_cylinder(1.0), make_catenoid()]


def quasi_random_points(surface, n=100):
    """Low-discrepancy interior points (deterministic)."""
    dom = surface.domain.inset(0.08)
    # additive-recurrence sequence with irrational multipliers
    i = np.arange(1, n + 1)
    ft = np.mod(i * 0.7548776662466927, 1.0)
    fz = np.mod(i * 0.5698402909980532, 1.0)
    ts = dom.t_min + ft * (dom.t_max - dom.t_min)
    zs = dom.z_min + fz * (dom.z_max - dom.z_min)
    return list(zip(ts, zs))


def test_enneper_jet_position():
    enn = make_enneper()
    assert np.allclose(enn.position(1.0, 0.0), [2.0 / 3.0, 0.0, 1.0], atol=1e-15)


def test_plane_jet_second_partials_vanish():
    plane = make_plane()
    jet = point_metric(plane, 0.7, -1.3)[0]
    for d2 in (jet.d_tt, jet.d_tz, jet.d_zz):
        assert np.all(np.asarray(d2) == 0.0)


def test_sphere_jet_matches_finite_differences():
    sph = make_sphere(1.0)
    t, z = np.pi / 4, np.pi / 3
    jet = point_metric(sph, t, z)[0]
    fd = _fd_jet(sph.position, t, z)
    for a, b, tol in [(jet.d_t, fd.d_t, 1e-6), (jet.d_z, fd.d_z, 1e-6),
                      (jet.d_tt, fd.d_tt, 1e-4), (jet.d_tz, fd.d_tz, 1e-4),
                      (jet.d_zz, fd.d_zz, 1e-4)]:
        assert np.max(np.abs(np.asarray(a) - b)) < tol


def test_out_of_domain_raises():
    enn = make_enneper()
    with pytest.raises(OutOfDomainError):
        point_metric(enn, 5.0, 0.0)


def _degenerate():
    # chart collapsing along z: X_z parallel to X_t
    def position(t, z):
        return vec3(t, t + z, 2 * (t + z), 0.0)

    return SurfaceDef("degenerate", Domain(-1, 1, -1, 1), position)


def test_singular_jet_raises():
    with pytest.raises(SingularJetError):
        point_shape(_degenerate(), 0.1, 0.2)


def test_shape_arrays_singular_jet_raises():
    with pytest.raises(SingularJetError, match=r"\(0\.1, 0\.2\)"):
        shape_arrays(_degenerate(), np.array([0.1, 0.3]), np.array([0.2, 0.4]))

    # polar chart of the plane: singular only on t = 0, the second point
    def position(t, z):
        return vec3(t, t * np.cos(z), t * np.sin(z), 0.0)

    polar = SurfaceDef("polar", Domain(-1, 1, -4, 4), position)
    with pytest.raises(SingularJetError, match=r"\(0, 0\.7\)"):
        shape_arrays(polar, np.array([0.5, 0.0, 0.0]), np.array([0.1, 0.7, 0.9]))


def test_enneper_forms_closed_form():
    enn = make_enneper()
    for t, z in [(0.0, 0.0), (0.7, -0.4), (1.5, 1.1)]:
        forms = point_shape(enn, t, z)[1]
        w2 = (1 + t * t + z * z) ** 2
        assert abs(forms.E - w2) < 1e-12 * w2
        assert abs(forms.G - w2) < 1e-12 * w2
        assert abs(forms.F) < 1e-12 * w2
        assert abs(forms.e - 2.0) < 1e-12
        assert abs(forms.f) < 1e-12
        assert abs(forms.g + 2.0) < 1e-12


def test_plane_forms_trivial():
    forms = point_shape(make_plane(), 0.3, 0.4)[1]
    assert (forms.E, forms.G) == (1.0, 1.0)
    assert forms.F == forms.e == forms.f == forms.g == 0.0


def test_sphere_normal_curvature_every_direction():
    # total umbilicity: e/E = g/G = 1/r in this chart (brute force via the
    # shape pipeline; the normal curvature of a sphere cannot depend on
    # the direction)
    r = 1.0
    sph = make_sphere(r)
    forms = point_shape(sph, 0.0, 0.9)[1]
    assert abs(forms.e / forms.E - 1.0 / r) < 1e-12
    assert abs(forms.g / forms.G - 1.0 / r) < 1e-12
    _, _, sd = point_shape(sph, 0.0, 0.9)
    assert abs(abs(sd.kappa1) - 1.0 / r) < 1e-10


def test_enneper_origin_principal_curvatures():
    _, _, sd = point_shape(make_enneper(), 0.0, 0.0)
    assert abs(sd.kappa1 + 2.0) < 1e-12
    assert abs(sd.kappa2 - 2.0) < 1e-12


def test_bonnet_origin_principal_curvatures():
    _, _, sd = point_shape(make_bonnet(0.5), 0.0, 0.0)
    assert abs(sd.kappa2 - 1.0 / 3.0) < 1e-12
    assert abs(sd.kappa1 + 1.0 / 3.0) < 1e-12


def test_sphere_is_totally_umbilic():
    sph = make_sphere(2.0)
    for t, z in interior_grid(sph, 5, 5):
        _, _, sd = point_shape(sph, t, z)
        assert sd.umbilic
        assert abs(sd.kappa1 - 0.5) < 1e-10
        assert abs(sd.kappa2 - 0.5) < 1e-10


@pytest.mark.parametrize("surface", GALLERY, ids=lambda s: s.name)
def test_curvature_identities_on_quasi_random_grid(surface):
    for t, z in quasi_random_points(surface, 100):
        jet, forms, sd = point_shape(surface, t, z)
        W = forms.E * forms.G - forms.F ** 2
        k_forms = (forms.e * forms.g - forms.f ** 2) / W
        assert abs(sd.kappa1 * sd.kappa2 - k_forms) <= 1e-9 * (1 + abs(k_forms))
        assert abs(sd.H - 0.5 * (sd.kappa1 + sd.kappa2)) <= 1e-9 * (1 + abs(sd.H))
        assert abs(sd.K - k_forms) <= 1e-12 * (1 + abs(k_forms))


@pytest.mark.parametrize("surface", GALLERY, ids=lambda s: s.name)
def test_forms_match_vector_reference(surface):
    # reference: the textbook formulas written with numpy vector operations
    for t, z in quasi_random_points(surface, 40):
        jet, forms, _ = point_shape(surface, t, z)
        d_t, d_z, d_tt, d_tz, d_zz = map(np.asarray, tuple(jet))
        cr = np.cross(d_t, d_z)
        normal = cr / np.linalg.norm(cr)
        ref = [d_t @ d_t, d_t @ d_z, d_z @ d_z,
               d_tt @ normal, d_tz @ normal, d_zz @ normal]
        got = [forms.E, forms.F, forms.G, forms.e, forms.f, forms.g]
        scale = 1 + max(abs(v) for v in ref)
        assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-13 * scale
        assert np.max(np.abs(forms.normal - normal)) < 1e-13


@pytest.mark.parametrize("surface", GALLERY, ids=lambda s: s.name)
def test_frame_orthonormal_and_right_handed(surface):
    for t, z in quasi_random_points(surface, 40):
        _, _, sd = point_shape(surface, t, z)
        for v in (sd.e1, sd.e2, sd.normal):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(sd.e1 @ sd.e2) < 1e-12
        assert abs(sd.e1 @ sd.normal) < 1e-12
        assert abs(sd.e2 @ sd.normal) < 1e-12
        det = np.linalg.det(np.column_stack([sd.e1, sd.e2, sd.normal]))
        assert abs(det - 1.0) < 1e-10


@pytest.mark.parametrize("surface", GALLERY, ids=lambda s: s.name)
def test_tangent_reconstruction(surface):
    for t, z in quasi_random_points(surface, 40):
        jet, _, sd = point_shape(surface, t, z)
        d = sd.decomp
        xt = d.f1 * sd.e1 + d.f2 * sd.e2
        xz = d.g1 * sd.e1 + d.g2 * sd.e2
        assert np.max(np.abs(xt - jet.d_t)) < 1e-10 * (1 + np.max(np.abs(jet.d_t)))
        assert np.max(np.abs(xz - jet.d_z)) < 1e-10 * (1 + np.max(np.abs(jet.d_z)))


@pytest.mark.parametrize("surface", GALLERY, ids=lambda s: s.name)
def test_fd_jets_match_analytic(surface):
    for t, z in quasi_random_points(surface, 25):
        jet = SurfaceJet2(*map(np.asarray, point_metric(surface, t, z)[0]))
        fd = _fd_jet(surface.position, t, z)
        scale1 = 1 + max(np.max(np.abs(jet.d_t)), np.max(np.abs(jet.d_z)))
        assert np.max(np.abs(jet.d_t - fd.d_t)) < 1e-6 * scale1
        assert np.max(np.abs(jet.d_z - fd.d_z)) < 1e-6 * scale1
        scale2 = 1 + max(np.max(np.abs(jet.d_tt)), np.max(np.abs(jet.d_zz)))
        assert np.max(np.abs(jet.d_tt - fd.d_tt)) < 1e-4 * scale2
        assert np.max(np.abs(jet.d_tz - fd.d_tz)) < 1e-4 * scale2
        assert np.max(np.abs(jet.d_zz - fd.d_zz)) < 1e-4 * scale2


def test_christoffel_against_metric_derivatives():
    # the test oracle's Christoffels, from the jet, against finite
    # differences of E, F, G
    surf = make_bonnet(0.6)
    h = 1e-6

    def metric(t, z):
        f = point_shape(surf, t, z)[1]
        return np.array([f.E, f.F, f.G])

    for t, z in [(0.3, 0.2), (-0.8, 0.5), (1.2, -0.9)]:
        jet, forms, _ = point_shape(surf, t, z)
        dE, dF, dG = (metric(t + h, z) - metric(t - h, z)) / (2 * h)
        eE, eF, eG = (metric(t, z + h) - metric(t, z - h)) / (2 * h)
        E, F, G = forms.E, forms.F, forms.G
        W = E * G - F * F
        # Koszul formulas for a general 2d metric
        c1_tt = (G * dE / 2 - F * (dF - eE / 2)) / W
        c2_tt = (E * (dF - eE / 2) - F * dE / 2) / W
        c1_tz = (G * eE / 2 - F * dG / 2) / W
        c2_tz = (E * dG / 2 - F * eE / 2) / W
        c1_zz = (G * (eF - dG / 2) - F * eG / 2) / W
        c2_zz = (E * eG / 2 - F * (eF - dG / 2)) / W
        got = christoffel(jet)
        for a, b in zip(got, (c1_tt, c1_tz, c1_zz, c2_tt, c2_tz, c2_zz)):
            assert abs(a - b) < 1e-5 * (1 + abs(b))


def along(e1, hint):
    """E1 with its sign flipped to point along ``hint``."""
    return -e1 if e1 @ hint < 0.0 else e1


def test_e1_sign_hint_continuity():
    enn = make_enneper()
    _, _, sd0 = point_shape(enn, 0.5, 0.5)
    e1 = point_shape(enn, 0.501, 0.5)[2].e1
    assert sd0.e1 @ along(e1, sd0.e1) > 0.99
    assert sd0.e1 @ along(e1, -sd0.e1) < -0.99


def test_umbilic_flag_threshold():
    # catenoid is nowhere umbilic; sphere everywhere
    cat = make_catenoid()
    for t, z in interior_grid(cat, 4, 4):
        assert not point_shape(cat, t, z)[2].umbilic


def test_umbilic_margin_is_relative():
    # a flat point is umbilic, a NaN curvature never; floats and arrays
    # give the same bits, and scaling by a power of two scales the margin
    assert umbilic_margin(0.0, 0.0, 1e-9) == 0.0
    assert not umbilic_margin(np.nan, 1.0, 1e-9) <= 0.0
    k1, k2 = np.array([1.0, 1.0, -3e-20, 0.0]), np.array([1.0 + 1e-10, 2.0,
                                                         3e-20, np.nan])
    margin = umbilic_margin(k1, k2, 1e-9)
    assert np.array_equal(margin <= 0.0, [True, False, False, False])
    floats = [umbilic_margin(a, b, 1e-9) for a, b in zip(k1.tolist(),
                                                         k2.tolist())]
    assert np.array_equal(floats, margin, equal_nan=True)
    for scale in (2.0 ** -900, 2.0 ** 900):
        assert np.array_equal(umbilic_margin(k1 * scale, k2 * scale, 1e-9),
                              margin * scale, equal_nan=True)


FIXTURE_CHARTS = [f().mbar for f in FIXTURES.values()]
CHARTS = GALLERY + FIXTURE_CHARTS


def _random_points(surface, n, seed=5):
    rng = np.random.default_rng(seed)
    dom = surface.domain.inset(0.05)
    return rng.uniform(dom.t_min, dom.t_max, n), rng.uniform(dom.z_min, dom.z_max, n)


def _along(hint):
    """E1 signs over (n,) arrays for `_principal`: each point's E1 along
    its own column of the (3, n) ``hint``."""
    h0, h1, h2 = hint
    return lambda d0, d1, d2, *_: d0 * h0 + d1 * h1 + d2 * h2 < 0.0


def _hinted_shape(surface, t, z, hint):
    """`shape_arrays`' body with each point's E1 along its own column of
    the (3, n) ``hint``."""
    metric = point_metric(surface, t, z)
    return _records(metric, _principal(metric, _along(hint)))


@pytest.mark.parametrize("jet", ["analytic", "position_only"])
@pytest.mark.parametrize("surface", CHARTS, ids=lambda s: s.name)
def test_shape_arrays_matches_point_shape(surface, jet):
    if jet == "position_only":
        surface = dataclasses.replace(surface, jet=None)
    t, z = _random_points(surface, 300)
    ref = [point_shape(surface, ti, zi) for ti, zi in zip(t, z)]
    # per-point hints: the scalar E1 signs, so both frames are comparable
    hint = np.array([sd.e1 for _, _, sd in ref]).T
    jet_a, forms_a, sd_a = _hinted_shape(surface, t, z, hint)

    # one body serves both forms, so every field agrees bit for bit
    def same(got, want, what):
        want = np.asarray(want, dtype=float)
        assert np.array_equal(got, want, equal_nan=True), what
        assert np.array_equal(np.signbit(got), np.signbit(want)), what

    def field(records, name):
        return np.array([getattr(r, name) for r in records])

    for name in ("d_t", "d_z", "d_tt", "d_tz", "d_zz"):
        same(getattr(jet_a, name).T, field([r[0] for r in ref], name), name)
    for name in ("E", "F", "G", "e", "f", "g", "normal"):
        got = getattr(forms_a, name)
        same(got.T if name == "normal" else got,
             field([r[1] for r in ref], name), name)
    sds = [r[2] for r in ref]
    assert np.array_equal(sd_a.umbilic, field(sds, "umbilic"))
    for name in ("normal", "kappa1", "kappa2", "K", "H", "e1", "e2"):
        got = getattr(sd_a, name)
        same(got.T if got.ndim == 2 else got, field(sds, name), name)
    want = np.array([tuple(sd.decomp) for sd in sds])
    same(np.array(tuple(sd_a.decomp)).T, want, "decomp")

    # shape_arrays chains its E1 signs instead: the same bits up to them
    # (a sum that cancels to +0 keeps its sign under the flip)
    jet_c, forms_c, sd_c = shape_arrays(surface, t, z)
    for got, want in ((jet_c, jet_a), (forms_c, forms_a)):
        for name in got._fields:
            same(getattr(got, name), getattr(want, name), name)
    assert np.array_equal(sd_c.umbilic, sd_a.umbilic)
    for name in ("normal", "kappa1", "kappa2", "K", "H"):
        same(getattr(sd_c, name), getattr(sd_a, name), name)
    sign = np.where((sd_c.e1 == sd_a.e1).all(axis=0), 1.0, -1.0)
    for got, want in ((sd_c.e1, sd_a.e1), (sd_c.e2, sd_a.e2),
                      (tuple(sd_c.decomp), tuple(sd_a.decomp))):
        assert np.array_equal(np.array(got), sign * np.array(want))


@pytest.mark.parametrize("jet", ["analytic", "position_only"])
@pytest.mark.parametrize("surface", CHARTS, ids=lambda s: s.name)
def test_float_calls_return_floats(surface, jet):
    # the float form of the shape kernel stays on Python floats: numpy
    # scalars would slow the flow right-hand sides
    if jet == "position_only":
        surface = dataclasses.replace(surface, jet=None)
    (t,), (z,) = (v.tolist() for v in _random_points(surface, 1))
    metric = point_metric(surface, t, z)
    assert all(type(x) is float for x in metric[1:])
    _, forms, sd = point_shape(surface, t, z)
    scalars = [*tuple(forms)[:6], sd.kappa1, sd.kappa2, sd.K, sd.H,
               *tuple(sd.decomp)]
    assert all(type(x) is float for x in scalars)
    assert type(sd.umbilic) is bool


@pytest.mark.parametrize("like", [0.5, 2, np.float64(0.5), np.array(0.5)],
                         ids=["float", "int", "np.float64", "0-d"])
def test_vec3_off_arrays_returns_python_floats(like):
    # any like but an (n,) array gives Python floats, whatever the components
    for parts in ((1, 2, 0), (np.float64(0.5), np.int64(3), np.float32(0.25)),
                  (np.array(0.5), -0.0, np.cos(np.float64(1.0)))):
        for got in (vec3(like, *parts), pyfloats(like, *parts)):
            assert type(got) is tuple and all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [float(x).hex() for x in parts]


@pytest.mark.parametrize("make", [make_bonnet, make_catenoid],
                         ids=["bonnet", "catenoid"])
def test_shape_arrays_on_a_reversed_view_is_bitwise_pointwise(make):
    # numpy's sinh, cosh, exp and arctan round a negative-stride view apart
    # from a float call in the last bit; the chart contract holds all the same
    surface = make()
    uv = np.column_stack(_random_points(surface, 300))[::-1]
    ref = [point_shape(surface, t, z)[2] for t, z in uv]
    sd = _hinted_shape(surface, uv[:, 0], uv[:, 1],
                       np.array([r.e1 for r in ref]).T)[2]
    for name in ("kappa1", "kappa2", "normal", "e1"):
        want = np.array([getattr(r, name) for r in ref])
        assert np.array_equal(np.asarray(getattr(sd, name)).T, want), name


def test_shape_arrays_checks_the_domain():
    enn = make_enneper()
    with pytest.raises(OutOfDomainError, match=r"\(5, 0\.5\)"):
        shape_arrays(enn, np.array([0.0, 5.0]), np.array([0.0, 0.5]))
    point_metric(enn, np.array([0.0, 5.0]), np.array([0.0, 0.5]),
                 check_domain=False)


def test_shape_arrays_e1_chain_matches_sequential_hints():
    enn = make_enneper()
    tr = trace_isogonal(TraceRequest(enn, (0.1, 0.9), IsogonalMode(0.4),
                                     s_span=(-0.6, 0.6), step=2e-3))
    e1_loop = []
    hint = None
    for t, z in tr.uv:
        e1 = point_shape(enn, t, z)[2].e1
        hint = e1 if hint is None else along(e1, hint)
        e1_loop.append(hint)
    e1 = shape_arrays(enn, tr.uv[:, 0], tr.uv[:, 1])[2].e1
    assert np.max(np.abs(e1.T - np.array(e1_loop))) < 1e-13


def _isogonal_rhs(monkeypatch, surface, start, mode):
    """The right-hand side `trace_isogonal` hands the stepper."""
    grabbed = []

    def grab(rhs, *args):
        grabbed.append(rhs)
        return stepper.integrate(rhs, *args)

    monkeypatch.setattr(tracer, "integrate", grab)
    trace_isogonal(TraceRequest(surface, start, mode, s_span=(0.0, 1e-3),
                                step=1e-3))
    return grabbed[0]


@pytest.mark.parametrize("jet", ["analytic", "position_only"])
@pytest.mark.parametrize("surface", CHARTS, ids=lambda s: s.name)
def test_flat_frame_matches_the_records(surface, jet, monkeypatch):
    # the right-hand side reads the flat principal-frame tuple, the records
    # wrap it: both must carry the same bits, sign bits included
    if jet == "position_only":
        surface = dataclasses.replace(surface, jet=None)
    t, z = _random_points(surface, 200, seed=11)
    ref = [point_shape(surface, ti, zi)[2] for ti, zi in zip(t, z)]

    def hexes(values):
        return [float(v).hex() for v in values]

    def fields(sd):
        return [sd.kappa1, sd.kappa2, *sd.e1, *sd.e2,
                *tuple(sd.decomp)]

    # floats: _principal at each point, module rule; arrays: _principal over
    # all points, E1 signed by the float records (shape_arrays' hint rule)
    picked = [0, 1, *range(4, 14)]
    for ti, zi, sd in zip(t, z, ref):
        frame = _principal(point_metric(surface, float(ti), float(zi)), _flip)
        assert hexes(frame[i] for i in picked) == hexes(fields(sd))
        assert frame[2] == sd.umbilic
    frame = _principal(point_metric(surface, t, z),
                       _along(np.array([sd.e1 for sd in ref]).T))
    for j, sd in enumerate(ref):
        assert hexes(frame[i][j] for i in picked) == hexes(fields(sd))

    # the isogonal right-hand side at ref=None, against the array velocity
    # and the umbilic margin of the same records, at every point outside
    # the tracer's umbilic gap
    if surface.totally_umbilic:
        return
    away = [(float(ti), float(zi), sd) for ti, zi, sd in zip(t, z, ref)
            if umbilic_margin(sd.kappa1, sd.kappa2, UMBILIC_GAP) > 0.0]
    assert len(away) > 100
    mode = IsogonalMode(0.7, 1.5)
    cos_t, sin_t = (mode.speed * np.array([np.cos(mode.phi),
                                           np.sin(mode.phi)])).tolist()
    rhs = _isogonal_rhs(monkeypatch, surface, away[0][:2], mode)
    decomp = np.array([tuple(sd.decomp) for _, _, sd in away]).T
    want = np.column_stack(_isogonal_field(decomp, cos_t, sin_t))
    for (ti, zi, sd), w in zip(away, want):
        assert hexes(rhs(0.0, [ti, zi], None)) == hexes(
            [*w, umbilic_margin(sd.kappa1, sd.kappa2, UMBILIC_GAP)])


def test_records_keep_their_fields_and_refuse_assignment():
    # the shape records keep the field names and order they had as frozen
    # dataclasses, and stay immutable, from both shape kernels
    want = {SurfaceJet2: ("d_t", "d_z", "d_tt", "d_tz", "d_zz"),
            FundamentalForms: ("E", "F", "G", "e", "f", "g", "normal"),
            TangentDecomp: ("f1", "f2", "g1", "g2"),
            ShapeData: ("normal", "kappa1", "kappa2", "e1", "e2", "K", "H",
                        "decomp", "umbilic")}
    enn = make_enneper()
    for jet, forms, sd in (point_shape(enn, 0.2, 0.3),
                           shape_arrays(enn, np.array([0.2, 0.4]),
                                        np.array([0.3, -0.1]))):
        for record in (jet, forms, sd, sd.decomp):
            assert type(record)._fields == want[type(record)]
            for name in want[type(record)]:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0.0)
