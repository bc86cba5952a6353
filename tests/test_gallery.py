import warnings

import mpmath
import numpy as np
import pytest

from surftrace import (make_bonnet, make_catenoid, make_crpc_revolution,
                       make_cylinder, make_enneper, make_helix_surface,
                       make_plane, make_sphere, make_surface, point_shape,
                       shape_arrays)
from surftrace.core import FD_STEP, _fd_jet
from surftrace.errors import DegenerateParameterError
from surftrace.gallery import (CATALOGUE, LENGTH_RANGE, _CRPC_TERMS,
                               _crpc_constants, _crpc_height)
from surftrace.intersect import FIXTURES

from conftest import interior_grid

ORACLE_SURFACES = [make_helix_surface(1.0, np.pi / 4), make_enneper(),
                   make_crpc_revolution(2.0, 1), make_bonnet(0.5),
                   make_cylinder(1.0), make_catenoid(), make_plane()]


def test_helix_surface_oracle_values_at_origin():
    hel = make_helix_surface(1.0, np.pi / 4)
    assert abs(hel.oracle.k1(0.0, 0.0) + np.sqrt(2) / 2) < 1e-15
    assert hel.oracle.k2(0.0, 0.0) == 0.0
    for t, z in interior_grid(hel, 5, 5):
        assert hel.oracle.kg2(t, z) == 0.0


def test_helix_surface_is_flat():
    hel = make_helix_surface(1.0, np.pi / 4)
    for t, z in interior_grid(hel, 6, 6):
        _, _, sd = point_shape(hel, t, z)
        assert abs(sd.K) < 1e-10
        assert abs(hel.oracle.k1(t, z) * hel.oracle.k2(t, z)) < 1e-15


def test_enneper_examples():
    enn = make_enneper()
    assert np.allclose(enn.position(0.0, 0.0), 0.0)
    assert abs(enn.oracle.k1(1.0, 1.0) - 2.0 / 9.0) < 1e-15
    assert abs(enn.oracle.kg1(1.0, 1.0) + 2.0 / 9.0) < 1e-15
    assert abs(enn.oracle.kg2(1.0, 1.0) - 2.0 / 9.0) < 1e-15


def test_enneper_is_minimal():
    enn = make_enneper()
    for t, z in interior_grid(enn, 10, 10):
        _, _, sd = point_shape(enn, t, z)
        assert abs(sd.H) < 1e-12


def test_bonnet_is_minimal_with_expected_oracle():
    bon = make_bonnet(0.5)
    assert abs(bon.oracle.k2(0.0, 0.0) - 1.0 / 3.0) < 1e-15
    assert abs(bon.oracle.k1(0.0, 0.0) + 1.0 / 3.0) < 1e-15
    assert bon.oracle.kg1(0.0, 0.0) == 0.0
    assert bon.oracle.kg2(0.0, 0.0) == 0.0
    for t, z in interior_grid(bon, 8, 8):
        _, _, sd = point_shape(bon, t, z)
        assert abs(sd.H) < 1e-10


def test_crpc_normal_third_component_vanishes_toward_chart_edge():
    crpc = make_crpc_revolution(2.0, 1)
    vals = [crpc.oracle.normal(t, 0.3)[2] for t in (0.9, 0.99, 0.999)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 0.1


def test_crpc_curvature_ratio():
    crpc = make_crpc_revolution(2.0, 1)
    for t, z in interior_grid(crpc, 8, 6):
        _, _, sd = point_shape(crpc, t, z)
        # t-direction curvature is c times the z-direction one; with the
        # global ordering (eps = +1) kappa2 is the t-direction value
        assert abs(sd.kappa2 / sd.kappa1 - 2.0) < 1e-8


def test_crpc_height_conventions():
    assert _crpc_height(1.0, 2.0, 1.0) == 0.0
    # antiderivative of the closed-form slope (finite-difference check)
    for t in (0.3, 0.6, 0.9):
        h = 1e-6
        slope = (_crpc_height(t + h, 2.0, 1.0)
                 - _crpc_height(t - h, 2.0, 1.0)) / (2 * h)
        expect = t ** 2 / np.sqrt(1 - t ** 4)
        assert abs(slope - expect) < 1e-8 * (1 + abs(expect))


@pytest.mark.parametrize("c", [1e-14, 1e-6, 1e-3, 0.01, 0.5, 1.0, 2.0, 3.0,
                               10.0, 1e6])
def test_crpc_height_matches_the_incomplete_beta_function(c):
    # the chart's t range widened by the widest stencil step, FD_STEP * 8 pi;
    # the reference is the same integral at 40 digits from the same
    # x = t^2c: h = -J / (2c), J = int_x^1 w^(a-1) (1-w)^(-1/2) dw
    dom = make_crpc_revolution(c, 1).domain
    wide = FD_STEP * max(abs(dom.z_min), abs(dom.z_max))
    t = np.linspace(dom.t_min - wide, dom.t_max + wide, 201)
    h = _crpc_height(t, c, 1.0)
    with mpmath.workdps(40):
        a = (1 + 1 / mpmath.mpf(c)) / 2
        for i, ti in enumerate(t):
            x = mpmath.mpf(float(np.power(ti, 2 * c)))
            want = -mpmath.betainc(a, 0.5, x, 1) / (2 * mpmath.mpf(c))
            assert abs(h[i] - want) <= 2e-15 * abs(h[i]), (ti, h[i], want)
            # float and (n,) calls agree bit for bit
            assert _crpc_height(float(ti), c, 1.0) == h[i]


def test_crpc_height_series_stop_before_their_last_term():
    # each piece reaches its tolerance within the terms it generates
    for c in np.geomspace(1e-14, 1e6, 200):
        _, _, pieces = _crpc_constants(float(c), 1.0)
        assert max(len(piece[2]) for piece in pieces if piece) < _CRPC_TERMS


def test_crpc_height_past_the_rim_is_nan_in_both_forms():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = _crpc_height(1.01, 2.0, 1.0)
        many = _crpc_height(np.array([0.5, 1.01]), 2.0, 1.0)
    assert np.isnan(one) and np.isnan(many[1]) and np.isfinite(many[0])


def test_crpc_oracle_frames_match_pipeline():
    crpc = make_crpc_revolution(2.0, 1)
    for t, z in [(0.3, 0.4), (0.6, -1.0)]:
        _, _, sd = point_shape(crpc, t, z)
        assert np.max(np.abs(sd.normal - crpc.oracle.normal(t, z))) < 1e-12
        # with eps=+1 and c=2 the z-direction carries the smaller curvature,
        # so our E1 is the oracle's second direction
        assert abs(abs(sd.e1 @ crpc.oracle.e2(t, z)) - 1.0) < 1e-10
        assert abs(abs(sd.e2 @ crpc.oracle.e1(t, z)) - 1.0) < 1e-10


def test_sphere_cylinder_plane_examples():
    sph = make_sphere(2.0)
    for t, z in [(0.0, 0.0), (0.5, 1.0)]:
        _, _, sd = point_shape(sph, t, z)
        assert sd.umbilic and abs(sd.kappa1 - 0.5) < 1e-10

    plane = make_plane()
    forms = point_shape(plane, 1.0, 2.0)[1]
    assert forms.e == forms.f == forms.g == 0.0
    _, _, sd = point_shape(plane, 1.0, 2.0)
    assert sd.kappa1 == sd.kappa2 == 0.0

    cyl = make_cylinder(1.0)
    _, _, sd = point_shape(cyl, 0.3, 0.9)
    assert abs(sd.K) < 1e-14
    assert abs(sd.kappa1) < 1e-14 and abs(sd.kappa2 - 1.0) < 1e-12


@pytest.mark.parametrize("surface", ORACLE_SURFACES, ids=lambda s: s.name)
def test_oracle_vs_generic_curvatures(surface):
    if surface.name == "plane":
        pts = interior_grid(surface, 20, 10)
    else:
        pts = interior_grid(surface, 20, 10, inset=0.05)
    assert len(pts) == 200
    for t, z in pts:
        _, _, sd = point_shape(surface, t, z)
        ora = sorted((surface.oracle.k1(t, z), surface.oracle.k2(t, z)))
        for o, g in zip(ora, (sd.kappa1, sd.kappa2)):
            assert abs(o - g) <= 1e-8 * (1 + abs(o))


@pytest.mark.parametrize("surface",
                         ORACLE_SURFACES + [make_sphere(1.0)],
                         ids=lambda s: s.name)
def test_gallery_charts_are_orthogonal(surface):
    for t, z in interior_grid(surface, 8, 8):
        forms = point_shape(surface, t, z)[1]
        assert abs(forms.F) <= 1e-12 * max(forms.E, forms.G)


def test_degenerate_parameters_rejected():
    with pytest.raises(DegenerateParameterError):
        make_helix_surface(1.0, 0.0)
    with pytest.raises(DegenerateParameterError):
        make_helix_surface(1.0, np.pi / 2)
    with pytest.raises(DegenerateParameterError):
        make_bonnet(1.0)
    with pytest.raises(DegenerateParameterError):
        make_crpc_revolution(0.0, 1)
    with pytest.raises(DegenerateParameterError):
        make_crpc_revolution(-1.0, 1)
    for c in (1e-300, 1e-17, np.inf):   # a jet that is not finite
        with pytest.raises(DegenerateParameterError):
            make_crpc_revolution(c, 1)
    with pytest.raises(DegenerateParameterError):
        make_sphere(-1.0)
    # a radius, r_beta or extent that is not finite, <= 0, or finite but
    # outside LENGTH_RANGE (1e-300 once overflowed curvatures squared, 1e200
    # Enneper's cubic positions)
    lo, hi = LENGTH_RANGE
    for make in (make_sphere, make_cylinder, make_helix_surface,
                 make_enneper):
        for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0, lo / 2, 2 * hi,
                    1e-300, 1e200):
            with pytest.raises(DegenerateParameterError):
                make(bad)
    with pytest.raises(DegenerateParameterError):
        make_surface("nonexistent")


@pytest.mark.parametrize("make", [make_sphere, make_cylinder,
                                  make_helix_surface, make_enneper])
@pytest.mark.parametrize("length", LENGTH_RANGE)
def test_lengths_at_the_range_ends_give_finite_charts(make, length):
    # position, jet and the shape stage at the domain's corners and centre,
    # warning-free
    surface = make(length)
    d = surface.domain
    t = np.array([d.t_min, d.t_min, d.t_max, d.t_max, (d.t_min + d.t_max) / 2])
    z = np.array([d.z_min, d.z_max, d.z_min, d.z_max, (d.z_min + d.z_max) / 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet, forms, sd = shape_arrays(surface, t, z)
        values = [surface.position(t, z), *surface.jet(t, z)]
    values += [*jet, *forms, *sd[:7], *sd.decomp]
    assert all(np.isfinite(v).all() for v in values)


@pytest.mark.parametrize("c", [1e-14, 1e-3, 2.0, 50.0, 1e6])
def test_crpc_revolution_accepted_c_has_a_finite_jet(c):
    surf = make_crpc_revolution(c, 1)
    t = np.linspace(surf.domain.t_min, surf.domain.t_max, 181)
    assert np.isfinite(np.array(surf.jet(t, 0.3 * t))).all()


def test_helix_surface_domain_keeps_ruling_margin():
    hel = make_helix_surface(1.0, np.pi / 4)
    z_edge = hel.domain.z_max
    # 1 - z cos(phi0) kappa_beta stays positive with a 5% margin
    assert 1.0 - z_edge * np.cos(np.pi / 4) >= 0.05 - 1e-12


def test_make_surface_forwards_parameters():
    surf = make_surface("bonnet", a=0.25)
    assert surf.params["a"] == 0.25


@pytest.mark.parametrize("name, params", [
    ("bonnet", {"n": 10}), ("bonnet", {"a": "x"}), ("plane", {"r": 1.0})])
def test_make_surface_checks_its_keywords(name, params):
    # an unknown or non-numeric keyword names the accepted parameters
    accepted = {"bonnet": "a", "plane": "none"}[name]
    with pytest.raises(DegenerateParameterError, match=f"accepted: {accepted},"):
        make_surface(name, **params)


CHARTS = ([ctor() for ctor in CATALOGUE.values()]
          + [f().mbar for f in FIXTURES.values()])


@pytest.mark.parametrize("surface", CHARTS, ids=lambda s: s.name)
def test_charts_are_elementwise(surface):
    # (n,) arrays in, (3, n) vectors out, each column equal bit for bit
    # (sign of zero included) to the call at that point alone
    rng = np.random.default_rng(11)
    dom = surface.domain.inset(0.05)
    t = rng.uniform(dom.t_min, dom.t_max, 300)
    z = rng.uniform(dom.z_min, dom.z_max, 300)
    calls = {"position": lambda t, z: (surface.position(t, z),),
             "jet": lambda t, z: tuple(surface.jet(t, z)),
             "fd_jet": lambda t, z: tuple(
                 _fd_jet(surface.position, t, z))}
    for name, call in calls.items():
        batch = call(t, z)
        for i in range(len(t)):
            for got, want in zip(batch, call(float(t[i]), float(z[i]))):
                assert got.shape == (3, len(t)), name
                assert np.array_equal(got[:, i], want), name
                assert np.array_equal(np.signbit(got[:, i]),
                                      np.signbit(want)), name


def test_crpc_jet_past_the_chart_is_nan_in_both_forms():
    # past t = 1, w = 1 - t^2c < 0, and at t < 0 with a fractional c, t^c is
    # not real: a float call is NaN as an array call is, with no
    # RuntimeWarning and not math.sqrt's domain error
    for c, t in ((2.0, 1.2), (2.5, -0.3)):
        jet = make_crpc_revolution(c, 1).jet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = jet(t, 0.3)
        with np.errstate(invalid="ignore"):
            many = jet(np.array([t]), np.array([0.3]))
        assert np.isnan(one.d_t[2])
        for got, want in zip(many, one):
            assert np.array_equal(got[:, 0], want, equal_nan=True)


@pytest.mark.parametrize("surface", CHARTS, ids=lambda s: s.name)
def test_float_calls_return_float_tuples(surface):
    # a call at one point returns 3-tuples of Python floats, not numpy
    # vectors or np.float64 items
    dom = surface.domain.inset(0.05)
    t = dom.t_min + 0.37 * (dom.t_max - dom.t_min)
    z = dom.z_min + 0.61 * (dom.z_max - dom.z_min)
    calls = {"position": (surface.position(t, z),),
             "jet": tuple(surface.jet(t, z)),
             "fd_jet": tuple(_fd_jet(surface.position, t, z))}
    for name, vectors in calls.items():
        for v in vectors:
            assert type(v) is tuple and len(v) == 3, name
            assert all(type(x) is float for x in v), name
