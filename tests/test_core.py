import numpy as np
import pytest

from surftrace import (jet2, make_bonnet, make_catenoid, make_crpc_revolution,
                       make_cylinder, make_enneper, make_helix_surface,
                       make_plane, make_sphere, point_shape)
from surftrace.core import Domain, SurfaceDef, _fd_jet
from surftrace.errors import OutOfDomainError, SingularJetError

from conftest import interior_grid

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
    jet = jet2(enn, 1.0, 0.0)
    assert np.allclose(jet.position, [2.0 / 3.0, 0.0, 1.0], atol=1e-15)


def test_plane_jet_second_partials_vanish():
    plane = make_plane()
    jet = jet2(plane, 0.7, -1.3)
    for d2 in (jet.d_tt, jet.d_tz, jet.d_zz):
        assert np.all(d2 == 0.0)


def test_sphere_jet_matches_finite_differences():
    sph = make_sphere(1.0)
    t, z = np.pi / 4, np.pi / 3
    jet = jet2(sph, t, z)
    fd = _fd_jet(sph.position, t, z)
    for a, b, tol in [(jet.d_t, fd.d_t, 1e-6), (jet.d_z, fd.d_z, 1e-6),
                      (jet.d_tt, fd.d_tt, 1e-4), (jet.d_tz, fd.d_tz, 1e-4),
                      (jet.d_zz, fd.d_zz, 1e-4)]:
        assert np.max(np.abs(a - b)) < tol


def test_out_of_domain_raises():
    enn = make_enneper()
    with pytest.raises(OutOfDomainError):
        jet2(enn, 5.0, 0.0)


def test_singular_jet_raises():
    # chart collapsing along z: X_z parallel to X_t
    def position(t, z):
        return np.array([t + z, 2 * (t + z), 0.0])

    surf = SurfaceDef("degenerate", Domain(-1, 1, -1, 1), position)
    with pytest.raises(SingularJetError):
        point_shape(surf, 0.1, 0.2)


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
        cr = np.cross(jet.d_t, jet.d_z)
        normal = cr / np.linalg.norm(cr)
        ref = [jet.d_t @ jet.d_t, jet.d_t @ jet.d_z, jet.d_z @ jet.d_z,
               jet.d_tt @ normal, jet.d_tz @ normal, jet.d_zz @ normal]
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
        jet = jet2(surface, t, z)
        fd = _fd_jet(surface.position, t, z)
        scale1 = 1 + max(np.max(np.abs(jet.d_t)), np.max(np.abs(jet.d_z)))
        assert np.max(np.abs(jet.d_t - fd.d_t)) < 1e-6 * scale1
        assert np.max(np.abs(jet.d_z - fd.d_z)) < 1e-6 * scale1
        scale2 = 1 + max(np.max(np.abs(jet.d_tt)), np.max(np.abs(jet.d_zz)))
        assert np.max(np.abs(jet.d_tt - fd.d_tt)) < 1e-4 * scale2
        assert np.max(np.abs(jet.d_tz - fd.d_tz)) < 1e-4 * scale2
        assert np.max(np.abs(jet.d_zz - fd.d_zz)) < 1e-4 * scale2


def test_christoffel_against_metric_derivatives():
    # independent oracle: Christoffels from finite differences of E, F, G
    surf = make_bonnet(0.6)
    h = 1e-6

    def metric(t, z):
        f = point_shape(surf, t, z, check_domain=False)[1]
        return np.array([f.E, f.F, f.G])

    for t, z in [(0.3, 0.2), (-0.8, 0.5), (1.2, -0.9)]:
        jet, forms, sd = point_shape(surf, t, z)
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
        got = sd.christoffel
        for a, b in [(got.c1_tt, c1_tt), (got.c1_tz, c1_tz),
                     (got.c1_zz, c1_zz), (got.c2_tt, c2_tt),
                     (got.c2_tz, c2_tz), (got.c2_zz, c2_zz)]:
            assert abs(a - b) < 1e-5 * (1 + abs(b))


def test_e1_sign_hint_continuity():
    enn = make_enneper()
    _, _, sd0 = point_shape(enn, 0.5, 0.5)
    _, _, sd1 = point_shape(enn, 0.501, 0.5, e1_hint=sd0.e1)
    assert sd0.e1 @ sd1.e1 > 0.99
    _, _, sd2 = point_shape(enn, 0.501, 0.5, e1_hint=-sd0.e1)
    assert sd0.e1 @ sd2.e1 < -0.99


def test_umbilic_flag_threshold():
    # catenoid is nowhere umbilic; sphere everywhere
    cat = make_catenoid()
    for t, z in interior_grid(cat, 4, 4):
        assert not point_shape(cat, t, z)[2].umbilic
