"""Properties of isogonal traces over the gallery, checked with Hypothesis.

Each draw is a start in the chart domain inset by 0.25 of each span, a
tangent angle phi from E1 and a split of a unit arc length into its
backward and forward sides, as in the benchmark's trace_mix workload.
The last property is the paper's theorem: only helix surfaces and the
Enneper surface carry isogonal lines that are pseudo-geodesic generalized
helices.  A cylinder's normals keep a right angle to its axis, so it is a
helix surface too.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surftrace import CATALOGUE, classify_curve, curve_scalars_from_trace
from surftrace.core import shape_arrays
from surftrace.tracer import IsogonalMode, TraceRequest, trace_isogonal

EXIT_KINDS = {"completed", "hit_boundary", "hit_umbilic", "solver_failure"}
SURFACES = {name: make() for name, make in CATALOGUE.items()}
NAMES = [name for name, s in SURFACES.items() if not s.totally_umbilic]

draws = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                  st.floats(-np.pi, np.pi), st.floats(0.25, 0.75))


def traced(name, draw):
    surface = SURFACES[name]
    u, v, phi, back = draw
    dom = surface.domain.inset(0.25)
    start = (dom.t_min + u * (dom.t_max - dom.t_min),
             dom.z_min + v * (dom.z_max - dom.z_min))
    return trace_isogonal(TraceRequest(surface, start, IsogonalMode(phi),
                                       s_span=(-back, 1.0 - back)))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25)
@given(draw=draws)
def test_isogonal_trace_properties(name, draw):
    surface = SURFACES[name]
    tr = traced(name, draw)
    assert tr.exit.kind in EXIT_KINDS
    jet, forms, _ = shape_arrays(surface, *tr.uv.T, check_domain=False)
    tp, zp = tr.uv_vel.T
    tpp, zpp = tr.uv_acc.T
    # unit speed in the surface metric
    speed = np.sqrt(forms.E * tp * tp + 2 * forms.F * tp * zp
                    + forms.G * zp * zp)
    assert np.max(np.abs(speed - 1.0)) < 1e-6
    # gamma'' has no tangential part, so kappa^2 = kg^2 + kn^2 holds for
    # the traced acceleration itself
    tangent = jet.d_t * tp + jet.d_z * zp
    acc = (jet.d_tt * tp * tp + 2 * jet.d_tz * tp * zp + jet.d_zz * zp * zp
           + jet.d_t * tpp + jet.d_z * zpp)
    assert np.max(np.abs(np.sum(acc * tangent, axis=0))) < 1e-6
    # the angle from E1 stays phi
    phi = np.unwrap(curve_scalars_from_trace(surface, tr).phi)
    assert np.max(np.abs(phi - phi[0])) < 1e-8


# angles away from the principal directions: |phi| in [0.2, pi/2 - 0.2]
oblique = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                    st.floats(0.2, np.pi / 2 - 0.2), st.sampled_from((-1, 1)),
                    st.floats(0.25, 0.75))
HELICAL = {"helix_surface": True, "enneper": True, "cylinder": True,
           "crpc_revolution": False, "bonnet": False, "catenoid": False}


@pytest.mark.parametrize("name", list(HELICAL))
@settings(max_examples=25)
@given(draw=oblique)
def test_isogonal_helix_pseudo_geodesics_as_the_theorem_says(name, draw):
    u, v, angle, sign, back = draw
    tr = traced(name, (u, v, sign * angle, back))
    rep = classify_curve(SURFACES[name], tr)
    if HELICAL[name]:
        assert rep.pseudo_geodesic.is_constant, rep.pseudo_geodesic
        assert rep.helix.is_helix, rep.helix
    else:
        assert not rep.pseudo_geodesic.is_constant, rep.pseudo_geodesic
