"""surftrace: trace and classify special curves on parametrized surfaces.

A numpy/scipy library for numerical differential geometry of curves on
surfaces in R^3: isogonal lines (constant angle to a principal direction),
pseudo-geodesics (constant angle between curve normal and surface normal),
geodesics, generalized-helix detection, and two-surface intersection
frame analysis.
"""

from .core import (ChristoffelSymbols, Domain, FundamentalForms, ShapeData,
                   SurfaceDef, SurfaceJet2, TangentDecomp, jet2, point_shape,
                   shape_arrays)
from .darboux import (CurveData, FrenetData, curve_scalars,
                      curve_scalars_from_trace, frenet_apparatus,
                      liouville_residuals, pointwise_direction_scalars)
from .gallery import (CATALOGUE, GalleryOracle, make_bonnet, make_catenoid,
                      make_crpc_revolution, make_cylinder, make_enneper,
                      make_helix_surface, make_plane, make_sphere,
                      make_surface)
from .classify import (ClassificationReport, ConstancyVerdict,
                       DependenceVerdict, HelixReport, classify_curve,
                       classify_curve_data, constancy_test, helix_axis,
                       linear_dependence_test, proposition_checks,
                       render_report, surface_class_probe)
from .intersect import (Fixture, IntersectionReport, SharedCurve,
                        analyze_intersection, make_fixture)
from .tracer import (GeodesicMode, IsogonalMode, PseudoGeodesicMode, Trace,
                     TraceRequest, chart_to_principal_angle, isogonal_map,
                     trace, trace_geodesic, trace_isogonal,
                     trace_pseudogeodesic)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
