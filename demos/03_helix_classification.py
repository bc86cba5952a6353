"""Generalized-helix detection and the full classification report.

The Enneper geodesics through the origin with chart slope m are
generalized helices with axis (m, 1, 0)/sqrt(1 + m^2); the report fits
the axis from (kappa, tau) dependence and Frenet frames alone.
"""
import numpy as np

from surftrace import classify_curve, make_enneper
from surftrace.classify import render_report
from surftrace.tracer import GeodesicMode, TraceRequest, trace

enn = make_enneper(3.0)
for m in (0.5, 2.0):
    cosp = 1.0 / np.sqrt(1 + m * m)
    span = (1.5 + (1 + m * m) * 1.125) / cosp
    tr = trace(TraceRequest(enn, (0.0, 0.0),
                            GeodesicMode((cosp, m * cosp)),
                            s_span=(-span, span), step=5e-3))
    rep = classify_curve(enn, tr)
    w = np.array([m, 1.0, 0.0]) / np.sqrt(1 + m * m)
    axis = rep.helix.axis if rep.helix.axis @ w > 0 else -rep.helix.axis
    print(f"geodesic through the origin with slope m = {m:g}")
    print(f"  fitted axis  {np.array2string(axis, precision=8)}")
    print(f"  closed form  {np.array2string(w, precision=8)}")
    print(f"  <axis, N> stays below {np.max(np.abs(rep.helix.axis_dot_n.mean) + rep.helix.axis_dot_n.max_dev):.2e}")
    print()

print("full report for the m = 2 geodesic:")
print(render_report(classify_curve(enn, tr)))
