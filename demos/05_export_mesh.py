"""Export the Enneper surface with the two slope +-1/2 origin geodesics.

Writes out/enneper_helices.obj (a 50x50 quad-triangulated mesh plus two
polylines) and a CSV of one of the curves, ready for external plotting.
"""
import os

import numpy as np

from surftrace import curve_scalars_from_trace, make_enneper
from surftrace.exporters import write_obj, write_trace_csv
from surftrace.tracer import GeodesicMode, TraceRequest, trace

out = "out"   # the writers make it
enn = make_enneper()
curves = []
last = None
for m in (0.5, -0.5):
    cosp = 1.0 / np.sqrt(1 + m * m)
    tr = trace(TraceRequest(enn, (0.0, 0.0),
                            GeodesicMode((cosp, m * cosp)),
                            s_span=(-2.5, 2.5), step=5e-3))
    last = curve_scalars_from_trace(enn, tr)
    curves.append(last.pos)

obj_path = os.path.join(out, "enneper_helices.obj")
write_obj(obj_path, enn, curves, grid=(50, 50))
csv_path = os.path.join(out, "enneper_geodesic.csv")
write_trace_csv(csv_path, last)
print(f"wrote {obj_path} (surface mesh + {len(curves)} curves)")
print(f"wrote {csv_path} ({len(last)} samples)")
