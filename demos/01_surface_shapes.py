"""Pointwise shape data on the surface gallery.

Builds each gallery surface, evaluates the fundamental forms and principal
data at a few points, and checks the generic pipeline against the
closed-form curvature oracles the constructors carry.
"""
import numpy as np

from surftrace import (make_bonnet, make_catenoid, make_crpc_revolution,
                       make_cylinder, make_enneper, make_helix_surface,
                       make_sphere, point_shape)

surfaces = [
    make_helix_surface(1.0, np.pi / 4),
    make_enneper(),
    make_crpc_revolution(2.0, 1),
    make_bonnet(0.5),
    make_sphere(1.0),
    make_cylinder(1.0),
    make_catenoid(),
]

print(f"{'surface':18s} {'point':>14s} {'kappa1':>10s} {'kappa2':>10s} "
      f"{'K':>10s} {'H':>10s}  umbilic")
for surf in surfaces:
    dom = surf.domain.inset(0.25)
    t = 0.5 * (dom.t_min + dom.t_max) + 0.1
    z = 0.5 * (dom.z_min + dom.z_max) + 0.2
    _, _, sd = point_shape(surf, t, z)
    print(f"{surf.name:18s} ({t:5.2f},{z:5.2f}) {sd.kappa1:10.5f} "
          f"{sd.kappa2:10.5f} {sd.K:10.5f} {sd.H:10.5f}  {sd.umbilic}")

print("\nOracle agreement (sorted principal pair vs closed forms):")
for surf in surfaces:
    if surf.oracle is None:
        continue
    dom = surf.domain.inset(0.1)
    worst = 0.0
    for t in np.linspace(dom.t_min, dom.t_max, 12):
        for z in np.linspace(dom.z_min, dom.z_max, 8):
            _, _, sd = point_shape(surf, float(t), float(z))
            ora = sorted((surf.oracle.k1(t, z), surf.oracle.k2(t, z)))
            worst = max(worst, abs(ora[0] - sd.kappa1), abs(ora[1] - sd.kappa2))
    print(f"  {surf.name:18s} max |difference| = {worst:.3e}")

print("\nEnneper first form is conformal: E = G = (1 + t^2 + z^2)^2, F = 0")
enn = make_enneper()
for t, z in [(0.0, 0.0), (1.0, -0.5)]:
    f = point_shape(enn, t, z)[1]
    print(f"  at ({t:4.1f},{z:4.1f}): E = {f.E:.6f}, G = {f.G:.6f}, "
          f"F = {f.F:.1e}, conformal factor {(1+t*t+z*z)**2:.6f}")
