"""File formats: trace CSV, Wavefront OBJ meshes, flat config files.

CSV layout (one row per sample, LF line endings, ',' separator, '.'
decimal, full double precision):

    s,t,z,t_vel,z_vel,t_acc,z_acc,x,y,z_pos,kg,kn,taug,phi,theta,kappa,tau

Reading a file back feeds its grid and uv jets through ``curve_scalars``.

OBJ layout: the surface as a quad-triangulated grid mesh followed by each
curve as a polyline object; all surface vertices precede all curve
vertices.
"""
from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .core import SurfaceDef
from .darboux import CurveData, curve_scalars

CSV_COLUMNS = ("s", "t", "z", "t_vel", "z_vel", "t_acc", "z_acc", "x", "y",
               "z_pos", "kg", "kn", "taug", "phi", "theta", "kappa", "tau")
_HEADER = ",".join(CSV_COLUMNS)
_VERTEX = "v %.17g %.17g %.17g\n"
_CELL = "f %d %d %d\nf %d %d %d\n"  # a grid cell's two triangles


def write_trace_csv(path: str, curve: CurveData) -> None:
    """Write a curve's samples to CSV (deterministic, round-trip exact)."""
    if len(curve) == 0:
        raise ValueError("refusing to write an empty trace")
    table = np.column_stack((curve.s, curve.uv, curve.uv_vel, curve.uv_acc,
                             curve.pos, curve.kg, curve.kn, curve.taug,
                             curve.phi, curve.theta, curve.kappa, curve.tau))
    row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        fh.writelines(row % tuple(r) for r in table.tolist())


def read_trace_csv(path: str, surface: SurfaceDef) -> CurveData:
    """``curve_scalars`` of the grid and uv jets in a write_trace_csv file:
    on the surface it was written from, every field comes back bit for bit.
    Raises ValueError naming the path for any other header (older 13-column
    files included), for rows that are not 17 numbers each, and, naming the
    surface too, where a stored x,y,z_pos is over 1e-9 max(1, |X|) off X."""
    try:
        with open(path, encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines() or [""]
        if header != _HEADER:
            raise ValueError(f"header '{header}'")
        data = (np.loadtxt(rows, delimiter=",", ndmin=2) if rows
                else np.empty((0, len(CSV_COLUMNS))))
        if data.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"{data.shape[1]} columns")
    except ValueError as exc:
        raise ValueError(f"{path}: not a trace CSV ({exc}); expected rows of "
                         f"17 numbers under the header {_HEADER}") from None
    # positions are written exactly: one off the chart means another surface
    xyz = np.asarray(surface.position(data[:, 1], data[:, 2]), dtype=float).T
    gap = np.max(np.abs(data[:, 7:10] - xyz), axis=1)
    off = ~(gap <= 1e-9 * np.maximum(1.0, np.linalg.norm(xyz, axis=1)))
    if off.any():
        i = int(np.argmax(off))
        raise ValueError(f"{path}: sample {i} lies {gap[i]:.3g} off surface "
                         f"'{surface.name}'; traced on another surface?")
    return curve_scalars(surface, data[:, 0], data[:, 1:3], data[:, 3:5],
                         data[:, 5:7])


def write_obj(path: str, surface: SurfaceDef,
              curves: Iterable[np.ndarray] = (),
              grid: tuple[int, int] = (50, 50)) -> None:
    """Write a surface mesh and curve polylines as a Wavefront OBJ.

    ``curves`` are (n, 3) position arrays.  The surface grid is quad
    cells split into two triangles each; curves follow the surface in
    the vertex list and are emitted as 'l' polyline elements.
    """
    curves = [np.asarray(c, dtype=float) for c in curves]
    for c in curves:
        if len(c) == 0:
            raise ValueError("refusing to write an empty curve")
    nt, nz = grid
    dom = surface.domain
    ts = np.linspace(dom.t_min, dom.t_max, nt)
    zs = np.linspace(dom.z_min, dom.z_max, nz)
    tt, zz = np.meshgrid(ts, zs, indexing="ij")
    xyz = surface.position(tt.ravel(), zz.ravel()).T
    # OBJ indices are 1-based; grid cell (i, j), with corners a = (i, j),
    # b = (i + 1, j), c = (i + 1, j + 1), d = (i, j + 1), gives abc and acd
    idx = np.arange(1, 1 + nt * nz).reshape(nt, nz)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    corners = tuple(np.stack((a, b, c, a, c, d), axis=-1).ravel().tolist())
    # (name, (n, 3) vertices, element lines) per object, one % per block
    objects = [(surface.name, xyz, _CELL * a.size % corners)]
    offset = 1 + nt * nz
    for k, curve in enumerate(curves, start=1):
        polyline = " ".join(map(str, range(offset, offset + len(curve))))
        objects.append((f"curve_{k}", curve, f"l {polyline}\n"))
        offset += len(curve)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for name, points, elements in objects:
            vertices = _VERTEX * len(points) % tuple(points.ravel().tolist())
            fh.write(f"o {name}\n{vertices}{elements}")


def parse_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
