"""File formats: trace CSV, Wavefront OBJ meshes, flat config files.

CSV layout (one row per sample, LF line endings, ',' separator, '.'
decimal, full double precision):

    s,t,z,x,y,z_pos,kg,kn,taug,phi,theta,kappa,tau

OBJ layout: the surface as a quad-triangulated grid mesh followed by each
curve as a polyline object; all surface vertices precede all curve
vertices.
"""
from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .core import SurfaceDef, shape_arrays
from .darboux import CurveData
from .numdiff import check_uniform, diff2_uniform, diff_uniform

CSV_COLUMNS = ("s", "t", "z", "x", "y", "z_pos", "kg", "kn", "taug", "phi",
               "theta", "kappa", "tau")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(path: str, curve: CurveData) -> None:
    """Write a curve's samples to CSV (deterministic, round-trip exact)."""
    if len(curve) == 0:
        raise ValueError("refusing to write an empty trace")
    rows = []
    for i in range(len(curve)):
        rows.append(",".join(_fmt(v) for v in (
            curve.s[i], curve.uv[i, 0], curve.uv[i, 1],
            curve.pos[i, 0], curve.pos[i, 1], curve.pos[i, 2],
            curve.kg[i], curve.kn[i], curve.taug[i], curve.phi[i],
            curve.theta[i], curve.kappa[i], curve.tau[i])))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write("\n".join(rows) + "\n")


def read_trace_csv(path: str, surface: SurfaceDef) -> CurveData:
    """Rebuild CurveData from a CSV written by write_trace_csv.

    Scalar series are taken verbatim from the file so re-classification
    reproduces the original verdicts; uv velocities/accelerations (absent
    from the format) are rebuilt by finite differences, and frames are
    re-evaluated on the surface.
    """
    data = np.genfromtxt(path, delimiter=",", names=True)
    s = np.asarray(data["s"], dtype=float)
    h = check_uniform(s)
    uv = np.column_stack([data["t"], data["z"]])
    pos = np.column_stack([data["x"], data["y"], data["z_pos"]])
    uv_vel = diff_uniform(uv, h, edge_order=4)
    uv_acc = diff2_uniform(uv, h)
    jet, _forms, sd = shape_arrays(surface, uv[:, 0], uv[:, 1],
                                   check_domain=False)
    vel3 = uv_vel[:, 0] * jet.d_t + uv_vel[:, 1] * jet.d_z
    T, normal = (np.ascontiguousarray(v.T) for v in (vel3, sd.normal))
    phi = np.asarray(data["phi"], dtype=float)
    umb = np.where(np.isnan(phi))[0]
    return CurveData(s, uv, uv_vel, uv_acc, pos, T, normal,
                     np.asarray(data["kg"], dtype=float),
                     np.asarray(data["kn"], dtype=float),
                     np.asarray(data["taug"], dtype=float),
                     phi,
                     np.asarray(data["theta"], dtype=float),
                     np.asarray(data["kappa"], dtype=float),
                     np.asarray(data["tau"], dtype=float),
                     umb)


def write_obj(path: str, surface: SurfaceDef | None = None,
              curves: Iterable[np.ndarray] = (),
              grid: tuple[int, int] = (50, 50)) -> None:
    """Write a surface mesh and/or curve polylines as a Wavefront OBJ.

    ``curves`` are (n, 3) position arrays.  The surface grid is quad
    cells split into two triangles each; curves follow the surface in
    the vertex list and are emitted as 'l' polyline elements.
    """
    curves = [np.asarray(c, dtype=float) for c in curves]
    for c in curves:
        if len(c) == 0:
            raise ValueError("refusing to write an empty curve")
    if surface is None and not curves:
        raise ValueError("nothing to export")
    lines: list[str] = []
    offset = 1  # OBJ indices are 1-based
    if surface is not None:
        nt, nz = grid
        dom = surface.domain
        ts = np.linspace(dom.t_min, dom.t_max, nt)
        zs = np.linspace(dom.z_min, dom.z_max, nz)
        lines.append(f"o {surface.name}")
        tt, zz = np.meshgrid(ts, zs, indexing="ij")
        for p in surface.position(tt.ravel(), zz.ravel()).T:
            lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
        for i in range(nt - 1):
            for j in range(nz - 1):
                a = offset + i * nz + j
                b = offset + (i + 1) * nz + j
                c = offset + (i + 1) * nz + (j + 1)
                d = offset + i * nz + (j + 1)
                lines.append(f"f {a} {b} {c}")
                lines.append(f"f {a} {c} {d}")
        offset += nt * nz
    for k, c in enumerate(curves, start=1):
        lines.append(f"o curve_{k}")
        for p in c:
            lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
        idx = " ".join(str(offset + i) for i in range(len(c)))
        lines.append(f"l {idx}")
        offset += len(c)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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
