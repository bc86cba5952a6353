"""File formats: trace CSV, Wavefront OBJ meshes, flat config files.

CSV layout (one row per sample, LF line endings, ',' separator, '.'
decimal):

    s,t,z,t_vel,z_vel,t_acc,z_acc,x,y,z_pos,kg,kn,taug,phi,theta,kappa,tau

``read_trace_csv`` feeds the first seven columns, the grid and the uv
jets, through ``curve_scalars``, and of the rest only checks x,y,z_pos
against the chart to 1e-9: its result depends on the seven alone, which
are written exact, with ``%.17g``.  The other ten are display values.

OBJ layout: the surface as a quad-triangulated grid mesh followed by each
curve as a polyline object; all surface vertices precede all curve
vertices.  An OBJ is write-only display output, which nothing here reads
back.  Display values are written with ``%.14g``, within 5e-14 relative of
their doubles (four orders inside the reader's 1e-9 and the tracer's rtol
1e-9), the most digits that CPython's float formatting gives on its fast
path, at about half the cost of ``%.17g``.

Both writers format and write ``_BLOCK`` lines at a time, one ``%`` a
block, so their memory does not grow with the file.
"""
from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

from .core import SurfaceDef
from .darboux import CurveData, curve_scalars
from .errors import InvalidRequestError
from .stepper import MAX_SAMPLES

CSV_COLUMNS = ("s", "t", "z", "t_vel", "z_vel", "t_acc", "z_acc", "x", "y",
               "z_pos", "kg", "kn", "taug", "phi", "theta", "kappa", "tau")
_HEADER = ",".join(CSV_COLUMNS)
# s .. z_acc exact, x .. tau display (see the module docstring)
_ROW = ",".join(["%.17g"] * 7 + ["%.14g"] * 10) + "\n"
_VERTEX = "v %.14g %.14g %.14g\n"
_CELL = "f %d %d %d\nf %d %d %d\n"  # a grid cell's two triangles
_BLOCK = 1024  # lines formatted by one % and written at once


def _blocks(n: int) -> Iterator[np.ndarray]:
    """The indices 0..n-1 in consecutive blocks of at most _BLOCK."""
    return (np.arange(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _lines(line: str, table: np.ndarray) -> str:
    """``line`` formatted once per row of ``table``, with one %."""
    return line * len(table) % tuple(table.ravel().tolist())


def write_trace_csv(path: str, curve: CurveData) -> None:
    """Write a curve's samples to CSV (deterministic; read back exact)."""
    if len(curve) == 0:
        raise InvalidRequestError("refusing to write an empty trace")
    columns = (curve.s, curve.uv, curve.uv_vel, curve.uv_acc, curve.pos,
               curve.kg, curve.kn, curve.taug, curve.phi, curve.theta,
               curve.kappa, curve.tau)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_HEADER + "\n")
        for k in _blocks(len(curve)):
            fh.write(_lines(_ROW, np.column_stack([c[k] for c in columns])))


def _first_bad_line(lines) -> str | None:
    """Where the first of ``lines``, the lines after a CSV header, that is
    not 17 numbers fails: 'line L, column C: ...' for a cell that is not a
    number to `np.loadtxt`, 'line L: ...' for a wrong cell count (L from 2,
    empty lines skipped as `np.loadtxt` skips them, but not one of spaces),
    or None where every line passes."""
    for number, line in enumerate(lines, start=2):
        if line == "\n":
            continue
        cells = line.removesuffix("\n").split(",")
        for column, cell in enumerate(cells, start=1):
            try:   # np.loadtxt refuses float()'s '_' and non-ASCII digits
                if "_" in cell or not cell.strip().isascii():
                    raise ValueError
                float(cell)
            except ValueError:
                return (f"line {number}, column {column}: {cell!r} is not "
                        "a number")
        if len(cells) != len(CSV_COLUMNS):
            return f"line {number}: {len(cells)} columns"
    return None


def read_trace_csv(path: str, surface: SurfaceDef) -> CurveData:
    """``curve_scalars`` of the grid and uv jets in a write_trace_csv file:
    on the surface it was written from, every field comes back bit for bit.
    Raises InvalidRequestError naming the path for bytes that are not
    UTF-8, any other header (older 13-column files included), rows that
    are not 17 numbers each ('#' lines included: the format has no
    comments; the first bad row is named by its file line, the header being
    line 1, and a bad cell by its column), and, naming the surface too,
    where a stored x,y,z_pos is over 1e-9 max(1, |X|) off X."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().removesuffix("\n")
            if header != _HEADER:
                raise ValueError(f"header '{header}'")
            rows = fh.tell()
            line = fh.readline()
            while line == "\n":  # np.loadtxt skips empty lines
                line = fh.readline()
            if line:
                fh.seek(rows)
                try:
                    data = np.loadtxt(fh, delimiter=",", comments=None,
                                      ndmin=2)
                except ValueError as exc:
                    fh.seek(rows)
                    raise ValueError(_first_bad_line(fh) or exc) from None
            else:  # the header alone: a short curve, not a bad file
                data = np.empty((0, len(CSV_COLUMNS)))
        if data.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"{data.shape[1]} columns")
    except ValueError as exc:  # UnicodeDecodeError too
        raise InvalidRequestError(
            f"{path}: not a trace CSV ({exc}); expected rows of 17 numbers "
            f"under the header {_HEADER}") from None
    # positions are written exactly: one off the chart means another surface
    xyz = np.asarray(surface.position(data[:, 1], data[:, 2]), dtype=float).T
    gap = np.max(np.abs(data[:, 7:10] - xyz), axis=1)
    off = ~(gap <= 1e-9 * np.maximum(1.0, np.linalg.norm(xyz, axis=1)))
    if off.any():
        i = int(np.argmax(off))
        raise InvalidRequestError(
            f"{path}: sample {i} lies {gap[i]:.3g} off surface "
            f"'{surface.name}'; traced on another surface?")
    return curve_scalars(surface, data[:, 0], data[:, 1:3], data[:, 3:5],
                         data[:, 5:7])


def write_obj(path: str, surface: SurfaceDef,
              curves: Iterable[np.ndarray] = (),
              grid: tuple[int, int] = (50, 50)) -> None:
    """Write a surface mesh and curve polylines as a Wavefront OBJ.

    ``curves`` are (n, 3) position arrays.  The surface grid is quad
    cells split into two triangles each; curves follow the surface in
    the vertex list and are emitted as 'l' polyline elements.  Refuses an
    empty curve and a grid past `MAX_SAMPLES` points before opening path.
    """
    curves = [np.asarray(c, dtype=float) for c in curves]
    for c in curves:
        if len(c) == 0:
            raise InvalidRequestError("refusing to write an empty curve")
    nt, nz = grid
    if not (nt > 0 and nz > 0 and nt * nz <= MAX_SAMPLES):
        raise InvalidRequestError(f"grid {nt} x {nz} must be positive with "
                                  f"at most {MAX_SAMPLES} points")
    dom = surface.domain
    ts = np.linspace(dom.t_min, dom.t_max, nt)
    zs = np.linspace(dom.z_min, dom.z_max, nz)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # OBJ indices are 1-based: grid point (i, j) is vertex 1 + nz i + j
        fh.write(f"o {surface.name}\n")
        for k in _blocks(nt * nz):
            xyz = surface.position(ts[k // nz], zs[k % nz]).T
            fh.write(_lines(_VERTEX, xyz))
        # grid cell (i, j), with corners a = (i, j), b = (i + 1, j),
        # c = (i + 1, j + 1), d = (i, j + 1), gives abc and acd
        for k in _blocks(max(nt - 1, 0) * max(nz - 1, 0)):
            a = 1 + nz * (k // (nz - 1)) + k % (nz - 1)
            b, d = a + nz, a + 1
            c = b + 1
            fh.write(_lines(_CELL, np.column_stack((a, b, c, a, c, d))))
        offset = 1 + nt * nz
        for n, curve in enumerate(curves, start=1):
            fh.write(f"o curve_{n}\n")
            for k in _blocks(len(curve)):
                fh.write(_lines(_VERTEX, curve[k]))
            fh.write("l")
            for k in _blocks(len(curve)):
                fh.write(" " + " ".join(map(str, (offset + k).tolist())))
            fh.write("\n")
            offset += len(curve)


def parse_config(path: str) -> dict[str, str]:
    """Read a flat UTF-8 ``key = value`` config file; '#' starts a comment.
    InvalidRequestError names the path of a line without '=' or of bytes
    that are not UTF-8."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidRequestError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise InvalidRequestError(f"{path}: not UTF-8 ({exc})") from None
    return out


def ensure_dir(path: str) -> str:
    if "\0" in path:  # os.makedirs raises ValueError for it, not OSError
        raise InvalidRequestError(f"directory {path!r} has a NUL character")
    os.makedirs(path, exist_ok=True)
    return path
