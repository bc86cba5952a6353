"""Bit-for-bit parity digests of surftrace's outputs.

    python tests/parity.py

prints two sha256 digests:

* ``traces``: a fixed, seeded gallery trace set.  For every catalogue
  surface and mode (isogonal, pseudo-geodesic, geodesic; no isogonal on a
  totally umbilic chart) and each of `PASSES` draws, a trace, its
  `curve_scalars_from_trace` data, its rendered classification report and,
  on charts with an oracle, its Liouville residuals.  Every array goes in as
  dtype, shape and raw bytes, every float as `float.hex`; an exception goes
  in as its type and message.
* ``verify``: the measured value of every check of `surftrace verify all`,
  as `float.hex`, with the scenario id and check name.

A change meant to keep every output bit for bit prints the same two lines
as its parent.  The script needs only the public API, so it runs unchanged
on older checkouts: copy it there and run it from that checkout's root.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # a checkout's script reads that checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from surftrace import classify, darboux, gallery, scenarios, tracer  # noqa: E402
from surftrace.errors import GeometryError  # noqa: E402

SEED = 11
PASSES = 3


def _feed(h, obj) -> None:
    """Hash ``obj`` into ``h``, tagging each item with its kind."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()}".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:".encode() + obj.encode())
    elif obj is None:
        h.update(b"n")
    elif dataclasses.is_dataclass(obj):
        h.update(f"d{type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(f"m{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (tuple, list)):
        h.update(f"t{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def _requests(seed: int, k: int):
    """Pass ``k``'s (surface, request) pairs, one per surface and mode."""
    rng = np.random.default_rng([seed, k])
    for name, ctor in gallery.CATALOGUE.items():
        surface = ctor()
        modes = (("pseudo_geodesic", "geodesic") if surface.totally_umbilic
                 else ("isogonal", "pseudo_geodesic", "geodesic"))
        dom = surface.domain.inset(0.25)
        for mode in modes:
            start = (float(rng.uniform(dom.t_min, dom.t_max)),
                     float(rng.uniform(dom.z_min, dom.z_max)))
            back = float(rng.uniform(0.25, 0.75))
            angle = float(rng.uniform(-math.pi, math.pi))
            theta = float(rng.uniform(-1.2, 1.2))
            # angles from E1 are undefined on totally umbilic charts
            direction = ((math.cos(angle), math.sin(angle))
                         if surface.totally_umbilic else angle)
            m = (tracer.IsogonalMode(angle) if mode == "isogonal"
                 else tracer.PseudoGeodesicMode(theta, direction)
                 if mode == "pseudo_geodesic"
                 else tracer.GeodesicMode(direction))
            yield surface, tracer.TraceRequest(
                surface, start, m, s_span=(-back, 1.0 - back), step=2e-3)


def trace_digest(seed: int = SEED, passes: int = PASSES) -> tuple[str, int]:
    """(sha256 hex, curve count) of the seeded gallery trace set."""
    h = hashlib.sha256()
    count = 0
    for k in range(passes):
        for surface, req in _requests(seed, k):
            count += 1
            _feed(h, f"{surface.name} {req.mode} {req.start_uv}")
            try:
                tr = tracer.trace(req)
                _feed(h, [tr.s, tr.uv, tr.uv_vel, tr.uv_acc, tr.exit,
                          tr.stats, tr.shape])
                cd = darboux.curve_scalars_from_trace(surface, tr)
                _feed(h, cd)
                if surface.oracle is not None:
                    _feed(h, darboux.liouville_residuals(surface, cd))
                _feed(h, classify.render_report(
                    classify.classify_curve_data(cd)))
            except (GeometryError, ValueError) as exc:  # refusals are outputs
                _feed(h, f"{type(exc).__name__}: {exc}")
    return h.hexdigest(), count


def verify_digest() -> tuple[str, int]:
    """(sha256 hex, value count) of every `verify all` measured value."""
    h = hashlib.sha256()
    count = 0
    for sid in scenarios.SCENARIOS:
        for check in scenarios.run_scenario(sid).checks:
            count += 1
            _feed(h, f"{sid} {check.name}")
            _feed(h, float(check.measured))
    return h.hexdigest(), count


def main() -> None:
    digest, n = trace_digest()
    print(f"traces  {digest}  ({n} curves, seed {SEED}, {PASSES} passes)")
    digest, n = verify_digest()
    print(f"verify  {digest}  ({n} values)")


if __name__ == "__main__":
    main()
