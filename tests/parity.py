"""Bit-for-bit parity digests of surftrace's outputs.

    python tests/parity.py

prints four sha256 digests:

* ``traces``: a fixed, seeded gallery trace set, with the right-hand side
  evaluations, the chart jet evaluations at single points and the accepted
  solver steps its traces took in all (``Trace.nfev``, or the branches'
  summed ``nfev`` on a checkout without it).  For every catalogue
  surface and mode (isogonal, pseudo-geodesic, geodesic; no isogonal on a
  totally umbilic chart) and each of `PASSES` draws, a trace, its
  `curve_scalars_from_trace` data, its rendered classification report and,
  on charts with an oracle, its Liouville residuals.  Every array goes in as
  dtype, shape and raw bytes, every float as `float.hex`; an exception goes
  in as its type and message.
* ``verify``: the measured value of every check of `surftrace verify all`,
  as `float.hex`, with the scenario id and check name.
* ``charts``: every catalogue surface made position-only,
  ``dataclasses.replace(surface, jet=None)``, so its jet is the
  finite-difference one: `core.point_shape` at `CHART_POINTS` seeded points,
  and one seeded pseudo-geodesic trace with its `curve_scalars_from_trace`
  data.
* ``umbilic``: the 30 `UMBILIC_RUNS` isogonal traces into the isolated
  umbilic of the paraboloid z = (t^2 + z^2)/2, each as exit kind,
  ``s_stop`` and samples, with the right-hand side evaluations and the
  chart jet evaluations at single points they took in all.

A change meant to keep every output bit for bit prints the same four lines
as its parent.  The script needs only the public API, so it runs unchanged
on older checkouts: copy it there and run it from that checkout's root.

A change that moves outputs on purpose is measured by a drift report:

    python tests/parity.py --passes 10 --save before.npz     (parent)
    python tests/parity.py --passes 10 --against before.npz  (change)

``--save`` writes every curve's `Trace` and `CurveData` arrays, the charts
set's traces under the mode ``charts`` included, and every verify value;
``--against`` recomputes them and prints, for each mode and field, how
many curves stay bit for bit and the largest scaled change |new - old| /
max(1, |old|), then the verify values that moved.  For the ``text`` field
(the exit kind and rendered report, or the refusal) it prints instead how
many curves changed a verdict: the exit kind or refusal type, or a report
line's yes/no/undefined word, not only its numbers.  The `Trace.shape`
records go in leaf by leaf, as ``trace.shape.<record>.<field>`` (records
``jet``, ``forms`` and ``data``), and a field that only one side has
prints as ``added`` (only this checkout) or ``removed`` (only the file).

Where kappa is at rounding size, or passes through 0 between samples,
theta = atan2(kg, kn) is decided by the sign of a kg at rounding size: it
flips by pi, and its continuous lift, taken modulo pi, may move by pi from
there on.  So theta is compared modulo pi, and tau = taug + theta' has its
own row for the samples whose theta' stencil reaches such a flip (a saved
sample with kappa < 1e-6, or a saved theta step above pi/2, which a
checkout that lifts theta modulo 2 pi keeps).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # a checkout's script reads that checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from surftrace import (classify, core, darboux, gallery, scenarios,  # noqa: E402
                       tracer)
from surftrace.errors import GeometryError  # noqa: E402

SEED = 11
PASSES = 3
#: kappa below which theta, and tau near it, is noise in the drift report
KAPPA_FLAT = 1e-6
#: samples on either side of a point that `darboux`'s theta' stencil reads
STENCIL = 2
#: seeded `point_shape` points per position-only chart in the charts digest
CHART_POINTS = 16
#: names of `Trace.shape`'s three records in the drift report
SHAPE_RECORDS = ("jet", "forms", "data")
#: (r0, phi, speed, s_end) of the isogonal runs from (r0, 0) toward the
#: paraboloid's umbilic: radial ones (phi = pi) and inward spirals
UMBILIC_RUNS = ([(r0, math.pi, speed, 2.0) for speed in (0.5, 1.0, 2.0, 3.0)
                 for r0 in (0.2, 0.4, 0.6, 0.8, 1.0)]
                + [(r0, phi, 1.0, 5.0) for phi in (2.0, 2.5, 3.0, -2.5, 1.8)
                   for r0 in (0.3, 0.6)])


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


class ScalarJets:
    """Counts the calls at a single point of the chart jets it wraps: the
    flows' right-hand sides, their step-end events and the trace's start
    evaluate the chart one point at a time, the sample passes on arrays."""

    def __init__(self):
        self.calls = 0

    def wrap(self, surface: core.SurfaceDef) -> core.SurfaceDef:
        """``surface`` with its jet counted; a position-only one as is."""
        jet = surface.jet
        if jet is None:
            return surface

        def counted(t, z):
            self.calls += np.ndim(t) == 0
            return jet(t, z)
        return dataclasses.replace(surface, jet=counted)


def _requests(seed: int, k: int):
    """Pass ``k``'s (surface, mode name, request), one per surface and
    mode."""
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
            yield surface, mode, tracer.TraceRequest(
                surface, start, m, s_span=(-back, 1.0 - back), step=2e-3)


def trace_digest(seed: int = SEED,
                 passes: int = PASSES) -> tuple[str, int, int, int, int]:
    """(sha256 hex, curve count, RHS calls, accepted steps, scalar jet
    calls) of the seeded gallery trace set; the last three are
    deterministic cost counts of its traces."""
    h = hashlib.sha256()
    count = nfev = steps = jets = 0
    charts = ScalarJets()
    for k in range(passes):
        for surface, _, req in _requests(seed, k):
            count += 1
            _feed(h, f"{surface.name} {req.mode} {req.start_uv}")
            surface = charts.wrap(surface)
            req = dataclasses.replace(req, surface=surface)
            try:
                before = charts.calls
                tr = tracer.trace(req)
                jets += charts.calls - before
                # a checkout whose branches share no start sums its stats
                nfev += getattr(tr, "nfev", None) or sum(
                    b.nfev for b in tr.stats.values())
                steps += sum(b.steps for b in tr.stats.values())
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
    return h.hexdigest(), count, nfev, steps, jets


def _charts(seed: int):
    """Each position-only catalogue chart's (name, surface, points,
    request): `CHART_POINTS` seeded points and one seeded pseudo-geodesic
    trace request."""
    rng = np.random.default_rng(seed)
    for name, ctor in gallery.CATALOGUE.items():
        surface = dataclasses.replace(ctor(), jet=None)
        dom = surface.domain.inset(0.25)
        # the first point starts the trace
        t = rng.uniform(dom.t_min, dom.t_max, CHART_POINTS + 1).tolist()
        z = rng.uniform(dom.z_min, dom.z_max, CHART_POINTS + 1).tolist()
        angle = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(-1.2, 1.2))
        direction = ((math.cos(angle), math.sin(angle))
                     if surface.totally_umbilic else angle)
        req = tracer.TraceRequest(
            surface, (t[0], z[0]), tracer.PseudoGeodesicMode(theta, direction),
            s_span=(-0.25, 0.25), step=2e-3)
        yield name, surface, list(zip(t[1:], z[1:])), req


def charts_digest(seed: int = SEED) -> tuple[str, int]:
    """(sha256 hex, chart count) of the position-only gallery charts'
    `point_shape` records and pseudo-geodesic traces."""
    h = hashlib.sha256()
    count = 0
    for name, surface, points, req in _charts(seed):
        count += 1
        _feed(h, name)
        try:
            for point in points:
                _feed(h, core.point_shape(surface, *point))
            tr = tracer.trace(req)
            _feed(h, [tr.s, tr.uv, tr.uv_vel, tr.uv_acc, tr.exit, tr.shape])
            _feed(h, darboux.curve_scalars_from_trace(surface, tr))
        except (GeometryError, ValueError) as exc:  # refusals are outputs
            _feed(h, f"{type(exc).__name__}: {exc}")
    return h.hexdigest(), count


def _paraboloid() -> core.SurfaceDef:
    """z = (t^2 + z^2)/2 on (-2, 2)^2: one umbilic, at the origin."""
    def position(t, z):
        return core.vec3(t, t, z, 0.5 * (t * t + z * z))

    def jet(t, z):
        return core.SurfaceJet2(
            core.vec3(t, 1.0, 0.0, t), core.vec3(t, 0.0, 1.0, z),
            core.vec3(t, 0.0, 0.0, 1.0), core.vec3(t, 0.0, 0.0, 0.0),
            core.vec3(t, 0.0, 0.0, 1.0))

    return core.SurfaceDef("paraboloid", core.Domain(-2, 2, -2, 2), position,
                           jet)


def umbilic_digest() -> tuple[str, int, int, int]:
    """(sha256 hex, run count, RHS calls, scalar jet calls) of the
    `UMBILIC_RUNS` traces."""
    h = hashlib.sha256()
    charts = ScalarJets()
    surface = charts.wrap(_paraboloid())
    nfev = 0
    for r0, phi, speed, s_end in UMBILIC_RUNS:
        _feed(h, f"{r0} {phi} {speed} {s_end}")
        try:
            tr = tracer.trace(tracer.TraceRequest(
                surface, (r0, 0.0), tracer.IsogonalMode(phi, speed),
                s_span=(0.0, s_end)))
            nfev += tr.nfev
            _feed(h, [tr.exit.kind, tr.exit.s_stop, tr.s, tr.uv])
        except (GeometryError, ValueError) as exc:  # refusals are outputs
            _feed(h, f"{type(exc).__name__}: {exc}")
    return h.hexdigest(), len(UMBILIC_RUNS), nfev, charts.calls


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


def _leaves(prefix: str, obj):
    """(dotted name, array) for every number array or float in ``obj``,
    named tuples and dataclasses walked by field."""
    fields = (obj._fields if hasattr(obj, "_fields")
              else [f.name for f in dataclasses.fields(obj)]
              if dataclasses.is_dataclass(obj) else None)
    if fields is not None:
        for name in fields:
            yield from _leaves(f"{prefix}.{name}", getattr(obj, name))
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _leaves(f"{prefix}.{i}", item)
    else:
        yield prefix, np.asarray(obj, dtype=float)


def _curves(seed: int, passes: int):
    """(surface, mode, request) of each curve of the seeded trace set, then
    of each trace of the charts set, under the mode ``charts``."""
    for k in range(passes):
        yield from _requests(seed, k)
    for _, surface, _, req in _charts(seed):
        yield surface, "charts", req


def curve_outputs(seed: int = SEED, passes: int = PASSES):
    """Yield (label, mode, fields) for each curve of `_curves`.

    ``fields`` maps ``trace.<field>``, ``trace.shape.<record>.<field>`` and
    ``curve.<field>`` to float arrays, plus ``text``: the exit kind and
    report, or the refusal.
    """
    for surface, mode, req in _curves(seed, passes):
        label = f"{surface.name} {req.mode} {req.start_uv}"
        fields = {}
        try:
            tr = tracer.trace(req)
            for name in ("s", "uv", "uv_vel", "uv_acc"):
                fields[f"trace.{name}"] = getattr(tr, name)
            fields["trace.s_stop"] = np.array(
                [np.nan if tr.exit.s_stop is None else tr.exit.s_stop])
            fields["trace.stats"] = np.array(
                [[b.nfev, b.steps, b.rejected] for _, b in
                 sorted(tr.stats.items())], dtype=float).ravel()
            for record, obj in zip(SHAPE_RECORDS, tr.shape):
                fields.update(_leaves(f"trace.shape.{record}", obj))
            cd = darboux.curve_scalars_from_trace(surface, tr)
            for name, a in _leaves("curve", cd):
                fields[name] = a
            text = f"{tr.exit.kind}\n" + classify.render_report(
                classify.classify_curve_data(cd))
        except (GeometryError, ValueError) as exc:
            text = f"{type(exc).__name__}: {exc}"
        fields["text"] = np.array(text)
        yield label, mode, fields


def verify_checks() -> dict:
    """Every `verify all` check, keyed "<scenario> <check name>"."""
    return {f"{sid} {c.name}": c for sid in scenarios.SCENARIOS
            for c in scenarios.run_scenario(sid).checks}


def save(path: str, seed: int, passes: int) -> None:
    """Write the trace set's outputs and the verify values to ``path``."""
    out = {}
    for i, (label, mode, fields) in enumerate(curve_outputs(seed, passes)):
        out[f"{i} label"] = np.array(f"{mode} {label}")
        out.update({f"{i} {name}": a for name, a in fields.items()})
    for key, check in verify_checks().items():
        out[f"verify {key}"] = np.array(float(check.measured))
    np.savez(path, **out)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype.kind == "U":
        return b.dtype.kind == "U" and str(a) == str(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _change(new: np.ndarray, old: np.ndarray) -> float:
    """max |new - old| / max(1, |old|); NaN where both are NaN counts 0,
    and a shape or NaN mismatch counts inf."""
    if new.shape != old.shape:
        return math.inf
    both = np.isnan(new) & np.isnan(old)
    d = np.abs(new - old) / np.maximum(1.0, np.abs(old))
    d = np.where(both, 0.0, d)
    return float(np.max(np.where(np.isnan(d), np.inf, d), initial=0.0))


def _flips(kappa: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Samples whose theta' stencil reaches a flip of theta (see the module
    docstring): kappa < `KAPPA_FLAT`, or either end of a step above pi/2."""
    flip = kappa < KAPPA_FLAT
    step = np.abs(np.diff(theta)) > np.pi / 2
    flip[:-1] |= step
    flip[1:] |= step
    near = flip.copy()
    for k in range(1, STENCIL + 1):
        near[k:] |= flip[:-k]
        near[:-k] |= flip[k:]
    return near


def _verdicts(text: str) -> list:
    """A ``text`` field's verdicts: the exit kind (or the refusal's type)
    and each report line's label with its yes/no/undefined word."""
    first, *lines = text.splitlines()
    return [first.split(":")[0], *(line.split()[:2] for line in lines)]


def drift_report(path: str, seed: int, passes: int) -> str:
    """The drift table of this checkout's outputs against ``path``'s."""
    saved = np.load(path)
    stored: dict[str, dict] = {}   # curve index -> saved field -> array
    for key in saved.files:
        i, name = key.split(" ", 1)
        if i != "verify" and name != "label":
            stored.setdefault(i, {})[name] = saved[key]
    # (mode, field) -> [curves, bitwise, max change (for text: verdicts
    # changed), added, removed]
    rows: dict[tuple[str, str], list] = {}
    for i, (label, mode, fields) in enumerate(curve_outputs(seed, passes)):
        if str(saved[f"{i} label"]) != f"{mode} {label}":
            raise SystemExit(f"curve {i} is {mode} {label}, saved as "
                             f"{saved[f'{i} label']}: another seed or set")
        old = stored.get(str(i), {})
        if ("curve.tau" in old and "curve.tau" in fields
                and fields["curve.tau"].shape == old["curve.tau"].shape):
            noisy = _flips(old["curve.kappa"], old["curve.theta"])
            for store in (fields, old):
                theta = 2 * store["curve.theta"]  # modulo pi, as a pair
                store["curve.theta"] = np.stack([np.cos(theta), np.sin(theta)])
                tau = store.pop("curve.tau")
                store["curve.tau"] = np.where(noisy, 0.0, tau)
                if noisy.any():
                    store["curve.tau at theta flips"] = np.where(noisy, tau,
                                                                 0.0)
        for name in [*fields, *(n for n in old if n not in fields)]:
            row = rows.setdefault((mode, name), [0, 0, 0.0, 0, 0])
            row[0] += 1
            if name not in old:
                row[3] += 1
            elif name not in fields:
                row[4] += 1
            elif _same(fields[name], old[name]):
                row[1] += 1
            elif name == "text":
                row[2] += (_verdicts(str(fields[name]))
                           != _verdicts(str(old[name])))
            else:
                row[2] = max(row[2], _change(fields[name], old[name]))
    lines = [f"{'mode':16} {'field':34} {'bitwise':>9}  max scaled change"]
    for (mode, name), (n, same, change, added, removed) in rows.items():
        shown = ("added" if added == n else "removed" if removed == n
                 else f"{int(change)} verdicts" if name == "text"
                 else f"{change:.2g}")
        if 0 < added < n or 0 < removed < n:
            shown += f" ({added} added, {removed} removed)"
        lines.append(f"{mode:16} {name:34} {f'{same}/{n}':>9}  {shown}")
    checks = verify_checks()
    moved = 0
    for key, check in checks.items():
        was = float(saved.get(f"verify {key}", math.nan))
        if was.hex() == float(check.measured).hex():
            continue
        moved += 1
        margins = ""
        if getattr(check, "margin", None) is not None:
            before = dataclasses.replace(check, measured=was).margin
            margins = f", margin {before:.3g} -> {check.margin:.3g}"
        lines.append(f"  {key}: {was:.17g} -> {check.measured:.17g}"
                     f"{margins}")
    lines.insert(len(lines) - moved, f"verify: {len(checks) - moved} of "
                 f"{len(checks)} values bitwise")
    return "\n".join(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--passes", type=int, default=PASSES)
    parser.add_argument("--save", metavar="FILE",
                        help="write the outputs to FILE (.npz)")
    parser.add_argument("--against", metavar="FILE",
                        help="report drift against FILE's saved outputs")
    args = parser.parse_args(argv)
    if args.save:
        save(args.save, args.seed, args.passes)
    if args.against:
        print(drift_report(args.against, args.seed, args.passes))
    if args.save or args.against:
        return
    digest, n, nfev, steps, jets = trace_digest(args.seed, args.passes)
    print(f"traces  {digest}  ({n} curves, seed {args.seed}, "
          f"{args.passes} passes; {nfev} RHS calls, {jets} scalar jet calls, "
          f"{steps} accepted steps)")
    digest, n = verify_digest()
    print(f"verify  {digest}  ({n} values)")
    digest, n = charts_digest(args.seed)
    print(f"charts  {digest}  ({n} position-only charts, seed {args.seed})")
    digest, n, nfev, jets = umbilic_digest()
    print(f"umbilic {digest}  ({n} paraboloid runs; {nfev} RHS calls, "
          f"{jets} scalar jet calls)")


if __name__ == "__main__":
    main()
