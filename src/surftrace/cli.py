"""Command-line front end: trace curves, classify them, run the named
verification scenarios, and export CSV/OBJ data for external plotting.

Subcommands:

    trace     integrate a curve and write its samples as CSV
    classify  classify a traced curve (or a previously written CSV)
    verify    run verification scenarios (S1..S8, A1..A4, or 'all')
    export    write an OBJ mesh of a surface plus traced curves

Angles are radians everywhere; reports also print degrees.  ``--config``
reads a flat ``key = value`` file of `SETTINGS` and scenario overrides
``<id>.<key>`` (``s3.c = 3``); ``--tol-abs``, ``--tol-rel`` and ``--out``
beat the file.  Each setting is refused, before any subcommand runs, by
the module that owns its rule (`exporters` a file, `classify` a tolerance,
`scenarios.scenario_overrides` an override); this one refuses only a key
with no scenario id before its dot.  `main` prints every refusal, a
`GeometryError` or an `OSError`, as one ``error:`` line and returns 1.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import Optional, Sequence

from . import classify as cls
from .darboux import curve_scalars_from_trace
from .errors import (DegenerateParameterError, GeometryError,
                     InvalidRequestError)
from .exporters import (ensure_dir, parse_config, read_trace_csv,
                        write_obj, write_trace_csv)
from .gallery import CATALOGUE, make_surface
from .scenarios import (OVERRIDES, SCENARIOS, render_result, run_scenario,
                        scenario_overrides)
from .tracer import (DEFAULT_ATOL, DEFAULT_RTOL, GeodesicMode, IsogonalMode,
                     PseudoGeodesicMode, TraceRequest,
                     chart_to_principal_angle, trace)

#: the config keys besides the scenario overrides, each also a flag
SETTINGS = ("tol_abs", "tol_rel", "out_dir")


def _surface_from_args(args) -> "SurfaceDef":
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not _:
            raise InvalidRequestError(
                f"bad --param '{item}', expected name=value")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise DegenerateParameterError(
                f"--param {key.strip()}: '{value}' is not a number") from None
    return make_surface(args.surface, **params)


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got '{text}'")
    return float(parts[0]), float(parts[1])


def _build_request(args, surface) -> TraceRequest:
    if args.mode == "isogonal":
        if args.phi is None:
            raise InvalidRequestError("isogonal mode needs --phi")
        mode = IsogonalMode(_phi(args, surface))
    elif args.mode == "pseudo-geodesic":
        if args.theta is None:
            raise InvalidRequestError("pseudo-geodesic mode needs --theta")
        mode = PseudoGeodesicMode(args.theta, _direction(args, surface))
    else:  # geodesic: argparse restricts the choices
        mode = GeodesicMode(_direction(args, surface))
    return TraceRequest(surface, args.start, mode, s_span=tuple(args.s_span),
                        step=args.step, atol=args.atol, rtol=args.rtol)


def _direction(args, surface):
    if args.dir is not None:
        return tuple(args.dir)
    if args.phi is not None:
        return _phi(args, surface)
    raise InvalidRequestError(
        "geodesic/pseudo-geodesic mode needs --dir or --phi")


def _phi(args, surface) -> float:
    """--phi from E1, converted from the t-direction by --phi-frame chart."""
    if args.phi_frame == "chart":
        return chart_to_principal_angle(surface, args.start, args.phi)
    return args.phi


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface", required=True, choices=sorted(CATALOGUE),
                   help="gallery surface name")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="surface parameter, repeatable (e.g. --param r=2)")
    p.add_argument("--mode", default="isogonal",
                   choices=["isogonal", "pseudo-geodesic", "geodesic"])
    p.add_argument("--start", type=_pair, required=True, metavar="T,Z")
    p.add_argument("--phi", type=float, default=None,
                   help="tangent angle in radians")
    p.add_argument("--phi-frame", default="principal",
                   choices=["principal", "chart"],
                   help="frame the angle is measured in: from E1 "
                        "(principal) or from the t-coordinate direction")
    p.add_argument("--theta", type=float, default=None,
                   help="normal angle in radians (|theta| < pi/2)")
    p.add_argument("--dir", type=_pair, default=None, metavar="DT,DZ",
                   help="initial uv-velocity (normalized internally)")
    p.add_argument("--s-span", type=float, nargs=2, default=(-1.0, 1.0),
                   metavar=("S_MIN", "S_MAX"))
    p.add_argument("--step", type=float, default=2e-3)
    p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="surftrace", allow_abbrev=False,
        description="trace and classify special curves on surfaces")
    parser.add_argument("--config", default=None,
                        help="flat key = value config file")
    parser.add_argument("--out", dest="out_dir", default=None,
                        help="output directory (default .)")
    parser.add_argument("-v", action="store_true", help="debug log to stderr")
    parser.add_argument("--tol-abs", type=float, default=None,
                        help="classification absolute tolerance override")
    parser.add_argument("--tol-rel", type=float, default=None,
                        help="classification relative tolerance override")
    sub = parser.add_subparsers(dest="command")

    p_trace = sub.add_parser("trace", help="trace a curve and write CSV",
                             allow_abbrev=False)
    _add_trace_args(p_trace)
    p_trace.add_argument("--csv", default=None,
                         help="output CSV filename (default trace.csv)")

    p_cls = sub.add_parser("classify", allow_abbrev=False,
                           help="classify a trace (from args or a CSV)")
    _add_trace_args(p_cls)
    p_cls.add_argument("--csv", default=None,
                       help="classify this CSV instead of tracing "
                            "(--surface still selects the chart)")

    p_ver = sub.add_parser("verify", help="run verification scenarios",
                           allow_abbrev=False)
    p_ver.add_argument("scenario", nargs="?", default="all",
                       help="S1..S8, A1..A4 or 'all'")
    p_ver.add_argument("--json", action="store_true",
                       help="print one JSON document: each check's measured "
                            "value, op, limit, margin and verdict, and each "
                            "scenario's seconds (a curve several scenarios "
                            "read is traced, and timed, once)")

    p_exp = sub.add_parser("export", help="write an OBJ surface + curves",
                           allow_abbrev=False)
    _add_trace_args(p_exp)
    p_exp.add_argument("--obj", default=None,
                       help="output OBJ filename (default export.obj)")
    p_exp.add_argument("--grid", type=int, nargs=2, default=(50, 50),
                       metavar=("NT", "NZ"))
    p_exp.add_argument("--no-curve", action="store_true",
                       help="export the surface mesh only")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    log, handler = logging.getLogger("surftrace"), logging.StreamHandler()
    level = log.level
    if args.v:  # surftrace.* DEBUG records to stderr, for this call
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        # every setting is refused here, whichever command reads it
        settings = parse_config(args.config) if args.config else {}
        for key in settings:  # an <id>.<key> is scenario_overrides' to judge
            if (key not in SETTINGS
                    and key.partition(".")[0].upper() not in SCENARIOS):
                accepted = [*SETTINGS, *(f"{sid}.{k}" for sid, keys
                                         in OVERRIDES.items() for k in keys)]
                raise InvalidRequestError(f"config: unknown key '{key}' "
                                          f"(accepted: {', '.join(accepted)})")
        for key in SETTINGS:  # a flag beats the config
            if getattr(args, key) is not None:
                settings[key] = str(getattr(args, key))
        args.out_dir = settings.get("out_dir", ".")
        args.tol_abs, args.tol_rel = (
            cls.check_tolerance(key, settings.get(key, tol))
            for key, tol in (("tol_abs", cls.DEFAULT_ABS_TOL),
                             ("tol_rel", cls.DEFAULT_REL_TOL)))
        scenario_overrides(settings)
        run = {"trace": _cmd_trace, "classify": _cmd_classify,
               "verify": _cmd_verify, "export": _cmd_export}[args.command]
        return run(args, settings)
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _cmd_trace(args, settings) -> int:
    surface = _surface_from_args(args)
    tr = trace(_build_request(args, surface))
    cd = curve_scalars_from_trace(surface, tr)
    path = os.path.join(ensure_dir(args.out_dir), args.csv or "trace.csv")
    write_trace_csv(path, cd)
    branches = tr.stats.values()
    print(f"wrote {path} ({len(cd)} samples, exit: {tr.exit.kind}, "
          f"nfev {tr.nfev}, "
          f"steps {sum(b.steps for b in branches)} "
          f"(+{sum(b.rejected for b in branches)} rejected))")
    return 0


def _cmd_classify(args, settings) -> int:
    surface = _surface_from_args(args)
    if args.csv:
        cd = read_trace_csv(args.csv, surface)
    else:
        tr = trace(_build_request(args, surface))
        cd = curve_scalars_from_trace(surface, tr)
    report = cls.classify_curve_data(cd, args.tol_abs, args.tol_rel)
    sys.stdout.write(cls.render_report(report))
    return 0


def _cmd_verify(args, settings) -> int:
    given = [key for key in ("tol_abs", "tol_rel") if key in settings]
    if given:
        raise InvalidRequestError(
            f"{' and '.join(given)} apply to classify only; every verify "
            "check has its own fixed bound")
    which = args.scenario.lower()
    ids = list(SCENARIOS) if which == "all" else [which.upper()]
    all_ok, report = True, []
    for sid in ids:
        start = time.perf_counter()
        result = run_scenario(sid, settings)
        seconds = time.perf_counter() - start
        if args.json:
            report.append({
                "id": result.scenario_id, "title": result.title,
                "seconds": seconds, "passed": result.passed,
                "checks": [{"name": c.name, "measured": c.measured,
                            "op": c.op, "limit": c.limit,
                            "margin": c.margin, "passed": c.passed}
                           for c in result.checks]})
        else:
            print(render_result(result))
        all_ok &= result.passed
    if args.json:
        print(json.dumps({"passed": all_ok, "scenarios": report}, indent=1))
    else:
        print(f"verify: {'PASS' if all_ok else 'FAIL'} "
              f"({len(ids)} scenario{'s' if len(ids) != 1 else ''})")
    return 0 if all_ok else 1


def _cmd_export(args, settings) -> int:
    surface = _surface_from_args(args)
    curves = []
    if not args.no_curve:
        tr = trace(_build_request(args, surface))
        curves.append(curve_scalars_from_trace(surface, tr).pos)
    path = os.path.join(ensure_dir(args.out_dir), args.obj or "export.obj")
    write_obj(path, surface, curves, grid=tuple(args.grid))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
