"""Command-line front end: trace curves, classify them, run the named
verification scenarios, and export CSV/OBJ data for external plotting.

Subcommands:

    trace     integrate a curve and write its samples as CSV
    classify  classify a traced curve (or a previously written CSV)
    verify    run verification scenarios (S1..S8, A1..A4, or 'all')
    export    write an OBJ mesh of a surface plus traced curves

Angles are radians everywhere; reports also print degrees.  ``--config``
reads a flat ``key = value`` file whose entries act as defaults for the
corresponding long options and as scenario parameter overrides
(e.g. ``s3.c = 3``).
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import classify as cls
from .darboux import curve_scalars_from_trace
from .errors import DegenerateParameterError, GeometryError
from .exporters import (ensure_dir, parse_config, read_trace_csv,
                        write_obj, write_trace_csv)
from .gallery import CATALOGUE, make_surface
from .scenarios import SCENARIOS, render_result, run_scenario
from .tracer import (GeodesicMode, IsogonalMode, PseudoGeodesicMode,
                     TraceRequest, chart_to_principal_angle, trace)


def _surface_from_args(args) -> "SurfaceDef":
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not _:
            raise SystemExit(f"bad --param '{item}', expected name=value")
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
    start = args.start
    if args.mode == "isogonal":
        if args.phi is None:
            raise SystemExit("isogonal mode needs --phi")
        phi = args.phi
        if args.phi_frame == "chart":
            phi = chart_to_principal_angle(surface, start, phi)
        mode = IsogonalMode(phi, args.speed)
    elif args.mode == "pseudo-geodesic":
        if args.theta is None:
            raise SystemExit("pseudo-geodesic mode needs --theta")
        mode = PseudoGeodesicMode(args.theta, _direction(args, surface))
    elif args.mode == "geodesic":
        mode = GeodesicMode(_direction(args, surface))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown mode {args.mode}")
    return TraceRequest(surface, start, mode, s_span=tuple(args.s_span),
                        step=args.step, atol=args.atol, rtol=args.rtol)


def _direction(args, surface):
    if args.dir is not None:
        return tuple(args.dir)
    if args.phi is not None:
        phi = args.phi
        if args.phi_frame == "chart":
            phi = chart_to_principal_angle(surface, args.start, phi)
        return phi
    raise SystemExit("geodesic/pseudo-geodesic mode needs --dir or --phi")


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
    p.add_argument("--speed", type=float, default=1.0)
    p.add_argument("--s-span", type=float, nargs=2, default=(-1.0, 1.0),
                   metavar=("S_MIN", "S_MAX"))
    p.add_argument("--step", type=float, default=2e-3)
    p.add_argument("--atol", type=float, default=1e-10)
    p.add_argument("--rtol", type=float, default=1e-9)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="surftrace",
        description="trace and classify special curves on surfaces")
    parser.add_argument("--config", default=None,
                        help="flat key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol-abs", type=float, default=None,
                        help="classification absolute tolerance override")
    parser.add_argument("--tol-rel", type=float, default=None,
                        help="classification relative tolerance override")
    sub = parser.add_subparsers(dest="command")

    p_trace = sub.add_parser("trace", help="trace a curve and write CSV")
    _add_trace_args(p_trace)
    p_trace.add_argument("--csv", default=None,
                         help="output CSV filename (default trace.csv)")

    p_cls = sub.add_parser("classify",
                           help="classify a trace (from args or a CSV)")
    _add_trace_args(p_cls)
    p_cls.add_argument("--csv", default=None,
                       help="classify this CSV instead of tracing "
                            "(--surface still selects the chart)")

    p_ver = sub.add_parser("verify", help="run verification scenarios")
    p_ver.add_argument("scenario", nargs="?", default="all",
                       help="S1..S8, A1..A4 or 'all'")

    p_exp = sub.add_parser("export", help="write an OBJ surface + curves")
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

    overrides: dict[str, str] = {}
    if args.config:
        try:
            overrides = parse_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return 1
    if args.tol_abs is not None:
        overrides["tol_abs"] = str(args.tol_abs)
    if args.tol_rel is not None:
        overrides["tol_rel"] = str(args.tol_rel)
    out_dir = overrides.get("out_dir", args.out)

    try:
        if args.command == "trace":
            return _cmd_trace(args, out_dir)
        if args.command == "classify":
            return _cmd_classify(args, overrides)
        if args.command == "verify":
            return _cmd_verify(args, overrides)
        if args.command == "export":
            return _cmd_export(args, out_dir)
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover


def _cmd_trace(args, out_dir: str) -> int:
    surface = _surface_from_args(args)
    tr = trace(_build_request(args, surface))
    cd = curve_scalars_from_trace(surface, tr)
    ensure_dir(out_dir)
    path = os.path.join(out_dir, args.csv or "trace.csv")
    write_trace_csv(path, cd)
    print(f"wrote {path} ({len(cd)} samples, exit: {tr.exit.kind})")
    return 0


def _cmd_classify(args, overrides) -> int:
    surface = _surface_from_args(args)
    abs_tol = float(overrides.get("tol_abs", cls.DEFAULT_ABS_TOL))
    rel_tol = float(overrides.get("tol_rel", cls.DEFAULT_REL_TOL))
    if args.csv:
        cd = read_trace_csv(args.csv, surface)
    else:
        tr = trace(_build_request(args, surface))
        cd = curve_scalars_from_trace(surface, tr)
    report = cls.classify_curve_data(cd, abs_tol, rel_tol)
    sys.stdout.write(cls.render_report(report))
    return 0


def _cmd_verify(args, overrides) -> int:
    which = args.scenario.lower()
    ids = list(SCENARIOS) if which == "all" else [which.upper()]
    all_ok = True
    for sid in ids:
        result = run_scenario(sid, overrides)
        print(render_result(result))
        all_ok &= result.passed
    print(f"verify: {'PASS' if all_ok else 'FAIL'} "
          f"({len(ids)} scenario{'s' if len(ids) != 1 else ''})")
    return 0 if all_ok else 1


def _cmd_export(args, out_dir: str) -> int:
    surface = _surface_from_args(args)
    curves = []
    if not args.no_curve:
        tr = trace(_build_request(args, surface))
        cd = curve_scalars_from_trace(surface, tr)
        curves.append(cd.pos)
    ensure_dir(out_dir)
    path = os.path.join(out_dir, args.obj or "export.obj")
    write_obj(path, surface, curves, grid=tuple(args.grid))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
