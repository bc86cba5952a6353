"""Self-test of the benchmark harness (``python3 perfbench/run.py --self-test``).

1. The seeded generators: one seed always yields identical inputs, and two
   seeds yield the same strata with the same sizes but other parameters, so
   a claim can be re-checked on a seed it was not tuned on.
2. The bound parser on every form the scenario catalogue writes.
3. The known defect that ``workloads.ISOGONAL_T_MIN`` keeps trace_mix
   clear of: reported as still present or as gone, never hidden.
4. One cold ``verify_all`` pass: every scenario must pass and every bound
   must parse, so the accuracy margin cannot silently lose a check.  This
   step takes as long as ``surftrace verify all``.
"""
from __future__ import annotations

import argparse
import math

import bounds

#: parameters that set an op's size; every other parameter is drawn
SIZE_KEYS = ("step", "grid")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _sizes(plan) -> list:
    out = []
    for stratum, params in plan:
        shape = {}
        for key, value in sorted(params.items()):
            if key in SIZE_KEYS:
                shape[key] = value
            elif key == "s_span":
                shape[key] = round(value[1] - value[0], 12)
            elif isinstance(value, list):
                shape[key] = len(value)
            else:
                shape[key] = "drawn"
        out.append((stratum, shape))
    return out


def check_generators() -> None:
    import workloads
    from spans import Recorder

    surfaces = workloads.build_surfaces(Recorder(False))
    for name in ("trace_mix", "analyze_mix"):
        plan = workloads.WORKLOADS[name].plan
        for k in (0, 1):
            a, again, b = (plan(surfaces, 7, k), plan(surfaces, 7, k),
                           plan(surfaces, 8, k))
            _expect(repr(a) == repr(again), f"{name}: seed 7 pass {k} not reproducible")
            _expect(_sizes(a) == _sizes(b), f"{name}: strata or sizes depend on the seed")
            _expect(repr(a) != repr(b), f"{name}: seeds 7 and 8 draw the same inputs")
        _expect(repr(plan(surfaces, 7, 0)) != repr(plan(surfaces, 7, 1)),
                f"{name}: passes repeat their inputs")
        print(f"ok  {name}: {len(plan(surfaces, 7, 0))} ops per pass, "
              "reproducible, seed-independent strata and sizes")


def check_bounds() -> None:
    cases = {
        "< 1e-6": ("<", 1e-6), "<= 2.5": ("<=", 2.5), "> 0.05": (">", 0.05),
        ">= 1.5": (">=", 1.5), ">= 20 curves": (">=", 20.0),
        "< 1e-8 (200 points)": ("<", 1e-8),
        "< 1e-10 (100 draws x 20 points)": ("<", 1e-10),
        "true": None, "exact": None, "0 violations": None, "> tol": None,
        "<= tol": None,
    }
    for text, want in cases.items():
        _expect(bounds.parse_bound(text) == want, text)
    for text in ("", "about 3", "< x1", "1e-6", "<"):
        try:
            bounds.parse_bound(text)
        except ValueError:
            continue
        raise AssertionError(f"{text!r} should not parse")
    _expect(bounds.margin(5e-7, "<", 1e-6) == 0.5, "upper-bound margin")
    _expect(bounds.margin(2.0, ">", 1.0) == 0.5, "lower-bound margin")
    _expect(bounds.margin(0.0, ">=", 1.0) == math.inf, "margin of a zero reading")
    print(f"ok  bound parser: {len(cases)} forms")


def check_known_defect() -> None:
    """A crpc_revolution isogonal on the full chart that winds to the axis."""
    import workloads
    from surftrace import classify, darboux, gallery, tracer
    from surftrace.errors import NonUnitSpeedError

    s = gallery.make_crpc_revolution()
    req = tracer.TraceRequest(s, (0.38, -5.77), tracer.IsogonalMode(-2.39),
                              s_span=(-0.5, 0.5), step=workloads.TRACE_STEP)
    tr = tracer.trace(req)
    cd = darboux.curve_scalars_from_trace(s, tr)
    try:
        classify.classify_curve_data(cd)
    except NonUnitSpeedError:
        print(f"ok  known defect still present: classify_curve_data raises "
              f"NonUnitSpeedError on a crpc_revolution isogonal that reaches "
              f"t = {tr.uv[:, 0].min():.3f}; trace_mix traces that stratum "
              f"on t >= {workloads.ISOGONAL_T_MIN['crpc_revolution']}")
        return
    print("note known defect gone: the crpc_revolution isogonal classifies; "
          "workloads.ISOGONAL_T_MIN can be removed")


def check_verify_pass(run) -> None:
    args = argparse.Namespace(workload="verify_all", seed=0, seconds=0.0, trace=0)
    res, summary = run.end_to_end(args, deadline=run.time.monotonic() + 900.0)
    _expect(not res["failures"], f"verify_all raised: {res['failures']}")
    _expect(not res["violations"], f"verify_all failed checks: {res['violations']}")
    print(f"ok  verify_all: {res['attempted']} scenarios pass, every bound "
          f"parses, accuracy margin {summary['notes']['accuracy_margin']:.3g}, "
          f"run {summary['metrics']['run_s']['value']:.1f} s "
          f"({summary['notes']['wall_run_s']:.1f} s wall)")


def main(run) -> int:
    try:
        check_generators()
        check_bounds()
        check_known_defect()
        check_verify_pass(run)
    except (AssertionError, run.BenchError) as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0
