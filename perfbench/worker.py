"""One measuring process of the surftrace benchmark.

``run.py`` starts this script in a fresh interpreter for every measurement,
so imports and the library's memo caches are cold, as for a CLI user.  It
builds the workload (set-up), prints the monotonic time at which set-up
ended, and then runs closed-loop passes: one op at a time, each started
after the previous one finished.  The last line of stdout is a JSON result.

    python3 perfbench/worker.py --workload trace_mix --seed 1 --seconds 30 \
        --trace 0 --src src --out .perfbench_out

Op times are reported twice: as measured, and in reference-host seconds
(see reference.py).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

import numpy
import scipy
import surftrace

import workloads
from reference import host_scale, reference_loop
from spans import Recorder


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep starting passes until this much time has passed")
    p.add_argument("--passes", type=int, default=0,
                   help="run exactly this many passes instead")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--src", required=True,
                   help="directory the surftrace package must be imported from")
    p.add_argument("--out", required=True, help="directory for spans and scratch files")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.realpath(args.src)
    if not os.path.realpath(surftrace.__file__).startswith(src + os.sep):
        print(f"surftrace imported from {surftrace.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    wl = workloads.WORKLOADS[args.workload]
    rec = Recorder(bool(args.trace))
    surfaces = workloads.build_surfaces(rec)
    scratch = os.path.join(args.out, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        plan = wl.plan(surfaces, args.seed, 0)
        ops = workloads.build_ops(args.workload, surfaces, plan, scratch)
        ready = time.monotonic()
        setup_scale = host_scale([reference_loop() for _ in range(10)])
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
            return 0
        result = _run_passes(args, wl, rec, surfaces, scratch, ops)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result["ready"] = ready
    result["setup_scale"] = setup_scale
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "surftrace": surftrace.__version__}
    if rec.enabled:
        path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
        rec.write(path)
        result["spans_file"] = path
        result["spans"] = [sp.as_dict() for sp in rec.spans]
    print(json.dumps(result))
    return 0


def _run_passes(args, wl, rec, surfaces, scratch, ops) -> dict:
    ops_done: list[tuple[str, float, float]] = []   # stratum, raw s, host s
    pass_times: list[float] = []
    raw_pass_times: list[float] = []
    pass_margins: list[float] = []
    failures: dict[str, int] = {}
    violations: list[str] = []
    fd_errors: list[float] = []
    op_scales: dict[str, float] = {}
    attempted = failed = 0
    t_start = perf_counter()
    k = 0
    while True:
        if k > 0:
            plan = wl.plan(surfaces, args.seed, k)
            ops = workloads.build_ops(args.workload, surfaces, plan, scratch)
        busy: list[float] = []       # reference-host seconds
        raw_busy: list[float] = []   # measured seconds
        worst = 0.0
        for i, op in enumerate(ops):
            attempted += 1
            rec.op_id = f"{k}.{i}"
            ref = reference_loop()
            t0 = perf_counter()
            try:
                with rec.span(f"op:{op.stratum}") as op_span:
                    out = op.run(rec)
                dt = perf_counter() - t0
            except Exception as exc:  # a failing op is counted, not fatal
                dt = perf_counter() - t0
                out = exc
            # the loops just before and after the op bracket the host speed
            # the op ran at
            scale = host_scale([ref, reference_loop()])
            op_scales[rec.op_id] = scale
            busy.append(dt * scale)
            raw_busy.append(dt)
            if isinstance(out, Exception):
                failed += 1
                key = f"{op.stratum}: {type(out).__name__}"
                failures[key] = failures.get(key, 0) + 1
                continue
            ops_done.append((op.stratum, dt, dt * scale))
            try:
                checks = op.check(out)
            except Exception as exc:
                failed += 1
                key = f"{op.stratum}: check raised {type(exc).__name__}"
                failures[key] = failures.get(key, 0) + 1
                continue
            bad = [c.name for c in checks if c.gated and not c.passed]
            if bad:
                failed += 1
                violations.extend(f"{op.stratum} {rec.op_id}: {n}" for n in bad)
            margins = [c.margin for c in checks if c.margin is not None]
            if margins:
                worst = max(worst, max(margins))
                op_span.note(margin=max(margins))
            fd_errors += [c.value for c in checks if c.name == workloads.FD_ERROR]
        pass_times.append(sum(busy))
        raw_pass_times.append(sum(raw_busy))
        pass_margins.append(worst)
        k += 1
        if args.passes:
            if k >= args.passes:
                break
        elif k >= wl.min_passes and perf_counter() - t_start >= args.seconds:
            break
        if wl.max_passes is not None and k >= wl.max_passes:
            break
    # the op-latency tail: the highest percentile that keeps ten ops beyond
    # it at the workload's minimum number of passes
    tail = math.floor(100 * (1 - 10 / (wl.min_passes * len(ops))))
    return {"passes": k, "ops": ops_done, "tail_percentile": max(50, tail),
            "pass_times": pass_times, "raw_pass_times": raw_pass_times,
            "op_scales": op_scales,
            "attempted": attempted, "failed": failed,
            "failures": failures, "violations": violations,
            "accuracy_margin": statistics.median(pass_margins),
            "fd_oracle_err": max(fd_errors) if fd_errors else 0.0}


if __name__ == "__main__":
    sys.exit(main())
