"""Benchmark of surftrace: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload trace_mix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --self-test

Run from the root of a surftrace checkout; the library is imported from its
``src`` directory.  Every measurement runs in a fresh single-threaded
interpreter (``worker.py``) with BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics.  Set-up time is measured in
``SETUP_SAMPLES`` separate cold processes and reported as their median;
the timed passes run in one more process.

``--trace 1`` prints the per-layer metrics.  It runs the workload untraced,
then once more with spans and chart counters on the same inputs and the
same number of passes; the difference between the two is the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: cold set-up processes per untraced run (the measuring process is one more)
SETUP_SAMPLES = 4
#: wall-clock budget of one run, below the 180 s a run may take
RUN_BUDGET_S = {"trace_mix": 170.0, "analyze_mix": 170.0, "verify_all": 900.0}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args, deadline: float, trace: int, *extra: str) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON result and spawn time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--src", SRC, "--out", OUT, *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the run budget: {' '.join(extra)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), spawned


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _environment(result: dict) -> dict:
    return {**result["env"], "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), **{v: "1" for v in THREAD_VARS}}


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    raw_setups, setups = [], []
    for _ in range(SETUP_SAMPLES):
        res, spawned = _worker(args, deadline, 0, "--setup-only")
        raw_setups.append(res["ready"] - spawned)
        setups.append(raw_setups[-1] * res["setup_scale"])
    res, spawned = _worker(args, deadline, 0, "--seconds", str(args.seconds))
    raw_setups.append(res["ready"] - spawned)
    setups.append(raw_setups[-1] * res["setup_scale"])
    ops = [host for _stratum, _raw, host in res["ops"]]
    if len(ops) < 2:
        raise BenchError("fewer than two ops completed")
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "run_s": _metric(statistics.median(res["pass_times"]), "s"),
        "curve_p50_ms": _metric(1e3 * _percentile(ops, 50), "ms"),
        "curve_tail_ms": _metric(1e3 * _percentile(ops, res["tail_percentile"]), "ms"),
        "ok_frac": _metric(1.0 - res["failed"] / res["attempted"], "1"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }
    notes = {"passes": res["passes"], "ops_timed": len(ops),
             "curve_tail": f"p{res['tail_percentile']} of {len(ops)} ops",
             "wall_setup_s": statistics.median(raw_setups),
             "wall_run_s": statistics.median(res["raw_pass_times"]),
             "accuracy_margin": res["accuracy_margin"]}
    return res, {"metrics": metrics, "notes": notes}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    plain, _ = _worker(args, deadline, 0, "--seconds", str(args.seconds))
    traced, _ = _worker(args, deadline, 1, "--passes", str(plain["passes"]))
    traced["violations"] += plain["violations"]
    metrics = layers.layer_metrics(traced["spans"], traced["op_scales"],
                                   traced["passes"])
    metrics["bench.trace_overhead_frac"] = (
        sum(traced["pass_times"]) / sum(plain["pass_times"]) - 1.0, "1")
    metrics["accuracy_margin"] = (traced["accuracy_margin"], "1")
    metrics["failed_frac"] = (traced["failed"] / traced["attempted"], "1")
    metrics["core.fd_oracle_err"] = (traced["fd_oracle_err"], "1")
    out = {name: _metric(v, unit) for name, (v, unit) in sorted(metrics.items())}
    notes = {"passes": traced["passes"], "spans_file": traced["spans_file"]}
    return traced, {"metrics": out, "notes": notes}


def _report(args, res: dict, summary: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    for key, value in _environment(res).items():
        print(f"  env {key}: {value}")
    for key, value in summary["notes"].items():
        print(f"  {key}: {value}")
    for key, count in sorted(res["failures"].items()):
        print(f"  failed op {key} x{count}")
    for v in res["violations"]:
        print(f"  gate violated: {v}")
    for name, m in summary["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(RUN_BUDGET_S))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check the generators and the bound parser, then "
                        "run one verify_all pass")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "surftrace", "__init__.py")):
        print(f"no surftrace sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still reaps its worker in _worker's finally clause
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        # the generator checks import surftrace in this process
        os.environ.update({var: "1" for var in THREAD_VARS})
        sys.path.insert(0, SRC)
        import selftest
        return selftest.main(sys.modules[__name__])
    if args.workload is None:
        p.error("--workload is required")
    deadline = time.monotonic() + RUN_BUDGET_S[args.workload]
    try:
        if args.trace:
            res, summary = per_layer(args, deadline)
        else:
            res, summary = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _report(args, res, summary)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(res), **summary,
              "failures": res["failures"], "violations": res["violations"],
              "pass_times": res["pass_times"], "ops": res["ops"]}
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not res["violations"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
