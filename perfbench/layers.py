"""Per-layer metrics from the spans of a traced run.

Span names are ``<module>.<public function>``; the op spans that enclose
them are named ``op:<stratum>``.  Busy times and counts are per pass (the
run's total divided by its passes), so runs of different length compare.
Times are in reference-host seconds, scaled with the host factor of the op
that encloses the span (see reference.py).  A layer a workload never calls
reads 0.
"""
from __future__ import annotations

import statistics

EXIT_KINDS = ("completed", "hit_boundary", "hit_umbilic", "solver_failure")
LAYERS = ("tracer", "darboux", "classify", "intersect")


def layer_metrics(spans: list[dict], op_scales: dict[str, float],
                  passes: int) -> dict[str, tuple[float, str]]:
    """``{name: (value, unit)}`` for every per-layer metric of BENCHMARK.json,
    plus ``scenarios.<ID>.s`` and ``scenarios.<ID>.margin`` on verify_all."""
    lib = [sp for sp in spans if not sp["name"].startswith("op:")]

    def duration(sp) -> float:
        return (sp["end"] - sp["start"]) * op_scales[sp["op"]]

    def busy(group) -> float:
        return sum(duration(sp) for sp in group)

    def named(prefix):
        return [sp for sp in lib if sp["name"].startswith(prefix)]

    def per_pass(x):
        return x / passes

    out: dict[str, tuple[float, str]] = {}

    ps = named("core.point_shape")
    for key, group in (("core.point_shape_us",
                        [sp for sp in ps if sp["name"] == "core.point_shape"]),
                       ("core.point_shape_fd_us",
                        [sp for sp in ps if sp["name"] != "core.point_shape"])):
        calls = sum(sp.get("calls", 0) for sp in group)
        out[key] = (1e6 * busy(group) / calls if calls else 0.0, "us")

    out["gallery.jet_calls"] = (per_pass(sum(sp["chart_calls"] for sp in lib)),
                                "count")

    tr = named("tracer.")
    samples = sum(sp.get("samples", 0) for sp in tr)
    durations = [duration(sp) for sp in tr]
    out["tracer.busy_s"] = (per_pass(busy(tr)), "s")
    out["tracer.ms_per_curve_p50"] = (
        1e3 * statistics.median(durations) if durations else 0.0, "ms")
    out["tracer.jet_calls_per_sample"] = (
        sum(sp["chart_calls"] for sp in tr) / samples if samples else 0.0, "1")
    out["tracer.samples"] = (per_pass(samples), "count")
    for kind in EXIT_KINDS:
        n = sum(1 for sp in tr if sp.get("exit") == kind)
        out[f"tracer.exit.{kind}"] = (per_pass(n), "count")

    db = named("darboux.")
    db_samples = sum(sp.get("samples", 0) for sp in db)
    out["darboux.busy_s"] = (per_pass(busy(db)), "s")
    out["darboux.us_per_sample"] = (
        1e6 * busy(db) / db_samples if db_samples else 0.0, "us")

    cl = named("classify.classify_curve_data")
    out["classify.busy_s"] = (per_pass(busy(cl)), "s")
    out["classify.probe_busy_s"] = (
        per_pass(busy(named("classify.surface_class_probe"))), "s")

    out["intersect.busy_s"] = (per_pass(busy(named("intersect."))), "s")

    for layer in LAYERS:
        errors = sum(1 for sp in named(f"{layer}.") if sp["error"])
        out[f"{layer}.errors"] = (per_pass(errors), "count")

    for key, fn in (("csv_write_s", "write_trace_csv"),
                    ("csv_read_s", "read_trace_csv"),
                    ("obj_write_s", "write_obj")):
        out[f"exporters.{key}"] = (per_pass(busy(named(f"exporters.{fn}"))), "s")
    out["exporters.bytes_written"] = (
        per_pass(sum(sp.get("bytes", 0) for sp in named("exporters."))), "B")

    for sp in named("scenarios."):
        sid = sp["name"].split(".", 1)[1]
        out[f"scenarios.{sid}.s"] = (duration(sp), "s")
    for sp in spans:
        if sp["name"].startswith("op:scenario/"):
            sid = sp["name"].split("/", 1)[1]
            out[f"scenarios.{sid}.margin"] = (sp.get("margin", 0.0), "1")
    return out
