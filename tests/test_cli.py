import contextlib
import dataclasses
import io
import json
import logging
import os
import re
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from surftrace import (classify_curve_data, curve_scalars_from_trace,
                       exporters, make_enneper, make_plane)
from surftrace.cli import main
from surftrace.darboux import CurveData
from surftrace.errors import GeometryError, TooFewSamplesError
from surftrace.exporters import (CSV_COLUMNS, _first_bad_line, parse_config,
                                 read_trace_csv, write_obj, write_trace_csv)
from surftrace.scenarios import run_scenario
from surftrace.tracer import (GeodesicMode, IsogonalMode, TraceRequest,
                              chart_to_principal_angle, trace)

from conftest import assert_curve_data_equal, run_python


def test_trace_subcommand_writes_csv(tmp_path):
    rc = main(["--out", str(tmp_path), "trace", "--surface", "enneper",
               "--mode", "isogonal", "--phi", "0.5236", "--phi-frame", "chart",
               "--start", "0,1", "--s-span", "-0.3", "0.3"])
    assert rc == 0
    path = tmp_path / "trace.csv"
    text = path.read_text()
    assert text.splitlines()[0] == ("s,t,z,t_vel,z_vel,t_acc,z_acc,x,y,z_pos,"
                                    "kg,kn,taug,phi,theta,kappa,tau")
    assert "\r" not in text


def test_trace_reports_solver_stats(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "trace", "--surface", "enneper",
               "--mode", "geodesic", "--dir", "1,0.5", "--start", "0,0",
               "--s-span", "-0.3", "0.5"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    m = re.search(r"exit: completed, nfev (\d+), steps (\d+) "
                  r"\(\+(\d+) rejected\)\)$", line)
    assert m, line
    nfev, steps, rejected = map(int, m.groups())
    # one f(0) and probe for the trace; its trial step is the forward
    # branch's first step
    assert nfev == 2 + 6 * (steps + rejected)


def test_verbose_logs_early_branch_ends(tmp_path, capsys):
    # a boundary exit is a DEBUG record of surftrace.tracer: -v prints it
    # to stderr, and the handler is gone once main returns
    args = ["--out", str(tmp_path), "trace", "--surface", "enneper",
            "--phi", "0", "--start", "1.5,0", "--s-span", "-0.2", "30",
            "--step", "1e-2"]
    log = logging.getLogger("surftrace")
    handlers, level = list(log.handlers), log.level
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    assert main(["-v", *args]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fwd branch: hit_boundary at s = ")
    assert (log.handlers, log.level) == (handlers, level)
    assert main(args) == 0
    assert capsys.readouterr().err == ""


def test_verify_refuses_classify_tolerances(capsys):
    assert main(["--tol-abs", "1e-3", "verify", "S4"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "classify only" in err[0]


def test_trace_output_is_deterministic(tmp_path):
    args = ["trace", "--surface", "bonnet", "--param", "a=0.5",
            "--mode", "geodesic", "--dir", "0.7,0.4", "--start", "0.1,0.2",
            "--s-span", "-0.2", "0.2"]
    main(["--out", str(tmp_path), *args, "--csv", "a.csv"])
    main(["--out", str(tmp_path), *args, "--csv", "b.csv"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_roundtrip_reclassifies_identically(tmp_path):
    from test_tracer import _paraboloid
    enn, par = make_enneper(), _paraboloid()
    phi = chart_to_principal_angle(enn, (0.0, 1.0), np.pi / 6)
    # the paraboloid's E1 turns along the curve (F != 0, not CRPC): the
    # samples read back must measure phi from the E1 the trace did
    for req in (TraceRequest(enn, (0.0, 1.0), IsogonalMode(phi),
                             s_span=(-0.8, 0.8), step=2e-3, atol=1e-15,
                             rtol=1e-14),
                TraceRequest(par, (0.3, 0.5), IsogonalMode(-np.pi / 2),
                             s_span=(-1.2, 0.3))):
        surface = req.surface
        cd = curve_scalars_from_trace(surface, trace(req))
        rep1 = classify_curve_data(cd)
        path = str(tmp_path / "round.csv")
        write_trace_csv(path, cd)
        cd2 = read_trace_csv(path, surface)
        # the file keeps every float, and reading it back runs curve_scalars
        # on the same samples: the same data, so the same report
        assert_curve_data_equal(cd, cd2)
        rep2 = classify_curve_data(cd2)
        assert rep1.isogonal.is_constant == rep2.isogonal.is_constant
        assert rep1.isogonal.mean == rep2.isogonal.mean
        assert rep1.pseudo_geodesic.mean == rep2.pseudo_geodesic.mean
        assert rep1.pseudo_geodesic.max_dev == rep2.pseudo_geodesic.max_dev
        assert rep1.helix.is_helix == rep2.helix.is_helix
        assert rep1.helix.mn == rep2.helix.mn
        assert np.array_equal(rep1.helix.axis, rep2.helix.axis)
        assert rep1.crpc_along == rep2.crpc_along
        assert rep1.kntg_dep == rep2.kntg_dep
        for flag in ("geodesic", "line_of_curvature", "asymptotic", "planar"):
            assert getattr(rep1, flag) == getattr(rep2, flag)
        # the file keeps the uv jets, so every field reads back bit for bit
        for name in (field.name for field in dataclasses.fields(cd)):
            assert np.array_equal(getattr(cd, name), getattr(cd2, name),
                                  equal_nan=True), (surface.name, name)


def test_csv_roundtrip_with_undefined_phi(tmp_path):
    # totally umbilic chart: phi is NaN at every sample and must survive
    # the round trip as the umbilic marker
    from surftrace import curve_scalars, make_plane
    from test_darboux import plane_circle_samples
    plane = make_plane()
    cd = curve_scalars(plane, *plane_circle_samples(2.0, n=401))
    path = str(tmp_path / "umb.csv")
    write_trace_csv(path, cd)
    cd2 = read_trace_csv(path, plane)
    assert len(cd2.umbilic_idx) == len(cd2)
    rep = classify_curve_data(cd2)
    assert rep.isogonal is None
    assert rep.pseudo_geodesic.is_constant


def _fixture_curve():
    """An Enneper isogonal line with no umbilic sample: every field finite."""
    enn = make_enneper()
    tr = trace(TraceRequest(enn, (0.0, 1.0), IsogonalMode(0.5),
                            s_span=(-0.3, 0.3)))
    return enn, curve_scalars_from_trace(enn, tr)


def _columns(curve):
    """The (n, 17) table of CSV_COLUMNS that write_trace_csv writes."""
    return np.column_stack((curve.s, curve.uv, curve.uv_vel, curve.uv_acc,
                            curve.pos, curve.kg, curve.kn, curve.taug,
                            curve.phi, curve.theta, curve.kappa, curve.tau))


def test_csv_exact_columns_are_exact_and_display_columns_within_5e_14(
        tmp_path):
    enn, cd = _fixture_curve()
    path = tmp_path / "curve.csv"
    write_trace_csv(str(path), cd)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    table = _columns(cd)
    assert header == ",".join(CSV_COLUMNS) and len(lines) == len(table)
    assert np.isfinite(table).all()
    exact = CSV_COLUMNS.index("x")
    for line, values in zip(lines, table.tolist()):
        cells = line.split(",")
        for j, (text, value) in enumerate(zip(cells, values, strict=True)):
            if j < exact:
                assert float(text).hex() == value.hex(), (CSV_COLUMNS[j], text)
                continue
            assert text == "%.14g" % value, CSV_COLUMNS[j]
            gap = abs(Fraction(text) - Fraction(value))
            assert gap <= Fraction(5, 10 ** 14) * abs(Fraction(value)), text


def test_csv_in_the_all_17_digit_form_reads_bit_for_bit(tmp_path,
                                                        monkeypatch):
    # files written before the display columns took 14 digits still read,
    # to the same curve as the file written now
    enn, cd = _fixture_curve()
    path, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_trace_csv(str(path), cd)
    monkeypatch.setattr(exporters, "_ROW",
                        ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n")
    write_trace_csv(str(old), cd)
    assert old.read_bytes() != path.read_bytes()
    assert_curve_data_equal(cd, read_trace_csv(str(old), enn))
    assert_curve_data_equal(cd, read_trace_csv(str(path), enn))


def test_read_trace_csv_depends_only_on_the_exact_columns(tmp_path):
    # kg .. tau replaced by other numbers and x, y, z_pos moved by 1e-12,
    # inside the 1e-9 position check: every field still reads back bit for
    # bit, since the reader recomputes them from s .. z_acc
    enn, cd = _fixture_curve()
    table = _columns(cd)
    x, kg = CSV_COLUMNS.index("x"), CSV_COLUMNS.index("kg")
    table[:, x:kg] += 1e-12
    table[:, kg:] = np.random.default_rng(5).uniform(-3.0, 3.0,
                                                     table[:, kg:].shape)
    path = tmp_path / "edited.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in table.tolist()),
                    encoding="utf-8")
    assert_curve_data_equal(cd, read_trace_csv(str(path), enn))


def test_read_trace_csv_refuses_malformed_files(tmp_path):
    enn = make_enneper()
    tr = trace(TraceRequest(enn, (0.0, 1.0), GeodesicMode((1.0, 0.0)),
                            s_span=(-0.05, 0.05)))
    good = tmp_path / "good.csv"
    write_trace_csv(str(good), curve_scalars_from_trace(enn, tr))
    rows = [line.split(",") for line in good.read_text().splitlines()]
    # the older 13-column format without the uv jets, and a non-numeric cell
    old = [r[:3] + r[7:] for r in rows]
    text = [r[:1] + ["x"] + r[2:] if i == 3 else r for i, r in enumerate(rows)]
    for name, table in (("old.csv", old), ("text.csv", text)):
        path = tmp_path / name
        path.write_text("".join(",".join(r) + "\n" for r in table),
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(str(path), enn)
        assert str(path) in str(exc.value)
        assert ",".join(CSV_COLUMNS) in str(exc.value)
    # the header alone, with only empty rows under it, or four rows under
    # it: a short curve, not a bad file, and no warning on the way
    for n, empty in ((1, ""), (1, "\n"), (1, "\n\n\n"), (5, "\n")):
        path = tmp_path / "short.csv"
        path.write_text("".join(",".join(r) + "\n" for r in rows[:n]) + empty,
                        encoding="utf-8")
        with warnings.catch_warnings(), pytest.raises(TooFewSamplesError):
            warnings.simplefilter("error")
            read_trace_csv(str(path), enn)



def test_read_trace_csv_names_the_file_line_and_column(tmp_path):
    # the header is line 1: a bad cell on line 3 is named there, not by
    # np.loadtxt's data-row index (1) or count (2); so is a cell that
    # float() reads but np.loadtxt does not, and a row of spaces or a tab,
    # which np.loadtxt does not skip as it skips an empty row
    row = ",".join(["0.5"] * 17)
    text = ",".join(["0.5"] * 4 + ["abc"] + ["0.5"] * 12)
    under = ",".join(["0.5"] * 4 + ["1_0"] + ["0.5"] * 12)
    for bad, where in ((row + "\n" + text, "line 3, column 5:"),
                       (row + "\n" + row + "\n" + under, "line 4, column 5:"),
                       ("# a comment\n" + row, "line 2, column 1:"),
                       (row + "\n0.5,0.5", "line 3: 2 columns"),
                       (row + "\n\n  ", "line 4, column 1: '  '"),
                       ("\t\n" + row, r"line 2, column 1: '\\t'")):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + bad + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=where):
            read_trace_csv(str(path), make_enneper())


@pytest.mark.parametrize("cell", [
    "1_0", "1_000.5", "\u0661", "\uff11", "\u0661.5", " 1", "\u20001.5",
    "1.5\xa0", "-Infinity", "nan", "1e999"])
def test_bad_line_finder_refuses_what_loadtxt_refuses(cell):
    # float() reads every one of these cells; np.loadtxt takes no '_' and
    # no non-ASCII digit, and the finder must not pass a cell it refuses
    line = ",".join(["0.5"] * 4 + [cell] + ["0.5"] * 12) + "\n"
    try:
        np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
        refused = False
    except ValueError:
        refused = True
    assert (_first_bad_line([line]) is not None) == refused


def test_classify_subcommand(tmp_path, capsys):
    rc = main(["classify", "--surface", "cylinder", "--mode", "isogonal",
               "--phi", "0.6", "--start", "0,0.3", "--s-span", "-0.5", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "geodesic:           yes" in out
    assert "helix:              yes" in out


def test_large_helix_surfaces_are_not_umbilic(tmp_path, capsys):
    # umbilic is relative to the curvatures: a helix surface of any size
    # has kappa1 / kappa2 = 0 away from its rulings' edge, so it traces
    # isogonal lines and measures their angle
    assert main(["--out", str(tmp_path), "trace", "--surface",
                 "helix_surface", "--param", "r_beta=1e10", "--start", "0,0",
                 "--phi", "0.5"]) == 0
    assert "exit: completed" in capsys.readouterr().out
    assert main(["classify", "--surface", "helix_surface", "--param",
                 "r_beta=1e9", "--start", "0,0", "--mode", "geodesic",
                 "--dir", "1,0.3"]) == 0
    assert re.search(r"^isogonal: +yes \(", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("frame", ["principal", "chart"])
def test_geodesic_direction_from_an_angle(frame, tmp_path):
    # --phi sets a geodesic's start direction, from E1 or from the t
    # direction; a chart angle is the principal angle it converts to
    start = ["--out", str(tmp_path), "trace", "--surface", "enneper",
             "--start", "0.3,0.2", "--mode", "geodesic"]
    phi = 0.5
    if frame == "chart":
        phi = chart_to_principal_angle(make_enneper(), (0.3, 0.2), phi)
    assert main([*start, "--phi", "0.5", "--phi-frame", frame,
                 "--csv", "angle.csv"]) == 0
    assert main([*start, "--phi", repr(phi), "--csv", "principal.csv"]) == 0
    assert ((tmp_path / "angle.csv").read_bytes()
            == (tmp_path / "principal.csv").read_bytes())


# --dir values along 1,1 whose metric quadratic form once overflowed
# (|gamma'| = 0 at sample 0) or underflowed (a refused zero velocity)
SCALED_DIRS = ["1e160,1e160", "1e-170,1e-170", "3e-320,3e-320",
               "5e-324,5e-324"]


@pytest.mark.parametrize("mode", [["geodesic"],
                                  ["pseudo-geodesic", "--theta", "0.4"]],
                         ids=["geodesic", "pseudo-geodesic"])
@pytest.mark.parametrize("direction", SCALED_DIRS)
def test_a_direction_is_a_direction_at_any_scale(direction, mode, tmp_path):
    trace = ["--out", str(tmp_path), "trace", "--surface", "enneper",
             "--start", "0.3,0.2", "--mode", *mode]
    assert main([*trace, "--dir", "1,1", "--csv", "unit.csv"]) == 0
    assert main([*trace, "--dir", direction, "--csv", "scaled.csv"]) == 0
    assert ((tmp_path / "scaled.csv").read_bytes()
            == (tmp_path / "unit.csv").read_bytes())


def test_verify_subcommand_single(capsys):
    rc = main(["verify", "S3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[S3]" in out and "PASS" in out and "FAIL" not in out


def test_verify_unknown_scenario(capsys):
    assert main(["verify", "S99"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown scenario")
    assert "A4" in err[0]


# invalid inputs that once ended in a traceback or a hang
ENNEPER = ["--surface", "enneper", "--start", "0,1"]
PROBES = {
    "phi-nan": ["trace", *ENNEPER, "--phi", "nan"],
    "unknown-scenario": ["verify", "S9"],
    "step-zero": ["trace", *ENNEPER, "--phi", "0.5", "--step", "0"],
    "step-negative": ["trace", *ENNEPER, "--phi", "0.5", "--step", "-0.01"],
    "unknown-param": ["trace", *ENNEPER, "--param", "foo=1", "--phi", "0.5"],
    "missing-config": ["--config", "nonexistent.cfg", "verify", "S3"],
    "span-without-zero": ["trace", *ENNEPER, "--phi", "0.5",
                          "--s-span", "0.5", "1"],
    "dir-nan": ["trace", *ENNEPER, "--mode", "geodesic", "--dir", "nan,1"],
    "param-not-a-number": ["trace", *ENNEPER, "--param", "extent=abc",
                           "--phi", "0.5"],
    "missing-csv": ["classify", *ENNEPER, "--phi", "0.5",
                    "--csv", "missing.csv"],
    "dir-zero": ["trace", *ENNEPER, "--mode", "geodesic", "--dir", "0,0"],
    "crpc-negative-c": ["trace", "--surface", "crpc_revolution",
                        "--param", "c=-1", "--start", "0.5,0", "--phi", "0.5"],
    # t^c rounds to 1, so 1 - t^(2c) = 0 and the jet divides by it
    "crpc-c-1e-300": ["trace", "--surface", "crpc_revolution", "--param",
                      "c=1e-300", "--start", "0.5,0", "--phi", "0.3"],
    "param-without-value": ["trace", *ENNEPER, "--param", "foo",
                            "--phi", "0.5"],
    "isogonal-without-phi": ["trace", *ENNEPER],
    "geodesic-without-direction": ["trace", *ENNEPER, "--mode", "geodesic"],
    "pseudo-geodesic-without-theta": ["trace", *ENNEPER, "--mode",
                                      "pseudo-geodesic", "--dir", "1,0"],
    # the chart angle is converted from E1, which an umbilic lacks
    "chart-angle-at-umbilic": ["trace", "--surface", "sphere", "--start",
                               "0,0", "--phi", "0.5", "--phi-frame", "chart"],
    "override-not-a-number": ["--config", "probe.cfg", "verify", "S3"],
    "override-unknown": ["--config", "probe.cfg", "verify", "S3"],
    "override-eps": ["--config", "probe.cfg", "verify", "S3"],
    "verify-tol-flags": ["--tol-abs", "100", "--tol-rel", "100", "verify", "S4"],
    "verify-tol-config": ["--config", "probe.cfg", "verify", "S4"],
    # every point of a sphere is umbilic: no E1 for the isogonal angle
    "start-in-umbilic-gap": ["trace", "--surface", "sphere", "--start", "0,0",
                             "--phi", "0.5"],
    "csv-bad-header": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "csv-empty": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "csv-one-row": ["classify", *ENNEPER, "--csv", "probe.csv"],
    # the format defines no comments: a '#' line is not a row
    "csv-comment-line": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "csv-16-columns": ["classify", *ENNEPER, "--csv", "probe.csv"],
    # bytes that are not UTF-8 in a data row, and in a config value
    "csv-not-utf8": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "config-not-utf8": ["--config", "probe.cfg", "verify", "S3"],
    # a config line that is not 'key = value'
    "config-without-equals": ["--config", "probe.cfg", "verify", "S3"],
    # rows that are all empty read as the header alone, a row of spaces is
    # named; np.loadtxt once warned or named neither
    "csv-empty-row": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "csv-spaces-row": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "csv-wrong-surface": ["classify", "--surface", "catenoid", "--start",
                          "0,1", "--phi", "0.5", "--csv", "probe.csv"],
    # an Enneper trace CSV with one column edited (PROBE_EDITS)
    "csv-zero-step": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "csv-nan-velocity": ["classify", *ENNEPER, "--csv", "probe.csv"],
    "csv-nan-acceleration": ["classify", *ENNEPER, "--csv", "probe.csv"],
    # sample counts above stepper.MAX_SAMPLES, refused before allocation
    "step-1e-300": ["trace", *ENNEPER, "--phi", "0.5", "--step", "1e-300"],
    "step-1e-9": ["trace", *ENNEPER, "--phi", "0.5", "--step", "1e-9"],
    "grid-100000": ["export", *ENNEPER, "--phi", "0.5",
                    "--grid", "100000", "100000"],
    "atol-inf": ["trace", *ENNEPER, "--phi", "0.5", "--atol", "inf"],
    # classify tolerances are finite numbers >= 0
    "classify-tol-abs-nan": ["--tol-abs", "nan", "classify", *ENNEPER,
                             "--phi", "0.5"],
    "classify-tol-rel-negative": ["--tol-rel", "-1", "classify", *ENNEPER,
                                  "--phi", "0.5"],
    "classify-tol-config": ["--config", "probe.cfg", "classify", *ENNEPER,
                            "--phi", "0.5"],
    # settings are refused whichever command runs, not only by the one
    # that reads them
    "trace-tol-abs-nan": ["--tol-abs", "nan", "trace", "--surface",
                          "enneper", "--start", "0.3,0.2", "--phi", "0.5"],
    "export-tol-rel-config": ["--config", "probe.cfg", "export", *ENNEPER,
                              "--phi", "0.5"],
    "classify-override-not-a-number": ["--config", "probe.cfg", "classify",
                                       *ENNEPER, "--phi", "0.5"],
    # config keys that nothing reads once went unnoticed
    "config-unknown-tolerance": ["--config", "probe.cfg", "classify",
                                 *ENNEPER, "--phi", "0.5"],
    "config-unknown-scenario": ["--config", "probe.cfg", "verify", "S3"],
    "config-unknown-option": ["--config", "probe.cfg", "verify", "S3"],
    # surface parameters that are not finite once traced NaN positions
    "cylinder-r-inf": ["trace", "--surface", "cylinder", "--param", "r=inf",
                       "--start", "0,0", "--mode", "geodesic", "--dir", "1,0"],
    "sphere-r-inf": ["trace", "--surface", "sphere", "--param", "r=inf",
                     "--start", "0,0", "--mode", "geodesic", "--dir", "1,0"],
    "sphere-r-nan": ["trace", "--surface", "sphere", "--param", "r=nan",
                     "--start", "0,0", "--mode", "geodesic", "--dir", "1,0"],
    "helix-surface-r-beta-inf": ["trace", "--surface", "helix_surface",
                                 "--param", "r_beta=inf", "--start", "0,0",
                                 "--phi", "0.5"],
    "enneper-extent-inf": ["export", "--surface", "enneper", "--param",
                           "extent=inf", "--start", "0,1", "--phi", "0.5"],
    "enneper-extent-zero": ["export", "--surface", "enneper", "--param",
                            "extent=0", "--start", "0,0", "--phi", "0.5"],
    # finite lengths out of gallery.LENGTH_RANGE once overflowed the chart:
    # an OBJ of nan/inf vertices, and warnings before the error line
    "enneper-extent-1e200": ["export", "--surface", "enneper", "--param",
                             "extent=1e200", "--start", "0,1", "--phi", "0.5",
                             "--no-curve", "--grid", "3", "3"],
    "helix-surface-r-beta-1e-300": ["trace", "--surface", "helix_surface",
                                    "--param", "r_beta=1e-300", "--start",
                                    "0,0", "--phi", "0.5"],
    # kg = tan(theta) kn ~ 4.8e7 once spent both branches' RHS budgets
    "pseudo-geodesic-theta-near-pi-2": ["trace", "--surface", "enneper",
                                        "--start", "0,0.5", "--mode",
                                        "pseudo-geodesic", "--theta",
                                        "1.5707963", "--dir", "1,0"],
    # a NUL character in a path once escaped main as a bare ValueError
    "config-path-nul": ["--config", "x\0y", "verify", "S4"],
    "csv-path-nul": ["trace", *ENNEPER, "--phi", "0.5", "--csv", "x\0y.csv"],
    "obj-path-nul": ["export", *ENNEPER, "--phi", "0.5", "--obj", "x\0y.obj",
                     "--grid", "3", "3"],
}
# the config file each --config probe reads
PROBE_CONFIGS = {
    "override-not-a-number": "s3.c = abc\n",
    "override-unknown": "s3.cc = 5\n",
    "override-eps": "s3.eps = 1.7\n",
    "verify-tol-config": "tol_rel = 100\n",
    "classify-tol-config": "tol_abs = abc\n",
    "export-tol-rel-config": "tol_rel = -1\n",
    "classify-override-not-a-number": "s3.c = abc\n",
    "config-unknown-tolerance": "tol_ab = 100\n",
    "config-unknown-scenario": "s9.c = 1\n",
    "config-unknown-option": "surface = bonnet\n",
    "config-not-utf8": b"tol_abs = 1\xff\n",
    "config-without-equals": "tol_abs 1\n",
}
# the trace CSV each --csv probe reads; None: an Enneper trace
PROBE_CSVS = {
    "csv-bad-header": "a,b,c\n1,2,3\n",
    "csv-empty": "",
    "csv-one-row": "s,t,z,t_vel,z_vel,t_acc,z_acc,x,y,z_pos,kg,kn,taug,phi,"
                   "theta,kappa,tau\n" + ",".join(["0.5"] * 17) + "\n",
    "csv-comment-line": "s,t,z,t_vel,z_vel,t_acc,z_acc,x,y,z_pos,kg,kn,taug,"
                        "phi,theta,kappa,tau\n# a comment\n"
                        + ",".join(["0.5"] * 17) + "\n",
    "csv-empty-row": ",".join(CSV_COLUMNS) + "\n\n",
    "csv-spaces-row": ",".join(CSV_COLUMNS) + "\n  \n",
    "csv-16-columns": ",".join(CSV_COLUMNS) + "\n"
                      + (",".join(["0.5"] * 16) + "\n") * 2,
    "csv-not-utf8": (",".join(CSV_COLUMNS) + "\n" + ",".join(["0.5"] * 16)
                     + ",0.5\xff\n").encode("latin-1"),
    "csv-wrong-surface": None,
    "csv-zero-step": None,
    "csv-nan-velocity": None,
    "csv-nan-acceleration": None,
}
# (column, value, rows) set in the Enneper trace CSV a probe reads
PROBE_EDITS = {
    "csv-zero-step": ("s", "0", slice(None)),
    "csv-nan-velocity": ("t_vel", "nan", slice(5, 6)),
    "csv-nan-acceleration": ("t_acc", "nan", slice(5, 6)),
}
# what the error line of a probe must name
PROBE_NAMES = {"csv-comment-line": ("probe.csv", "not a trace CSV"),
               "csv-empty-row": ("need at least 5 samples",),
               "csv-spaces-row": ("probe.csv", "line 2, column 1: '  ' is "
                                  "not a number"),
               "pseudo-geodesic-theta-near-pi-2": ("9.55e+07 rad",),
               "csv-wrong-surface": ("probe.csv", "'catenoid'"),
               "csv-16-columns": ("probe.csv", "(16 columns)"),
               "csv-not-utf8": ("probe.csv", "not a trace CSV",
                                "can't decode byte 0xff"),
               "config-not-utf8": ("probe.cfg", "not UTF-8",
                                   "can't decode byte 0xff"),
               "config-without-equals": ("probe.cfg:1:", "'key = value'"),
               "override-unknown": ("bad scenario override s3.cc = 5",
                                    "accepted: c, eps, phi_chart"),
               "grid-100000": ("grid 100000 x 100000", "200000 points"),
               "csv-zero-step": ("h = 0.0",),
               "csv-nan-velocity": ("nan at sample 5",),
               "csv-nan-acceleration": ("sample 5",),
               "config-unknown-tolerance": ("'tol_ab'", "tol_abs", "s3.c"),
               "config-unknown-scenario": ("'s9.c'", "tol_abs", "s3.c"),
               "config-unknown-option": ("'surface'", "tol_abs", "s3.c"),
               "cylinder-r-inf": ("radius",),
               "sphere-r-inf": ("radius",),
               "sphere-r-nan": ("radius",),
               "helix-surface-r-beta-inf": ("r_beta",),
               "enneper-extent-inf": ("extent",),
               "enneper-extent-zero": ("extent",),
               "enneper-extent-1e200": ("extent",),
               "helix-surface-r-beta-1e-300": ("r_beta",),
               "trace-tol-abs-nan": ("tol_abs 'nan'",),
               "export-tol-rel-config": ("tol_rel '-1'",),
               "classify-override-not-a-number": ("s3.c = abc",),
               "config-path-nul": ("NUL character",),
               "csv-path-nul": ("NUL character",),
               "obj-path-nul": ("NUL character",)}


def _write_probe_inputs(probe, tmp_path):
    """The config file and trace CSV that ``probe`` reads, in tmp_path."""
    for name, table in (("probe.cfg", PROBE_CONFIGS),
                        ("probe.csv", PROBE_CSVS)):
        text = table.get(probe)
        if text is not None:  # bytes as they are, text as UTF-8
            (tmp_path / name).write_bytes(
                text if isinstance(text, bytes) else text.encode("utf-8"))
    if probe in PROBE_CSVS and PROBE_CSVS[probe] is None:
        assert main(["--out", str(tmp_path), "trace", *ENNEPER, "--phi",
                     "0.5", "--s-span", "-0.2", "0.2", "--csv",
                     "probe.csv"]) == 0
        if probe in PROBE_EDITS:
            column, value, rows = PROBE_EDITS[probe]
            path = tmp_path / "probe.csv"
            header, *lines = path.read_text(encoding="utf-8").splitlines()
            j = header.split(",").index(column)
            for i in range(len(lines))[rows]:
                cells = lines[i].split(",")
                cells[j] = value
                lines[i] = ",".join(cells)
            path.write_text("\n".join([header, *lines]) + "\n",
                            encoding="utf-8")


@pytest.mark.parametrize("probe", list(PROBES), ids=list(PROBES))
def test_invalid_input_fails_with_one_line(probe, tmp_path, monkeypatch,
                                           capsys):
    # in-process: any exception that escapes main fails the test, every
    # warning is an error, and a SystemExit code counts as the exit code
    _write_probe_inputs(probe, tmp_path)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(["--out", str(tmp_path), *PROBES[probe]])
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert code == 1, err
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert all(name in err[0] for name in PROBE_NAMES.get(probe, ())), err[0]
    assert not list(tmp_path.glob("*.obj"))


def test_refused_export_makes_no_output_directory(tmp_path, monkeypatch,
                                                 capsys):
    # the writer makes --out once it has checked the grid; the command line
    # once made it before the curve was traced
    monkeypatch.chdir(tmp_path)
    assert main(["--out", "gridout/new", *PROBES["grid-100000"]]) == 1
    assert capsys.readouterr().err.startswith("error: grid 100000")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("values", [
    ["--start", "-0.5,1", "--phi", "0.5"],
    ["--start", "0,1", "--phi", "-1e-3"],
    ["--start", "0,1", "--phi", "0.5", "--s-span", "-1e-3", "1"],
], ids=["start-pair", "phi-exponent", "s-span-exponent"])
def test_negative_values_are_values(values, tmp_path, monkeypatch, capsys):
    # argparse once read -0.5,1 and -1e-3 as options (exit 2); --s-span,
    # which takes two values, had no --opt=value way round it
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--surface", "enneper", *values]) == 0
    assert capsys.readouterr().out.startswith("wrote ./trace.csv")


def test_entry_point_fails_with_one_line(tmp_path):
    # the module entry point in a fresh interpreter: exit status 1 and one
    # error: line, with no traceback
    _write_probe_inputs("csv-nan-velocity", tmp_path)
    proc = run_python(["-m", "surftrace.cli", "--out", str(tmp_path),
                       *PROBES["csv-nan-velocity"]], cwd=tmp_path, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), proc.stderr
    assert PROBE_NAMES["csv-nan-velocity"][0] in err[0]


# config keys the settings property draws: the known settings and
# overrides (one in capitals), misspelt ones, an unknown scenario, an option
CONFIG_KEYS = ["tol_abs", "tol_rel", "out_dir", "s1.r_beta", "s3.c", "S3.C",
               "s6.extent", "tol_ab", "TOL_ABS", "s3.cc", "s3", "s9.c",
               "surface"]
NUMBERS = st.one_of(st.floats(), st.floats(allow_subnormal=True,
                                           min_value=-1e-307, max_value=1e-307),
                    st.sampled_from([1e308, -1e308, 5e-324]))
# no '/', '\\' or '.': an out_dir value stays below the working directory
CONFIG_VALUES = st.one_of(
    NUMBERS.map(repr), st.sampled_from(["nan", "inf", "-inf", "1e309", ""]),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="/\\."), max_size=6))


@settings(max_examples=60)
@given(lines=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES),
                      max_size=4),
       tol_abs=st.none() | NUMBERS, tol_rel=st.none() | NUMBERS)
@example(lines=[("s3.cc", "5")], tol_abs=None, tol_rel=None)
@example(lines=[("tol_ab", "100")], tol_abs=None, tol_rel=None)
@example(lines=[("tol_abs", "nan")], tol_abs=None, tol_rel=None)
@example(lines=[("out_dir", "a\0b")], tol_abs=None, tol_rel=None)
def test_any_settings_exit_0_or_fail_with_one_line(lines, tol_abs, tol_rel):
    # config lines and tolerance flags through main, in-process with every
    # warning an error: an export either runs or prints one error: line
    flags = [f"--{name}={value!r}" for name, value
             in (("tol-abs", tol_abs), ("tol-rel", tol_rel))
             if value is not None]
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("probe.cfg", "w", encoding="utf-8") as fh:
                fh.writelines(f"{key} = {value}\n" for key, value in lines)
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(["--config", "probe.cfg", *flags, "export",
                             "--surface", "plane", "--start", "0,0", "--phi",
                             "0", "--no-curve", "--grid", "3", "3"])
        finally:
            os.chdir(cwd)
    err = err.getvalue().splitlines()
    assert (code, err) == (0, []) or (
        code == 1 and len(err) == 1 and err[0].startswith("error:")), err


@pytest.mark.parametrize("flag_first", [True, False],
                         ids=["flag-first", "config-first"])
@pytest.mark.parametrize("key, option", [("tol_abs", "--tol-abs"),
                                         ("tol_rel", "--tol-rel"),
                                         ("out_dir", "--out")])
def test_a_flag_beats_the_config(key, option, flag_first, tmp_path,
                                 monkeypatch, capsys):
    # --out once lost to a config out_dir, while --tol-abs beat tol_abs
    config_value, flag_value = (("from_config", "from_flag")
                                if key == "out_dir" else ("0.5", "1e-3"))
    (tmp_path / "c.cfg").write_text(f"{key} = {config_value}\n",
                                    encoding="utf-8")
    config, flag = ["--config", "c.cfg"], [option, flag_value]
    command = ["trace" if key == "out_dir" else "classify", *ENNEPER,
               "--phi", "0.5", "--s-span", "-0.2", "0.2"]

    def run(*front):
        assert main([*front, *command]) == 0
        return capsys.readouterr().out

    monkeypatch.chdir(tmp_path)
    both = run(*(flag + config if flag_first else config + flag))
    assert both == run(*flag)
    if key == "out_dir":
        assert sorted(os.listdir()) == ["c.cfg", "from_flag"]
    else:
        assert both != run(*config)


def test_config_and_library_refuse_an_unknown_override_alike(tmp_path,
                                                             capsys):
    # scenarios.scenario_overrides alone decides which <id>.<key> exist;
    # the command line once refused s3.cc with a message of its own
    with pytest.raises(GeometryError) as exc:
        run_scenario("S3", {"s3.cc": "5"})
    (tmp_path / "c.cfg").write_text("s3.cc = 5\n", encoding="utf-8")
    assert main(["--config", str(tmp_path / "c.cfg"), "verify", "S3"]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("flag", [["--c", "1e-300"], ["--a", "5e-324"]],
                         ids=["c-not-csv", "a-not-atol"])
def test_abbreviated_options_are_refused(flag, tmp_path, monkeypatch, capsys):
    # prefix matching once read --c as --csv (writing a file named 1e-300)
    # and --a as --atol
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "trace", *ENNEPER, "--phi", "0.5",
              "--s-span", "-0.1", "0.1", *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert os.listdir(tmp_path) == []


def test_abbreviated_top_level_option_is_refused(tmp_path, monkeypatch):
    # --c once read as --config: a file named 1e-300 is not read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1e-300").write_text("s1.unknown = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--c", "1e-300", "verify", "S1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("rtol", [[], ["--rtol", "1e-300"]],
                         ids=["atol", "atol-and-rtol"])
def test_tiny_tolerances_trace_without_warnings(rtol, tmp_path):
    # atol 1e-300 underflows the initial step estimate to 0, and an rtol
    # below the stepper's 100 EPS floor is raised to that floor
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--out", str(tmp_path), "trace", "--surface", "enneper",
                     "--start", "0,0.5", "--phi", "0.3", "--atol", "1e-300",
                     *rtol]) == 0


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_no_subcommand_prints_help(capsys):
    rc = main([])
    assert rc == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_export_obj_structure(tmp_path):
    # surface mesh plus two origin geodesics with opposite slopes
    enn = make_enneper()
    curves = []
    for m in (0.5, -0.5):
        cosp = 1.0 / np.sqrt(1 + m * m)
        tr = trace(TraceRequest(enn, (0.0, 0.0), GeodesicMode((cosp, m * cosp)),
                                s_span=(-2.0, 2.0), step=1e-2, atol=1e-15,
                                rtol=1e-14))
        curves.append(curve_scalars_from_trace(enn, tr).pos)
    path = str(tmp_path / "figure.obj")
    write_obj(path, enn, curves, grid=(50, 50))
    lines = open(path).read().splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_f = sum(1 for ln in lines if ln.startswith("f "))
    n_l = sum(1 for ln in lines if ln.startswith("l "))
    assert n_v == 50 * 50 + sum(len(c) for c in curves)
    assert n_f == 2 * 49 * 49          # two triangles per grid quad
    assert n_l == 2                    # one polyline per curve
    # surface vertices come before curve vertices
    first_curve_obj = next(i for i, ln in enumerate(lines)
                           if ln.startswith("o curve"))
    assert all(not ln.startswith("l ") for ln in lines[:first_curve_obj])


def test_export_obj_exact_text(tmp_path):
    # a non-square (3, 2) grid on the plane, [-10, 10]^2, and one curve:
    # grid point (i, j) is vertex 1 + 2 i + j, and cell (i, j) is the two
    # triangles (a, b, c) and (a, c, d), its corners a = (i, j), b = (i + 1,
    # j), c = (i + 1, j + 1) and d = (i, j + 1)
    path = str(tmp_path / "small.obj")
    write_obj(path, make_plane(), [[(0.1, 0.25, 0.0), (1.5, -2.0, 0.0),
                                    (3.0, 1e-300, -0.0)]], grid=(3, 2))
    assert open(path, encoding="utf-8").read() == (
        "o plane\n"
        "v -10 -10 0\nv -10 10 0\nv 0 -10 0\nv 0 10 0\nv 10 -10 0\n"
        "v 10 10 0\n"
        "f 1 3 4\nf 1 4 2\nf 3 5 6\nf 3 6 4\n"
        "o curve_1\n"
        "v 0.1 0.25 0\nv 1.5 -2 0\n"
        "v 3 1e-300 -0\n"
        "l 7 8 9\n")


def test_export_obj_vertices_within_5e_14(tmp_path, monkeypatch):
    # the Enneper mesh and a traced curve at 14 significant digits: every
    # coordinate parses back within 5e-14 relative of its double, and every
    # other line reads as it does with 17 digits (exact doubles)
    enn = make_enneper()
    tr = trace(TraceRequest(enn, (0.0, 1.0), IsogonalMode(0.5),
                            s_span=(-1.0, 1.0)))
    curves = [curve_scalars_from_trace(enn, tr).pos]
    path, exact = tmp_path / "figure.obj", tmp_path / "exact.obj"
    write_obj(str(path), enn, curves, grid=(40, 30))
    monkeypatch.setattr(exporters, "_VERTEX", "v %.17g %.17g %.17g\n")
    write_obj(str(exact), enn, curves, grid=(40, 30))
    lines = path.read_text(encoding="utf-8").splitlines()
    exact_lines = exact.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(exact_lines) == (
        1 + 40 * 30 + 2 * 39 * 29 + 2 + len(curves[0]))
    vertices = 0
    for line, want in zip(lines, exact_lines):
        if not want.startswith("v "):
            assert line == want
            continue
        vertices += 1
        tag, *coords = line.split(" ")
        assert tag == "v" and len(coords) == 3, line
        for text, value in zip(coords, map(float, want.split(" ")[1:])):
            assert text == "%.14g" % value
            gap = abs(Fraction(text) - Fraction(value))
            assert gap <= Fraction(5, 10 ** 14) * abs(Fraction(value)), text
    assert vertices == 40 * 30 + len(curves[0])


def _traced_peak(write):
    """Peak bytes that tracemalloc sees while ``write()`` runs."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_memory_does_not_grow_with_the_file(tmp_path):
    # 20,001 samples make a 6.3 MB CSV, and a 150 x 150 Enneper mesh with a
    # 20,001-point curve a 3.2 MB OBJ; writers that format a whole table or
    # mesh at once peak at 14.9 and 13.3 MB there, and writers that format
    # 1,024 lines at a time at 1.2 and 0.4 MB
    n = 20001
    rng = np.random.default_rng(7)
    cols = {f.name: rng.standard_normal((n, 3) if f.name in (
        "pos", "T", "normal") else (n, 2) if f.name.startswith("uv")
        else n) for f in dataclasses.fields(CurveData)}
    cols["umbilic_idx"] = np.empty(0, dtype=int)
    curve = CurveData(**cols)
    path = tmp_path / "big.csv"
    peak = _traced_peak(lambda: write_trace_csv(str(path), curve))
    assert path.stat().st_size > 6_000_000
    assert peak < 2_000_000, peak
    path = tmp_path / "big.obj"
    peak = _traced_peak(lambda: write_obj(str(path), make_enneper(),
                                          [curve.pos], grid=(150, 150)))
    assert path.stat().st_size > 3_000_000
    assert peak < 2_000_000, peak


def test_export_refuses_empty_curve(tmp_path):
    path = str(tmp_path / "bad.obj")
    with pytest.raises(ValueError):
        write_obj(path, make_enneper(), [np.empty((0, 3))])
    assert not os.path.exists(path)


def test_export_subcommand(tmp_path):
    rc = main(["--out", str(tmp_path), "export", "--surface", "enneper",
               "--mode", "geodesic", "--dir", "1,0.5", "--start", "0,0",
               "--s-span", "-1", "1", "--grid", "12", "12",
               "--obj", "out.obj"])
    assert rc == 0
    assert (tmp_path / "out.obj").exists()


def test_parse_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# settings
tol_abs = 1e-7
s3.c = 3            # override
 spaced.key =  value with spaces
""", encoding="utf-8")
    out = parse_config(str(cfg))
    assert out == {"tol_abs": "1e-7", "s3.c": "3",
                   "spaced.key": "value with spaces"}


def test_parse_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a key value line\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config(str(cfg))


def test_config_feeds_scenario_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s3.phi_chart = 0.7853981633974483\n", encoding="utf-8")
    rc = main(["--config", str(cfg), "verify", "S3"])
    assert rc == 0


def test_verify_json_reports_every_check(capsys):
    assert main(["verify", "S3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    (s3,) = report["scenarios"]
    assert (s3["id"], s3["passed"]) == ("S3", True)
    assert s3["seconds"] > 0.0
    ops = set()
    for c in s3["checks"]:
        assert set(c) == {"name", "measured", "op", "limit", "margin",
                          "passed"}
        ops.add(c["op"])
        if c["op"] == "<":
            assert c["margin"] == abs(c["measured"]) / c["limit"]
        elif c["op"] is not None:
            assert c["margin"] == c["limit"] / c["measured"]
        else:
            assert c["limit"] is None and c["margin"] is None
    assert {"<", ">"} <= ops
