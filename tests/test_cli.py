import os

import numpy as np
import pytest

from surftrace import classify_curve_data, curve_scalars_from_trace, make_enneper
from surftrace.cli import main
from surftrace.exporters import (parse_config, read_trace_csv, write_obj,
                                 write_trace_csv)
from surftrace.scenarios import _geo, _iso_chart

from conftest import run_python


def test_trace_subcommand_writes_csv(tmp_path):
    rc = main(["--out", str(tmp_path), "trace", "--surface", "enneper",
               "--mode", "isogonal", "--phi", "0.5236", "--phi-frame", "chart",
               "--start", "0,1", "--s-span", "-0.3", "0.3"])
    assert rc == 0
    path = tmp_path / "trace.csv"
    text = path.read_text()
    assert text.splitlines()[0] == ("s,t,z,x,y,z_pos,kg,kn,taug,phi,theta,"
                                    "kappa,tau")
    assert "\r" not in text


def test_trace_output_is_deterministic(tmp_path):
    args = ["trace", "--surface", "bonnet", "--param", "a=0.5",
            "--mode", "geodesic", "--dir", "0.7,0.4", "--start", "0.1,0.2",
            "--s-span", "-0.2", "0.2"]
    main(["--out", str(tmp_path), *args, "--csv", "a.csv"])
    main(["--out", str(tmp_path), *args, "--csv", "b.csv"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_roundtrip_reclassifies_identically(tmp_path):
    enn = make_enneper()
    tr = _iso_chart(enn, (0.0, 1.0), np.pi / 6, (-0.8, 0.8))
    cd = curve_scalars_from_trace(enn, tr)
    rep1 = classify_curve_data(cd)
    path = str(tmp_path / "round.csv")
    write_trace_csv(path, cd)
    cd2 = read_trace_csv(path, enn)
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


def test_classify_subcommand(tmp_path, capsys):
    rc = main(["classify", "--surface", "cylinder", "--mode", "isogonal",
               "--phi", "0.6", "--start", "0,0.3", "--s-span", "-0.5", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "geodesic:           yes" in out
    assert "helix:              yes" in out


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
}


@pytest.mark.parametrize("argv", list(PROBES.values()), ids=list(PROBES))
def test_invalid_input_fails_with_one_line(argv, tmp_path):
    proc = run_python(["-m", "surftrace.cli", "--out", str(tmp_path), *argv],
                      cwd=tmp_path, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), proc.stderr


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
        tr = _geo(enn, (0.0, 0.0), (cosp, m * cosp), (-2.0, 2.0), step=1e-2)
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
