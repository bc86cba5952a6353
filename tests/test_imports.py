"""scipy stays off the import path: only crpc positions load it."""
import textwrap

from conftest import run_python

SCIPY_LOADED = """
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))
"""


def run_script(body, tmp_path):
    proc = run_python(["-c", SCIPY_LOADED + textwrap.dedent(body)],
                      cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_and_cli_trace_load_no_scipy(tmp_path):
    run_script("""
        import surftrace
        assert not scipy_loaded(), scipy_loaded()[:5]
        from surftrace.cli import main
        assert not scipy_loaded(), scipy_loaded()[:5]
        rc = main(["--out", ".", "trace", "--surface", "enneper",
                   "--mode", "isogonal", "--phi", "0.5", "--start", "0,1",
                   "--s-span", "-0.2", "0.2"])
        assert rc == 0
        assert not scipy_loaded(), scipy_loaded()[:5]
    """, tmp_path)
    assert (tmp_path / "trace.csv").exists()


def test_crpc_position_imports_scipy_special_on_first_use(tmp_path):
    # the jet never evaluates the incomplete-beta height; positions do
    run_script("""
        import math
        from surftrace import make_crpc_revolution, point_metric
        surface = make_crpc_revolution()
        assert not scipy_loaded(), scipy_loaded()[:5]
        surface.jet(0.5, 0.3)
        point_metric(surface, 0.5, 0.3)
        assert not scipy_loaded(), scipy_loaded()[:5]
        position = surface.position(0.5, 0.3)
        assert "scipy.special" in scipy_loaded()
        assert all(math.isfinite(v) for v in position)
        assert position[2] < 0.0
    """, tmp_path)
