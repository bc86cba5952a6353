"""scipy stays off the import path and off every runtime call: no module of
the library imports it, and nothing it runs loads it."""
import ast
import textwrap

from conftest import ROOT, run_python

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


def test_crpc_positions_load_no_scipy(tmp_path):
    # the height is an incomplete beta function, summed with numpy alone
    run_script("""
        import math
        import numpy as np
        from surftrace import make_crpc_revolution, point_metric
        from surftrace.cli import main
        surface = make_crpc_revolution()
        surface.jet(0.5, 0.3)
        point_metric(surface, 0.5, 0.3)
        position = surface.position(0.5, 0.3)
        assert all(math.isfinite(v) for v in position)
        assert position[2] < 0.0
        positions = surface.position(np.linspace(0.1, 0.9, 9), np.zeros(9))
        assert np.isfinite(positions).all() and (positions[2] < 0.0).all()
        rc = main(["--out", ".", "trace", "--surface", "crpc_revolution",
                   "--start", "0.5,0", "--phi", "0.3"])
        assert rc == 0
        assert not scipy_loaded(), scipy_loaded()[:5]
    """, tmp_path)
    assert (tmp_path / "trace.csv").exists()


def test_no_module_imports_scipy():
    # also the paths no test runs: any import of scipy in the package source
    found = []
    for path in sorted((ROOT / "src" / "surftrace").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert not found, found
