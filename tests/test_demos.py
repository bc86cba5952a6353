"""Every demo script runs to completion from an empty working directory."""
import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
