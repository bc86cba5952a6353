"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them inline).

The criteria map onto the named scenarios (S1..S8) and suite checks
(A1..A4); each scenario runs once per session via the shared fixture.
"""

def _report(n: int, label: str, result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {n:02d} {status}: {label}")
    for c in result.checks:
        mark = "ok" if c.passed else "FAIL"
        print(f"    [{mark}] {c.name}: {c.measured:.6g} (bound {c.bound})")
    assert result.passed, f"criterion {n} failed: {label}"


def test_criterion_01_frame_identities(scenario_results):
    _report(1, "frame identities across the traced-curve corpus",
            scenario_results("A1"))


def test_criterion_02_oracle_curvatures(scenario_results):
    _report(2, "closed-form curvature oracles vs generic shape data",
            scenario_results("A2"))


def test_criterion_03_enneper_isogonal(scenario_results):
    _report(3, "Enneper isogonal: line preimage, tan(theta), helix",
            scenario_results("S2"))


def test_criterion_04_ruled_surface_and_cylinder(scenario_results):
    _report(4, "ruled-surface isogonals are pseudo-geodesic helices",
            scenario_results("S1"))
    _report(4, "cylinder isogonals additionally are geodesics",
            scenario_results("S5"))


def test_criterion_05_revolution_negative_case(scenario_results):
    _report(5, "revolution-surface isogonal is not pseudo-geodesic",
            scenario_results("S3"))


def test_criterion_06_bonnet_negative_case(scenario_results):
    _report(6, "Bonnet-surface isogonal is not pseudo-geodesic",
            scenario_results("S4"))


def test_criterion_07_geodesic_family(scenario_results):
    _report(7, "Enneper origin geodesics: cubic family and axis data",
            scenario_results("S6"))


def test_criterion_08_tracer_cross_validation(scenario_results):
    res = scenario_results("S7")
    names = ("pseudo-geodesic at theta = atan(-sqrt(3)) reproduces the isogonal",
             "geodesic equals catenoid meridian isogonal (phi = 0)",
             "unit-speed drift over pseudo-geodesic corpus")
    sub = [c for c in res.checks if c.name in names]
    assert len(sub) == 3
    ok = all(c.passed for c in sub)
    print(f"ACCEPTANCE 08 {'PASS' if ok else 'FAIL'}: tracer cross-validation")
    for c in sub:
        print(f"    [{'ok' if c.passed else 'FAIL'}] {c.name}: "
              f"{c.measured:.6g} (bound {c.bound})")
    assert ok


def test_criterion_09_flow_properties(scenario_results):
    res = scenario_results("S7")
    names = ("speed-2 flow equals reparametrized unit flow",
             "speed-1/2 flow equals reparametrized unit flow",
             "flow map fixes the base point at v = 0",
             "flow-map differential is the identity on enneper",
             "flow-map differential is the identity on helix_surface",
             "trace reproducibility across solver tolerances",
             "time reversal equals reflected negated-velocity trace")
    sub = [c for c in res.checks if c.name in names]
    assert len(sub) == 7
    ok = all(c.passed for c in sub)
    print(f"ACCEPTANCE 09 {'PASS' if ok else 'FAIL'}: isogonal-flow properties")
    for c in sub:
        print(f"    [{'ok' if c.passed else 'FAIL'}] {c.name}: "
              f"{c.measured:.6g} (bound {c.bound})")
    assert ok


def test_criterion_10_proposition_suite(scenario_results):
    _report(10, "curve-class cross-implications over the corpus",
            scenario_results("A3"))


def test_criterion_11_intersection_fixtures(scenario_results):
    _report(11, "two-surface fixtures: angle relation and transfer",
            scenario_results("S8"))


def test_criterion_12_algebraic_identities(scenario_results):
    _report(12, "pointwise algebraic identities with random coefficients",
            scenario_results("A4"))
