"""The scenario layer: table curves traced once, overrides, bound texts."""
import operator
import re

import pytest

from surftrace import classify as cls, scenarios, tracer


def _request_key(req):
    s = req.surface
    return (s.name, tuple(sorted(s.params.items())), req.start_uv, req.mode,
            req.s_span, req.step, req.atol, req.rtol)


@pytest.fixture
def traced_requests(monkeypatch):
    """Keys of the requests that reach the tracer while the test runs."""
    seen = []
    for name in ("trace_isogonal", "trace_pseudogeodesic"):
        def spy(req, _real=getattr(tracer, name)):
            seen.append(_request_key(req))
            return _real(req)
        monkeypatch.setattr(tracer, name, spy)
        # a scenario module that imported the entry point by name
        monkeypatch.setattr(scenarios, name, spy, raising=False)
    return seen


def test_scenarios_trace_no_table_curve_again(corpus, traced_requests):
    table = {_request_key(cc.trace.request) for cc in corpus
             if cc.trace is not None}
    for sid in ("S1", "S2", "S3", "S4", "S5", "S6", "S7"):
        scenarios.run_scenario(sid)
    assert traced_requests, "S7 traces curves of its own"
    assert table.isdisjoint(traced_requests)


def test_override_traces_a_new_curve(corpus, traced_requests):
    scenarios.run_scenario("S1", {"s1.r_beta": "1.5"})
    assert len(traced_requests) == 4
    assert all(dict(key[1])["r_beta"] == 1.5 for key in traced_requests)


_NUMERIC = re.compile(
    r"^(<=|>=|<|>)\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?:\s|$)")
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}


@pytest.mark.parametrize("sid", list(scenarios.SCENARIOS))
def test_numeric_bound_text_decides_passed(sid, scenario_results):
    numeric = [(c, _NUMERIC.match(c.bound))
               for c in scenario_results(sid).checks]
    numeric = [(c, m) for c, m in numeric if m]
    assert numeric
    for c, m in numeric:
        assert c.passed == _OPS[m.group(1)](c.measured, float(m.group(2))), c


@pytest.mark.parametrize("op, measured, limit, note, bound, passed, margin", [
    ("<", 2e-7, 1e-6, "", "< 1e-6", True, 0.2),
    ("<", 1e-6, 1e-6, "", "< 1e-6", False, 1.0),
    (">", 0.4, 0.05, "rad", "> 0.05 rad", True, 0.125),
    (">=", 20.0, 20.0, "curves", ">= 20 curves", True, 1.0),
    (">=", 0.0, 20.0, "curves", ">= 20 curves", False, float("inf")),
])
def test_numeric_check_keeps_its_op_limit_and_margin(op, measured, limit,
                                                     note, bound, passed,
                                                     margin):
    check = cls._bounded(op, "a check", measured, limit, note)
    assert (check.op, check.limit, check.bound) == (op, limit, bound)
    assert check.passed is passed
    assert check.margin == margin


def test_boolean_check_has_no_op_limit_or_margin():
    check = scenarios._holds("a flag", True)
    assert (check.passed, check.bound) == (True, "true")
    assert check.op is None and check.limit is None and check.margin is None


@pytest.mark.parametrize("sid", list(scenarios.SCENARIOS))
def test_op_and_limit_decide_passed(sid, scenario_results):
    for c in scenario_results(sid).checks:
        m = _NUMERIC.match(c.bound)
        if c.op is None:
            assert m is None and c.limit is None, c
            continue
        # the bound text is the op and limit it was written from
        assert (m.group(1), float(m.group(2))) == (c.op, c.limit), c
        assert c.passed == _OPS[c.op](c.measured, c.limit), c
        assert c.margin <= 1.0 if c.passed else c.margin >= 1.0, c
