"""The scenario layer: table curves traced once, overrides, bound texts."""
import operator
import re

import pytest

from surftrace import scenarios, tracer


def _request_key(req):
    s = req.surface
    return (s.name, tuple(sorted(s.params.items())), req.start_uv, req.mode,
            req.s_span, req.step, req.atol, req.rtol, req.max_step)


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
