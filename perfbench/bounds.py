"""Parse the free-text ``ScenarioCheck.bound`` strings of the scenario catalogue.

The catalogue writes a numeric bound as an operator and a number, optionally
followed by a note: ``< 1e-6``, ``<= v``, ``> 0.05``, ``>= 20 curves``,
``< 1e-8 (200 points)``.  A few checks are boolean (``true``, ``exact``,
``0 violations``, ``> tol``, ``<= tol``); they are gated on ``passed`` but
have no margin.  Any other text is an error, so a new bound form cannot
silently drop out of the accuracy margin.
"""
from __future__ import annotations

import math
import re

#: bound texts that carry no number: gated, but without a margin
BOOLEAN_FORMS = frozenset({"true", "exact", "0 violations", "> tol", "<= tol"})

_NUMERIC = re.compile(
    r"^(<=|>=|<|>)\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?:\s+\S.*)?$")


def parse_bound(text: str) -> tuple[str, float] | None:
    """``(op, value)`` for a numeric bound, None for a boolean form.

    Raises ValueError for any text that is neither.
    """
    form = text.strip()
    if form in BOOLEAN_FORMS:
        return None
    m = _NUMERIC.match(form)
    if m is None:
        raise ValueError(f"unparsed bound {text!r}")
    return m.group(1), float(m.group(2))


def margin(measured: float, op: str, value: float) -> float:
    """measured/bound for upper bounds, bound/measured for lower bounds.

    Below 1 the check passes with room to spare; 1 is the bound itself.
    """
    if op in ("<", "<="):
        return abs(measured) / value
    if measured <= 0.0:
        return math.inf
    return value / measured
