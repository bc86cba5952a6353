"""The parity digests of tests/parity.py depend on nothing but the code."""
import parity


def test_trace_digest_is_the_same_on_two_calls():
    first = parity.trace_digest()
    assert first == parity.trace_digest()
    assert first[1] == 22 * parity.PASSES
